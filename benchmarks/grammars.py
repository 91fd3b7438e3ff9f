"""Grammar text for the generated benchmark workloads.

Both generators are deterministic and take no seed: the grammar of a
workload is fixed, and only its observation streams depend on the
benchmark seed.  That keeps the work per observation comparable across
seeds, so run-to-run spread measures the program rather than the inputs.
"""
from __future__ import annotations

POS_VALUES = 32
SPEED_VALUES = 4
PROGRESS_VALUES = 4
MOVES = ("Left", "Right", "Accel", "Brake", "Cruise")


def _row(n: int, spread: dict[int, float]) -> str:
    """A distribution over range(n); mass aimed outside the range lands on
    the nearest end, so every row sums to one."""
    probs = [0.0] * n
    for v, p in spread.items():
        probs[min(max(v, 0), n - 1)] += p
    return ", ".join(f"{p:g}" for p in probs)


def _names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def factored_state_text() -> str:
    """512 joint states from three factored features.

    `pos` has one CPT row per value for `Left`, `Right` and `*`, so finding
    the row for a state walks two thirds of its 96 rows on average: this is
    the per-(q, x, q') cost that dense CPTs would remove.  `speed`
    follows `Accel`/`Brake`, and `progress` advances faster at higher speed.
    """
    pos = _names("p", POS_VALUES)
    speed = _names("s", SPEED_VALUES)
    progress = _names("g", PROGRESS_VALUES)
    out = [
        "feature pos {",
        f"  values: {', '.join(pos)};",
        f"  prior: {', '.join(['%.17g' % (1 / POS_VALUES)] * POS_VALUES)};",
        "  parents: pos;",
    ]
    # Rows are grouped by terminal, so the walk for (v, x) is 32·k + v rows
    # long for the k-th group: long everywhere, and not much longer at
    # high positions than at low ones.
    for terminal, shift in (("Left", -1), ("Right", 1)):
        for v, name in enumerate(pos):
            spread = {v + shift: 0.8, v: 0.15, v + 2 * shift: 0.05}
            out.append(f"  cpt: {name} | {terminal} -> "
                       f"{_row(POS_VALUES, spread)};")
    for v, name in enumerate(pos):
        out.append(f"  cpt: {name} | * -> "
                   f"{_row(POS_VALUES, {v: 0.8, v - 1: 0.1, v + 1: 0.1})};")
    out += [
        "}",
        "feature speed {",
        f"  values: {', '.join(speed)};",
        f"  prior: {', '.join(['0.25'] * SPEED_VALUES)};",
        "  parents: speed;",
    ]
    for v, name in enumerate(speed):
        out.append(f"  cpt: {name} | Accel -> "
                   f"{_row(SPEED_VALUES, {v + 1: 0.9, v: 0.1})};")
        out.append(f"  cpt: {name} | Brake -> "
                   f"{_row(SPEED_VALUES, {v - 1: 0.9, v: 0.1})};")
        out.append(f"  cpt: {name} | * -> "
                   f"{_row(SPEED_VALUES, {v: 0.9, v - 1: 0.05, v + 1: 0.05})};")
    out += [
        "}",
        "feature progress {",
        f"  values: {', '.join(progress)};",
        f"  prior: 1{', 0' * (PROGRESS_VALUES - 1)};",
        "  parents: progress, speed;",
    ]
    for g, gname in enumerate(progress):
        for s, sname in enumerate(speed):
            step = 0.05 + 0.1 * s
            out.append(f"  cpt: {gname}, {sname} | * -> "
                       f"{_row(PROGRESS_VALUES, {g: 1 - step, g + 1: step})};")
    out += ["}", "", "start Drive", ""]

    # Every production lists the same guards in the same order, so in any
    # state the same regime fires for all six and each regime's column of
    # probabilities sums to one.
    left_edge = "pos in {p0, p1, p2}"
    right_edge = "pos in {p29, p30, p31}"
    done = f"progress in {{{progress[-1]}}}"
    regimes = [
        (f"{done} & {left_edge}", (0.02, 0.30, 0.10, 0.18, 0.25, 0.15)),
        (f"{done} & {right_edge}", (0.30, 0.02, 0.10, 0.18, 0.25, 0.15)),
        (done, (0.15, 0.15, 0.10, 0.20, 0.25, 0.15)),
        (left_edge, (0.03, 0.40, 0.20, 0.12, 0.24, 0.01)),
        (right_edge, (0.40, 0.03, 0.20, 0.12, 0.24, 0.01)),
        (f"speed in {{{speed[-1]}}}", (0.22, 0.22, 0.05, 0.30, 0.20, 0.01)),
        (f"speed in {{{speed[0]}}}", (0.22, 0.22, 0.35, 0.05, 0.15, 0.01)),
        (None, (0.22, 0.22, 0.18, 0.15, 0.22, 0.01)),
    ]
    rhs = [f"{m} Drive" for m in MOVES] + ["Exit"]
    for a, body in enumerate(rhs):
        out.append(f"prod {a}: Drive -> {body} {{")
        for guard, probs in regimes:
            if guard is None:
                out.append(f"  default: {probs[a]:g};")
            else:
                out.append(f"  rule {guard} : {probs[a]:g};")
        out.append("}")
    return "\n".join(out) + "\n"


# deep-plans: nonterminal -> three right-hand sides.  `Plan` re-enters
# itself as its final symbol; `C -> D D` and `D -> E E` repeat a child.
DEEP_PRODUCTIONS = (
    ("Plan", ("B Plan", "B C Plan", "B")),
    ("B", ("C C", "C D C", "D")),
    ("C", ("D D", "D E D", "E D")),
    ("D", ("E E", "E x E", "y E")),
    ("E", ("x", "y x", "x y")),
)
# Probability of each right-hand side when mode is m1, and otherwise.
DEEP_PROBS = {
    "Plan": ((0.62, 0.35, 0.03), (0.52, 0.45, 0.03)),
    "B": ((0.40, 0.35, 0.25), (0.30, 0.30, 0.40)),
    "C": ((0.45, 0.25, 0.30), (0.30, 0.35, 0.35)),
    "D": ((0.40, 0.35, 0.25), (0.25, 0.40, 0.35)),
    "E": ((0.50, 0.30, 0.20), (0.30, 0.50, 0.20)),
}


def deep_plans_text() -> str:
    """Depth-5 plans over a single observed 2-value `mode` feature.

    The state carries little information, so many parses of the past stay
    alive at once: the chart of (state, branch) entries is large while the
    transition model is trivial.
    """
    out = [
        "feature mode {",
        "  values: m0, m1;",
        "  prior: 0.5, 0.5;",
        "  parents: mode;",
        "  cpt: * | x -> 0.75, 0.25;",
        "  cpt: * | y -> 0.25, 0.75;",
        "}",
        "",
        "start Plan",
        "",
    ]
    index = 0
    for lhs, bodies in DEEP_PRODUCTIONS:
        when_m1, otherwise = DEEP_PROBS[lhs]
        for body, p1, p0 in zip(bodies, when_m1, otherwise):
            out.append(f"prod {index}: {lhs} -> {body} {{ "
                       f"rule mode in {{m1}} : {p1:g}; default: {p0:g}; }}")
            index += 1
    return "\n".join(out) + "\n"
