"""Shared builders for the test suite.

Most tests want a tiny grammar with hand-picked numbers; `feature`,
`production`, and `build` wrap the raw declaration types so those fit on
a few lines.  `random_psdg` produces small randomized grammars whose
exact joint fits comfortably inside the enumeration oracle, exercising
the structurally interesting shapes (tail recursion, a nonterminal used
twice in one right-hand side, state-dependent rules).
"""
from __future__ import annotations

import math
import random
from pathlib import Path

import psdg as _pkg
from psdg.errors import ExplosionBound, GrammarError
from psdg.grammar import (Psdg, RawCptRow, RawFeature, RawGrammar,
                          RawProduction, RawRule, StateSet, validate_grammar)
from psdg.infer import Observation, init_belief
from psdg.oracle import JointTable, enumerate_joint
from psdg.parse import load_file

TRAFFIC_PATH = Path(_pkg.__file__).parent / "data" / "traffic.psdg"


def feature(name, values, prior, parents=None, cpt=None) -> RawFeature:
    rows = None
    if cpt is not None:
        rows = [RawCptRow(list(pv), term, list(probs))
                for pv, term, probs in cpt]
    return RawFeature(name, list(values), list(prior),
                      None if parents is None else list(parents), rows)


def production(index, lhs, rhs, rules=(), default=1.0) -> RawProduction:
    built = [RawRule([(f, list(vals)) for f, vals in guard], value)
             for guard, value in rules]
    return RawProduction(index, lhs, list(rhs), built, default)


def build(features, productions, start) -> Psdg:
    """A validated grammar from raw declarations; raises GrammarError."""
    psdg, diags = validate_grammar(RawGrammar(features, productions, start))
    if psdg is None:
        raise GrammarError(diags)
    return psdg


def state_of(psdg: Psdg, mapping: dict[str, str]) -> tuple[int, ...]:
    """The one state that `mapping` names by a value label per feature."""
    states = list(StateSet.from_labels(psdg, mapping).iter_states())
    assert len(states) == 1, mapping
    return states[0]


def unit_feature() -> RawFeature:
    """A single one-valued feature: |Q| = 1."""
    return feature("u", ["z"], [1.0])


def single_production_grammar() -> Psdg:
    """S -> a over a single state."""
    return build([unit_feature()], [production(0, "S", ["a"])], "S")


def ab_grammar(pa=0.3) -> Psdg:
    """S -> a (pa) | b (1 - pa) over a single state."""
    return build(
        [unit_feature()],
        [production(0, "S", ["a"], default=pa),
         production(1, "S", ["b"], default=1.0 - pa)],
        "S")


def traffic() -> Psdg:
    return load_file(TRAFFIC_PATH)


def repeated_child_grammar() -> Psdg:
    """S -> A A with a shared child nonterminal; the two siblings'
    expansion choices are correlated through time, which is exactly what
    per-level marginals cannot carry on their own."""
    flip = feature("f", ["l", "r"], [0.5, 0.5], parents=["f"], cpt=[
        (["l"], "x", [0.8, 0.2]),
        (["l"], "y", [0.3, 0.7]),
        (["r"], "x", [0.6, 0.4]),
        (["r"], "y", [0.1, 0.9]),
    ])
    prods = [
        production(0, "S", ["A", "A"]),
        production(1, "A", ["x", "Y"],
                   rules=[([("f", ["l"])], 0.5)], default=0.4),
        production(2, "A", ["x"],
                   rules=[([("f", ["l"])], 0.5)], default=0.6),
        production(3, "Y", ["y"]),
    ]
    return build([flip], prods, "S")


def tail_recursive_grammar() -> Psdg:
    """T -> a T | B T | b with a state-dependent stop probability."""
    g = feature("g", ["go", "halt"], [0.7, 0.3], parents=["g"], cpt=[
        (["go"], "a", [0.6, 0.4]),
        (["go"], "*", [0.9, 0.1]),
        (["halt"], "*", [0.2, 0.8]),
    ])
    prods = [
        production(0, "T", ["a", "T"],
                   rules=[([("g", ["go"])], 0.8)], default=0.1),
        production(1, "T", ["B", "T"],
                   rules=[([("g", ["go"])], 0.1)], default=0.2),
        production(2, "T", ["b"],
                   rules=[([("g", ["go"])], 0.1)], default=0.7),
        production(3, "B", ["c", "c"]),
    ]
    return build([g], prods, "T")


def forcing_grammar() -> Psdg:
    """The bundled highway grammar's seven production shapes with a step
    counter that forces pass-on-the-left then exit: the sampled walk is
    Left, Right, Exit regardless of seed."""
    stepf = feature("step", ["s0", "s1", "s2plus"], [1.0, 0.0, 0.0],
                    parents=["step"], cpt=[
                        (["s0"], "*", [0.0, 1.0, 0.0]),
                        (["s1"], "*", [0.0, 0.0, 1.0]),
                        (["s2plus"], "*", [0.0, 0.0, 1.0]),
                    ])
    prods = [
        production(0, "Drive", ["Stay", "Drive"], default=0.0),
        production(1, "Drive", ["Left", "Drive"], default=0.0),
        production(2, "Drive", ["Right", "Drive"], default=0.0),
        production(3, "Drive", ["Pass", "Drive"],
                   rules=[([("step", ["s0"])], 1.0)], default=0.0),
        production(4, "Drive", ["Exit"],
                   rules=[([("step", ["s1", "s2plus"])], 1.0)], default=0.0),
        production(5, "Pass", ["Left", "Right"], default=1.0),
        production(6, "Pass", ["Right", "Left"], default=0.0),
    ]
    return build([stepf], prods, "Drive")


### Randomized grammars for the oracle-equivalence suites.


def _random_distribution(rng: random.Random, n: int,
                         sharp: bool = False) -> list[float]:
    if sharp and n > 1 and rng.random() < 0.6:
        probs = [0.0] * n
        probs[rng.randrange(n)] = 1.0
        return probs
    raw = [rng.random() + 0.05 for _ in range(n)]
    total = sum(raw)
    probs = [x / total for x in raw]
    probs[-1] = 1.0 - sum(probs[:-1])
    return probs


def random_psdg(seed: int) -> Psdg:
    """A small random grammar within |N| <= 4, |Q| <= 8, |P| <= 8,
    d <= 4, m <= 3.  Acyclicity comes from ordering the nonterminals and
    only allowing non-trailing references downward; a trailing lhs child
    (tail recursion) and a repeated child are forced in regularly so the
    suite keeps hitting those shapes.  Deterministic in `seed`."""
    rng = random.Random(seed)
    n_feat = rng.choice([1, 1, 2])
    n_nt = rng.randint(1, 4)
    nts = ["S", "A", "B", "C"][:n_nt]
    terms = ["x", "y", "z"][: rng.randint(2, 3)]

    force_tail = seed % 2 == 0
    force_repeat = seed % 3 == 0

    productions = []

    def guarded(index, lhs, rhs, weights_a, weights_b, j):
        """One production whose probability depends on feature f0."""
        return production(index, lhs, rhs,
                          rules=[([("f0", ["v0a"])], weights_a[j])],
                          default=weights_b[j])

    budget = 8
    for ni, nt in enumerate(nts):
        deeper = nts[ni + 1:]
        remaining_nts = len(nts) - ni - 1
        max_here = max(1, min(3, budget - remaining_nts))
        k = rng.randint(1, max_here)
        budget -= k
        rhss = []
        for j in range(k):
            m = rng.randint(1, 3)
            rhs = []
            for pos in range(m):
                pool = list(terms)
                if deeper and pos < m - 1:
                    pool += deeper
                rhs.append(rng.choice(pool))
            if deeper and rng.random() < 0.4:
                rhs[-1] = rng.choice(deeper)
            if rng.random() < (0.7 if force_tail else 0.3) and m >= 2:
                rhs[-1] = nt         # tail recursion
            rhss.append(rhs)
        if nt == "S" and force_repeat and deeper:
            child = deeper[0]
            rhss[0] = [child, child]
        if nt == "S" and force_tail and not any(r[-1] == nt and len(r) >= 2
                                                for r in rhss):
            rhss[-1] = [rng.choice(terms), nt]
        wa = _random_distribution(rng, k)
        wb = _random_distribution(rng, k)
        for j, rhs in enumerate(rhss):
            productions.append(guarded(len(productions), nt, rhs, wa, wb, j))

    # CPT rows may only condition on terminals the grammar really has,
    # i.e. right-hand-side symbols that are not nonterminals.
    used = {s for p in productions for s in p.rhs} - set(nts)
    used_terms = [t for t in terms if t in used]
    features = []
    for fi in range(n_feat):
        vals = [f"v{fi}a", f"v{fi}b"]
        prior = _random_distribution(rng, 2)
        rows = []
        for pv in vals:
            for term in used_terms:
                if rng.random() < 0.5:
                    continue            # fall through to the wildcard row
                rows.append(([pv], term, _random_distribution(rng, 2, True)))
            rows.append(([pv], "*", _random_distribution(rng, 2, True)))
        features.append(feature(f"f{fi}", vals, prior,
                                parents=[f"f{fi}"], cpt=rows))

    return build(features, productions, "S")


def sized_random_psdg(seed: int, horizon: int,
                      max_entries: int = 30_000) -> tuple[Psdg, JointTable]:
    """Retry `random_psdg` over a salted seed until the joint at
    `horizon` enumerates within `max_entries` table rows."""
    salt = 0
    while True:
        try:
            grammar = random_psdg(seed + 7919 * salt)
            joint = enumerate_joint(grammar, horizon, bound=40 * max_entries)
            if len(joint.entries) <= max_entries:
                return grammar, joint
        except ExplosionBound:
            pass
        salt += 1


def random_stream(psdg: Psdg, joint: JointTable, seed: int,
                  max_len: int = 5) -> list[Observation]:
    """A product-form observation stream with guaranteed positive mass:
    constraints are widened supersets of one positive-probability run's
    states.  May include a t=0 restriction and skipped times."""
    rng = random.Random(seed)
    entry = rng.choices(joint.entries,
                        weights=[e.prob for e in joint.entries])[0]
    traj = entry.trajectory

    def widen(idx_tuple):
        allowed = []
        for fi, f in enumerate(psdg.features):
            keep = {idx_tuple[fi]}
            while rng.random() < 0.4 and len(keep) < len(f.values):
                keep.add(rng.randrange(len(f.values)))
            allowed.append(frozenset(keep))
        from psdg.grammar import StateSet
        return StateSet(tuple(allowed))

    out = []
    if rng.random() < 0.3:
        out.append(Observation(0, widen(traj.initial_state.idx)))
    times = sorted(rng.sample(range(1, min(len(traj.steps), max_len) + 1),
                              rng.randint(1, min(len(traj.steps), max_len))))
    for t in times:
        out.append(Observation(t, widen(traj.steps[t - 1].state.idx)))
    if traj.complete and len(traj.steps) < max_len and rng.random() < 0.5:
        # Probe past the run's completion: the state is frozen there.
        t = rng.randint(len(traj.steps) + 1, max_len)
        if not out or t > out[-1].time:
            out.append(Observation(t, widen(traj.steps[-1].state.idx)))
    return out


# A traffic stream, (t, lane), with two contradictions: no lane change
# skips the center lane.
REINIT_CYCLE = [(0, "right-lane"), (1, "left-lane"), (2, "left-lane"),
                (3, "right-lane"), (4, "right-lane"), (5, "right-lane")]
RESTARTS = (1, 3)


def assert_evidence_restarts(reports):
    """(t, evidence likelihood, log evidence) of a REINIT_CYCLE run under
    reinit: each restart reports zero evidence, and log evidence then sums
    only what came after the last restart."""
    assert [t for t, _, _ in reports] == [t for t, _ in REINIT_CYCLE[1:]]
    running = 0.0
    for t, likelihood, log_evidence in reports:
        if t in RESTARTS:
            assert (likelihood, log_evidence) == (0.0, 0.0), t
            running = 0.0
        else:
            running += math.log(likelihood)
            assert log_evidence == running, t


def close(a: float, b: float, tol: float = 1e-9) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= tol


def unpruned(psdg, support_bound, restrict, time=1, reach=None):
    """init_belief without the first observation, as a `recognize` start:
    a belief over every initial state, as runs opened before pruning."""
    return init_belief(psdg, support_bound, restrict, time)
