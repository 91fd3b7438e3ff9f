"""Brute-force ground truth for small grammars.

Everything here trades efficiency for obvious correctness: the joint
distribution over parse prefixes and state sequences is walked by
exhaustive enumeration, one run at a time, and posteriors are sums over
the runs that pass the evidence.  Reference reports read the walk once
and keep no table; `enumerate_joint` collects it, and `reference_reports`
reads that table, for the benchmark's traced replay.  The recognition
engine is validated against these numbers.  The referees only tests use
(the run check, single posteriors, parse trees) are in `tests/referee.py`.

The module also builds the state-annotated context-free grammar that is
distribution-equivalent to a given state-dependent grammar over complete
parse trees: nonterminals become ⟨state-in, symbol, state-out⟩ tuples and
production probabilities become constants.
"""
from __future__ import annotations

import functools
import itertools
import math
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from .errors import ExplosionBound, ZeroEvidence
from .generate import (Stack, TimeStep, Trajectory, enumerate_chains,
                       stack_rule)
from .grammar import (Psdg, StatePoint, StateSet, _feature_transition,
                      enumerate_states, prior_probability,
                      production_probability)

if TYPE_CHECKING:
    import numpy as np

PCFG_BOUND = 10**7      # to_pcfg's cap on tuple symbols
PCFG_PRODUCTION_BOUND = 10**6   # and on the productions that hold its memory
# joint_runs' cap on walk nodes plus yielded rows: it bounds the walk's
# time, and the memory of a table collected from it (the traffic table at
# horizon 4, 183,982 rows, holds 330 bytes per row by tracemalloc).
DEFAULT_JOINT_BOUND = 2 * 10**6
# masses `_reports` holds per observation before it folds them (128 KB)
_MASS_CHUNK = 1 << 14


@dataclass(slots=True)
class JointEntry:
    trajectory: Trajectory
    prob: float
    log_prob: float


@dataclass
class JointTable:
    psdg: Psdg
    horizon: int
    entries: list[JointEntry]
    total_mass: float


def _transition_options(psdg: Psdg, prev: tuple[int, ...], terminal: str
                        ) -> Iterator[tuple[tuple[int, ...], float]]:
    """All next states with positive transition probability, with probs."""
    per_feature = []
    for fi in range(len(psdg.features)):
        row = _feature_transition(psdg, fi, prev, terminal)
        per_feature.append([(v, p) for v, p in enumerate(row) if p > 0.0])
    for combo in itertools.product(*per_feature):
        p = math.prod((f for _, f in combo), start=1.0)
        if p > 0.0:     # a product of positive entries can underflow to 0
            yield tuple(v for v, _ in combo), p


def joint_runs(psdg: Psdg, horizon: int, bound: int = DEFAULT_JOINT_BOUND,
               initial: Optional[StateSet] = None) -> Iterator[JointEntry]:
    """Every positive-probability execution of length <= horizon, one row
    at a time, depth first.

    Completion is absorbing: a run whose root terminates at t < horizon is
    yielded once, with length t.  Runs still alive at the horizon are
    yielded as length-horizon prefixes.  `initial` (a t=0 constraint)
    skips the initial states outside it.  Raises ExplosionBound when walk
    nodes plus yielded rows grow past `bound`.

    The walk meets the same (symbol, state) chains, stacks and (stack,
    state) time steps over and over; each is computed once per walk by a
    `functools.cache` function that dies with it, a stack's leaf, live
    levels and skeleton by `generate.stack_rule` itself.  Rows share
    their TimeStep and StatePoint objects.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")

    @functools.cache
    def time_steps(stack: Stack, q_prev: tuple[int, ...]) -> list:
        """(q, log tp, TimeStep) per next state after `stack` in q_prev."""
        terminal = stack_facts(stack)[0]
        return [(q, math.log(tp), TimeStep(stack, terminal, StatePoint(q)))
                for q, tp in _transition_options(psdg, q_prev, terminal)]

    @functools.cache
    def fresh_chains(symbol: Optional[str], q: tuple[int, ...]) -> list:
        """(chain, log cp) per fresh expansion of `symbol` in state q."""
        return [(chain, math.log(cp))
                for chain, cp in enumerate_chains(psdg, symbol, q)]

    stack_facts = functools.cache(functools.partial(stack_rule, psdg))

    def node(stack: Stack, q_prev: tuple[int, ...], logp: float, t: int):
        """One node of the walk: its rows, and a (time step, child
        arguments) pair per child node, in walk order."""
        _, live, skeleton = stack_facts(stack)
        for q, log_tp, step in time_steps(stack, q_prev):
            lp = logp + log_tp
            if not live or t == horizon:
                yield JointEntry(Trajectory(q0, (*run, step), not live),
                                 math.exp(lp), lp)
            else:
                kept, fresh_symbol = skeleton
                for chain, log_cp in fresh_chains(fresh_symbol, q):
                    yield step, (kept + chain, q, lp + log_cp, t + 1)

    # The walk keeps its own stack, one node per time step of the run, and
    # `run` holds the step into each open node but the root.  Each root,
    # and each row or child the walk reads, counts against the bound.
    run: list[TimeStep] = []
    count = 0
    for q0_idx in enumerate_states(psdg):
        p0 = prior_probability(psdg, q0_idx)
        if p0 <= 0.0 or (initial is not None and q0_idx not in initial):
            continue
        q0 = StatePoint(q0_idx)
        for chain, cp in enumerate_chains(psdg, psdg.start, q0_idx):
            count += 1
            todo = [node(chain, q0_idx, math.log(p0) + math.log(cp), 1)]
            while todo and count <= bound:
                for item in todo[-1]:
                    if (count := count + 1) > bound:
                        break
                    if type(item) is not JointEntry:
                        run.append(item[0])
                        todo.append(node(*item[1]))
                        break
                    yield item
                else:
                    todo.pop()
                    if todo:
                        run.pop()
            if count > bound:
                raise ExplosionBound(
                    f"joint enumeration exceeded {bound} nodes and rows at "
                    f"horizon {horizon}")


def enumerate_joint(psdg: Psdg, horizon: int,
                    bound: int = DEFAULT_JOINT_BOUND) -> JointTable:
    """The rows of `joint_runs` collected into a table, in walk order."""
    entries = list(joint_runs(psdg, horizon, bound))
    return JointTable(psdg, horizon, entries,
                      math.fsum(e.prob for e in entries))


### Reference step reports.


class _Slice:
    """Symbol/production/terminal sums of slice t over the rows handed to
    `add`, in the order they come, plus the completed mass."""

    def __init__(self, psdg: Psdg, t: int):
        self.psdg, self.t, self.completed = psdg, t, 0.0
        self.symbols, self.productions, self.terminal = {}, {}, {}
        # per stack: (symbol sums, lhs, production sums, "a:b") per level
        self.rows: dict[Stack, list] = {}

    def add(self, traj: Trajectory, p: float):
        if len(traj.steps) < self.t:
            self.completed += p     # only complete runs end before t
            return
        step = traj.steps[self.t - 1]
        levels = self.rows.get(step.stack)
        if levels is None:
            levels = self.rows[step.stack] = [
                (self.symbols.setdefault(level, {}),
                 self.psdg.production(a).lhs,
                 self.productions.setdefault(level, {}), f"{a}:{b}")
                for level, (a, b) in enumerate(step.stack, start=1)]
        for s, symbol, r, key in levels:
            s[symbol] = s.get(symbol, 0.0) + p
            r[key] = r.get(key, 0.0) + p
        self.terminal[step.terminal] = self.terminal.get(step.terminal, 0.0) + p

    def marginals(self, mass: float) -> dict:
        def norm(d):
            return {k: v / mass for k, v in d.items()}

        return {"symbols": {lvl: norm(d) for lvl, d in self.symbols.items()},
                "productions": {lvl: norm(d)
                                for lvl, d in self.productions.items()},
                "terminal": norm(self.terminal),
                "completed": self.completed / mass}


def _fold(masses: array) -> None:
    """Replace `masses` by the exact non-overlapping partials of its sum:
    fsum, then fsum of the residual, until a residual is 0.0.  fsum is
    correctly rounded, so a later fsum over the partials and more masses
    equals one over all the masses."""
    partials = array("d")
    while total := math.fsum(itertools.chain(masses, (-p for p in partials))):
        partials.append(total)
    masses[:] = partials


def _reports(psdg: Psdg, runs: Iterable[JointEntry], observations
             ) -> list[dict]:
    """Reference reports from one pass over `runs`.  A row adds to
    observation k's sums, in row order, only if it passes observations
    1..k; masses are summed by `fsum` at the end, and folded into their
    exact partials every `_MASS_CHUNK` rows.  Each observation tests and
    renders a state once: a dict maps it to its key, or to None.  Raises
    ZeroEvidence at the first observation that no run passes."""
    times = [obs.time for obs in observations]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("observation times must be strictly increasing")
    # per observation: t, constraint, keys, masses, state sums, slices
    sums = [(obs.time, obs.constraint, {}, array("d"), {},
             _Slice(psdg, obs.time), _Slice(psdg, obs.time + 1))
            for obs in observations]
    masses = array("d")
    chunk = _MASS_CHUNK
    for entry in runs:
        traj, p = entry.trajectory, entry.prob
        masses.append(p)
        if len(masses) >= chunk:
            _fold(masses)
            for obs in sums:
                _fold(obs[3])
        steps = traj.steps
        for t, constraint, keys, kept, state, explain, predict in sums:
            # Q^t, frozen after completion (state_at, inlined)
            q = (steps[min(t, len(steps)) - 1].state.idx if t
                 else traj.initial_state.idx)
            key = keys.get(q, False)
            if key is False:
                key = keys[q] = psdg.state_key(q) if q in constraint else None
            if key is None:
                break
            kept.append(p)
            if t:
                state[key] = state.get(key, 0.0) + p
                explain.add(traj, p)
                predict.add(traj, p)
    reports = []
    mass = base_mass = math.fsum(masses)
    for t, *_, kept, state, explain, predict in sums:
        new_mass = math.fsum(kept)
        if new_mass <= 0.0:
            raise ZeroEvidence(t)
        if t == 0:
            # a restriction of the initial state: rebases the evidence
            # chain instead of producing a report
            mass = base_mass = new_mass
            continue
        reports.append({
            "t": t,
            "evidence_likelihood": new_mass / mass,
            "log_evidence": math.log(new_mass) - math.log(base_mass),
            "state": {k: v / new_mass for k, v in state.items()},
            "explain": explain.marginals(new_mass),
            "predict": predict.marginals(new_mass),
        })
        mass = new_mass
    return reports


def reference_reports(psdg: Psdg, joint: JointTable, observations) -> list[dict]:
    """The exact step reports an ideal recognizer would emit.

    One dict per observation, same shape as the engine's report (slice
    marginals for the observed step, predictions for the next).  The table
    must reach one step past the last observation, its prediction slice.
    """
    if observations and observations[-1].time + 1 > joint.horizon:
        raise ValueError("joint horizon too small for prediction slices")
    return _reports(psdg, joint.entries, observations)


def streamed_reports(psdg: Psdg, observations,
                     bound: int = DEFAULT_JOINT_BOUND) -> list[dict]:
    """reference_reports with no table: `joint_runs` feeds the reducer up
    to the horizon the last prediction slice needs, and a leading t=0
    observation skips the initial states it excludes.  A contradiction
    raises ZeroEvidence at the same time as the engine does."""
    horizon = observations[-1].time + 1 if observations else 1
    initial = observations[0].constraint if observations and \
        observations[0].time == 0 else None
    return _reports(psdg, joint_runs(psdg, horizon, bound, initial),
                    observations)


def compare_reports(got: dict, want: dict, tol: float = 1e-9
                    ) -> tuple[float, list[str]]:
    """Max absolute deviation between two report dicts, with a note per
    deviation above tol in sorted `str` key order, depth first; missing
    keys count 0.  The walk keeps its own stack, next pair on top."""
    problems: list[str] = []
    worst = 0.0
    fields = ("evidence_likelihood", "log_evidence", "state", "explain",
              "predict")
    todo = [(got.get(f), want.get(f), f) for f in reversed(fields)]
    while todo:
        a, b, path = todo.pop()
        if isinstance(a, dict) or isinstance(b, dict):
            a, b = ({str(k): v for k, v in d.items()} if isinstance(d, dict)
                    else {} for d in (a, b))
            todo += [(a.get(key, 0.0), b.get(key, 0.0), f"{path}.{key}")
                     for key in sorted(a.keys() | b.keys(), reverse=True)]
            continue
        av = float(a) if isinstance(a, (int, float)) else math.nan
        bv = float(b) if isinstance(b, (int, float)) else math.nan
        dev = abs(av - bv)
        if not (dev <= tol):
            problems.append(f"{path}: {av!r} vs {bv!r}")
        worst = max(worst, dev if not math.isnan(dev) else math.inf)
    return worst, problems


### The state-annotated constant-probability grammar.


NT = "nt"
TERM = "t"


@dataclass(slots=True)
class PcfgProduction:
    origin: int                 # production index in the source grammar
    rhs: tuple[tuple, ...]
    prob: float


@dataclass
class Pcfg:
    psdg: Psdg
    start: dict[tuple, float]                       # ⟨q, S, q'⟩ -> weight
    productions: dict[tuple, list[PcfgProduction]]
    terminal_symbols: set[tuple]                    # ⟨q, x, q'⟩

    def nonterminal_count(self) -> int:
        return len(self.productions)

    def production_count(self) -> int:
        return sum(len(v) for v in self.productions.values())


def _completion_matrices(psdg: Psdg, states: list[tuple[int, ...]],
                         probs: dict[int, list[float]]
                         ) -> dict[str, np.ndarray]:
    """E_sym[i, j] = Pr(an expansion of sym begun in state i completes,
    leaving state j after its final terminal).  probs[a][i] is production
    a's probability in state i."""
    # Only the PCFG export needs numpy; importing it here, not at module
    # level, keeps it out of `psdg infer` and its collector's heap.
    import numpy as np
    n = len(states)
    pos = {q: i for i, q in enumerate(states)}
    mats: dict[str, np.ndarray] = {}
    for x in psdg.terminals:
        m = np.zeros((n, n))
        for i, q in enumerate(states):
            for nxt, p in _transition_options(psdg, q, x):
                m[i, pos[nxt]] = p
        mats[x] = m

    # X needs every rhs symbol but a trailing self-reference, and each of
    # those sits a level below every level of X, so deepest level first is
    # a dependency order.  Unreachable symbols have no levels and no caller.
    for sym in sorted((s for s in psdg.nonterminals if psdg.levels[s]),
                      key=lambda s: -psdg.levels[s][-1]):
        a_mat = np.zeros((n, n))
        b_mat = np.zeros((n, n))
        for a in psdg.by_lhs[sym]:
            prod = psdg.production(a)
            body = prod.rhs[:-1] if prod.tail_recursive else prod.rhs
            chain = np.eye(n)
            for y in body:
                chain = chain @ mats[y]
            contrib = np.array(probs[a])[:, None] * chain
            if prod.tail_recursive:
                b_mat += contrib
            else:
                a_mat += contrib
        if not a_mat.any():
            mats[sym] = np.zeros((n, n))
            continue
        try:
            mats[sym] = np.linalg.solve(np.eye(n) - b_mat, a_mat)
        except np.linalg.LinAlgError:
            # a recursion that completes with probability approaching zero;
            # fall back to the geometric series
            e = a_mat.copy()
            for _ in range(200000):
                nxt = a_mat + b_mat @ e
                if np.max(np.abs(nxt - e)) < 1e-16:
                    e = nxt
                    break
                e = nxt
            mats[sym] = e
    return mats


def to_pcfg(psdg: Psdg) -> Pcfg:
    """State-annotated constant-probability grammar over complete trees.

    Nonterminals are ⟨q_in, X, q_out⟩ tuples; a tuple production's
    probability is the source production's probability at q_in times the
    chance of exactly that intermediate state chain, normalized by the
    tuple's total completion mass.  Per-lhs probabilities then sum to 1,
    and a complete tree's probability (start weight times production
    probabilities) equals its probability under the source grammar.
    Start weights are unnormalized: their total is the probability that
    the root plan ever completes.  Raises ExplosionBound past PCFG_BOUND
    tuple symbols or PCFG_PRODUCTION_BOUND productions.

    Each production is evaluated once per state, and each completion
    matrix is read as plain-float rows with their (j, value) nonzeros.
    A tuple production's rhs grows as a list of (state, factor, rhs)
    prefixes: every symbol but the last extends each prefix over the
    nonzeros of its row, and the last is read at q_out.
    """
    states = enumerate_states(psdg)
    n = len(states)
    if len(psdg.nonterminals) * n * n > PCFG_BOUND:
        raise ExplosionBound(
            f"{len(psdg.nonterminals)} nonterminals over {n} states exceeds "
            f"bound {PCFG_BOUND}")
    pos = {q: i for i, q in enumerate(states)}
    probs = {prod.index: [production_probability(psdg, prod.index, q)
                          for q in states]
             for prod in psdg.productions if psdg.levels[prod.lhs]}
    mats = _completion_matrices(psdg, states, probs)
    rows = {y: m.tolist() for y, m in mats.items()}
    nonzero = {y: [[(j, v) for j, v in enumerate(row) if v > 0.0]
                   for row in r] for y, r in rows.items()}

    kind = {y: TERM if psdg.is_terminal(y) else NT for y in mats}
    # per symbol, per production: (a, its probabilities, (kind, y,
    # nonzeros) per body symbol, (kind, y, rows) of the last symbol)
    shapes = {sym: [] for sym in psdg.nonterminals if psdg.levels[sym]}
    for sym, shape in shapes.items():
        for a in psdg.by_lhs[sym]:
            *body, y = psdg.production(a).rhs
            shape.append((a, probs[a],
                          [(kind[b], b, nonzero[b]) for b in body],
                          (kind[y], y, rows[y])))

    start: dict[tuple, float] = {}
    for i, q0 in enumerate(states):
        p0 = prior_probability(psdg, q0)
        if p0 <= 0.0:
            continue
        for j, v in nonzero[psdg.start][i]:
            start[(NT, q0, psdg.start, states[j])] = p0 * v

    productions: dict[tuple, list[PcfgProduction]] = {}
    terminal_symbols: set[tuple] = set()
    pending = list(start)
    seen = set(pending)
    made = 0
    while pending:
        lhs = pending.pop()
        _, q_in, sym, q_out = lhs
        i_in, i_out = pos[q_in], pos[q_out]
        total = rows[sym][i_in][i_out]
        rules: list[PcfgProduction] = []
        for a, p_row, body, (k_last, y_last, last) in shapes[sym]:
            p = p_row[i_in]
            if p <= 0.0:
                continue
            prefixes = [(i_in, p, ())]
            for k, y, nz in body:
                prefixes = [(j, f * v, rhs + ((k, states[i], y, states[j]),))
                            for i, f, rhs in prefixes for j, v in nz[i]]
            for i, f, rhs in prefixes:
                # the last symbol must land exactly on q_out; f > 0 or it
                # underflowed to 0, so this drops v <= 0 too
                f *= last[i][i_out]
                if f > 0.0:
                    rules.append(PcfgProduction(
                        a, rhs + ((k_last, states[i], y_last, q_out),),
                        f / total))
        productions[lhs] = rules
        made += len(rules)
        if made > PCFG_PRODUCTION_BOUND:
            raise ExplosionBound(f"converted grammar exceeds bound "
                                 f"{PCFG_PRODUCTION_BOUND} on productions")
        for rule in rules:
            for child in rule.rhs:
                if child[0] == TERM:
                    terminal_symbols.add(child)
                elif child not in seen:
                    seen.add(child)
                    pending.append(child)
        if len(seen) + len(terminal_symbols) > PCFG_BOUND:
            raise ExplosionBound(
                f"converted grammar exceeds bound {PCFG_BOUND}")
    return Pcfg(psdg, start, productions, terminal_symbols)


def pcfg_text(pcfg: Pcfg) -> str:
    """Plain `lhs -> rhs  # prob` listing, start weights as comments.
    Each state and each tuple symbol is rendered once."""
    features = pcfg.psdg.features
    symbols = [*pcfg.productions, *pcfg.terminal_symbols]
    state = {q: ",".join(f.values[v] for f, v in zip(features, q))
             for q in {sym[i] for sym in symbols for i in (1, 3)}}
    name = {sym: f"<{state[sym[1]]}|{sym[2]}|{state[sym[3]]}>"
            for sym in symbols}
    lines = [f"# start {name[sym]}  # {pcfg.start[sym]:.12g}"
             for sym in sorted(pcfg.start, key=str)]
    for lhs in sorted(pcfg.productions, key=str):
        head = name[lhs] + " -> "
        lines += [f"{head}{' '.join(map(name.__getitem__, rule.rhs))}  "
                  f"# {rule.prob:.12g}" for rule in pcfg.productions[lhs]]
    lines += [f"{name[sym]} -> {sym[2]}  # 1"
              for sym in sorted(pcfg.terminal_symbols, key=str)]
    return "\n".join(lines) + "\n"
