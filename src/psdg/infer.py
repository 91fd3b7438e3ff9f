"""Online plan recognition from state observations.

The recognizer never sees the agent's plan choices, only constraints of
the form "the state after step t lay in the set R".  Each step runs three
phases: explain (condition on the new observation and answer posterior
queries about the step that just happened), predict (push the belief
through the deterministic advance rules and fresh production draws), and
update (install and check the predicted chart as the next belief).

The belief is a joint chart over (previous state, active branch), where a
branch is a generator stack (the (production, cursor) pairs from the root down
to the terminal leaf) that the chart keys by its branch-table entry, which
keeps its production key per level and how many levels stay live (from one
`generate.stack_rule` call per entry).  The published tables are exact
marginal projections of the chart, made on first read: symbol and terminal
derive from the keys, termination from the levels past the live ones.
Keeping the branch resolved is what makes the engine agree with brute-force
enumeration: per-level tables alone lose the correlation between a frame and
the depth below it, and repeated children (say S -> A A) then mix mass across
branches.  The projections stay within the documented size bound; the chart is
linear in the number of live branches.  An observation touches a branch only
through its state and emitted terminal, so each row is summed into (state,
terminal) groups as it is built, and explain reads those groups, not the
chart.  Rows are built one way, by spreading pooled mass over a skeleton's
moves (runs open through the root's; a skeleton with no fresh symbol has one
fixed successor), and shares that underflow stay out: masses are positive.

Completion is absorbing: once the root terminates, the final state is
frozen and later observations simply constrain that frozen value.
"""
from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import SupportTooLarge, ZeroEvidence
from .generate import Stack, enumerate_chains, stack_rule
from .grammar import Psdg, StateSet, prior_probability

DEFAULT_SUPPORT_BOUND = 100_000
SIZE_CONSTANT = 8       # public-table entries stay under 8·|R|·|P|·d·m
MASS_TOL = 1e-9         # how far a belief's sums may stray from one

State = tuple  # of value indices


@dataclass(frozen=True)
class Observation:
    """Evidence that the state after step `time` lies in `constraint`."""
    time: int
    constraint: StateSet

    @classmethod
    def vacuous(cls, psdg: Psdg, time: int) -> "Observation":
        return cls(time, StateSet.full(psdg))

    @classmethod
    def from_labels(cls, psdg: Psdg, time: int,
                    mapping: dict) -> "Observation":
        return cls(time, StateSet.from_labels(psdg, mapping))


@dataclass(frozen=True, eq=False, slots=True)
class BranchEntry:
    """What a branch does at every step, whatever the state.  The table
    holds one per branch, so entries hash and compare by identity."""
    leaf: str                       # the terminal it emits
    keys: tuple[int, ...]           # production key ids, one per level
    live: int                       # levels above the terminating suffix
    skeleton_id: int                # the table's id of its skeleton, or -1


class BranchTable:
    """The grammar's branch alphabet, filled lazily.

    `entries` maps each branch seen so far to its BranchEntry, derived by
    one `stack_rule` call when it is compiled, since a branch is a
    generator stack; validation bounds depth and rhs length, so it stays
    finite.  The call gives the entry's leaf, its `live` count (the levels
    past it terminate with the branch) and its skeleton: None once the root
    terminates, else (kept prefix, symbol needing a fresh chain or None).
    Skeleton 0 (`_ROOT`) is ((), start), which opens every run; each other
    skeleton gets the next id when its first entry is compiled:
    `skeletons[i]` is skeleton i.  With no fresh symbol, its one successor
    is the kept prefix at 1.0 in every state, `fixed[i]` once first used;
    else `moves[i]` maps a new state to the branches it leads to there.
    `chains` holds the fresh expansions of each (symbol, guard cell),
    which every state of the cell shares, as a (tails, probabilities) pair
    whose probability tuple every move into them shares.  An entry keeps
    its production key ids: key k stands for `slots[k]`, a (level, (a,
    b)) pair, and implies `implied[k]`, its lhs and the terminal under its
    cursor or None (only the deepest frame's cursor sits on one), so
    symbol and terminal tables derive from the keys.  Entries hold ids,
    never the move dicts, so the table has no reference cycle; it holds no
    reference to its grammar either, so the two die together by reference
    counting.
    """

    def __init__(self, psdg: Psdg):
        frames = [(lvl, p, b) for p in psdg.productions for lvl in
                  psdg.levels[p.lhs] for b in range(1, len(p.rhs) + 1)]
        self.slots = [(lvl, (p.index, b)) for lvl, p, b in frames]
        self.key_id = {slot: k for k, slot in enumerate(self.slots)}
        self.implied = [
            (p.lhs, p.rhs[b - 1] if psdg.is_terminal(p.rhs[b - 1]) else None)
            for _, p, b in frames]
        self.entries: dict[Stack, BranchEntry] = {}
        self.chains: dict[tuple[Optional[str], State],
                          tuple[tuple[Stack, ...], tuple[float, ...]]] = {}
        self.skeletons: list[tuple[Stack, Optional[str]]] = [((), psdg.start)]
        self.skeleton_ids: dict[tuple, int] = {self.skeletons[_ROOT]: _ROOT}
        self.moves: list[dict[State, tuple[tuple[BranchEntry, ...],
                                           tuple[float, ...]]]] = [{}]
        self.fixed: dict[int, BranchEntry] = {}

    def entry(self, psdg: Psdg, branch: Stack) -> BranchEntry:
        hit = self.entries.get(branch)
        if hit is not None:
            return hit
        leaf, live, skeleton = stack_rule(psdg, branch)
        sid = -1 if skeleton is None else self.skeleton_ids.get(skeleton)
        if sid is None:
            sid = self.skeleton_ids[skeleton] = len(self.skeletons)
            self.skeletons.append(skeleton)
            self.moves.append({})
        keys = tuple(map(self.key_id.__getitem__, enumerate(branch, 1)))
        hit = self.entries[branch] = BranchEntry(leaf, keys, live, sid)
        return hit

    def successors(self, psdg: Psdg, skeleton_id: int, state: State
                   ) -> tuple[tuple[BranchEntry, ...], tuple[float, ...]]:
        """Skeleton `skeleton_id`'s successor entries and their chain
        probabilities in new state `state`, compiled on a miss: the caller
        looks in `fixed` and `moves` first, and this stores them there."""
        kept, fresh_symbol = self.skeletons[skeleton_id]
        if fresh_symbol is None:
            hit = self.fixed[skeleton_id] = self.entry(psdg, kept)
            return (hit,), (1.0,)
        key = (fresh_symbol, psdg.guard_cell(state))
        chains = self.chains.get(key)
        if chains is None:
            found = enumerate_chains(psdg, fresh_symbol, state)
            chains = self.chains[key] = (
                tuple(chain for chain, _ in found),
                tuple(p for _, p in found))
        tails, probs = chains
        hit = self.moves[skeleton_id][state] = (
            tuple(self.entry(psdg, kept + tail) for tail in tails), probs)
        return hit


_ROOT = 0   # the id of skeleton ((), start), which every run opens through
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def branch_table(psdg: Psdg) -> BranchTable:
    """The grammar's branch table, made on first use and dropped with the
    grammar."""
    table = _TABLES.get(psdg)
    if table is None:
        table = _TABLES[psdg] = BranchTable(psdg)
    return table


class _Groups:
    """The one accumulator behind the report marginals: a chart summed
    once, row by row in chart order, into (state, terminal) groups.  Group
    g has state `states[g]`, terminal `leaves[g]`, positive mass `masses[g]`
    and key k's sum at g·|slots| + k of the dense list `acc` (|groups|·
    |slots| floats), whose ids `touched` lists in first-touch order."""

    def __init__(self, table: BranchTable, chart):
        self.slots, self.implied, self.acc = table.slots, table.implied, []
        self.states, self.leaves, self.masses, self.touched = [], [], [], []
        self.zeros = [0.0] * len(self.slots)   # each new group's sums
        for q, row in chart.items():
            self.add(q, row)

    def add(self, q: State, row: dict[BranchEntry, float]):
        """Sum the chart row of state q into its groups."""
        n, acc, masses, by_leaf = len(self.slots), self.acc, self.masses, {}
        for entry, mass in row.items():
            g = by_leaf.get(entry.leaf)
            if g is None:
                g = by_leaf[entry.leaf] = len(masses)
                self.states.append(q)
                self.leaves.append(entry.leaf)
                masses.append(0.0)
                acc.extend(self.zeros)
            masses[g] += mass
            base = g * n
            for k in entry.keys:
                k += base
                if not acc[k]:
                    self.touched.append(k)
                acc[k] += mass

    def marginals(self, scales: Optional[list] = None
                  ) -> tuple[dict, dict, dict]:
        """Symbols, productions and terminal of the groups' production
        sums times their scales (default 1.0), less sums scaled to zero; a
        symbol or terminal sums what implies it."""
        n, acc, totals = len(self.slots), self.acc, {}
        for i in self.touched:
            s = acc[i]
            if scales is not None:
                s *= scales[i // n]
                if not s > 0.0:
                    continue
            totals[i % n] = totals.get(i % n, 0.0) + s
        symbols, productions, terminal = {}, {}, {}
        for k, v in totals.items():
            (level, rho), (symbol, leaf) = self.slots[k], self.implied[k]
            for out, key in ((productions.setdefault(level, {}), rho),
                             (symbols.setdefault(level, {}), symbol),
                             (terminal, leaf)):
                if key is not None:
                    out[key] = out.get(key, 0.0) + v
        return symbols, productions, terminal


def _report_block(symbols, productions, terminal, completed) -> dict:
    """A report's `explain` or `predict` block, in its JSON shape."""
    return {"symbols": symbols,
            "productions": {lvl: {f"{a}:{b}": p for (a, b), p in row.items()}
                            for lvl, row in productions.items()},
            "terminal": terminal,
            "completed": completed}


_PUBLISHED = ("b_q", "b_n", "b_p", "b_sigma", "b_t", "b_tn",
              "completed_given_q")     # BeliefState's projected tables


@dataclass
class BeliefState:
    """Everything the recognizer knows, after conditioning on all
    observations before `time`.

    The chart maps (state q, branch entry) to Pr(Q^{time-1}=q, branch
    active at slice `time`); `completed` holds the mass of runs whose root
    already terminated, keyed by their frozen state; `dropped`, by those
    init_belief left out; `groups` is the chart summed as it was built.
    The first read of a published table projects the chart onto all
    seven: b_q sums to one less `dropped`; b_n (ℓ, X, q), b_p (ℓ, (a,b),
    q), b_sigma (x, q), b_t (ℓ, q), b_tn (ℓ, X, q) and completed_given_q
    are conditioned on their state.  Building a belief checks it: its
    states, live or completed, must fit `support_bound` (else
    SupportTooLarge), and its chart must pass `check_chart`.
    """
    psdg: Psdg
    time: int
    support_bound: int
    chart: dict[State, dict[BranchEntry, float]]
    completed: dict[State, float]
    groups: _Groups
    log_evidence: float = 0.0
    dropped: float = 0.0

    def __post_init__(self):
        support = len(self.chart.keys() | self.completed.keys())
        if support > self.support_bound:
            raise SupportTooLarge(f"belief after t={self.time - 1} holds "
                                  f"{support} states, exceeding "
                                  f"{self.support_bound}")
        self.check_chart()

    def __getattr__(self, name):    # only for published tables not made yet
        if name not in _PUBLISHED:
            raise AttributeError(name)
        _project(self)
        return self.__dict__[name]

    def state_mass(self) -> dict[State, float]:
        """b_q, Pr(Q^{time-1} = q), without projecting the other tables."""
        b_q = {q: math.fsum(row.values()) + self.completed.get(q, 0.0)
               for q, row in self.chart.items()}
        b_q.update((q, c) for q, c in self.completed.items() if q not in b_q)
        return b_q

    def entry_count(self) -> int:
        return sum(len(getattr(self, name)) for name in _PUBLISHED)

    def entry_bound(self) -> int:
        g = self.psdg
        return (SIZE_CONSTANT * max(1, len(self.b_q))
                * len(g.productions) * g.depth * g.max_rhs)

    def check_chart(self):
        """Raise AssertionError unless all chart and completed masses are
        > 0 and sum to one with `dropped`; the projection's symbol, production
        and terminal rows then hold by construction of the entries' keys."""
        masses = [m for row in self.chart.values() for m in row.values()]
        masses += self.completed.values()
        low = min(masses, default=math.inf)
        if not low > 0.0:
            raise AssertionError(f"chart holds mass {low}")
        total = math.fsum(masses) + self.dropped
        if not abs(total - 1.0) <= MASS_TOL:
            raise AssertionError(f"chart mass {total}")

    def check_invariants(self):
        """Raise AssertionError when the chart or published tables are off.
        Explicit raises, so the checks also run under `python -O`."""
        self.check_chart()
        if not self.entry_count() <= self.entry_bound():
            raise AssertionError("belief size blew up")
        total = math.fsum(self.b_q.values()) + self.dropped
        if not abs(total - 1.0) <= MASS_TOL:
            raise AssertionError(f"state mass {total}")
        per_level_n: dict[tuple, float] = {}
        per_level_p: dict[tuple, float] = {}
        for rows, sums in ((self.b_n, per_level_n), (self.b_p, per_level_p)):
            for (lvl, _, q), v in rows.items():
                sums[lvl, q] = sums.get((lvl, q), 0.0) + v
        for key, v in per_level_n.items():
            if not v <= 1.0 + MASS_TOL:
                raise AssertionError(f"symbol row {key} sums to {v}")
            p = per_level_p.get(key, 0.0)
            if not abs(v - p) <= MASS_TOL:
                raise AssertionError(f"symbol row {key} sums to {v}, "
                                     f"its production row to {p}")
        sigma_rows: dict[State, list[float]] = {}
        for (_, q), v in self.b_sigma.items():
            sigma_rows.setdefault(q, []).append(v)
        for q in self.b_q:
            row = math.fsum(sigma_rows.get(q, ()))
            row += self.completed_given_q.get(q, 0.0)
            if not abs(row - 1.0) <= MASS_TOL:
                raise AssertionError(f"terminal row of {q} sums to {row}")


def _project(belief: BeliefState):
    """Project chart + completed mass onto the seven published tables and
    keep them on `belief`.

    Each entry adds its share, mass / b_q, to its production key and that
    key's symbol at every level, to its terminal, and to b_t and the b_tn
    numerators at each level past its `live` count.  Sums go in under
    int ids (a symbol under the first key id of its (level, lhs)), in
    chart order, and each table keeps the first-touch order of its keys.
    """
    b_q = belief.state_mass()
    table = branch_table(belief.psdg)
    slots, implied = table.slots, table.implied
    first: dict[tuple, int] = {}
    symbol = [first.setdefault((level, implied[k][0]), k)
              for k, (level, _) in enumerate(slots)]
    b_n, b_p, b_sigma, b_t, tn_num = {}, {}, {}, {}, {}
    for q, row in belief.chart.items():
        cq = b_q[q]
        n, p, sigma, t, tn = {}, {}, {}, {}, {}
        for entry, mass in row.items():
            share, keys = mass / cq, entry.keys
            for k in keys:
                p[k] = p.get(k, 0.0) + share
                s = symbol[k]
                n[s] = n.get(s, 0.0) + share
            level = entry.live      # the levels past it terminate
            for k in keys[level:]:
                level += 1
                t[level] = t.get(level, 0.0) + share
                s = symbol[k]
                tn[s] = tn.get(s, 0.0) + share
            sigma[entry.leaf] = sigma.get(entry.leaf, 0.0) + share
        for sums, out in ((n, b_n), (tn, tn_num)):
            out.update(((slots[s][0], implied[s][0], q), v)
                       for s, v in sums.items())
        b_p.update((slots[k] + (q,), v) for k, v in p.items())
        b_sigma.update(((x, q), v) for x, v in sigma.items())
        b_t.update(((level, q), v) for level, v in t.items())
    vars(belief).update(zip(_PUBLISHED, (
        b_q, b_n, b_p, b_sigma, b_t,
        {nk: num / b_n[nk] for nk, num in tn_num.items()},
        {q: c / b_q[q] for q, c in belief.completed.items()})))


def _spread(psdg: Psdg, pools: dict[State, dict[int, float]]
            ) -> tuple[dict[State, dict[BranchEntry, float]], _Groups]:
    """Chart rows from pools of mass by new state and skeleton id, and their
    groups: each pool spreads over its skeleton's moves (a fixed successor
    takes it whole), adding into the row, since two skeletons may reach one
    branch, and each finished row goes into the groups.  Shares that
    underflow and empty rows stay out."""
    table = branch_table(psdg)
    chart, groups = {}, _Groups(table, {})
    for q2, pool in pools.items():
        row = {}
        for sid, pooled in pool.items():
            nxt = table.fixed.get(sid)
            if nxt is None:
                hit = table.moves[sid].get(q2) or table.successors(
                    psdg, sid, q2)
                for nxt, cp in zip(*hit):
                    share = pooled * cp
                    if share > 0.0:
                        row[nxt] = row.get(nxt, 0.0) + share
            elif pooled > 0.0:
                row[nxt] = pooled       # no other pool reaches its branch
        if row:
            chart[q2] = row
            groups.add(q2, row)
    return chart, groups


def _reaches(psdg: Psdg, target: StateSet, q: State, memo: dict) -> bool:
    """Whether every feature has a terminal whose CPT row at q's parent key
    puts mass on a value `target` allows; `memo` keeps each key's answer."""
    for fi, feat in enumerate(psdg.features):
        key = (fi, feat.parent_key(q))
        if key not in memo:
            memo[key] = any(rows[key[1]][v] > 0.0 for rows in
                            feat.table.values() for v in target.allowed[fi])
        if not memo[key]:
            return False
    return True


def init_belief(psdg: Psdg, support_bound: int = DEFAULT_SUPPORT_BOUND,
                restrict: Optional[StateSet] = None, time: int = 1,
                reach: Optional[StateSet] = None) -> BeliefState:
    """Belief before any observation: the prior over initial states and a
    freshly expanded root at every one of them, checked as it is built.

    `restrict` conditions the initial state on a set (the prior is
    renormalized over it); without it the support is the full state space,
    which must fit the support bound.  `reach`, the constraint observed
    at `time`, leaves out the states `_reaches` shows cannot move into it,
    their prior share going to `dropped`.  That is exact: explain would
    scale their groups by 0.0, so they add nothing, and kept states keep
    the whole support's p0 / total, so reports match bit for bit.
    """
    support = restrict if restrict is not None else StateSet.full(psdg)
    if support.size() > support_bound:
        raise SupportTooLarge(
            f"initial support of {support.size()} states exceeds "
            f"{support_bound}; restrict the initial state or raise the bound")
    weights: dict[State, float] = {}
    for q in support.iter_states():
        p0 = prior_probability(psdg, q)
        if p0 > 0.0:
            weights[q] = p0
    total = math.fsum(weights.values())
    if total <= 0.0:
        raise ZeroEvidence(0, "the prior puts no mass on the initial support")
    memo: dict[tuple, bool] = {}
    out = [q for q in weights
           if reach is not None and not _reaches(psdg, reach, q, memo)]
    dropped = math.fsum(map(weights.pop, out)) / total
    chart, groups = _spread(psdg, {q: {_ROOT: p0 / total}
                                   for q, p0 in weights.items()})
    return BeliefState(psdg, time, support_bound, chart, {}, groups,
                       dropped=dropped)


@dataclass
class Explanation:
    """Posteriors about the step that the new observation closes out."""
    evidence: float                      # Pr(Q^t ∈ R^t | earlier evidence)
    state_posterior: dict[State, float]
    completed_post: dict[State, float]
    transitions: dict[tuple, dict[State, float]]   # (q, x) -> {q': π1}
    symbols: dict[int, dict[str, float]]
    productions: dict[int, dict[tuple, float]]
    terminal: dict[str, float]
    completed: float


def explain(psdg: Psdg, belief: BeliefState, observation: Observation
            ) -> Explanation:
    """Condition on Q^t ∈ R and answer queries about slice t.

    The observation touches a branch only through its state and emitted
    terminal, so explain reads the belief's (state, terminal) groups, not
    its chart.  The evidence likelihood is accumulated state-by-state:
    each group's mass times the transition into each observed state.
    Completed runs contribute where their frozen state satisfies the
    observation.  Raises ZeroEvidence when nothing does.  The slice
    marginals scale each group's production sums by its posterior share.
    """
    if observation.time != belief.time:
        raise ValueError(f"observation for t={observation.time} fed to a "
                         f"belief expecting t={belief.time}")
    constraint = observation.constraint

    # Transition rows, one per live (state, emitted terminal) group.  The
    # dynamics are factored, so a row is the product of each feature's
    # nonzero allowed entries, picked once per call for each (feature,
    # terminal, parent key); multiplying from 1.0 in feature order and
    # iterating lexicographically gives the same keys, order and floats
    # as a per-state product of CPT entries over constraint.iter_states().
    groups = belief.groups
    allowed = [sorted(s) for s in constraint.allowed]
    kept: dict[tuple, tuple[list, list]] = {}
    transitions: dict[tuple, dict[State, float]] = {}
    state_posterior: dict[State, float] = {}
    for q, x, mass in zip(groups.states, groups.leaves, groups.masses):
        values, probs = [], []
        for fi, vals in enumerate(allowed):
            feat = psdg.features[fi]
            key = (fi, x, feat.parent_key(q))
            if key not in kept:
                cpt_row = feat.table[x][key[2]]
                vs = [v for v in vals if cpt_row[v] > 0.0]
                kept[key] = (vs, [cpt_row[v] for v in vs])
            values.append(kept[key][0])
            probs.append(kept[key][1])
        out = transitions[q, x] = {}
        for q2, ps in zip(itertools.product(*values),
                          itertools.product(*probs)):
            p = math.prod(ps, start=1.0)
            if p > 0.0:
                out[q2] = p
                state_posterior[q2] = state_posterior.get(q2, 0.0) + mass * p
    completed_post: dict[State, float] = {}
    for q, c in belief.completed.items():
        if q in constraint:
            completed_post[q] = c
            state_posterior[q] = state_posterior.get(q, 0.0) + c
    evidence = math.fsum(state_posterior.values())
    if evidence <= 0.0:
        raise ZeroEvidence(observation.time)

    scales = [math.fsum(transitions[q, x].values()) / evidence
              for q, x in zip(groups.states, groups.leaves)]
    completed_post = {q: c / evidence for q, c in completed_post.items()}
    return Explanation(
        evidence,
        {q: v / evidence for q, v in state_posterior.items()},
        completed_post, transitions, *groups.marginals(scales),
        completed=math.fsum(completed_post.values()))


@dataclass
class Prediction:
    """The belief chart pushed one step forward."""
    chart: dict[State, dict[BranchEntry, float]]
    completed: dict[State, float]
    symbols: dict[int, dict[str, float]]
    productions: dict[int, dict[tuple, float]]
    terminal: dict[str, float]
    completed_mass: float
    groups: _Groups


def predict(psdg: Psdg, belief: BeliefState, explanation: Explanation
            ) -> Prediction:
    """Distribute each explained branch over its advance outcomes.

    A root that terminates at t moves its mass into the completed pool of
    the new state; every other branch advances deterministically except
    for fresh expansions, which spread over the chains enabled at the new
    state.  Already-completed mass stays frozen.

    Where a branch goes depends only on its advance skeleton and the new
    state, so the shares are first pooled per (new state, skeleton id),
    and each pool is then spread once over that skeleton's moves.  Like a
    chart share, a completed share that underflows to 0.0 is left out.
    The spread sums each new row into its (state, terminal) groups, which
    give the report's marginals here and feed the next explain.
    """
    evidence = explanation.evidence
    transitions = explanation.transitions
    pools: dict[State, dict[int, float]] = {}   # by new state, skeleton id
    completed: dict[State, float] = {}
    for q, row in belief.chart.items():
        for entry, mass in row.items():
            sid = entry.skeleton_id
            for q2, p in transitions[(q, entry.leaf)].items():
                share = mass * p / evidence
                if sid >= 0:
                    pool = pools.get(q2)
                    if pool is None:
                        pool = pools[q2] = {}
                    pool[sid] = pool.get(sid, 0.0) + share
                elif share > 0.0:
                    completed[q2] = completed.get(q2, 0.0) + share
    chart, groups = _spread(psdg, pools)
    for q, c in explanation.completed_post.items():
        completed[q] = completed.get(q, 0.0) + c
    return Prediction(chart, completed, *groups.marginals(),
                      math.fsum(completed.values()), groups)


def update(psdg: Psdg, belief: BeliefState, explanation: Explanation,
           prediction: Prediction, observation: Observation) -> BeliefState:
    """The predicted chart and its groups as the belief for the next step,
    which checks itself as it is built."""
    return BeliefState(psdg, observation.time + 1, belief.support_bound,
                       prediction.chart, prediction.completed,
                       prediction.groups,
                       belief.log_evidence + math.log(explanation.evidence))


@dataclass
class StepReport:
    """Everything reported after consuming one observation: posteriors
    about the step it closed (explain side) and the next step (predict
    side), all conditioned on the evidence so far."""
    time: int
    evidence_likelihood: float
    log_evidence: float
    state: dict[State, float]
    explain_symbols: dict[int, dict[str, float]]
    explain_productions: dict[int, dict[tuple, float]]
    explain_terminal: dict[str, float]
    explain_completed: float
    predict_symbols: dict[int, dict[str, float]]
    predict_productions: dict[int, dict[tuple, float]]
    predict_terminal: dict[str, float]
    predict_completed: float

    def to_dict(self, psdg: Psdg) -> dict:
        return {
            "t": self.time,
            "evidence_likelihood": self.evidence_likelihood,
            "log_evidence": self.log_evidence,
            "state": {psdg.state_key(q): p for q, p in self.state.items()},
            "explain": _report_block(
                self.explain_symbols, self.explain_productions,
                self.explain_terminal, self.explain_completed),
            "predict": _report_block(
                self.predict_symbols, self.predict_productions,
                self.predict_terminal, self.predict_completed),
        }


def step(psdg: Psdg, belief: BeliefState, observation: Observation
         ) -> tuple[StepReport, BeliefState]:
    """One full recognition cycle: explain, predict, update."""
    explanation = explain(psdg, belief, observation)
    prediction = predict(psdg, belief, explanation)
    new_belief = update(psdg, belief, explanation, prediction, observation)
    report = StepReport(
        time=observation.time,
        evidence_likelihood=explanation.evidence,
        log_evidence=new_belief.log_evidence,
        state=explanation.state_posterior,
        explain_symbols=explanation.symbols,
        explain_productions=explanation.productions,
        explain_terminal=explanation.terminal,
        explain_completed=explanation.completed,
        predict_symbols=prediction.symbols,
        predict_productions=prediction.productions,
        predict_terminal=prediction.terminal,
        predict_completed=prediction.completed_mass,
    )
    return report, new_belief


def recognize(psdg: Psdg, observations: Iterable[Observation],
              support_bound: int = DEFAULT_SUPPORT_BOUND, reinit: bool = False,
              start=init_belief) -> Iterator[StepReport]:
    """Run a stream with increasing times, yielding the report of each
    observation at t ≥ 1 before reading the next.

    A leading t=0 observation restricts the initial state; `start`, with
    init_belief's signature, builds the belief at the first later one,
    and is passed it as `reach` if it falls at t=1; a stream with no later
    one still calls it, so a t=0 line alone is checked too.  Missing times
    pass as unconstrained steps.  Once the chart is empty, a vacuous step
    that leaves the completed mass and log evidence as they were is a
    fixed point, so the rest of the gap is skipped.  Zero evidence raises, or
    under `reinit` restarts from the prior restricted to the observation,
    reported with evidence likelihood 0 and the new belief's marginals; a
    failed restart raises with the contradiction as its `__context__`.
    """
    belief = restrict = None
    for obs in observations:
        if belief is None and obs.time == 0:
            restrict = obs.constraint
            continue
        if belief is None:
            belief = start(psdg, support_bound, restrict, 1,
                           obs.constraint if obs.time == 1 else None)
        now = None
        while now is not obs:
            now = obs if belief.time >= obs.time else \
                Observation.vacuous(psdg, belief.time)
            before = belief
            try:
                report, belief = step(psdg, belief, now)
            except ZeroEvidence:
                if not reinit:
                    raise
                belief = start(psdg, support_bound, now.constraint,
                               now.time + 1)
                report = StepReport(
                    now.time, 0.0, 0.0, belief.state_mass(), {}, {}, {}, 0.0,
                    *belief.groups.marginals(), 0.0)
            if not before.chart and belief.completed == before.completed \
                    and belief.log_evidence == before.log_evidence:
                belief.time = max(belief.time, obs.time)    # a fixed point
        yield report
    if belief is None and restrict is not None:
        start(psdg, support_bound, restrict, 1, None)

