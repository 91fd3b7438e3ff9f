"""Online plan recognition from state observations.

The recognizer never sees the agent's plan choices, only constraints of
the form "the state after step t lay in the set R".  Each step runs three
phases: explain (condition on the new observation and answer posterior
queries about the step that just happened), predict (push the belief
through the deterministic advance rules and fresh production draws), and
update (rebuild the per-state probability tables for the next step).

Internally the belief is a joint chart over (previous state, active
branch), where a branch is the tuple of (production, cursor) pairs from
the root down to the terminal leaf.  The published tables (symbols,
productions, terminal, termination, per level and state) are exact
marginal projections of that chart.  Keeping the branch resolved is what
makes the engine agree with brute-force enumeration: per-level tables
alone lose the correlation between a frame and the depth below it, and
repeated children (say S -> A A) then mix mass across branches.  The
projections stay within the documented size bound; the chart itself is
linear in the number of live branches.

Completion is absorbing: once the root terminates, the final state is
frozen and later observations simply constrain that frozen value.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import (SupportTooLarge, UndefinedConditional, ZeroEvidence)
from .generate import enumerate_chains
from .grammar import (Psdg, StatePoint, StateSet, _as_idx,
                      _feature_transition, prior_probability,
                      transition_probability)

DEFAULT_SUPPORT_BOUND = 100_000
SIZE_CONSTANT = 8       # public-table entries stay under 8·|R|·|P|·d·m

State = tuple  # of value indices
Branch = tuple  # of (production, cursor) pairs, root first


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


def _branch_leaf(psdg: Psdg, branch: Branch) -> str:
    a, b = branch[-1]
    return psdg.production(a).rhs[b - 1]


def _branch_flags(psdg: Psdg, branch: Branch) -> tuple[bool, ...]:
    flags = [False] * len(branch)
    below = True
    for i in range(len(branch) - 1, -1, -1):
        a, b = branch[i]
        flags[i] = below and b == len(psdg.production(a).rhs)
        below = flags[i]
    return tuple(flags)


def _branch_skeleton(psdg: Psdg, branch: Branch
                     ) -> Optional[tuple[Branch, Optional[str]]]:
    """Compact mirror of the generator's advance rule.

    None once the root terminates; otherwise (kept prefix, symbol that
    needs a fresh expansion or None).  The fresh symbol's level is always
    len(kept) + 1.
    """
    flags = _branch_flags(psdg, branch)
    if flags[0]:
        return None
    d = 0
    while d < len(branch) and not flags[d]:
        d += 1
    a, b = branch[d - 1]
    prod = psdg.production(a)
    nxt = b + 1
    if prod.tail_recursive and nxt == len(prod.rhs):
        return branch[:d - 1], prod.lhs
    moved = branch[:d - 1] + ((a, nxt),)
    sym = prod.rhs[nxt - 1]
    if psdg.is_terminal(sym):
        return moved, None
    return moved, sym


def _fresh_chains(psdg: Psdg, symbol: str, state: State,
                  cache: dict) -> list[tuple[Branch, float]]:
    key = (symbol, state)
    hit = cache.get(key)
    if hit is None:
        hit = [(tuple((f.production, f.cursor) for f in chain), p)
               for chain, p in enumerate_chains(psdg, symbol, 1, state)]
        cache[key] = hit
    return hit


@dataclass
class BeliefState:
    """Everything the recognizer knows, after conditioning on all
    observations before `time`.

    The chart maps (state q, branch) to Pr(Q^{time-1}=q, branch active at
    slice `time`); `completed` holds the mass of runs whose root already
    terminated, keyed by their frozen state.  The b_* tables are the
    published per-state projections; b_q sums to one, the others are
    conditioned on their state.
    """
    psdg: Psdg
    time: int
    support: StateSet
    support_bound: int
    chart: dict[State, dict[Branch, float]]
    completed: dict[State, float]
    b_q: dict[State, float] = field(default_factory=dict)
    b_n: dict[tuple, float] = field(default_factory=dict)      # (ℓ, X, q)
    b_p: dict[tuple, float] = field(default_factory=dict)      # (ℓ, (a,b), q)
    b_sigma: dict[tuple, float] = field(default_factory=dict)  # (x, q)
    b_t: dict[tuple, float] = field(default_factory=dict)      # (ℓ, q)
    b_tn: dict[tuple, float] = field(default_factory=dict)     # (ℓ, X, q)
    completed_given_q: dict[State, float] = field(default_factory=dict)
    step_evidence: float = 1.0
    log_evidence: float = 0.0

    def entry_count(self) -> int:
        return (len(self.b_q) + len(self.b_n) + len(self.b_p)
                + len(self.b_sigma) + len(self.b_t) + len(self.b_tn)
                + len(self.completed_given_q))

    def entry_bound(self) -> int:
        g = self.psdg
        return (SIZE_CONSTANT * max(1, len(self.b_q))
                * len(g.productions) * g.depth * g.max_rhs)

    def check_invariants(self, tol: float = 1e-9):
        """Raise AssertionError when the published tables are inconsistent.
        Explicit raises, so the checks also run under `python -O`."""
        if not self.entry_count() <= self.entry_bound():
            raise AssertionError("belief size blew up")
        total = math.fsum(self.b_q.values())
        if not abs(total - 1.0) <= tol:
            raise AssertionError(f"state mass {total}")
        per_level_n: dict[tuple, float] = {}
        per_level_p: dict[tuple, float] = {}
        for (lvl, _, q), v in self.b_n.items():
            per_level_n[(lvl, q)] = per_level_n.get((lvl, q), 0.0) + v
        for (lvl, _, q), v in self.b_p.items():
            per_level_p[(lvl, q)] = per_level_p.get((lvl, q), 0.0) + v
        for key, v in per_level_n.items():
            if not v <= 1.0 + tol:
                raise AssertionError(f"symbol row {key} sums to {v}")
            if not abs(v - per_level_p.get(key, 0.0)) <= tol:
                raise AssertionError
        sigma_rows: dict[State, list[float]] = {}
        for (_, q), v in self.b_sigma.items():
            sigma_rows.setdefault(q, []).append(v)
        for q in self.b_q:
            row = math.fsum(sigma_rows.get(q, ()))
            row += self.completed_given_q.get(q, 0.0)
            if not abs(row - 1.0) <= tol:
                raise AssertionError(f"terminal row of {q} sums to {row}")


def _project(belief: BeliefState):
    """Rebuild the published tables from chart + completed mass."""
    psdg = belief.psdg
    belief.b_q = {}
    belief.b_n = {}
    belief.b_p = {}
    belief.b_sigma = {}
    belief.b_t = {}
    belief.b_tn = {}
    belief.completed_given_q = {}
    tn_num: dict[tuple, float] = {}
    for q, row in belief.chart.items():
        cq = math.fsum(row.values()) + belief.completed.get(q, 0.0)
        if cq <= 0.0:
            continue
        belief.b_q[q] = cq
        for branch, mass in row.items():
            if mass <= 0.0:
                continue
            share = mass / cq
            flags = _branch_flags(psdg, branch)
            for pos, (a, b) in enumerate(branch):
                lvl = pos + 1
                sym = psdg.production(a).lhs
                nk = (lvl, sym, q)
                belief.b_n[nk] = belief.b_n.get(nk, 0.0) + share
                pk = (lvl, (a, b), q)
                belief.b_p[pk] = belief.b_p.get(pk, 0.0) + share
                if flags[pos]:
                    tk = (lvl, q)
                    belief.b_t[tk] = belief.b_t.get(tk, 0.0) + share
                    tn_num[nk] = tn_num.get(nk, 0.0) + share
            x = _branch_leaf(psdg, branch)
            sk = (x, q)
            belief.b_sigma[sk] = belief.b_sigma.get(sk, 0.0) + share
    for q, c in belief.completed.items():
        if c <= 0.0:
            continue
        if q not in belief.b_q:
            belief.b_q[q] = c
        belief.completed_given_q[q] = c / belief.b_q[q]
    for nk, num in tn_num.items():
        belief.b_tn[nk] = num / belief.b_n[nk]


def init_belief(psdg: Psdg, support_bound: int = DEFAULT_SUPPORT_BOUND,
                restrict: Optional[StateSet] = None, time: int = 1
                ) -> BeliefState:
    """Belief before any observation: the prior over initial states and a
    freshly expanded root at every one of them.

    `restrict` conditions the initial state on a set (the prior is
    renormalized over it); without it the support is the full state space,
    which must fit the support bound.
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
    cache: dict = {}
    chart: dict[State, dict[Branch, float]] = {}
    for q, p0 in weights.items():
        row: dict[Branch, float] = {}
        for branch, cp in _fresh_chains(psdg, psdg.start, q, cache):
            row[branch] = (p0 / total) * cp
        chart[q] = row
    belief = BeliefState(psdg, time, support, support_bound, chart, {})
    _project(belief)
    belief.check_invariants()
    return belief


@dataclass
class Explanation:
    """Posteriors about the step that the new observation closes out."""
    observation: Observation
    evidence: float                      # Pr(Q^t ∈ R^t | earlier evidence)
    state_posterior: dict[State, float]
    post: dict[tuple, float]             # (q, branch) -> posterior mass
    completed_post: dict[State, float]
    transitions: dict[tuple, dict[State, float]]   # (q, x) -> {q': π1}
    symbol_transitions: dict[tuple, dict[State, float]]  # (ℓ, X, q) -> row
    symbols: dict[int, dict[str, float]] = field(default_factory=dict)
    productions: dict[int, dict[tuple, float]] = field(default_factory=dict)
    terminal: dict[str, float] = field(default_factory=dict)
    completed: float = 0.0


def explain(psdg: Psdg, belief: BeliefState, observation: Observation
            ) -> Explanation:
    """Condition on Q^t ∈ R and answer queries about slice t.

    The evidence likelihood is accumulated state-by-state: prior branch
    mass times the transition into each observed state, summed over the
    emitted terminal.  Completed runs contribute where their frozen state
    satisfies the observation.  Raises ZeroEvidence when nothing does.
    """
    if observation.time != belief.time:
        raise ValueError(f"observation for t={observation.time} fed to a "
                         f"belief expecting t={belief.time}")
    constraint = observation.constraint
    if constraint.size() > belief.support_bound:
        raise SupportTooLarge(
            f"observation set of {constraint.size()} states exceeds "
            f"{belief.support_bound}")
    allowed = [sorted(s) for s in constraint.allowed]

    # Transition rows, one per (state, emitted terminal) actually alive.
    # The dynamics are factored, so a row is the product of each feature's
    # nonzero allowed entries; multiplying from 1.0 in feature order and
    # iterating lexicographically gives the same keys, order and floats
    # as transition_probability over constraint.iter_states().
    transitions: dict[tuple, dict[State, float]] = {}
    sigma_mass: dict[tuple, float] = {}
    for q, row in belief.chart.items():
        for branch, mass in row.items():
            if mass <= 0.0:
                continue
            key = (q, _branch_leaf(psdg, branch))
            sigma_mass[key] = sigma_mass.get(key, 0.0) + mass
    for key in sigma_mass:
        q, x = key
        values, probs = [], []
        for fi, vals in enumerate(allowed):
            cpt_row = _feature_transition(psdg, fi, q, x)
            kept = [v for v in vals if cpt_row[v] > 0.0]
            values.append(kept)
            probs.append([cpt_row[v] for v in kept])
        out: dict[State, float] = {}
        for q2, ps in zip(itertools.product(*values),
                          itertools.product(*probs)):
            p = math.prod(ps, start=1.0)
            if p > 0.0:
                out[q2] = p
        transitions[key] = out

    state_posterior: dict[State, float] = {}
    for (q, x), mass in sigma_mass.items():
        for q2, p in transitions[(q, x)].items():
            state_posterior[q2] = state_posterior.get(q2, 0.0) + mass * p
    completed_post: dict[State, float] = {}
    for q, c in belief.completed.items():
        if c > 0.0 and q in constraint:
            completed_post[q] = c
            state_posterior[q] = state_posterior.get(q, 0.0) + c
    evidence = math.fsum(state_posterior.values())
    if evidence <= 0.0:
        raise ZeroEvidence(
            observation.time,
            f"observation at t={observation.time} has probability 0")

    exp = Explanation(
        observation=observation,
        evidence=evidence,
        state_posterior={q: v / evidence for q, v in state_posterior.items()},
        post={},
        completed_post={q: c / evidence for q, c in completed_post.items()},
        transitions=transitions,
        symbol_transitions={},
    )

    # per-branch posteriors and the slice-t marginals
    st_num: dict[tuple, dict[State, float]] = {}
    st_den: dict[tuple, float] = {}
    for q, row in belief.chart.items():
        for branch, mass in row.items():
            if mass <= 0.0:
                continue
            x = _branch_leaf(psdg, branch)
            trow = transitions[(q, x)]
            tsum = math.fsum(trow.values())
            post = mass * tsum / evidence
            if post > 0.0:
                exp.post[(q, branch)] = post
                for pos, (a, b) in enumerate(branch):
                    lvl = pos + 1
                    sym = psdg.production(a).lhs
                    srow = exp.symbols.setdefault(lvl, {})
                    srow[sym] = srow.get(sym, 0.0) + post
                    prow = exp.productions.setdefault(lvl, {})
                    prow[(a, b)] = prow.get((a, b), 0.0) + post
                exp.terminal[x] = exp.terminal.get(x, 0.0) + post
            for pos, (a, _) in enumerate(branch):
                nk = (pos + 1, psdg.production(a).lhs, q)
                st_den[nk] = st_den.get(nk, 0.0) + mass
                acc = st_num.setdefault(nk, {})
                for q2, p in trow.items():
                    acc[q2] = acc.get(q2, 0.0) + mass * p
    exp.completed = math.fsum(exp.completed_post.values())
    for nk, acc in st_num.items():
        den = st_den[nk]
        exp.symbol_transitions[nk] = {q2: v / den for q2, v in acc.items()}
    return exp


def symbol_transition(psdg: Psdg, belief: BeliefState, symbol: str,
                      level: int, q_prev, q_next) -> float:
    """Pr(next state | previous state, `symbol` active at `level`).

    Marginalizes the belief's branch distribution at that level down to
    the emitted terminal and applies the state transition.  Returns 0.0
    when the belief puts no mass on the symbol there.
    """
    qp = _as_idx(q_prev)
    qn = _as_idx(q_next)
    row = belief.chart.get(qp)
    if not row:
        return 0.0
    num = 0.0
    den = 0.0
    for branch, mass in row.items():
        if mass <= 0.0:
            continue
        for pos, (a, _) in enumerate(branch):
            if pos + 1 == level and psdg.production(a).lhs == symbol:
                den += mass
                num += mass * transition_probability(
                    psdg, qp, _branch_leaf(psdg, branch), qn)
                break
    return num / den if den > 0.0 else 0.0


@dataclass
class Prediction:
    """The belief chart pushed one step forward, before re-projection."""
    chart: dict[State, dict[Branch, float]]
    completed: dict[State, float]
    symbols: dict[int, dict[str, float]] = field(default_factory=dict)
    productions: dict[int, dict[tuple, float]] = field(default_factory=dict)
    terminal: dict[str, float] = field(default_factory=dict)
    completed_mass: float = 0.0


def predict(psdg: Psdg, belief: BeliefState, explanation: Explanation
            ) -> Prediction:
    """Distribute each explained branch over its advance outcomes.

    A root that terminates at t moves its mass into the completed pool of
    the new state; every other branch advances deterministically except
    for fresh expansions, which spread over the chains enabled at the new
    state.  Already-completed mass stays frozen.
    """
    evidence = explanation.evidence
    chain_cache: dict = {}
    skeleton_cache: dict[Branch, object] = {}
    chart: dict[State, dict[Branch, float]] = {}
    completed: dict[State, float] = {}
    for q, row in belief.chart.items():
        for branch, mass in row.items():
            if mass <= 0.0:
                continue
            trow = explanation.transitions[(q, _branch_leaf(psdg, branch))]
            if not trow:
                continue
            if branch in skeleton_cache:
                skeleton = skeleton_cache[branch]
            else:
                skeleton = _branch_skeleton(psdg, branch)
                skeleton_cache[branch] = skeleton
            for q2, p in trow.items():
                share = mass * p / evidence
                if skeleton is None:
                    completed[q2] = completed.get(q2, 0.0) + share
                    continue
                kept, fresh_symbol = skeleton
                target = chart.setdefault(q2, {})
                if fresh_symbol is None:
                    target[kept] = target.get(kept, 0.0) + share
                else:
                    for tail, cp in _fresh_chains(psdg, fresh_symbol, q2,
                                                  chain_cache):
                        nb = kept + tail
                        target[nb] = target.get(nb, 0.0) + share * cp
    for q, c in explanation.completed_post.items():
        completed[q] = completed.get(q, 0.0) + c

    pred = Prediction(chart, completed)
    for q, row in chart.items():
        for branch, mass in row.items():
            for pos, (a, b) in enumerate(branch):
                lvl = pos + 1
                sym = psdg.production(a).lhs
                srow = pred.symbols.setdefault(lvl, {})
                srow[sym] = srow.get(sym, 0.0) + mass
                prow = pred.productions.setdefault(lvl, {})
                prow[(a, b)] = prow.get((a, b), 0.0) + mass
            x = _branch_leaf(psdg, branch)
            pred.terminal[x] = pred.terminal.get(x, 0.0) + mass
    pred.completed_mass = math.fsum(completed.values())
    return pred


def update(psdg: Psdg, belief: BeliefState, explanation: Explanation,
           prediction: Prediction, observation: Observation) -> BeliefState:
    """Install the predicted chart as the belief for the next step."""
    new = BeliefState(
        psdg=psdg,
        time=belief.time + 1,
        support=observation.constraint,
        support_bound=belief.support_bound,
        chart=prediction.chart,
        completed=prediction.completed,
        step_evidence=explanation.evidence,
        log_evidence=belief.log_evidence + math.log(explanation.evidence),
    )
    _project(new)
    new.check_invariants()
    return new


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
        def state_key(q):
            return "|".join(f.values[v] for f, v in zip(psdg.features, q))

        def prods(d):
            return {lvl: {f"{a}:{b}": p for (a, b), p in row.items()}
                    for lvl, row in d.items()}

        return {
            "t": self.time,
            "evidence_likelihood": self.evidence_likelihood,
            "log_evidence": self.log_evidence,
            "state": {state_key(q): p for q, p in self.state.items()},
            "explain": {
                "symbols": self.explain_symbols,
                "productions": prods(self.explain_productions),
                "terminal": self.explain_terminal,
                "completed": self.explain_completed,
            },
            "predict": {
                "symbols": self.predict_symbols,
                "productions": prods(self.predict_productions),
                "terminal": self.predict_terminal,
                "completed": self.predict_completed,
            },
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
        state=dict(explanation.state_posterior),
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


def belief_slice_marginals(belief: BeliefState) -> dict:
    """The belief's own slice distributions marginalized over states, in
    the report's JSON shape.  Used where a prediction block is needed but
    no explanation exists (stream restart after zero evidence)."""
    psdg = belief.psdg
    symbols: dict[int, dict[str, float]] = {}
    productions: dict[int, dict[str, float]] = {}
    terminal: dict[str, float] = {}
    for q, row in belief.chart.items():
        for branch, mass in row.items():
            if mass <= 0.0:
                continue
            for pos, (a, b) in enumerate(branch):
                lvl = pos + 1
                sym = psdg.production(a).lhs
                srow = symbols.setdefault(lvl, {})
                srow[sym] = srow.get(sym, 0.0) + mass
                prow = productions.setdefault(lvl, {})
                key = f"{a}:{b}"
                prow[key] = prow.get(key, 0.0) + mass
            x = _branch_leaf(psdg, branch)
            terminal[x] = terminal.get(x, 0.0) + mass
    return {
        "symbols": symbols,
        "productions": productions,
        "terminal": terminal,
        "completed": math.fsum(belief.completed.values()),
    }


def conditional_production_given_symbol(belief: BeliefState, level: int,
                                        rho, symbol: str, q) -> float:
    """Pr(production-state ρ | symbol at the level): the ratio of the two
    belief rows; 0 when ρ expands a different symbol.  The complementary
    child-symbol-given-production value needs no table at all: the cursor
    pins it to exactly one symbol."""
    idx = _as_idx(q)
    den = belief.b_n.get((level, symbol, idx), 0.0)
    if den <= 0.0:
        raise UndefinedConditional(
            f"no belief mass on {symbol!r} at level {level} in state {idx}")
    a, b = rho
    if belief.psdg.production(a).lhs != symbol:
        return 0.0
    return belief.b_p.get((level, (a, b), idx), 0.0) / den
