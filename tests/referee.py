"""Test-side referees: slow, obvious checks that nothing shipped calls.

`replay` is the one check of a recorded run against the advance rules;
`trajectory_probability` scores a run by it and by
`transition_probability`, one transition's probability, and `parse_tree`
rebuilds a complete run's tree from it.  `Query`, `state_at`,
`query_holds` and `exact_posterior` filter an `oracle.enumerate_joint`
table for one posterior, and `pcfg_tree_probability` scores a tree under
`oracle.to_pcfg`'s grammar (acceptance criterion 2).  Like `psdg.oracle`,
this module imports nothing from `psdg.infer`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

from psdg.errors import InvalidTrajectory, PsdgError, ZeroEvidence
from psdg.generate import Stack, TimeStep, Trajectory, stack_rule
from psdg.grammar import (Psdg, StateSet, _feature_transition,
                          prior_probability, production_probability)
from psdg.oracle import NT, TERM, JointTable, Pcfg


class UnknownProduction(PsdgError):
    """A tree node uses a production absent from the constructed grammar."""


def _match_chain(psdg: Psdg, frames: Stack, symbol: str, t: int):
    """Check that `frames` is a valid fresh chain for `symbol`."""
    if not frames:
        raise InvalidTrajectory(f"step {t}: missing expansion of {symbol!r}")
    sym = symbol
    for i, (a, b) in enumerate(frames):
        if b != 1:
            raise InvalidTrajectory(
                f"step {t}: frame {(a, b)} does not open {sym!r}")
        try:
            prod = psdg.production(a)
        except KeyError:
            raise InvalidTrajectory(
                f"step {t}: unknown production {a}") from None
        if prod.lhs != sym:
            raise InvalidTrajectory(
                f"step {t}: production {a} does not expand {sym!r}")
        sym = prod.rhs[0]
        if psdg.is_terminal(sym):
            if i != len(frames) - 1:
                raise InvalidTrajectory(
                    f"step {t}: frames continue below terminal leaf {sym!r}")
            return
    raise InvalidTrajectory(f"step {t}: chain for {symbol!r} has no terminal leaf")


def replay(psdg: Psdg, traj: Trajectory
           ) -> Iterator[tuple[int, TimeStep, Stack, bool]]:
    """Check a run against the advance rules step by step, yielding
    (t, step, kept, reentered) once each step passes: `kept` is the prefix
    of its stack carried over, the frames past it were drawn fresh at the
    state before the step, and `reentered` tells whether the first fresh
    frame re-enters level len(kept) + 1 by trailing-lhs recursion.  Raises
    InvalidTrajectory at the first step that breaks `stack_rule`, or at
    the end if the completion flag disagrees with the final stack."""
    if not traj.steps:
        raise InvalidTrajectory("trajectory has no steps")
    skeleton: Optional[tuple[Stack, Optional[str]]] = ((), psdg.start)
    reentered = False
    for t, step in enumerate(traj.steps, start=1):
        if skeleton is None:
            raise InvalidTrajectory(f"step {t}: follows a completed root")
        kept, fresh_symbol = skeleton
        if step.stack[:len(kept)] != kept:
            raise InvalidTrajectory(f"step {t}: carried-over frames differ")
        rest = step.stack[len(kept):]
        if fresh_symbol is None:
            if rest:
                raise InvalidTrajectory(f"step {t}: unexpected fresh frames")
        else:
            _match_chain(psdg, rest, fresh_symbol, t)
        terminal, live, skeleton = stack_rule(psdg, step.stack)
        if terminal != step.terminal:
            raise InvalidTrajectory(
                f"step {t}: terminal {step.terminal!r} but leaf is {terminal!r}")
        yield t, step, kept, reentered
        # a re-entry keeps only the frames above the live level
        reentered = skeleton is not None and len(skeleton[0]) < live
    if (skeleton is None) != traj.complete:
        raise InvalidTrajectory("completion flag disagrees with the final stack")


def trajectory_probability(psdg: Psdg, traj: Trajectory) -> float:
    """Log joint probability of the trajectory's parse prefix and states.

    Every factor is located at its generation-time state: the prior for
    the initial state, each fresh production at the state current when it
    was drawn, and one transition factor per emitted terminal.  Returns
    -inf when any factor is zero; raises InvalidTrajectory if `replay`
    finds the stacks are not a run of the advance rules.
    """
    q_prev = traj.initial_state.idx
    log_p = _log(prior_probability(psdg, q_prev))
    for _, step, kept, _ in replay(psdg, traj):
        for a, _ in step.stack[len(kept):]:
            log_p += _log(production_probability(psdg, a, q_prev))
        log_p += _log(transition_probability(psdg, q_prev, step.terminal,
                                             step.state.idx))
        q_prev = step.state.idx
    return log_p


def transition_probability(psdg: Psdg, prev: tuple[int, ...], terminal: str,
                           nxt: tuple[int, ...]) -> float:
    """pi1(q_prev, x, q_next): product of per-feature CPT entries."""
    if terminal not in psdg.terminal_set:
        raise ValueError(f"unknown terminal {terminal!r}")
    p = 1.0
    for fi in range(len(psdg.features)):
        p *= _feature_transition(psdg, fi, prev, terminal)[nxt[fi]]
        if p == 0.0:
            return 0.0
    return p


def _log(p: float) -> float:
    """log p, or -inf where p is 0."""
    return -math.inf if p <= 0.0 else math.log(p)


### Queries against the table.


@dataclass(frozen=True)
class Query:
    """An event over one time slice of the joint.

    kinds: "state" (value: StateSet or index tuple; time may be 0),
    "symbol" (level + nonterminal name), "production" (level + (a, b)),
    "terminal" (terminal name), "terminated" (level), and "completed"
    (the root finished strictly before `time`).
    """
    kind: str
    time: int
    level: Optional[int] = None
    value: object = None


def state_at(traj: Trajectory, t: int) -> tuple[int, ...]:
    """Q^t of the run; the final state is frozen after completion."""
    if t <= 0:
        return traj.initial_state.idx
    if t <= len(traj.steps):
        return traj.steps[t - 1].state.idx
    if traj.complete:
        return traj.steps[-1].state.idx
    raise ValueError(f"time {t} is beyond the enumerated horizon")


def _state_matches(q: tuple[int, ...], value) -> bool:
    if isinstance(value, StateSet):
        return q in value
    return q == tuple(value)


def query_holds(psdg: Psdg, traj: Trajectory, query: Query) -> bool:
    k = query.kind
    if k == "state":
        return _state_matches(state_at(traj, query.time), query.value)
    if k == "completed":
        return traj.complete and len(traj.steps) < query.time
    if query.time > len(traj.steps):
        return False        # the run has no such slice (finished or cut off)
    stack = traj.steps[query.time - 1].stack
    if k == "terminal":
        return traj.steps[query.time - 1].terminal == query.value
    if k == "symbol":
        if query.level > len(stack):
            return False
        a, _ = stack[query.level - 1]
        return psdg.production(a).lhs == query.value
    if k == "production":
        return (query.level <= len(stack)
                and stack[query.level - 1] == tuple(query.value))
    if k == "terminated":
        return stack_rule(psdg, stack)[1] < query.level <= len(stack)
    raise ValueError(f"unknown query kind {k!r}")


def exact_posterior(joint: JointTable, evidence, query: Query) -> float:
    """Pr(query | evidence) by filtering the table.

    Evidence items need `time` and `constraint` (a StateSet) attributes;
    order is irrelevant.  Raises ZeroEvidence at the latest evidence time
    when nothing survives the filter.
    """
    ev_mass = 0.0
    q_mass = 0.0
    for entry in joint.entries:
        if not all(_state_matches(state_at(entry.trajectory, obs.time),
                                  obs.constraint) for obs in evidence):
            continue
        ev_mass += entry.prob
        if query_holds(joint.psdg, entry.trajectory, query):
            q_mass += entry.prob
    if ev_mass <= 0.0:
        raise ZeroEvidence(max((obs.time for obs in evidence), default=0))
    return q_mass / ev_mass


### Parse trees of complete runs.


@dataclass(eq=False, repr=False)     # the generated ones would recurse
class TerminalLeaf:
    symbol: str
    time: int
    prev_state: tuple[int, ...] = ()
    next_state: tuple[int, ...] = ()


@dataclass(eq=False, repr=False)
class ParseNode:
    symbol: str
    production: int
    children: list = field(default_factory=list)
    start_state: tuple[int, ...] = ()
    end_state: tuple[int, ...] = ()


def parse_tree(psdg: Psdg, traj: Trajectory) -> ParseNode:
    """Rebuild the full parse tree of a completed run.

    Fresh frames become nodes hanging off the frame above them (or off the
    node they re-enter, for trailing-lhs recursion); each step's terminal
    becomes a leaf under the deepest node.  Nodes are annotated with the
    state before their first terminal and after their last one.  Raises
    InvalidTrajectory unless the run is complete and `replay` accepts it.
    """
    if not traj.complete:
        raise InvalidTrajectory("parse trees exist only for completed runs")
    made: list[ParseNode] = []      # every node, parents before children
    nodes: list[ParseNode] = []     # node per live stack level
    q_prev = traj.initial_state.idx
    for t, step, kept, reentered in replay(psdg, traj):
        k = len(kept)
        # a re-entry's first fresh frame is the last child of the node it
        # replaces at level k+1
        parent = nodes[k] if reentered else nodes[k - 1] if k else None
        del nodes[k:]
        for a, _ in step.stack[k:]:
            node = ParseNode(psdg.production(a).lhs, a, start_state=q_prev)
            if parent is not None:
                parent.children.append(node)
            parent = node
            nodes.append(node)
            made.append(node)
        nodes[-1].children.append(
            TerminalLeaf(step.terminal, t, q_prev, step.state.idx))
        q_prev = step.state.idx
    for node in reversed(made):     # each node's children before it
        last = node.children[-1]
        node.end_state = (last.end_state if isinstance(last, ParseNode)
                          else last.next_state)
    return made[0]


def _tuple_symbol(node) -> tuple:
    """A tree node's ⟨state-in, symbol, state-out⟩ tuple symbol."""
    if isinstance(node, TerminalLeaf):
        return (TERM, node.prev_state, node.symbol, node.next_state)
    return (NT, node.start_state, node.symbol, node.end_state)


def pcfg_tree_probability(pcfg: Pcfg, tree: ParseNode) -> float:
    """Log probability of a state-annotated parse tree: the root's start
    weight times constant production probabilities down the tree.  Trees
    that only use pruned (zero-mass) tuples get -inf; structurally alien
    trees raise UnknownProduction."""
    psdg = pcfg.psdg
    logp = 0.0
    nodes = [tree]                  # parents before children
    for node in nodes:
        try:
            prod = psdg.production(node.production)
        except KeyError:
            raise UnknownProduction(
                f"production {node.production} does not exist") from None
        if prod.lhs != node.symbol or len(prod.rhs) != len(node.children):
            raise UnknownProduction(
                f"production {node.production} does not fit node "
                f"{node.symbol!r} with {len(node.children)} children")
        # no rule matches a leaf off the converted grammar's terminals
        rhs = tuple(map(_tuple_symbol, node.children))
        logp += next((math.log(rule.prob) for rule in pcfg.productions.get(
            _tuple_symbol(node), ()) if rule.origin == node.production
            and rule.rhs == rhs), -math.inf)
        nodes += [c for c in node.children if isinstance(c, ParseNode)]
    w = pcfg.start.get(_tuple_symbol(tree), 0.0)
    return math.log(w) + logp if w > 0.0 else -math.inf
