"""Forward execution of a grammar: expansion stacks and sampled trajectories.

A running plan is a stack of (production, cursor) pairs, root first, one
per level of the active branch.  Pair ⟨a, b⟩ at position ℓ (1-based) is
the frame at level ℓ: production a is being expanded, so the level's
symbol is a's left-hand side, and its b-th right-hand symbol (1-based) is
the one currently in progress.  The deepest frame always sits on a
terminal; that terminal is the step's emission.

Levels grow by one from parent to child, with one exception: a production
whose final symbol repeats its own left-hand side re-enters the same level
with a freshly drawn production once the cursor has cleared the preceding
symbols.  The cursor of such a frame therefore never reaches the final
position, and the frame itself never terminates; this is what lets
self-embedding plans run for unbounded time in bounded depth.

What a stack does at a step apart from fresh draws (its emitted terminal,
the levels that terminate and where it advances to) does not depend on
the state.  `stack_rule` states it once; the recognizer's branch table,
the oracle's walk and the sampler read it, and so does `replay` in
`tests/referee.py`, the one check of a recorded run.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import InvalidTrajectory
from .grammar import Psdg, StatePoint, _feature_transition


Stack = tuple[tuple[int, int], ...]  # (production, 1-based cursor), root first


@dataclass
class TimeStep:
    stack: Stack
    terminal: str
    state: StatePoint   # state after the terminal was emitted


@dataclass(slots=True)
class Trajectory:
    initial_state: StatePoint
    steps: tuple[TimeStep, ...] = ()
    complete: bool = False
    seed: Optional[int] = None


def enumerate_chains(psdg: Psdg, symbol: Optional[str],
                     state: tuple[int, ...]) -> list[tuple[Stack, float]]:
    """All ways to freshly expand `symbol` down to a terminal leaf:
    (frame chain, probability) pairs in production-index order, depth
    first, each probability multiplied from the leaf up.  Chains of
    probability zero, including products that underflow, are skipped.
    With no symbol (None: the kept frames end on the new leaf) the one
    chain is empty, with probability 1.  Probabilities are read from the
    grammar's per-cell vectors (`Psdg.production_probs`).  The walk keeps
    its own stack, so chains may be as deep as validation allows."""
    if symbol is None:
        return [((), 1.0)]
    out: list[tuple[Stack, float]] = []
    frames: list[tuple[int, int]] = []      # the open frames, root first
    probs: list[float] = []                 # and their probabilities
    todo = [zip(psdg.by_lhs[symbol], psdg.production_probs(symbol, state))]
    while todo:
        for a, p in todo[-1]:
            if p <= 0.0:
                continue
            first = psdg.production(a).rhs[0]
            if psdg.is_terminal(first):
                cp = math.prod(reversed(probs), start=p)    # leaf up
                if cp > 0.0:
                    out.append(((*frames, (a, 1)), cp))
                continue
            frames.append((a, 1))
            probs.append(p)
            todo.append(zip(psdg.by_lhs[first],
                            psdg.production_probs(first, state)))
            break
        else:
            todo.pop()
            if frames:
                frames.pop()
                probs.pop()
    return out


def sample_chain(psdg: Psdg, symbol: Optional[str], state: tuple[int, ...],
                 rng: random.Random) -> Stack:
    """One fresh expansion of `symbol` drawn top-down; with no symbol it
    draws nothing and gives the empty chain."""
    frames: list[tuple[int, int]] = []
    sym = symbol
    while sym is not None and not psdg.is_terminal(sym):
        weights = psdg.production_probs(sym, state)
        a = psdg.by_lhs[sym][_sample_indexed(weights, rng, sum(weights))]
        frames.append((a, 1))
        sym = psdg.production(a).rhs[0]
    return tuple(frames)


def stack_rule(psdg: Psdg, stack: Stack
               ) -> tuple[str, int, Optional[tuple[Stack, Optional[str]]]]:
    """The state-free part of one step of `stack`: (leaf, live, skeleton).

    `leaf` is the emitted terminal; InvalidTrajectory is raised if the
    deepest cursor sits on a nonterminal.  A frame terminates iff its
    cursor is on the final rhs symbol and every deeper frame terminates
    (the terminal leaf always completes), so the terminating levels are
    those past the first `live`.  With `live` 0 the root has terminated
    and `skeleton` is None.  Otherwise `skeleton` is (kept frames, symbol
    needing a fresh chain or None); a fresh chain always opens at level
    len(kept) + 1.  The deepest live frame's cursor moves to the next rhs
    symbol, which either is the new terminal leaf, re-enters the same
    level (trailing-lhs recursion), or opens a fresh chain one level down.
    """
    a, b = stack[-1]
    leaf = psdg.production(a).rhs[b - 1]
    if not psdg.is_terminal(leaf):
        raise InvalidTrajectory(f"leaf of stack is {leaf!r}, not a terminal")
    live = len(stack)
    while live and stack[live - 1][1] == len(
            psdg.production(stack[live - 1][0]).rhs):
        live -= 1
    if not live:
        return leaf, 0, None
    a, b = stack[live - 1]
    prod = psdg.production(a)
    if prod.tail_recursive and b + 1 == len(prod.rhs):
        return leaf, live, (stack[:live - 1], prod.lhs)
    sym = prod.rhs[b]
    return leaf, live, (stack[:live - 1] + ((a, b + 1),),
                        None if psdg.is_terminal(sym) else sym)


def _sample_indexed(probs: Sequence[float], rng: random.Random,
                    total: float = 1.0) -> int:
    """Index i drawn with probability probs[i] / total.  A draw at or past
    the float sum of `probs` falls to the last index that can be drawn."""
    r = rng.random() * total
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if r < acc:
            return i
    return max(i for i, p in enumerate(probs) if p > 0.0)


def sample_trajectory(psdg: Psdg, horizon: int, seed: Optional[int] = None
                      ) -> Trajectory:
    """Run the generative process for up to `horizon` steps.

    Draw order is fixed (initial state by feature, then per step: stack
    choices top-down, transition by feature), so equal seeds give equal
    trajectories.  The run ends early if the root expansion terminates.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    rng = random.Random(seed)
    q0 = tuple(_sample_indexed(f.prior, rng) for f in psdg.features)
    steps = []
    complete = False
    stack = sample_chain(psdg, psdg.start, q0, rng)
    q_prev = q0
    for _ in range(horizon):
        terminal, _, skeleton = stack_rule(psdg, stack)
        q = tuple(_sample_indexed(_feature_transition(psdg, fi, q_prev,
                                                      terminal), rng)
                  for fi in range(len(psdg.features)))
        steps.append(TimeStep(stack, terminal, StatePoint(q)))
        if skeleton is None:
            complete = True
            break
        # Fresh productions are drawn at the state after the emission.
        kept, fresh_symbol = skeleton
        stack = kept + sample_chain(psdg, fresh_symbol, q, rng)
        q_prev = q
    return Trajectory(StatePoint(q0), tuple(steps), complete, seed)


def trajectory_json_lines(psdg: Psdg, traj: Trajectory) -> Iterator[str]:
    header = {
        "q0": psdg.labels(traj.initial_state.idx),
        "seed": traj.seed,
        "complete": traj.complete,
    }
    yield json.dumps(header)
    for t, step in enumerate(traj.steps, start=1):
        yield json.dumps({
            "t": t,
            "stack": [{"level": level, "symbol": psdg.production(a).lhs,
                       "production": a, "cursor": b}
                      for level, (a, b) in enumerate(step.stack, start=1)],
            "terminal": step.terminal,
            "state": psdg.labels(step.state.idx),
        })


def observation_json_lines(psdg: Psdg, traj: Trajectory) -> Iterator[str]:
    """The trajectory's state sequence as singleton observation lines."""
    for t, step in enumerate(traj.steps, start=1):
        observe = {name: [value]
                   for name, value in psdg.labels(step.state.idx).items()}
        yield json.dumps({"t": t, "observe": observe})
