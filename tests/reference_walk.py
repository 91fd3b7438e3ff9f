"""Frozen reference copy of the joint walk that copies the run so far into
every open node, with its three caches and its counting closure.

`test_oracle.py` holds `psdg.oracle.joint_runs` to this copy: on any
grammar both must yield equal rows in the same order (initial state, each
step's stack, terminal and state, completion, probability and log
probability), and raise the same ExplosionBound message after the same
rows.  Do not edit it to follow the package; it is the behaviour the
package walk must keep.
"""
from __future__ import annotations

import functools
import math
from typing import Iterator, Optional

from psdg.errors import ExplosionBound
from psdg.generate import (Stack, TimeStep, Trajectory, enumerate_chains,
                           stack_rule)
from psdg.grammar import (Psdg, StatePoint, StateSet, enumerate_states,
                          prior_probability)
from psdg.oracle import DEFAULT_JOINT_BOUND, JointEntry, _transition_options


def joint_runs(psdg: Psdg, horizon: int, bound: int = DEFAULT_JOINT_BOUND,
               initial: Optional[StateSet] = None) -> Iterator[JointEntry]:
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    count = 0

    @functools.cache
    def transition_options(q_prev: tuple[int, ...], terminal: str) -> list:
        """(q, log tp, StatePoint(q)) per next state, in enumeration order."""
        return [(q, math.log(tp), StatePoint(q))
                for q, tp in _transition_options(psdg, q_prev, terminal)]

    @functools.cache
    def time_steps(stack: Stack, q_prev: tuple[int, ...]) -> list:
        """(q, log tp, TimeStep) per next state after `stack` in q_prev."""
        terminal = stack_facts(stack)[0]
        return [(q, log_tp, TimeStep(stack, terminal, point))
                for q, log_tp, point in transition_options(q_prev, terminal)]

    @functools.cache
    def fresh_chains(symbol: str, q: tuple[int, ...]) -> list:
        """(chain, log cp) per fresh expansion of `symbol` in state q."""
        return [(chain, math.log(cp))
                for chain, cp in enumerate_chains(psdg, symbol, q)]

    stack_facts = functools.cache(functools.partial(stack_rule, psdg))

    def count_one():
        nonlocal count
        count += 1
        if count > bound:
            raise ExplosionBound(
                f"joint enumeration exceeded {bound} nodes and rows at "
                f"horizon {horizon}")

    def node(q0: StatePoint, steps: tuple[TimeStep, ...], stack: Stack,
             q_prev: tuple[int, ...], logp: float, t: int):
        """One node of the walk, counted once read: its rows, and the
        arguments of its child nodes, in walk order."""
        count_one()
        _, live, skeleton = stack_facts(stack)
        for q, log_tp, step in time_steps(stack, q_prev):
            steps2 = steps + (step,)
            lp = logp + log_tp
            if not live or t == horizon:
                count_one()
                traj = Trajectory(q0, steps2, not live)
                yield JointEntry(traj, math.exp(lp), lp)
            else:
                kept, fresh_symbol = skeleton
                if fresh_symbol is None:
                    yield q0, steps2, kept, q, lp, t + 1
                else:
                    for chain, log_cp in fresh_chains(fresh_symbol, q):
                        yield q0, steps2, kept + chain, q, lp + log_cp, t + 1

    for q0_idx in enumerate_states(psdg):
        p0 = prior_probability(psdg, q0_idx)
        if p0 <= 0.0 or (initial is not None and q0_idx not in initial):
            continue
        for chain, cp in enumerate_chains(psdg, psdg.start, q0_idx):
            todo = [node(StatePoint(q0_idx), (), chain, q0_idx,
                         math.log(p0) + math.log(cp), 1)]
            while todo:
                for item in todo[-1]:
                    if type(item) is not JointEntry:
                        todo.append(node(*item))
                        break
                    yield item
                else:
                    todo.pop()
