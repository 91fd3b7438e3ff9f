"""Generative semantics: stacks, termination, sampling, scoring."""
import ast
import json
import math
import random
import sys
from collections import Counter

from pathlib import Path

import pytest

import psdg
from helpers import (ab_grammar, build, feature, forcing_grammar, production,
                     random_psdg, repeated_child_grammar,
                     single_production_grammar, state_of, traffic,
                     unit_feature)
from psdg.errors import InvalidTrajectory
from psdg.generate import (TimeStep, Trajectory, enumerate_chains,
                           sample_chain, sample_trajectory, stack_rule,
                           trajectory_json_lines)
from psdg.grammar import StatePoint, enumerate_states, production_probability
from psdg.oracle import enumerate_joint
from referee import trajectory_probability


def drive_pass_stack(pass_cursor: int):
    """Drive -> Pass Drive with Pass -> Left Right at the given cursor."""
    return ((3, 1), (5, pass_cursor))


class TestTermination:
    """`stack_rule`'s live count: the levels past it terminate."""

    def test_pass_terminates_at_final_cursor(self):
        g = traffic()
        assert stack_rule(g, drive_pass_stack(2))[1] == 1
        assert stack_rule(g, drive_pass_stack(1))[1] == 2

    def test_mid_production_frame_never_terminates(self):
        g = traffic()
        # Drive frame sits at cursor 1 of a length-2 rhs
        assert stack_rule(g, drive_pass_stack(2))[1] >= 1

    def test_flags_form_suffix(self):
        """The levels past `live` are the deepest ones whose cursors all
        sit on their final rhs symbol."""
        g = traffic()
        for stack in (drive_pass_stack(1), drive_pass_stack(2),
                      ((4, 1),)):
            live = stack_rule(g, stack)[1]
            final = [b == len(g.production(a).rhs) for a, b in stack]
            assert all(final[live:])
            assert live == 0 or not final[live - 1]

    def test_exit_frame_terminates_root(self):
        g = traffic()
        assert stack_rule(g, ((4, 1),)) == ("Exit", 0, None)


class TestAdvanceStack:
    """A step's next stack: `stack_rule`'s skeleton, with any fresh chain
    drawn by `sample_chain` at the new state."""

    def test_pass_cursor_advances(self):
        g = traffic()
        assert stack_rule(g, drive_pass_stack(1)) == \
            ("Left", 2, (drive_pass_stack(2), None))
        assert stack_rule(g, drive_pass_stack(2))[0] == "Right"

    def test_two_symbol_production_steps_through(self):
        g = build([unit_feature()], [production(0, "S", ["a", "b"])], "S")
        assert stack_rule(g, ((0, 1),)) == ("a", 1, (((0, 2),), None))
        assert stack_rule(g, ((0, 2),))[0] == "b"

    def test_root_termination_returns_none(self):
        g = traffic()
        assert stack_rule(g, ((4, 1),))[2] is None

    def test_tail_reentry_samples_fresh_root_production(self):
        g = traffic()
        q = state_of(
            g, {"lane": "center-lane", "speed": "slow", "exit": "far"})
        kept, fresh_symbol = stack_rule(g, drive_pass_stack(2))[2]
        assert (kept, fresh_symbol) == ((), "Drive")
        rng = random.Random(7)
        n = 100_000
        counts = Counter()
        for _ in range(n):
            root, _ = sample_chain(g, fresh_symbol, q, rng)[0]
            assert g.production(root).lhs == "Drive"
            counts[root] += 1
        for p in g.productions:
            if p.lhs != "Drive":
                continue
            want = production_probability(g, p.index, q)
            got = counts[p.index] / n
            sigma = math.sqrt(want * (1.0 - want) / n)
            assert abs(got - want) <= 3.0 * sigma + 1e-12, \
                (p.index, got, want)


def recursive_chains(g, symbol, state):
    """Reference fresh chains: one call per level, each chain's
    probability multiplied from the leaf up, zero products dropped."""
    out = []
    for a in g.by_lhs[symbol]:
        p = production_probability(g, a, state)
        first = g.production(a).rhs[0]
        tails = ([((), 1.0)] if g.is_terminal(first)
                 else recursive_chains(g, first, state))
        out += [(((a, 1),) + tail, p * tp) for tail, tp in tails
                if p * tp > 0.0]
    return out


def underflow_chain_grammar():
    """S -> A -> B is positive at each level, but its product underflows
    to zero."""
    return build([unit_feature()], [
        production(1, "S", ["A"], default=1e-200),
        production(2, "S", ["x"], default=1.0 - 1e-200),
        production(3, "A", ["B"], default=1e-200),
        production(4, "A", ["y"], default=1.0 - 1e-200),
        production(5, "B", ["z"])], "S")


class TestEnumerateChains:
    @pytest.mark.parametrize("make", [
        traffic, repeated_child_grammar, underflow_chain_grammar,
        *(lambda seed=seed: random_psdg(seed) for seed in range(40))],
        ids=["traffic", "repeated_child", "underflow",
             *map("random-{}".format, range(40))])
    def test_equals_the_recursive_reference(self, make):
        """Same chains, in the same order, with bit-equal probabilities."""
        g = make()
        for q in enumerate_states(g):
            for nt in g.nonterminals:
                got = enumerate_chains(g, nt, q)
                want = recursive_chains(g, nt, q)
                assert got == want
                assert [p.hex() for _, p in got] == [p.hex() for _, p in want]

    def test_chain_deeper_than_the_recursion_limit(self):
        n = sys.getrecursionlimit() + 200
        g = build([unit_feature()], [
            production(i, f"N{i}", [f"N{i + 1}" if i < n - 1 else "x"])
            for i in range(n)], "N0")
        assert enumerate_chains(g, "N0", (0,)) == [
            (tuple((i, 1) for i in range(n)), 1.0)]


class TestSampleTrajectory:
    def test_forced_walkthrough(self):
        g = forcing_grammar()
        traj = sample_trajectory(g, horizon=10, seed=123)
        assert [s.terminal for s in traj.steps] == ["Left", "Right", "Exit"]
        assert traj.complete
        assert traj.steps[0].stack == drive_pass_stack(1)
        assert traj.steps[1].stack == drive_pass_stack(2)
        assert traj.steps[2].stack == ((4, 1),)

    def test_single_terminal_completes_at_one(self):
        g = single_production_grammar()
        traj = sample_trajectory(g, horizon=5, seed=0)
        assert len(traj.steps) == 1
        assert traj.steps[0].terminal == "a"
        assert traj.complete

    def test_seed_determinism(self):
        g = traffic()
        a = sample_trajectory(g, horizon=12, seed=42)
        b = sample_trajectory(g, horizon=12, seed=42)
        assert a == b
        c = sample_trajectory(g, horizon=12, seed=43)
        assert a != c or len(a.steps) != len(c.steps)

    def test_horizon_zero_rejected(self):
        with pytest.raises(ValueError):
            sample_trajectory(single_production_grammar(), horizon=0)


def pass_left_then_exit_trajectory(g):
    """Pass on the left, then exit, through hand-picked states."""
    def q(mapping):
        return StatePoint(state_of(g, mapping))
    q0 = q({"lane": "center-lane", "speed": "slow", "exit": "far"})
    q1 = q({"lane": "left-lane", "speed": "slow", "exit": "far"})
    q2 = q({"lane": "center-lane", "speed": "slow", "exit": "far"})
    q3 = q({"lane": "center-lane", "speed": "slow", "exit": "far"})
    steps = (
        TimeStep(drive_pass_stack(1), "Left", q1),
        TimeStep(drive_pass_stack(2), "Right", q2),
        TimeStep(((4, 1),), "Exit", q3),
    )
    return Trajectory(q0, steps, complete=True)


class TestTrajectoryProbability:
    def test_deterministic_chain_scores_zero_log(self):
        g = forcing_grammar()
        traj = sample_trajectory(g, horizon=10, seed=5)
        # every factor along the forced walk is 1 except the state flips,
        # which are deterministic too
        assert trajectory_probability(g, traj) == pytest.approx(0.0)

    def test_two_way_choice(self):
        g = ab_grammar(pa=0.3)
        traj = sample_trajectory(g, horizon=1, seed=11)
        want = {"a": 0.3, "b": 0.7}[traj.steps[0].terminal]
        assert trajectory_probability(g, traj) == \
            pytest.approx(math.log(want))

    def test_matches_hand_computed_product(self):
        g = traffic()
        traj = pass_left_then_exit_trajectory(g)
        want = math.log(0.6 * 0.5 * 1.0     # prior center/slow/far
                        * 0.10              # p3 at q0
                        * 0.5               # p5 at q0
                        * (1.0 * 0.8 * 0.6)   # q0 -Left-> q1
                        * (1.0 * 0.8 * 0.6)   # q1 -Right-> q2
                        * 0.05              # p4 at q2 (tail re-entry)
                        * (1.0 * 0.8 * 0.6))  # q2 -Exit-> q3
        assert trajectory_probability(g, traj) == pytest.approx(want)

    def test_matches_enumerated_probability(self):
        g = traffic()
        traj = pass_left_then_exit_trajectory(g)
        joint = enumerate_joint(g, horizon=3)
        matches = [e for e in joint.entries if e.trajectory == traj]
        assert len(matches) == 1
        got = trajectory_probability(g, traj)
        assert abs(got - matches[0].log_prob) <= 1e-12 * abs(got)

    def test_rejects_wrong_stack(self):
        g = traffic()
        traj = pass_left_then_exit_trajectory(g)
        broken = Trajectory(
            traj.initial_state,
            (traj.steps[0],
             TimeStep(drive_pass_stack(1), "Right", traj.steps[1].state),
             traj.steps[2]),
            complete=True)
        with pytest.raises(InvalidTrajectory):
            trajectory_probability(g, broken)

    def test_rejects_step_after_completion(self):
        g = ab_grammar()
        traj = sample_trajectory(g, horizon=1, seed=1)
        extra = Trajectory(
            traj.initial_state,
            tuple(traj.steps) + tuple(traj.steps),
            complete=True)
        with pytest.raises(InvalidTrajectory):
            trajectory_probability(g, extra)


class TestSamplerConsistency:
    def test_empirical_matches_exact(self):
        g = repeated_child_grammar()
        horizon = 4
        joint = enumerate_joint(g, horizon)

        def key(traj):
            return (traj.initial_state.idx,
                    tuple((s.stack, s.terminal, s.state.idx)
                          for s in traj.steps),
                    traj.complete)

        want = {key(e.trajectory): e.prob for e in joint.entries}
        n = 100_000
        counts = Counter()
        for seed in range(n):
            counts[key(sample_trajectory(g, horizon, seed))] += 1
        assert set(counts) <= set(want)
        for k, p in want.items():
            sigma = math.sqrt(p * (1.0 - p) / n)
            assert abs(counts[k] / n - p) <= 3.0 * sigma + 1e-12, \
                (k, counts[k] / n, p)


class TestStackWellFormedness:
    def test_random_grammar_trajectories(self):
        for seed in range(12):
            g = random_psdg(seed)
            for run in range(6):
                traj = sample_trajectory(g, horizon=7, seed=run)
                for step in traj.steps:
                    stack = step.stack
                    for i, (a, b) in enumerate(stack):
                        prod = g.production(a)
                        assert 1 <= b <= len(prod.rhs)
                        if i + 1 < len(stack):
                            child = g.production(stack[i + 1][0])
                            assert prod.rhs[b - 1] == child.lhs
                    # the leaf's cursor symbol is the emitted terminal
                    a, b = stack[-1]
                    sym = g.production(a).rhs[b - 1]
                    assert sym == step.terminal
                    assert g.is_terminal(sym)
                # level and symbol exist only in the rendered lines
                lines = [json.loads(line)
                         for line in trajectory_json_lines(g, traj)]
                for step, line in zip(traj.steps, lines[1:], strict=True):
                    assert [(f["production"], f["cursor"])
                            for f in line["stack"]] == list(step.stack)
                    for i, frame in enumerate(line["stack"]):
                        prod = g.production(frame["production"])
                        assert frame["level"] == i + 1
                        assert prod.lhs == frame["symbol"]

    def test_leaf_on_a_nonterminal_is_invalid(self):
        """Drive's cursor 1 sits on Pass, a nonterminal: an explicit
        raise, so `python -O` keeps it."""
        with pytest.raises(InvalidTrajectory,
                           match="leaf of stack is 'Pass', not a terminal"):
            stack_rule(traffic(), ((3, 1),))


def _scanned_modules() -> list[Path]:
    """The package's modules, and the test-side referees, which the scans
    below hold to the same rules."""
    src = Path(psdg.__file__).parent
    return [*sorted(src.glob("*.py")), Path(__file__).with_name("referee.py")]


def test_package_checks_never_use_assert():
    """Every check in the package and its referees is an explicit raise:
    an `assert` vanishes under `python -O`."""
    src = Path(psdg.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in _scanned_modules()
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert len(list(src.glob("*.py"))) >= 8
    assert found == []


# The functions that wrap a state tuple in StatePoint: each records a
# trajectory.  Every other function takes and returns index tuples.
STATE_POINT_MAKERS = {"generate.sample_trajectory", "oracle.joint_runs"}


def _is_state_point(node: ast.AST) -> bool:
    """Whether `node` names StatePoint, bare or as a module attribute."""
    return (isinstance(node, ast.Name) and node.id == "StatePoint"
            or isinstance(node, ast.Attribute) and node.attr == "StatePoint")


def _state_point_uses(tree: ast.AST, scope: tuple[str, ...], nested=False):
    """(function, "call" or "isinstance") per StatePoint call or isinstance
    test under `tree`, each named by its outermost enclosing function."""
    for node in ast.iter_child_nodes(tree):
        inner, inner_nested = scope, nested
        if not nested and isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                            ast.AsyncFunctionDef)):
            inner = scope + (node.name,)
            inner_nested = not isinstance(node, ast.ClassDef)
        if isinstance(node, ast.Call) and _is_state_point(node.func):
            yield ".".join(scope), "call"
        if (_calls(node, "isinstance") and len(node.args) == 2
                and any(map(_is_state_point, ast.walk(node.args[1])))):
            yield ".".join(scope), "isinstance"
        yield from _state_point_uses(node, inner, inner_nested)


def test_only_trajectory_builders_make_state_points():
    """States are value-index tuples in every function: StatePoint is
    built only where a trajectory is recorded, and nothing branches on
    whether a state is one."""
    found = {use for path in _scanned_modules()
             for use in _state_point_uses(ast.parse(
                 path.read_text(encoding="utf-8")), (path.stem,))}
    assert found == {(name, "call") for name in STATE_POINT_MAKERS}


# Functions allowed to call themselves, each with why its depth is bounded
# or out of the way.
SELF_CALLS_ALLOWED = {
    # the report shape fixes the depth: a few nested dicts
    "oracle.compare_reports.walk",
}


def _calls(node: ast.AST, name: str) -> bool:
    """Whether `node` is a call of `name`, bare or as a self./cls. method."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == name
            or isinstance(func, ast.Attribute) and func.attr == name
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls"))


def _self_calls(tree: ast.AST, scope: tuple[str, ...]):
    """Qualified names of the functions under `tree` that call themselves."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            inner = scope + (node.name,)
            if not isinstance(node, ast.ClassDef) and any(
                    _calls(call, node.name) for call in ast.walk(node)):
                yield ".".join(inner)
        yield from _self_calls(node, inner)


def test_package_functions_do_not_recurse():
    """Walks over input keep their own stacks, so input of any depth that
    validation accepts runs instead of hitting the interpreter's recursion
    limit.  The named exceptions are listed with their reasons."""
    found = {name for path in _scanned_modules()
             for name in _self_calls(ast.parse(
                 path.read_text(encoding="utf-8")), (path.stem,))}
    assert found == SELF_CALLS_ALLOWED
