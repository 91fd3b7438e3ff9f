"""Enumeration oracle, exact posteriors, parse trees, PCFG equivalence."""
import ast
import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path
from typing import Optional

import pytest

from helpers import (ab_grammar, build, feature, forcing_grammar, production,
                     random_psdg, random_stream, repeated_child_grammar,
                     sized_random_psdg, tail_recursive_grammar, traffic,
                     unit_feature)
from make_golden import GRAMMARS
import reference_pcfg
import reference_walk
import psdg
import psdg.oracle as oracle
from psdg.errors import (ExplosionBound, InvalidTrajectory, PsdgError,
                         ZeroEvidence)
from psdg.generate import TimeStep, Trajectory, sample_trajectory
from psdg.grammar import ProbabilityFunction, StatePoint, StateSet
from psdg.infer import Observation, recognize
from psdg.oracle import (DEFAULT_JOINT_BOUND, compare_reports, enumerate_joint,
                         pcfg_text, reference_reports, streamed_reports,
                         to_pcfg)
from psdg.parse import load_file, load_text
from referee import (Query, TerminalLeaf, UnknownProduction, exact_posterior,
                     parse_tree, pcfg_tree_probability, trajectory_probability)


class TestEnumerateJoint:
    def test_deterministic_grammar_single_entry(self):
        g = forcing_grammar()
        joint = enumerate_joint(g, horizon=5)
        assert len(joint.entries) == 1
        assert joint.entries[0].prob == pytest.approx(1.0)
        assert joint.entries[0].trajectory.complete

    def test_two_way_split(self):
        g = ab_grammar(pa=0.3)
        joint = enumerate_joint(g, horizon=1)
        probs = sorted(e.prob for e in joint.entries)
        assert probs == [pytest.approx(0.3), pytest.approx(0.7)]

    def test_mass_sums_to_one(self):
        for g, horizon in ((traffic(), 3), (repeated_child_grammar(), 5),
                           (tail_recursive_grammar(), 4)):
            joint = enumerate_joint(g, horizon)
            assert abs(joint.total_mass - 1.0) <= 1e-9

    def test_no_duplicate_trajectories(self):
        g = tail_recursive_grammar()
        joint = enumerate_joint(g, horizon=4)
        seen = set()
        for e in joint.entries:
            key = (e.trajectory.initial_state.idx,
                   tuple((s.stack, s.terminal, s.state.idx)
                         for s in e.trajectory.steps),
                   e.trajectory.complete)
            assert key not in seen
            seen.add(key)
            assert e.prob > 0.0

    def test_entries_match_trajectory_probability(self):
        g = traffic()
        joint = enumerate_joint(g, horizon=3)
        for e in joint.entries:
            lp = trajectory_probability(g, e.trajectory)
            assert abs(lp - e.log_prob) <= 1e-12 * max(1.0, abs(lp))

    def test_explosion_bound(self):
        g = traffic()
        with pytest.raises(ExplosionBound):
            enumerate_joint(g, horizon=3, bound=100)

    def test_bound_counts_table_rows_too(self):
        """Traffic at horizon 3 walks 6072 nodes and stores 19350 rows: a
        bound on nodes alone lets the table outgrow it threefold."""
        g = traffic()
        with pytest.raises(ExplosionBound, match="nodes and rows"):
            enumerate_joint(g, horizon=3, bound=10_000)
        with pytest.raises(ExplosionBound):
            enumerate_joint(g, horizon=3, bound=6072 + 19350 - 1)
        joint = enumerate_joint(g, horizon=3, bound=6072 + 19350)
        assert len(joint.entries) == 19350


# One state and one production: the walk has a single run per horizon.
ONE_STATE_TEXT = ("feature f { values: a; prior: 1; }\nstart S\n"
                  "prod 0: S -> x S { default: 1; }\n")


def drained(walk, g, horizon, **kwargs) -> tuple[list, Optional[str]]:
    """The rows a walk yields, each as (initial state, (stack, terminal,
    state) per step, complete, prob, log prob), and the ExplosionBound
    message it ends with, if any."""
    rows = []
    try:
        for e in walk(g, horizon, **kwargs):
            traj = e.trajectory
            rows.append((traj.initial_state.idx,
                         tuple((s.stack, s.terminal, s.state.idx)
                               for s in traj.steps),
                         traj.complete, e.prob, e.log_prob))
    except ExplosionBound as err:
        return rows, str(err)
    return rows, None


class TestReferenceWalk:
    """The walk that keeps one open run is held to a frozen copy of the
    walk that copied the run into every node: the same rows in the same
    order, and the same bound message after the same rows."""

    @staticmethod
    def assert_same_walk(g, horizon, bounds=(), **kwargs) -> int:
        """Both walks agree at the default bound, which they stay within,
        and at each of `bounds`; returns how many of those they exceed."""
        want = drained(reference_walk.joint_runs, g, horizon, **kwargs)
        assert want[1] is None and want[0]
        assert drained(oracle.joint_runs, g, horizon, **kwargs) == want
        exceeded = 0
        for bound in bounds:
            want = drained(reference_walk.joint_runs, g, horizon,
                           bound=bound, **kwargs)
            exceeded += want[1] is not None
            assert drained(oracle.joint_runs, g, horizon, bound=bound,
                           **kwargs) == want, bound
        return exceeded

    def test_traffic(self):
        g = traffic()
        bounds = (1, 2, 3, 50, 6072, 6072 + 19350 - 1)
        assert self.assert_same_walk(g, 3, bounds) == len(bounds)
        left = Observation.from_labels(g, 0, {"lane": ["left-lane"]})
        bounds = (1, 7, 1820 + 5802 - 1)
        assert self.assert_same_walk(g, 3, bounds,
                                     initial=left.constraint) == len(bounds)

    def test_deep_plans_and_a_long_run(self):
        assert self.assert_same_walk(load_file(GRAMMARS["deep-plans"]), 2,
                                     (1, 5, 400)) == 3
        g = load_text(ONE_STATE_TEXT)
        rows, _ = drained(oracle.joint_runs, g, 300)
        assert len(rows) == 1 and len(rows[0][1]) == 300
        assert self.assert_same_walk(g, 300, (1, 299, 300, 301)) == 3

    def test_random_grammars(self):
        exceeded = 0
        for seed in range(40):
            exceeded += self.assert_same_walk(random_psdg(seed), 4,
                                              range(1, 30, 3))
        assert exceeded >= 300, exceeded

    def test_the_walk_keeps_one_open_run(self):
        """Twice the steps of `S -> x S` about double the walk's peak;
        copying the run into every node made it grow with the square."""
        g = load_text(ONE_STATE_TEXT)

        def peak(horizon: int) -> int:
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                for _ in oracle.joint_runs(g, horizon):
                    pass
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        small, large = peak(1200), peak(2400)
        assert large < 2.5 * small, (small, large)


def lanes(g, *stream):
    """Observations from (t, lane) pairs on the traffic grammar."""
    return [Observation.from_labels(g, t, {"lane": [lane]})
            for t, lane in stream]


def table_reports(g, observations, bound=DEFAULT_JOINT_BOUND):
    """reference_reports over the whole table, up to the last prediction
    slice."""
    joint = enumerate_joint(g, observations[-1].time + 1, bound)
    return reference_reports(g, joint, observations)


def failure(call) -> tuple[type, str]:
    with pytest.raises(PsdgError) as e:
        call()
    return type(e.value), str(e.value)


class TestCompareReports:
    GOT = {"evidence_likelihood": 0.5, "log_evidence": -1.0,
           "state": {"b": 0.2, "a": 0.8},
           "explain": {"symbols": {1: {"S": 1.0}, 2: {"A": 0.5}},
                       "completed": 0.0},
           "predict": {"terminal": {"x": 0.25}}}
    WANT = {"evidence_likelihood": 0.5, "log_evidence": -1.5,
            "state": {"a": 0.8, "c": 0.1},
            "explain": {"symbols": {1: {"S": 0.75}, "10": {"B": 0.3}},
                        "completed": "nope"},
            "predict": 3}

    def test_notes_follow_sorted_str_keys_depth_first(self):
        """Fields in report order, then `str` keys sorted at each level
        ("1" < "10" < "2"); a missing key counts 0, a dict met by a
        number counts as empty, and a value that is no number reads NaN,
        which makes the worst deviation infinite."""
        worst, notes = compare_reports(self.GOT, self.WANT)
        assert worst == math.inf
        assert notes == [
            "log_evidence: -1.0 vs -1.5", "state.b: 0.2 vs 0.0",
            "state.c: 0.0 vs 0.1", "explain.completed: 0.0 vs nan",
            "explain.symbols.1.S: 1.0 vs 0.75",
            "explain.symbols.10.B: 0.0 vs 0.3",
            "explain.symbols.2.A: 0.5 vs 0.0",
            "predict.terminal.x: 0.25 vs 0.0"]
        want = dict(self.WANT, explain={"symbols": {1: {"S": 0.75}}})
        assert compare_reports(want, self.GOT, tol=0.3) == (
            0.5, ["log_evidence: -1.5 vs -1.0",
                  "explain.symbols.2.A: 0.0 vs 0.5"])

    def test_nesting_deeper_than_the_recursion_limit(self):
        depth = 2 * sys.getrecursionlimit()
        got, want = 1.0, 0.5
        for _ in range(depth):
            got, want = {"k": got}, {"k": want}
        worst, notes = compare_reports(
            *({"evidence_likelihood": 1.0, "log_evidence": 0.0,
               "state": state, "explain": {}, "predict": {}}
              for state in (got, want)))
        assert worst == 0.5
        assert notes == ["state" + ".k" * depth + ": 1.0 vs 0.5"]


class TestArgumentErrors:
    def test_the_walk_needs_a_step(self):
        with pytest.raises(ValueError) as e:
            next(oracle.joint_runs(ab_grammar(), 0))
        assert str(e.value) == "horizon must be at least 1"

    def test_observation_times_must_increase(self):
        g = ab_grammar()
        for times in ((1, 1), (2, 1)):
            with pytest.raises(ValueError) as e:
                streamed_reports(g, [Observation.vacuous(g, t)
                                     for t in times])
            assert str(e.value) == \
                "observation times must be strictly increasing"

    def test_the_table_must_reach_the_prediction_slice(self):
        """An observation at t needs the table to reach t + 1."""
        g = ab_grammar()
        joint = enumerate_joint(g, 2)
        assert reference_reports(g, joint, [Observation.vacuous(g, 1)])
        with pytest.raises(ValueError) as e:
            reference_reports(g, joint, [Observation.vacuous(g, 2)])
        assert str(e.value) == \
            "joint horizon too small for prediction slices"


class TestStreamedReports:
    """`psdg oracle-check` feeds the walk straight to the report reducer;
    the table path feeds it `enumerate_joint`'s rows.  Both must give the
    same bytes, dict order included, and the same errors."""

    def test_stream_and_table_give_the_same_bytes(self):
        restricted = gappy = 0
        for i in range(30):
            g, joint = sized_random_psdg(4000 + i, horizon=5,
                                         max_entries=8000)
            obs = random_stream(g, joint, 700 + i, max_len=4)
            times = [o.time for o in obs]
            restricted += times[0] == 0
            gappy += times[-1] > len(times) - (times[0] == 0)
            assert json.dumps(streamed_reports(g, obs)) == \
                json.dumps(table_reports(g, obs)), i
        assert restricted and gappy

    @pytest.mark.parametrize("seed", [0, 3])
    def test_recognize_matches_a_stream_opened_at_t0(self, seed):
        """A t=0 point restriction keeps the walk within the joint bound
        up to t = 5, where an unrestricted traffic walk exceeds it; lane
        observations of a sampled run then hold the engine to 1e-9."""
        g = traffic()
        traj = sample_trajectory(g, 4, seed)
        point = StateSet(tuple(frozenset({v})
                               for v in traj.initial_state.idx))
        obs = [Observation(0, point)] + lanes(g, *(
            (t, g.labels(traj.steps[min(t, len(traj.steps)) - 1].state.idx)[
                "lane"]) for t in range(1, 5)))
        got = [r.to_dict(g) for r in recognize(g, obs)]
        for a, b in zip(got, streamed_reports(g, obs), strict=True):
            assert compare_reports(a, b, tol=1e-9)[1] == []

    def test_folded_masses_give_the_same_bytes(self, monkeypatch):
        """Folding the masses into their exact partials every 16 rows
        leaves every report as the unfolded table gives it."""
        cases = [(traffic(), lanes(traffic(), (1, "right-lane"),
                                   (2, "right-lane")))]
        for i in range(30):
            g, joint = sized_random_psdg(4000 + i, horizon=5,
                                         max_entries=8000)
            cases.append((g, random_stream(g, joint, 700 + i, max_len=4)))
        for g, obs in cases:
            monkeypatch.setattr(oracle, "_MASS_CHUNK", 10**9)
            want = json.dumps(table_reports(g, obs))
            monkeypatch.setattr(oracle, "_MASS_CHUNK", 16)
            assert json.dumps(streamed_reports(g, obs)) == want
            assert json.dumps(table_reports(g, obs)) == want

    def test_fold_keeps_the_exact_sum(self):
        masses = array("d", [1.0, 1e-300, 3e-310, 0.1, 0.2, 0.3] * 5)
        folded = array("d", masses)
        oracle._fold(folded)
        assert 1 < len(folded) < len(masses)
        for more in ([], [1e-16], [-1.0, 2.5e-310]):
            assert math.fsum(folded + array("d", more)) == \
                math.fsum(masses + array("d", more))
        zeros = array("d", [0.0] * 4)
        oracle._fold(zeros)
        assert not zeros

    def test_masses_take_no_memory_per_row(self):
        """Ten times the rows of traffic at horizon 3 raise the reducer's
        peak by much less than the 8 bytes a row that keeping every mass
        took."""
        g = traffic()
        obs = lanes(g, (1, "right-lane"), (2, "right-lane"))
        rows = list(oracle.joint_runs(g, 3))

        def peak(times: int) -> int:
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                oracle._reports(g, (e for _ in range(times) for e in rows),
                                obs)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        grown = peak(10) - peak(1)
        assert grown < 9 * len(rows), grown      # under a byte a row

    def test_errors_match(self):
        g = traffic()
        contradictions = [
            (2, lanes(g, (1, "left-lane"), (2, "right-lane"))),
            (0, [Observation.from_labels(g, 0, {"exit": ["at"]})]
             + lanes(g, (1, "left-lane"))),
        ]
        for t, obs in contradictions:
            want = failure(lambda: table_reports(g, obs))
            assert want == (ZeroEvidence, str(ZeroEvidence(t)))
            assert failure(lambda: streamed_reports(g, obs)) == want
        obs = lanes(g, (1, "right-lane"), (2, "right-lane"))
        want = failure(lambda: table_reports(g, obs, bound=100))
        assert want == (ExplosionBound, "joint enumeration exceeded 100 "
                                        "nodes and rows at horizon 3")
        assert failure(lambda: streamed_reports(g, obs, bound=100)) == want

    def test_a_leading_restriction_cuts_the_walk(self):
        """With lane left-lane at t=0, traffic at horizon 3 walks 1820
        nodes and 5802 rows instead of 6072 and 19350: the same reports
        fit a bound that the whole table outgrows."""
        g = traffic()
        obs = lanes(g, (0, "left-lane"), (1, "left-lane"), (2, "center-lane"))
        want = json.dumps(table_reports(g, obs))
        assert json.dumps(streamed_reports(g, obs, bound=1820 + 5802)) == want
        with pytest.raises(ExplosionBound):
            streamed_reports(g, obs, bound=1820 + 5802 - 1)
        with pytest.raises(ExplosionBound):
            table_reports(g, obs, bound=1820 + 5802)

    def test_the_stream_keeps_no_table(self):
        g = traffic()
        obs = lanes(g, (1, "right-lane"), (2, "right-lane"))

        def peak(call) -> int:
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                call()
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        table = peak(lambda: table_reports(g, obs))
        stream = peak(lambda: streamed_reports(g, obs))
        assert stream * 4 < table, (stream, table)


def test_oracle_imports_nothing_from_infer():
    """The referees share no code with the engine they judge: no module
    that oracle.py or tests/referee.py imports, directly or through
    another psdg or test module, is infer.  A name taken from the package
    itself counts as importing __init__, which imports infer."""
    src = Path(psdg.__file__).parent
    tests = Path(__file__).parent
    seen, todo = set(), [src / "oracle.py", tests / "referee.py"]
    while todo:
        path = todo.pop()
        if path in seen:
            continue
        seen.add(path)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = ".".join(filter(None, ["psdg" * bool(node.level),
                                                node.module]))
                mods = ([f"psdg.{a.name}" for a in node.names]
                        if module == "psdg" else [module])
            else:
                continue
            for mod in mods:
                top, _, rest = mod.partition(".")
                if top == "psdg":
                    part = src / f"{rest.split('.')[0]}.py"
                    todo.append(part if part.is_file() else src / "__init__.py")
                elif (tests / f"{top}.py").is_file():
                    todo.append(tests / f"{top}.py")
    assert src / "infer.py" not in seen
    assert {src / f"{name}.py"
            for name in ("generate", "grammar", "errors")} <= seen


def vacuous(g, t):
    return Observation.vacuous(g, t)


class TestExactPosterior:
    def test_query_equals_evidence(self):
        g = tail_recursive_grammar()
        joint = enumerate_joint(g, horizon=4)
        ev = [Observation.from_labels(g, 1, {"g": ["go"]})]
        got = exact_posterior(joint, ev, Query("state", 1,
                                               value=StateSet.from_labels(
                                                   g, {"g": ["go"]})))
        assert got == pytest.approx(1.0)

    def test_vacuous_evidence_terminal_marginal(self):
        g = ab_grammar(pa=0.3)
        joint = enumerate_joint(g, horizon=1)
        got = exact_posterior(joint, [], Query("terminal", 1, value="a"))
        assert got == pytest.approx(0.3)

    def test_production_and_symbol_queries(self):
        g = traffic()
        joint = enumerate_joint(g, horizon=2)
        # pass maneuver at level 2, slice 1
        p_sym = exact_posterior(joint, [], Query("symbol", 1, level=2,
                                                 value="Pass"))
        p_prod = sum(
            exact_posterior(joint, [], Query("production", 1, level=2,
                                             value=(a, 1)))
            for a in (5, 6))
        assert p_sym == pytest.approx(p_prod)
        assert p_sym > 0.0

    def test_zero_evidence_mass(self):
        g = traffic()
        joint = enumerate_joint(g, horizon=2)
        impossible = [
            Observation.from_labels(g, 1, {"lane": ["left-lane"]}),
            Observation.from_labels(g, 2, {"lane": ["right-lane"]}),
        ]
        with pytest.raises(ZeroEvidence) as raised:
            exact_posterior(joint, impossible,
                            Query("terminal", 1, value="Stay"))
        assert raised.value.time == 2

    def test_evidence_order_invariance(self):
        g = tail_recursive_grammar()
        joint = enumerate_joint(g, horizon=4)
        ev = [Observation.from_labels(g, 1, {"g": ["go"]}),
              Observation.from_labels(g, 3, {"g": ["halt"]})]
        q = Query("terminal", 2, value="a")
        assert exact_posterior(joint, ev, q) == \
            pytest.approx(exact_posterior(joint, list(reversed(ev)), q))

    def test_completed_query(self):
        g = ab_grammar()
        joint = enumerate_joint(g, horizon=3)
        # every run finishes at t=1, so it is completed from slice 2 on
        assert exact_posterior(joint, [], Query("completed", 2)) == \
            pytest.approx(1.0)
        assert exact_posterior(joint, [], Query("completed", 1)) == \
            pytest.approx(0.0)

    def test_terminated_query_matches_structure(self):
        g = traffic()
        joint = enumerate_joint(g, horizon=2)
        # root termination at slice 1 happens exactly on Drive -> Exit
        p_exit = exact_posterior(joint, [], Query("terminal", 1,
                                                  value="Exit"))
        p_term = exact_posterior(joint, [], Query("terminated", 1, level=1))
        assert p_term == pytest.approx(p_exit)


class TestParseTree:
    def test_forced_tree_shape(self):
        g = forcing_grammar()
        traj = sample_trajectory(g, horizon=5, seed=2)
        root = parse_tree(g, traj)
        assert root.symbol == "Drive"
        assert root.production == 3                  # Drive -> Pass Drive
        pass_node, tail = root.children
        assert pass_node.symbol == "Pass" and pass_node.production == 5
        assert [leaf.symbol for leaf in pass_node.children] == \
            ["Left", "Right"]
        assert tail.symbol == "Drive" and tail.production == 4
        assert [leaf.symbol for leaf in tail.children] == ["Exit"]
        # leaves carry the emission times in reading order
        assert [leaf.time for leaf in pass_node.children] == [1, 2]
        assert tail.children[0].time == 3

    def test_incomplete_run_rejected(self):
        g = tail_recursive_grammar()
        joint = enumerate_joint(g, horizon=3)
        incomplete = next(e.trajectory for e in joint.entries
                          if not e.trajectory.complete)
        from psdg.errors import InvalidTrajectory
        with pytest.raises(InvalidTrajectory):
            parse_tree(g, incomplete)

    def test_every_complete_run_has_consistent_tree(self):
        g = tail_recursive_grammar()
        joint = enumerate_joint(g, horizon=4)

        def leaves(node):
            out = []
            for c in node.children:
                if hasattr(c, "children"):
                    out.extend(leaves(c))
                else:
                    out.append(c)
            return out

        for e in joint.entries:
            if not e.trajectory.complete:
                continue
            root = parse_tree(g, e.trajectory)
            got = [leaf.symbol for leaf in leaves(root)]
            want = [s.terminal for s in e.trajectory.steps]
            assert got == want

    @pytest.mark.parametrize("n", [1200, 5000])
    def test_deep_complete_run(self, n):
        """A complete run of S -> x S | y is a tree n levels deep:
        `parse_tree` builds it and `pcfg_tree_probability` scores it, each
        without recursing, and the score equals the run's own.  Printing
        the tree and comparing it do not recurse either: trees compare by
        identity."""
        g = build([unit_feature()],
                  [production(0, "S", ["x", "S"], default=0.999),
                   production(1, "S", ["y"], default=0.001)], "S")
        q = StatePoint((0,))
        steps = [TimeStep(((0, 1),), "x", q)] * (n - 1) + \
            [TimeStep(((1, 1),), "y", q)]
        run = Trajectory(q, tuple(steps), complete=True)
        tree = parse_tree(g, run)
        leaves, todo = [], [tree]
        while todo:
            node = todo.pop()
            if isinstance(node, TerminalLeaf):
                leaves.append(node)
            else:
                todo += reversed(node.children)
        assert [(leaf.symbol, leaf.time) for leaf in leaves] == \
            [(s.terminal, t) for t, s in enumerate(steps, start=1)]
        want = trajectory_probability(g, run)
        assert want == pytest.approx((n - 1) * math.log(0.999)
                                     + math.log(0.001), rel=1e-12)
        got = pcfg_tree_probability(to_pcfg(g), tree)
        assert abs(got - want) <= 1e-9
        assert repr(tree)
        assert tree == tree and tree != parse_tree(g, run)


def swapped_stack_runs(g, seeds, horizon=8):
    """Complete sampled runs with the stacks of two steps exchanged, for
    every pair of steps whose stacks differ."""
    for seed in seeds:
        traj = sample_trajectory(g, horizon, seed)
        if not traj.complete:
            continue
        steps = traj.steps
        for i, j in itertools.combinations(range(len(steps)), 2):
            if steps[i].stack == steps[j].stack:
                continue
            swapped = list(steps)
            swapped[i] = dataclasses.replace(steps[i], stack=steps[j].stack)
            swapped[j] = dataclasses.replace(steps[j], stack=steps[i].stack)
            yield Trajectory(traj.initial_state, tuple(swapped), True, seed)


class TestMalformedParseTree:
    def test_swapped_stacks_raise_invalid_trajectory(self):
        runs = list(swapped_stack_runs(traffic(), range(20)))
        assert len(runs) > 100
        for run in runs:
            with pytest.raises(InvalidTrajectory):
                parse_tree(traffic(), run)

    def test_swapped_stacks_raise_under_optimize(self):
        """The run check is explicit, so `python -O` keeps it, for both
        referees that read it."""
        script = """if True:
            import dataclasses, sys
            from pathlib import Path
            import psdg
            from psdg.errors import InvalidTrajectory
            from psdg.generate import Trajectory, sample_trajectory
            from psdg.parse import load_file
            from referee import parse_tree, trajectory_probability
            if __debug__:
                sys.exit("not running under -O")
            g = load_file(Path(psdg.__file__).parent / "data" / "traffic.psdg")
            for seed, i, j in ((3, 0, 1), (3, 1, 3), (1, 0, 2), (7, 3, 6)):
                traj = sample_trajectory(g, 8, seed)
                steps = list(traj.steps)
                steps[i], steps[j] = (
                    dataclasses.replace(steps[i], stack=steps[j].stack),
                    dataclasses.replace(steps[j], stack=steps[i].stack))
                run = Trajectory(traj.initial_state, tuple(steps), True, seed)
                for referee in (parse_tree, trajectory_probability):
                    try:
                        referee(g, run)
                    except InvalidTrajectory as e:
                        print(e)
                    else:
                        sys.exit(f"seed {seed}: swapped steps {i}, {j} "
                                 f"passed {referee.__name__}")
        """
        src = Path(psdg.__file__).resolve().parents[1]
        tests = Path(__file__).resolve().parent
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(
                                  (str(src), str(tests)))})
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 8 and lines[::2] == lines[1::2]


def zero_prior_grammar():
    """Two frozen states; only state 0 has prior mass, so every tuple
    rooted in state 1 is pruned from the constructed grammar."""
    f = feature("u", ["z", "w"], [1.0, 0.0])
    return build([f],
                 [production(0, "S", ["a"],
                             rules=[([("u", ["z"])], 1.0)], default=0.0),
                  production(1, "S", ["b"],
                             rules=[([("u", ["z"])], 0.0)], default=1.0)],
                 "S")


def singular_completion_grammar():
    """S -> a S at probability 1 in a state `a` keeps: I - B is
    singular."""
    f = feature("f", ["x", "y"], [0.5, 0.5])
    return build([f],
                 [production(0, "S", ["a", "S"],
                             rules=[([("f", ["x"])], 1.0)], default=0.0),
                  production(1, "S", ["b"],
                             rules=[([("f", ["x"])], 0.0)], default=1.0)],
                 "S")


def slow_completion_grammar():
    """As singular_completion_grammar, but in state y each rule has 0.5, so
    y's completion mass is the series 0.5 + 0.25 + ..., many terms long."""
    f = feature("f", ["x", "y"], [0.5, 0.5])
    return build([f],
                 [production(0, "S", ["a", "S"],
                             rules=[([("f", ["x"])], 1.0)], default=0.5),
                  production(1, "S", ["b"],
                             rules=[([("f", ["x"])], 0.0)], default=0.5)],
                 "S")


class TestPcfg:
    def test_single_state_is_isomorphic(self):
        g = ab_grammar(pa=0.3)
        pcfg = to_pcfg(g)
        assert pcfg.production_count() == len(g.productions)
        probs = sorted(pr.prob for prods in pcfg.productions.values()
                       for pr in prods)
        assert probs == [pytest.approx(0.3), pytest.approx(0.7)]
        assert sum(pcfg.start.values()) == pytest.approx(1.0)

    def test_tuple_symbol_bound(self):
        g = repeated_child_grammar()        # |Q| = 2
        pcfg = to_pcfg(g)
        assert pcfg.nonterminal_count() <= len(g.nonterminals) * 4

    def test_tree_probability_equality_traffic(self):
        g = traffic()
        pcfg = to_pcfg(g)
        joint = enumerate_joint(g, horizon=3)
        checked = 0
        for e in joint.entries:
            if not e.trajectory.complete:
                continue
            tree = parse_tree(g, e.trajectory)
            got = pcfg_tree_probability(pcfg, tree)
            assert abs(got - e.log_prob) <= 1e-12 * max(1.0, abs(e.log_prob))
            checked += 1
        assert checked > 0

    def test_unknown_production_rejected(self):
        g = ab_grammar()
        pcfg = to_pcfg(g)
        other = build([unit_feature()],
                      [production(0, "S", ["c", "d"])], "S")
        traj = sample_trajectory(other, horizon=2, seed=0)
        tree = parse_tree(other, traj)
        with pytest.raises(UnknownProduction):
            pcfg_tree_probability(pcfg, tree)

    def test_zero_probability_tree_is_minus_inf(self):
        g = zero_prior_grammar()
        pcfg = to_pcfg(g)
        dead = Trajectory(
            StatePoint((1,)),
            (TimeStep(((1, 1),), "b", StatePoint((1,))),),
            complete=True)
        tree = parse_tree(g, dead)
        got = pcfg_tree_probability(pcfg, tree)
        assert got == -math.inf

    def test_text_export_lists_start_and_rules(self):
        g = ab_grammar()
        text = pcfg_text(to_pcfg(g))
        assert "# start" in text
        assert "->" in text

    def test_singular_completion_falls_back_to_the_series(self,
                                                          monkeypatch):
        """S -> a S at probability 1 in a state `a` keeps never completes
        there, so I - B is singular and np.linalg.solve raises; the
        geometric series then gives that state no completion mass."""
        g = singular_completion_grammar()
        import numpy as np
        solve, singular = np.linalg.solve, []

        def spy(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                singular.append(a.tolist())
                raise

        monkeypatch.setattr(np.linalg, "solve", spy)
        pcfg = to_pcfg(g)
        assert singular == [[[0.0, 0.0], [0.0, 1.0]]]
        assert math.fsum(pcfg.start.values()) == pytest.approx(0.5)
        rooted = {sym[1] for sym in itertools.chain(
            pcfg.start, pcfg.productions, pcfg.terminal_symbols)}
        assert rooted == {(1,)}

    def test_the_series_runs_until_it_settles(self):
        """I - B is singular here too; the series reaches 1 only after
        dozens of iterations (after one it reads 0.75).  Only y starts a
        completed tree, with weight 0.5, and each of its rules gets 0.5."""
        pcfg = to_pcfg(slow_completion_grammar())
        lhs = (oracle.NT, (1,), "S", (1,))
        assert list(pcfg.start) == [lhs]
        assert pcfg.start[lhs] == pytest.approx(0.5, abs=1e-15)
        assert [(rule.origin, rule.rhs) for rule in pcfg.productions[lhs]] \
            == [(0, ((oracle.TERM, (1,), "a", (1,)), lhs)),
                (1, ((oracle.TERM, (1,), "b", (1,)),))]
        assert [rule.prob for rule in pcfg.productions[lhs]] == [
            pytest.approx(0.5, abs=1e-15)] * 2

    def test_unreachable_nonterminals_change_nothing(self):
        """Validation admits symbols the start never reaches; they have
        no levels and leave the exported grammar as it was."""
        def grammar(extra):
            return build(
                [feature("f", ["l", "r"], [0.5, 0.5], parents=["f"], cpt=[
                    (["l"], "*", [0.8, 0.2]), (["r"], "*", [0.1, 0.9])])],
                [production(0, "S", ["A", "b"]),
                 production(1, "A", ["a"],
                            rules=[([("f", ["l"])], 0.7)], default=0.2),
                 production(2, "A", ["b", "A"],
                            rules=[([("f", ["l"])], 0.3)], default=0.8)]
                + extra, "S")
        g = grammar([production(3, "U", ["V", "a"]),
                     production(4, "V", ["b"])])
        assert g.levels["U"] == g.levels["V"] == ()
        assert pcfg_text(to_pcfg(g)) == pcfg_text(to_pcfg(grammar([])))


def assert_same_export(g):
    """to_pcfg and pcfg_text give what the frozen reference gives: equal
    start weights, rules, rule order and insertion order, the same
    terminal symbols and the same listing bytes, or the same
    ExplosionBound message."""
    try:
        want = reference_pcfg.to_pcfg(g)
    except ExplosionBound as e:
        assert failure(lambda: to_pcfg(g)) == (ExplosionBound, str(e))
        return None
    got = to_pcfg(g)
    assert list(got.start.items()) == list(want.start.items())
    assert list(got.productions.items()) == list(want.productions.items())
    assert got.terminal_symbols == want.terminal_symbols
    assert pcfg_text(got) == reference_pcfg.pcfg_text(want)
    return got


class TestPcfgReference:
    """The row-based export is held to a frozen copy of the recursive
    one, float for float and byte for byte."""

    def test_traffic_and_deep_plans(self):
        assert_same_export(traffic())
        g = load_file(GRAMMARS["deep-plans"])
        assert g.max_rhs == 3
        assert assert_same_export(g).production_count() > 0

    def test_singular_completion_and_zero_prior(self):
        assert_same_export(singular_completion_grammar())
        assert_same_export(zero_prior_grammar())

    def test_random_grammars(self):
        exported = 0
        for seed in range(40):
            exported += assert_same_export(random_psdg(seed)) is not None
        for seed in range(6):
            g, _ = sized_random_psdg(3000 + seed, horizon=5,
                                     max_entries=8000)
            exported += assert_same_export(g) is not None
        assert exported >= 30

    @pytest.mark.parametrize("name, bound", [
        ("traffic", 647),           # 2 nonterminals over 18 states
        ("deep-plans", 20),         # 5 over 2 states, 28 tuple symbols
        ("deep-plans", 24),
    ])
    def test_the_bound_message_is_unchanged(self, monkeypatch, name, bound):
        monkeypatch.setattr(oracle, "PCFG_BOUND", bound)
        monkeypatch.setattr(reference_pcfg, "PCFG_BOUND", bound)
        g = load_file(GRAMMARS[name])
        want = failure(lambda: reference_pcfg.to_pcfg(g))
        assert want[0] is ExplosionBound
        assert failure(lambda: to_pcfg(g)) == want

    def test_each_production_is_evaluated_once_per_state(self, monkeypatch):
        """|P| * |Q| = 7 * 18 values exist on traffic; the recursive
        export evaluated 1,446 times.  The grammar evaluates each
        production at most once per state when it is built, and the export
        reads its vectors without evaluating anything."""
        calls = []
        real = ProbabilityFunction.evaluate

        def spy(self, idx):
            calls.append(idx)
            return real(self, idx)
        monkeypatch.setattr(ProbabilityFunction, "evaluate", spy)
        g = traffic()
        built = len(calls)
        to_pcfg(g)
        assert len(calls) == built
        assert 0 < built <= len(g.productions) * g.state_count == 126


class TestPcfgEquivalenceSuite:
    def test_ten_random_grammars(self):
        grammars = 0
        seed = 0
        while grammars < 10:
            g, joint = sized_random_psdg(3000 + seed, horizon=5,
                                         max_entries=8000)
            seed += 1
            complete = [e for e in joint.entries if e.trajectory.complete]
            if not complete:
                continue
            try:
                pcfg = to_pcfg(g)
            except ExplosionBound:
                continue
            for e in complete:
                tree = parse_tree(g, e.trajectory)
                got = pcfg_tree_probability(pcfg, tree)
                assert abs(got - e.log_prob) <= \
                    1e-12 * max(1.0, abs(e.log_prob)), \
                    (seed, got, e.log_prob)
            grammars += 1


def test_random_grammar_masses():
    for seed in range(8):
        g = random_psdg(seed)
        try:
            joint = enumerate_joint(g, horizon=4, bound=500_000)
        except ExplosionBound:
            continue
        assert abs(joint.total_mass - 1.0) <= 1e-9
