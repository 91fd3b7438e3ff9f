"""Belief initialization, explain/predict/update, and full recognition runs."""
import ast
import gc
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (REINIT_CYCLE, TRAFFIC_PATH, assert_evidence_restarts,
                     build, feature, forcing_grammar, production,
                     random_psdg, random_stream, repeated_child_grammar,
                     single_production_grammar, sized_random_psdg,
                     state_of, tail_recursive_grammar, traffic,
                     unit_feature, unpruned)
import psdg
import psdg.infer as infer_module
from psdg.cli import main as cli_main
from psdg.errors import SupportTooLarge, ZeroEvidence
from psdg.generate import (enumerate_chains, observation_json_lines,
                           sample_trajectory, stack_rule)
from psdg.grammar import StateSet, prior_probability, transition_probability
from psdg.infer import (BranchEntry, Observation, branch_table, explain,
                        init_belief, predict, recognize, step, update)
from psdg.oracle import (compare_reports, enumerate_joint, joint_runs,
                         reference_reports, streamed_reports)
from psdg.parse import load_file
from referee import Query, exact_posterior, state_at


GOLDEN_DEEP_PLANS = Path(__file__).parent / "golden" / "deep-plans.psdg"
GOLDEN_FACTORED_STATE = GOLDEN_DEEP_PLANS.with_name("factored-state.psdg")


def point(idx) -> StateSet:
    return StateSet(tuple(frozenset({v}) for v in idx))


def by_stack(chart):
    """A chart with each row keyed by its entries' stacks."""
    return {q: {e.branch: m for e, m in row.items()}
            for q, row in chart.items()}


def two_step_grammar():
    """S -> x Y; Y -> y.  One state, fully deterministic."""
    return build(
        [unit_feature()],
        [production(0, "S", ["x", "Y"]), production(1, "Y", ["y"])],
        "S")


class TestInitBelief:
    def test_single_production_tables(self):
        g = single_production_grammar()
        belief = init_belief(g)
        q = (0,)
        assert belief.time == 1
        assert belief.b_q == {q: pytest.approx(1.0)}
        assert belief.b_n[(1, "S", q)] == pytest.approx(1.0)
        assert belief.b_p[(1, (0, 1), q)] == pytest.approx(1.0)
        assert belief.b_sigma[("a", q)] == pytest.approx(1.0)
        assert belief.b_t[(1, q)] == pytest.approx(1.0)
        assert belief.completed == {}

    def test_left_lane_blocks_left_change(self):
        g = traffic()
        belief = init_belief(g)
        left = StateSet.from_labels(g, {"lane": "left-lane"})
        for q in left.iter_states():
            assert belief.b_p.get((1, (1, 1), q), 0.0) == 0.0

    def test_restricted_prior_renormalizes(self):
        g = traffic()
        left = StateSet.from_labels(g, {"lane": "left-lane"})
        belief = init_belief(g, restrict=left)
        assert set(belief.chart) == {q for q in left.iter_states()
                                     if prior_probability(g, q) > 0.0}
        assert math.fsum(belief.b_q.values()) == pytest.approx(1.0)
        q = state_of(g, {"lane": "left-lane", "speed": "slow", "exit": "far"})
        # lane renormalizes away; speed 0.5 times exit 1.0 remains
        assert belief.b_q[q] == pytest.approx(0.5)

    def test_chart_entry_is_prior_times_chain(self):
        g = traffic()
        belief = init_belief(g)
        q = state_of(
            g, {"lane": "center-lane", "speed": "slow", "exit": "far"})
        # prior 0.6 * 0.5 * 1.0, production 3 at 0.10, production 5 at 0.5
        assert by_stack(belief.chart)[q][((3, 1), (5, 1))] == pytest.approx(
            0.3 * 0.10 * 0.5)

    def test_support_bound_enforced(self):
        with pytest.raises(SupportTooLarge):
            init_belief(traffic(), support_bound=17)

    def test_zero_prior_mass_rejected(self):
        g = traffic()
        with pytest.raises(ZeroEvidence):
            init_belief(g, restrict=StateSet.from_labels(g, {"exit": "near"}))

    def test_state_independent_rules_share_rows(self):
        two = feature("u", ["z", "w"], [0.4, 0.6])
        g = build(
            [two],
            [production(0, "S", ["a"], default=0.2),
             production(1, "S", ["b"], default=0.3),
             production(2, "S", ["c"], default=0.5)],
            "S")
        belief = init_belief(g)
        for q in ((0,), (1,)):
            assert belief.b_p[(1, (0, 1), q)] == pytest.approx(0.2)
            assert belief.b_p[(1, (1, 1), q)] == pytest.approx(0.3)
            assert belief.b_p[(1, (2, 1), q)] == pytest.approx(0.5)


def flip_grammar(identity=False):
    """S -> a over a two-valued feature, optionally with frozen dynamics."""
    cpt = ([(["l"], "*", [1.0, 0.0]), (["r"], "*", [0.0, 1.0])] if identity
           else [(["l"], "a", [0.8, 0.2]), (["r"], "a", [0.3, 0.7])])
    f = feature("f", ["l", "r"], [0.5, 0.5], parents=["f"], cpt=cpt)
    return build([f], [production(0, "S", ["a"])], "S")


def three_feature_grammar():
    """Three stochastic features, `c` with two parents.  The
    probabilities are irregular, so multiplying in another order would
    change the low bits of some entries."""
    a = feature("a", ["a0", "a1", "a2"], [0.3, 0.3, 0.4], parents=["a"],
                cpt=[(["a0"], "*", [0.1, 0.7, 0.2]),
                     (["a2"], "x", [0.15, 0.35, 0.5]),
                     (["*"], "*", [0.3, 0.3, 0.4])])
    b = feature("b", ["b0", "b1", "b2"], [0.5, 0.25, 0.25],
                parents=["b"],
                cpt=[(["b0"], "y", [0.13, 0.57, 0.3]),
                     (["*"], "*", [0.7, 0.1, 0.2])])
    c = feature("c", ["c0", "c1", "c2"], [0.2, 0.5, 0.3],
                parents=["a", "c"],
                cpt=[(["a0", "*"], "*", [0.11, 0.29, 0.6]),
                     (["*", "c1"], "x", [0.05, 0.9, 0.05]),
                     (["*", "*"], "*", [0.33, 0.33, 0.34])])
    return build([a, b, c],
                 [production(0, "S", ["x", "S"], default=0.6),
                  production(1, "S", ["y", "S"], default=0.3),
                  production(2, "S", ["y"], default=0.1)], "S")


def assert_rows_are_per_state_products(g, explanation, constraint):
    """Every transition row equals transition_probability over the
    constraint's states, in keys, order and floats."""
    for (q, x), row in explanation.transitions.items():
        want = {}
        for q2 in constraint.iter_states():
            p = transition_probability(g, q, x, q2)
            if p > 0.0:
                want[q2] = p
        assert list(row) == list(want)
        assert list(row.values()) == list(want.values())


class TestExplain:
    def test_single_state_vacuous(self):
        g = single_production_grammar()
        belief = init_belief(g)
        e = explain(g, belief, Observation.vacuous(g, 1))
        assert e.evidence == pytest.approx(1.0)
        assert e.state_posterior == {(0,): pytest.approx(1.0)}
        assert e.terminal == {"a": pytest.approx(1.0)}
        assert e.symbols == {1: {"S": pytest.approx(1.0)}}
        assert e.productions == {1: {(0, 1): pytest.approx(1.0)}}
        assert e.completed == 0.0

    def test_wrong_time_rejected(self):
        g = single_production_grammar()
        belief = init_belief(g)
        with pytest.raises(ValueError):
            explain(g, belief, Observation.vacuous(g, 3))

    def test_unreachable_lane_is_zero_evidence(self):
        g = traffic()
        right = StateSet.from_labels(g, {"lane": "right-lane"})
        left = StateSet.from_labels(g, {"lane": "left-lane"})
        belief = init_belief(g, restrict=right)
        with pytest.raises(ZeroEvidence) as exc:
            explain(g, belief, Observation(1, left))
        assert exc.value.time == 1

    def test_observation_wider_than_bound(self):
        g = traffic()
        left = StateSet.from_labels(g, {"lane": "left-lane"})
        belief = init_belief(g, support_bound=6, restrict=left)
        with pytest.raises(SupportTooLarge):
            explain(g, belief, Observation.vacuous(g, 1))

    def test_evidence_matches_oracle(self):
        g = repeated_child_grammar()
        joint = enumerate_joint(g, horizon=3)
        obs = Observation(1, StateSet.from_labels(g, {"f": "l"}))
        e = explain(g, init_belief(g), obs)
        want = exact_posterior(joint, [], Query("state", 1, value=(0,)))
        assert e.evidence == pytest.approx(want, abs=1e-12)
        assert e.state_posterior == {(0,): pytest.approx(1.0)}

    def test_factored_rows_equal_per_state_products(self):
        # The observation pins `a` and `c` to proper subsets and leaves `b`
        # open.
        g = three_feature_grammar()
        belief = init_belief(g)
        _, belief = step(g, belief, Observation.vacuous(g, 1))
        constraint = StateSet.from_labels(
            g, {"a": ["a0", "a2"], "c": ["c1", "c2"]})
        e = explain(g, belief, Observation(2, constraint))
        assert len(e.transitions) == 2 * g.state_count
        assert all(e.transitions.values())
        assert_rows_are_per_state_products(g, e, constraint)

    @pytest.mark.parametrize("make, constraints", [
        (three_feature_grammar, ({"a": ["a0", "a2"], "c": ["c1", "c2"]},
                                 {"a": ["a1", "a2"], "b": ["b0"]},
                                 {"c": ["c0"]})),
        (lambda: load_file(GOLDEN_FACTORED_STATE), (
            {"pos": ["p3", "p4", "p5", "p6", "p7"], "progress": ["g1"]},
            {"pos": ["p4", "p5", "p6", "p7", "p8"], "speed": ["s0", "s1"]},
            {"progress": ["g0", "g1"]})),
    ])
    def test_cached_rows_follow_each_constraint(self, make, constraints):
        """Each explain picks the allowed part of a CPT row afresh:
        successive explains of one belief under different observations
        each give rows equal in keys, order and floats to the per-state
        products."""
        g = make()
        _, belief = step(g, init_belief(g), Observation.vacuous(g, 1))
        for labels in constraints:
            constraint = StateSet.from_labels(g, labels)
            e = explain(g, belief, Observation(2, constraint))
            assert e.transitions
            assert_rows_are_per_state_products(g, e, constraint)


class TestPredict:
    def test_cursor_advance_opens_fresh_child(self):
        g = two_step_grammar()
        belief = init_belief(g)
        e = explain(g, belief, Observation.vacuous(g, 1))
        pred = predict(g, belief, e)
        assert pred.productions == {
            1: {(0, 2): pytest.approx(1.0)},
            2: {(1, 1): pytest.approx(1.0)},
        }
        assert pred.terminal == {"y": pytest.approx(1.0)}
        assert pred.completed_mass == 0.0

    def test_forced_pass_predicts_right(self):
        g = forcing_grammar()
        belief = init_belief(g)
        e = explain(g, belief, Observation.vacuous(g, 1))
        assert e.terminal == {"Left": pytest.approx(1.0)}
        pred = predict(g, belief, e)
        assert pred.terminal == {"Right": pytest.approx(1.0)}
        assert pred.productions[2] == {(5, 2): pytest.approx(1.0)}

    def test_root_exit_absorbs_into_completed(self):
        g = forcing_grammar()
        belief = init_belief(g)
        for t in (1, 2):
            _, belief = step(g, belief, Observation.vacuous(g, t))
        e = explain(g, belief, Observation.vacuous(g, 3))
        assert e.terminal == {"Exit": pytest.approx(1.0)}
        pred = predict(g, belief, e)
        assert pred.completed_mass == pytest.approx(1.0)
        assert pred.chart == {}
        assert pred.symbols == {}

    def test_completed_mass_is_exit_share(self):
        g = traffic()
        belief = init_belief(g)
        e = explain(g, belief, Observation.vacuous(g, 1))
        pred = predict(g, belief, e)
        # the prior never starts at the exit, so production 4 sits at 0.05
        assert pred.completed_mass == pytest.approx(0.05)


class TestUpdate:
    def test_unary_chain_terminates_at_every_level(self):
        g = build(
            [unit_feature()],
            [production(0, "S", ["A"]), production(1, "A", ["a"])],
            "S")
        belief = init_belief(g)
        assert belief.b_t[(1, (0,))] == pytest.approx(1.0)
        assert belief.b_t[(2, (0,))] == pytest.approx(1.0)

    def test_mid_production_terminates_only_at_the_end(self):
        g = build([unit_feature()], [production(0, "S", ["a", "b"])], "S")
        belief = init_belief(g)
        assert belief.b_t.get((1, (0,)), 0.0) == 0.0
        _, belief = step(g, belief, Observation.vacuous(g, 1))
        assert belief.b_p[(1, (0, 2), (0,))] == pytest.approx(1.0)
        assert belief.b_t[(1, (0,))] == pytest.approx(1.0)

    def test_termination_table_matches_oracle(self):
        g = traffic()
        joint = enumerate_joint(g, horizon=2)
        belief = init_belief(g)
        for level in (1, 2):
            got = math.fsum(
                belief.b_q[q] * belief.b_t.get((level, q), 0.0)
                for q in belief.b_q)
            want = exact_posterior(joint, [],
                                   Query("terminated", 1, level=level))
            assert got == pytest.approx(want, abs=1e-12)

    def test_bookkeeping_after_step(self):
        g = traffic()
        belief = init_belief(g)
        left = StateSet.from_labels(g, {"lane": "left-lane"})
        report, after = step(g, belief, Observation(1, left))
        assert after.time == 2
        assert after.log_evidence == pytest.approx(
            math.log(report.evidence_likelihood))
        for q in after.chart:
            assert q in left


class TestStep:
    def test_replay_puts_mass_on_true_frames(self):
        from psdg.generate import sample_trajectory
        g = traffic()
        traj = sample_trajectory(g, horizon=4, seed=5)
        belief = init_belief(g, restrict=point(traj.initial_state.idx))
        for t, s in enumerate(traj.steps, start=1):
            obs = Observation(t, point(s.state.idx))
            e = explain(g, belief, obs)
            for level, frame in enumerate(s.stack, start=1):
                row = e.productions[level]
                assert row.get(frame, 0.0) > 0.0
            assert e.terminal.get(s.terminal, 0.0) > 0.0
            _, belief = step(g, belief, obs)

    def test_vacuous_stream_tracks_forward_marginals(self):
        g = repeated_child_grammar()
        joint = enumerate_joint(g, horizon=3)
        belief = init_belief(g)
        for t in (1, 2, 3):
            _, belief = step(g, belief, Observation.vacuous(g, t))
            for q in ((0,), (1,)):
                want = exact_posterior(joint, [], Query("state", t, value=q))
                assert belief.b_q.get(q, 0.0) == pytest.approx(want, abs=1e-12)

    def test_frozen_dynamics_zero_evidence(self):
        g = flip_grammar(identity=True)
        belief = init_belief(g, restrict=point((0,)))
        with pytest.raises(ZeroEvidence):
            step(g, belief, Observation(1, point((1,))))

    def test_gap_equals_explicit_vacuous_steps(self):
        g = tail_recursive_grammar()
        late = Observation(3, StateSet.from_labels(g, {"g": "halt"}))
        *_, sparse = recognize(g, [late])
        *_, dense = recognize(g, [Observation.vacuous(g, 1),
                                  Observation.vacuous(g, 2), late])
        assert sparse.to_dict(g) == dense.to_dict(g)


def assert_reports_close(got: list[dict], want: list[dict], tol=1e-9):
    assert len(got) == len(want)

    def walk(a, b, path):
        if isinstance(a, dict):
            assert isinstance(b, dict) and set(a) == set(b), path
            for k in a:
                walk(a[k], b[k], f"{path}.{k}")
        elif isinstance(a, float):
            assert abs(a - b) <= tol * max(1.0, abs(b)), \
                f"{path}: {a} vs {b}"
        else:
            assert a == b, path

    for i, (a, b) in enumerate(zip(got, want)):
        walk(a, b, f"report[{i}]")


def restart_lanes(seed: int) -> list[tuple[int, str]]:
    """(t, lane) of a sampled traffic run that ends in an outer lane, then
    the opposite outer lane, which no lane change reaches in one step,
    then the lanes of a sampled run opened in that lane."""
    g = traffic()
    run = sample_trajectory(g, 2, seed)
    lanes = [g.labels(s.state.idx)["lane"] for s in run.steps]
    jump = {"left-lane": "right-lane", "right-lane": "left-lane"}[lanes[-1]]
    draws = (sample_trajectory(g, 2, 1000 * seed + i)
             for i in itertools.count())
    after = next(draw for draw in draws
                 if g.labels(draw.initial_state.idx)["lane"] == jump)
    lanes += [jump] + [g.labels(s.state.idx)["lane"] for s in after.steps]
    return list(enumerate(lanes, start=1))


class TestRecognize:
    def test_reports_each_observation_before_reading_the_next(self):
        g = traffic()
        stream = [Observation.from_labels(g, t, {"lane": ["right-lane"]})
                  for t in (0, 2, 3)]
        read = []

        def feed():
            for obs in stream:
                read.append(obs.time)
                yield obs
        reports = recognize(g, feed())
        assert next(reports).time == 2 and read == [0, 2]
        assert next(reports).time == 3 and read == [0, 2, 3]
        assert next(reports, None) is None

    def test_reinit_cycle_restarts_the_evidence_chain(self):
        g = traffic()
        stream = [Observation.from_labels(g, t, {"lane": [lane]})
                  for t, lane in REINIT_CYCLE]
        with pytest.raises(ZeroEvidence) as raised:
            list(recognize(g, stream))
        assert raised.value.time == 1
        reports = list(recognize(g, stream, reinit=True))
        assert_evidence_restarts([(r.time, r.evidence_likelihood,
                                   r.log_evidence) for r in reports])
        restart = reports[0]
        fresh = init_belief(g, restrict=stream[1].constraint, time=2)
        assert restart.state == fresh.state_mass()
        assert (restart.explain_symbols, restart.explain_terminal,
                restart.explain_completed) == ({}, {}, 0.0)
        assert (restart.predict_symbols, restart.predict_productions,
                restart.predict_terminal) == ref_marginals(
            g, ((branch, mass) for row in by_stack(fresh.chart).values()
                for branch, mass in row.items()))

    @pytest.mark.parametrize("seed", [None, 1, 4, 22])
    def test_reports_after_a_restart_match_the_referee(self, seed):
        """Under reinit, a contradiction at t = r restarts from the prior
        restricted to R_r, so what follows is the run the referee reads
        from a stream opened by `t: 0` = R_r, shifted back by r.  Seed
        None is the hand-written stream."""
        g = traffic()
        lanes = restart_lanes(seed) if seed is not None else [
            (1, "left-lane"), (2, "right-lane"), (3, "right-lane"),
            (4, "center-lane")]
        stream = [Observation.from_labels(g, t, {"lane": [lane]})
                  for t, lane in lanes]
        reports = list(recognize(g, stream, reinit=True))
        (r,) = [report.time for report in reports
                if report.evidence_likelihood == 0.0]
        later = [obs for obs in stream if obs.time > r]
        assert later
        want = streamed_reports(g, [Observation(0, stream[r - 1].constraint)]
                                + [Observation(obs.time - r, obs.constraint)
                                   for obs in later])
        for got, ref in zip(reports[r:], want, strict=True):
            worst, problems = compare_reports(got.to_dict(g), ref)
            assert problems == [], (got.time, worst)

    def test_step_is_called_only_by_recognize(self):
        """`recognize` is the package's one stream loop: no other code in
        it calls `step`."""
        sites = []
        for path in sorted(Path(psdg.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            defs = [d for d in ast.walk(tree)
                    if isinstance(d, ast.FunctionDef)]
            for node in ast.walk(tree):
                func = getattr(node, "func", None)
                name = getattr(func, "id", getattr(func, "attr", None))
                if isinstance(node, ast.Call) and name == "step":
                    inner = min((d for d in defs
                                 if d.lineno <= node.lineno <= d.end_lineno),
                                key=lambda d: d.end_lineno - d.lineno,
                                default=None)
                    sites.append((path.name, inner and inner.name))
        assert sites == [("infer.py", "recognize")]

    def test_a_failed_restart_carries_the_contradiction(self):
        g = build([feature("f", ["a", "b"], [1.0, 0.0])],
                  [production(0, "S", ["x"])], "S")
        seen_b = Observation(1, StateSet.from_labels(g, {"f": ["b"]}))
        with pytest.raises(ZeroEvidence) as raised:
            list(recognize(g, [seen_b], reinit=True))
        assert raised.value.time == 0
        assert isinstance(raised.value.__context__, ZeroEvidence)
        assert raised.value.__context__.time == 1

    def test_a_gap_past_an_empty_chart_ends_in_one_move(self, monkeypatch,
                                                        capsys):
        """On traffic an unobserved run's chart empties by underflow at
        t=1028, and from then on each vacuous step returns the completed
        mass and log evidence it was given.  `recognize` then jumps the
        rest of a gap: the report at t=1500 is the hand-stepped one byte
        for byte, and the one at t=10⁹ differs from it only in `t`, after
        about as many steps."""
        g = traffic()
        belief = init_belief(g)
        for t in range(1, 1501):
            report, belief = step(g, belief, Observation.vacuous(g, t))
        assert belief.chart == {}
        want = json.dumps(report.to_dict(g), sort_keys=True) + "\n"
        calls = []
        real_step = infer_module.step

        def counted(*args):
            calls.append(args[2].time)
            if len(calls) > 1100:
                raise RuntimeError("the gap was stepped through")
            return real_step(*args)
        monkeypatch.setattr(infer_module, "step", counted)
        for t in (1500, 10**9):
            calls.clear()
            monkeypatch.setattr("sys.stdin", io.StringIO(f'{{"t": {t}}}\n'))
            assert cli_main(["infer", str(TRAFFIC_PATH)]) == 0
            assert capsys.readouterr().out == want.replace(
                '"t": 1500}', f'"t": {t}}}')
            assert calls[-1] == t and len(calls) < 1050
        assert calls[-2] < 1050


def report_bytes(g, stream, reinit, start=init_belief) -> list[str]:
    """Each report of a run as JSON text, then how the run ended."""
    out = []
    try:
        for report in recognize(g, stream, reinit=reinit, start=start):
            out.append(json.dumps(report.to_dict(g)))
    except ZeroEvidence as e:
        out.append(f"zero evidence at t={e.time}, "
                   f"after t={getattr(e.__context__, 'time', None)}")
    return out


@st.composite
def grammars_and_streams(draw):
    """A random grammar and stream: a sized_random_psdg run's widened
    states, or arbitrary product-form sets on random_psdg, where the first
    observation may have zero evidence.  Either may open with t=0 and may
    skip t=1."""
    seed = draw(st.integers(0, 10_000))
    if draw(st.booleans()):
        g, joint = sized_random_psdg(seed, horizon=4, max_entries=4000)
        return g, random_stream(g, joint, seed, max_len=4)
    g = random_psdg(seed)
    times = sorted(draw(st.sets(st.integers(1, 4), min_size=1, max_size=3)))
    if draw(st.booleans()):
        times.insert(0, 0)
    return g, [Observation(t, StateSet(tuple(
        frozenset(draw(st.sets(st.integers(0, len(f.values) - 1),
                               min_size=1)))
        for f in g.features))) for t in times]


def reaching_prior_states(g, target):
    """The prior's states where, for every feature, some terminal's CPT row
    at the state's parent key puts mass on a value `target` allows."""
    return [q for q in StateSet.full(g).iter_states()
            if prior_probability(g, q) > 0.0
            and all(any(rows[f.parent_key(q)][v] > 0.0
                        for rows in f.table.values() for v in allowed)
                    for f, allowed in zip(g.features, target.allowed))]


class TestFirstObservationPruning:
    """The first belief spans only initial states that can reach an
    observation at t=1; the reports stay the same bytes."""

    @settings(max_examples=80, deadline=None)
    @given(grammars_and_streams(), st.booleans())
    def test_reports_match_the_unpruned_run(self, case, reinit):
        g, stream = case
        assert report_bytes(g, stream, reinit) == \
            report_bytes(g, stream, reinit, start=unpruned)

    def test_factored_state_window_keeps_the_reaching_states(self):
        g = load_file(GOLDEN_FACTORED_STATE)
        window = StateSet.from_labels(g, {
            "pos": [f"p{i}" for i in range(10, 15)], "progress": ["g0"]})
        full, pruned = init_belief(g), init_belief(g, reach=window)
        kept = reaching_prior_states(g, window)
        assert len(full.chart) == 128
        assert sorted(pruned.chart) == kept and len(kept) < 128
        for q in set(full.chart) - set(kept):   # every row out is empty
            assert not any(transition_probability(g, q, x, q2)
                           for x in g.terminals
                           for q2 in window.iter_states())
        assert pruned.dropped == pytest.approx(1 - len(kept) / 128)
        obs = Observation(1, window)
        assert report_bytes(g, [obs], False) == \
            report_bytes(g, [obs], False, start=unpruned)

    def test_the_dropped_share_enters_the_mass_checks(self):
        g = traffic()
        belief = init_belief(g, reach=StateSet.from_labels(
            g, {"lane": ["right-lane"]}))
        assert {q[0] for q in belief.chart} == {1, 2}    # no left lane
        assert belief.dropped == pytest.approx(0.2)
        belief.check_invariants()
        belief.dropped = 0.0
        with pytest.raises(AssertionError, match=r"chart mass 0\.8"):
            belief.check_chart()

    def test_only_a_first_observation_at_t1_prunes(self):
        g = traffic()
        right = StateSet.from_labels(g, {"lane": ["right-lane"]})
        calls = []

        def start(*args):
            calls.append(args[3:])
            return init_belief(*args)
        for times in ((1, 2), (0, 1), (0, 2), (2,)):
            list(recognize(g, [Observation(t, right) for t in times],
                           start=start))
        assert calls == [(1, right), (1, right), (1, None), (1, None)]


class TestStreamsAgainstOracle:
    def test_fixed_grammars_full_reports(self):
        cases = [(repeated_child_grammar(), 4, 11),
                 (tail_recursive_grammar(), 4, 12),
                 (traffic(), 3, 13)]
        for g, horizon, seed in cases:
            joint = enumerate_joint(g, horizon)
            # the oracle needs slice horizon for the last prediction block
            obs = random_stream(g, joint, seed, max_len=horizon - 1)
            got = [report.to_dict(g) for report in recognize(g, obs)]
            want = reference_reports(g, joint, obs)
            assert_reports_close(got, want)

    def test_evidence_chain_matches_stream_mass(self):
        g = tail_recursive_grammar()
        joint = enumerate_joint(g, horizon=4)
        obs = [Observation(0, StateSet.from_labels(g, {"g": "go"})),
               Observation(2, StateSet.from_labels(g, {"g": "halt"})),
               Observation(4, StateSet.from_labels(g, {"g": "halt"}))]
        *_, last = recognize(g, obs)
        chain = math.exp(last.log_evidence)
        full = sum(e.prob for e in joint.entries
                   if all(state_at(e.trajectory, o.time) in o.constraint
                          for o in obs))
        base = sum(e.prob for e in joint.entries
                   if state_at(e.trajectory, 0) in obs[0].constraint)
        assert chain == pytest.approx(full / base, rel=1e-9)


def _zero_mass(b):
    row = next(iter(b.chart.values()))
    row[next(iter(row))] = 0.0


def _negative_mass(b):
    row = max(b.chart.values(), key=len)
    first, second = list(row)[:2]
    row[second] += row[first] + 0.01
    row[first] = -0.01


def _mass_off(b):
    row = next(iter(b.chart.values()))
    row[next(iter(row))] += 0.25


def _no_entry_room(b):
    infer_module.SIZE_CONSTANT = 0


def _state_mass_halved(b):
    b.b_q.update((q, 0.5 * v) for q, v in b.b_q.items())


def _symbol_row_over_one(b):
    b.b_n[next(iter(b.b_n))] += 1.0


def _terminal_row_off(b):
    b.b_sigma[next(iter(b.b_sigma))] += 0.5


STATE = r"\(\d+(, \d+)*\)"
INVARIANT_CASES = {     # corruption: what check_invariants then raises
    _zero_mass: r"chart holds mass 0\.0",
    _negative_mass: r"chart holds mass -0\.01",
    _mass_off: r"chart mass 1\.25\d*",
    _no_entry_room: r"belief size blew up",
    _state_mass_halved: r"state mass 0\.5\d*",
    _symbol_row_over_one: rf"symbol row \(\d+, {STATE}\) sums to [12]\.\d+",
    _terminal_row_off: rf"terminal row of {STATE} sums to 1\.5\d*",
}


def invariant_failure(corrupt) -> str:
    """What check_invariants raises on a traffic belief after one vacuous
    step, once `corrupt` has damaged it; SIZE_CONSTANT is restored after."""
    g = traffic()
    _, belief = step(g, init_belief(g), Observation.vacuous(g, 1))
    belief.check_invariants()
    size = infer_module.SIZE_CONSTANT
    try:
        corrupt(belief)
        belief.check_invariants()
    except AssertionError as e:
        return str(e)
    finally:
        infer_module.SIZE_CONSTANT = size
    return f"{corrupt.__name__} passed the checks"


class TestCheckInvariants:
    @pytest.mark.parametrize("corrupt", list(INVARIANT_CASES),
                             ids=lambda f: f.__name__.strip("_"))
    def test_each_check_fires(self, corrupt):
        assert re.fullmatch(INVARIANT_CASES[corrupt],
                            invariant_failure(corrupt))

    def test_each_check_fires_under_optimize(self):
        """The same cases in one `python -O` run: every check is an
        explicit raise, so none vanishes."""
        script = """if True:
            import sys
            from test_infer import INVARIANT_CASES, invariant_failure
            if __debug__:
                sys.exit("not running under -O")
            for corrupt in INVARIANT_CASES:
                print(invariant_failure(corrupt))
        """
        src = Path(psdg.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-O", "-B", "-c", script], capture_output=True,
            text=True, env={"PYTHONPATH": f"{src}:{Path(__file__).parent}"})
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == len(INVARIANT_CASES)
        for pattern, line in zip(INVARIANT_CASES.values(), lines):
            assert re.fullmatch(pattern, line)

    def test_corrupted_belief_raises_under_optimize(self):
        """The checks are explicit raises, so `python -O` keeps them."""
        script = """if True:
            import sys
            from pathlib import Path
            import psdg
            from psdg.grammar import StateSet
            from psdg.infer import init_belief
            from psdg.parse import load_file
            if __debug__:
                sys.exit("not running under -O")
            g = load_file(Path(psdg.__file__).parent / "data" / "traffic.psdg")
            for table in ("b_q", "b_sigma"):
                b = init_belief(g)
                setattr(b, table, {k: 0.5 * v
                                   for k, v in getattr(b, table).items()})
                try:
                    b.check_invariants()
                except AssertionError as e:
                    print(e)
                else:
                    sys.exit(f"halved {table} passed the checks")
            right = StateSet.from_labels(g, {"lane": ["right-lane"]})
            b = init_belief(g, reach=right)     # no left-lane states
            if not b.dropped > 0.0:
                sys.exit("the first belief was not pruned")
            row = next(iter(b.chart.values()))
            row[next(iter(row))] *= 0.5
            try:
                b.check_invariants()
            except AssertionError as e:
                print(e)
            else:
                sys.exit("a halved mass in a pruned chart passed the checks")
        """
        src = Path(psdg.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True,
                              env={**os.environ,
                                   "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        mass, terminal, pruned = proc.stdout.splitlines()
        assert mass.startswith("state mass ")
        assert float(mass.split()[-1]) == pytest.approx(0.5)
        assert terminal.startswith("terminal row of ")
        assert float(terminal.split()[-1]) == pytest.approx(0.5)
        assert pruned.startswith("chart mass ")
        assert float(pruned.split()[-1]) < 1.0 - 1e-6


    def test_production_row_off_its_symbol_row_is_named(self):
        g = traffic()
        _, belief = step(g, init_belief(g), Observation.vacuous(g, 1))
        belief.check_invariants()
        (level, rho, q), v = next(iter(belief.b_p.items()))
        symbol_row = math.fsum(n for (lvl, _, q2), n in belief.b_n.items()
                               if (lvl, q2) == (level, q))
        belief.b_p[level, rho, q] = v + 0.25
        with pytest.raises(AssertionError) as err:
            belief.check_invariants()
        prefix = f"symbol row {(level, q)} sums to "
        symbol_sum, production_sum = (
            float(x) for x in re.fullmatch(
                re.escape(prefix) + r"(\S+), its production row to (\S+)",
                str(err.value)).groups())
        assert symbol_sum == pytest.approx(symbol_row)
        assert production_sum == pytest.approx(symbol_row + 0.25)

    def test_corrupted_chart_fails_the_step_check_under_optimize(self):
        """`update` checks the chart it installs: one mass halved, one
        made negative with the total kept at one, and one NaN each raise,
        also under `python -O`."""
        script = """if True:
            import sys
            from pathlib import Path
            import psdg
            from psdg.infer import (Observation, explain, init_belief,
                                    predict, update)
            from psdg.parse import load_file
            if __debug__:
                sys.exit("not running under -O")
            g = load_file(Path(psdg.__file__).parent / "data" / "traffic.psdg")

            def halve(row, a, b):
                row[a] *= 0.5

            def negate(row, a, b):
                row[b] += row[a] + 0.01
                row[a] = -0.01

            def nan(row, a, b):
                row[a] = float("nan")

            for corrupt in (halve, negate, nan):
                b = init_belief(g)
                obs = Observation.vacuous(g, 1)
                e = explain(g, b, obs)
                p = predict(g, b, e)
                row = max(p.chart.values(), key=len)
                corrupt(row, *list(row)[:2])
                try:
                    update(g, b, e, p, obs)
                except AssertionError as e:
                    print(e)
                else:
                    sys.exit(f"{corrupt.__name__} passed the check")
        """
        src = Path(psdg.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True,
                              env={**os.environ,
                                   "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        halved, negative, nan = proc.stdout.splitlines()
        assert halved.startswith("chart mass ")
        assert float(halved.split()[-1]) < 1.0 - 1e-6
        assert negative == "chart holds mass -0.01"
        assert nan.split()[-1] == "nan"


class TestInvariantsOverRandomRuns:
    def test_random_streams_keep_invariants(self):
        for seed in range(6):
            g, joint = sized_random_psdg(600 + seed, horizon=4,
                                         max_entries=4000)
            obs = list(random_stream(g, joint, seed, max_len=4))
            restrict = None
            if obs and obs[0].time == 0:
                restrict = obs.pop(0).constraint
            belief = init_belief(g, restrict=restrict)
            belief.check_invariants()
            for o in obs:
                while belief.time < o.time:
                    _, belief = step(g, belief,
                                     Observation.vacuous(g, belief.time))
                _, belief = step(g, belief, o)
                belief.check_invariants()
                for q in belief.chart:
                    assert q in o.constraint
                assert belief.entry_count() <= belief.entry_bound()


### The compiled branch table and its one accumulator, against plain
### per-branch loops over the generator's stack rules.


def branchy_grammar():
    """A tail-recursive root T over a repeated child (C -> D D) whose own
    expansions have one or two symbols, plus a root exit (T -> b): many
    branches share a kept prefix and a fresh symbol, and some mass
    completes."""
    g = feature("g", ["go", "halt"], [0.6, 0.4], parents=["g"], cpt=[
        (["go"], "a", [0.7, 0.3]),
        (["go"], "*", [0.9, 0.1]),
        (["halt"], "d", [0.5, 0.5]),
        (["halt"], "*", [0.2, 0.8]),
    ])
    prods = [
        production(0, "T", ["a", "T"],
                   rules=[([("g", ["go"])], 0.5)], default=0.2),
        production(1, "T", ["C", "T"],
                   rules=[([("g", ["go"])], 0.4)], default=0.5),
        production(2, "T", ["b"],
                   rules=[([("g", ["go"])], 0.1)], default=0.3),
        production(3, "C", ["D", "D"]),
        production(4, "D", ["d"],
                   rules=[([("g", ["halt"])], 0.7)], default=0.4),
        production(5, "D", ["e", "f"],
                   rules=[([("g", ["halt"])], 0.3)], default=0.6),
    ]
    return build([g], prods, "T")


def sampled_stream(g, seed, steps):
    """Point observations of one sampled run, every third time vacuous;
    past the run's end the frozen last state is observed."""
    traj = sample_trajectory(g, steps, seed)
    out = []
    for t in range(1, steps + 1):
        if t % 3 == 0:
            out.append(Observation.vacuous(g, t))
        else:
            state = traj.steps[min(t, len(traj.steps)) - 1].state.idx
            out.append(Observation(t, point(state)))
    return out


def ref_leaf(g, branch):
    """The terminal under the deepest cursor."""
    a, b = branch[-1]
    return g.production(a).rhs[b - 1]


def ref_terminating(g, branch):
    """Per level, root first: whether it terminates at this step, which it
    does when its cursor is on its last rhs symbol and every deeper level
    terminates."""
    final = [b == len(g.production(a).rhs) for a, b in branch]
    return [all(final[level:]) for level in range(len(branch))]


def ref_skeleton(g, branch):
    """None once the root terminates; else the frames kept, the deepest
    live one's cursor moved on, and the symbol needing a fresh chain or
    None.  Moving onto a trailing copy of the production's lhs re-enters
    that level instead."""
    live = ref_terminating(g, branch).count(False)
    if not live:
        return None
    a, b = branch[live - 1]
    prod = g.production(a)
    if prod.tail_recursive and b + 1 == len(prod.rhs):
        return branch[:live - 1], prod.lhs
    nxt = prod.rhs[b]
    return (branch[:live - 1] + ((a, b + 1),),
            None if g.is_terminal(nxt) else nxt)


def ref_marginals(g, weighted):
    """Symbols and productions per level and the terminal, one branch at
    a time in the order given."""
    symbols, productions, terminal = {}, {}, {}
    for branch, w in weighted:
        for pos, (a, b) in enumerate(branch):
            srow = symbols.setdefault(pos + 1, {})
            sym = g.production(a).lhs
            srow[sym] = srow.get(sym, 0.0) + w
            prow = productions.setdefault(pos + 1, {})
            prow[(a, b)] = prow.get((a, b), 0.0) + w
        x = ref_leaf(g, branch)
        terminal[x] = terminal.get(x, 0.0) + w
    return symbols, productions, terminal


def ref_explain(g, belief, exp):
    weighted = []
    for q, row in by_stack(belief.chart).items():
        for branch, mass in row.items():
            if mass <= 0.0:
                continue
            x = ref_leaf(g, branch)
            post = (mass * math.fsum(exp.transitions[(q, x)].values())
                    / exp.evidence)
            if post > 0.0:
                weighted.append((branch, post))
    return ref_marginals(g, weighted)


def ref_predict(g, belief, exp):
    chart, completed = {}, {}
    for q, row in by_stack(belief.chart).items():
        for branch, mass in row.items():
            if mass <= 0.0:
                continue
            skeleton = ref_skeleton(g, branch)
            trow = exp.transitions[(q, ref_leaf(g, branch))]
            for q2, p in trow.items():
                share = mass * p / exp.evidence
                if skeleton is None:
                    completed[q2] = completed.get(q2, 0.0) + share
                    continue
                kept, fresh_symbol = skeleton
                target = chart.setdefault(q2, {})
                if fresh_symbol is None:
                    target[kept] = target.get(kept, 0.0) + share
                    continue
                for chain, cp in enumerate_chains(g, fresh_symbol, q2):
                    nb = kept + chain
                    target[nb] = target.get(nb, 0.0) + share * cp
    for q, c in exp.completed_post.items():
        completed[q] = completed.get(q, 0.0) + c
    return chart, completed


def assert_predict_matches_reference(g, belief, exp, pred):
    """`predict` against `ref_predict`: the same rows, branches and
    completed mass.  Pooling sums a skeleton's shares before multiplying
    by each chain probability, so chart masses agree to relative 1e-12
    rather than bit for bit."""
    chart, completed = ref_predict(g, belief, exp)
    got = by_stack(pred.chart)
    assert pred.completed == completed
    assert {q: list(row) for q, row in got.items()} == \
        {q: list(row) for q, row in chart.items()}
    for q, row in chart.items():
        for branch, mass in row.items():
            assert got[q][branch] == pytest.approx(mass, rel=1e-12, abs=0.0)


def assert_marginals_close(got, want):
    """Equal key sets at every depth and floats within relative 1e-12:
    the engine sums a chart per (state, terminal) group before scaling
    and derives symbol and terminal sums from production sums, so its
    marginals round differently from a per-branch loop."""
    if isinstance(want, (tuple, dict)):
        assert len(got) == len(want)
        if isinstance(want, dict):
            assert got.keys() == want.keys()
            got, want = [got[k] for k in want], list(want.values())
        for a, b in zip(got, want):
            assert_marginals_close(a, b)
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def pooled_steps(g, stream):
    """Run `stream` (a leading t=0 restriction, gaps as vacuous steps),
    checking `predict` against the reference on every step.  Returns, per
    step, (live sources, pools, branches that two pools reach), where a
    pool is a (new state, skeleton id) pair."""
    table = branch_table(g)
    restrict = None
    if stream and stream[0].time == 0:
        restrict, stream = stream[0].constraint, stream[1:]
    belief = init_belief(g, restrict=restrict)
    out = []
    for obs in stream:
        gap = [Observation.vacuous(g, t) for t in range(belief.time, obs.time)]
        for now in gap + [obs]:
            exp = explain(g, belief, now)
            pred = predict(g, belief, exp)
            assert_predict_matches_reference(g, belief, exp, pred)
            pools = {(q2, e.skeleton_id)
                     for q, row in belief.chart.items()
                     for e, m in row.items() if m > 0.0
                     for q2 in exp.transitions[(q, e.leaf)]
                     if e.skeleton_id >= 0}
            reached = [(q2, nxt) for q2, sid in pools
                       for nxt in table.moves[sid][q2][0]]
            out.append((sum(m > 0.0 for row in belief.chart.values()
                            for m in row.values()),
                        len(pools), len(reached) - len(set(reached))))
            belief = update(g, belief, exp, pred, now)
    return out


def ref_tables(g, chart, completed):
    """The seven published tables, one branch at a time."""
    b_q, b_n, b_p, b_sigma, b_t, tn, given_q = {}, {}, {}, {}, {}, {}, {}
    for q, row in chart.items():
        cq = math.fsum(row.values()) + completed.get(q, 0.0)
        if cq <= 0.0:
            continue
        b_q[q] = cq
        for branch, mass in row.items():
            if mass <= 0.0:
                continue
            share = mass / cq
            flags = ref_terminating(g, branch)
            for level, (f, done) in enumerate(zip(branch, flags), start=1):
                nk = (level, g.production(f[0]).lhs, q)
                b_n[nk] = b_n.get(nk, 0.0) + share
                pk = (level, f, q)
                b_p[pk] = b_p.get(pk, 0.0) + share
                if done:
                    b_t[(level, q)] = b_t.get((level, q), 0.0) + share
                    tn[nk] = tn.get(nk, 0.0) + share
            sk = (ref_leaf(g, branch), q)
            b_sigma[sk] = b_sigma.get(sk, 0.0) + share
    for q, c in completed.items():
        if c <= 0.0:
            continue
        if q not in b_q:
            b_q[q] = c
        given_q[q] = c / b_q[q]
    b_tn = {nk: num / b_n[nk] for nk, num in tn.items()}
    return b_q, b_n, b_p, b_sigma, b_t, b_tn, given_q


def assert_keys_follow_the_stack(g, table, entry):
    """An entry's keys are its (level, frame) production keys.  Each
    implies its frame's symbol and, the deepest one alone, the emitted
    terminal under its cursor."""
    branch = entry.branch
    assert [table.slots[k] for k in entry.keys] == list(
        enumerate(branch, start=1))
    assert [table.implied[k] for k in entry.keys] == [
        (g.production(a).lhs, entry.leaf if level == len(branch) else None)
        for level, (a, _) in enumerate(branch, start=1)]


def published(belief):
    return (belief.b_q, belief.b_n, belief.b_p, belief.b_sigma, belief.b_t,
            belief.b_tn, belief.completed_given_q)


class TestBranchTable:
    @pytest.mark.parametrize("make, seed", [(branchy_grammar, 3),
                                            (repeated_child_grammar, 1),
                                            (traffic, 5)])
    def test_entries_follow_the_generator(self, make, seed):
        g = make()
        belief = init_belief(g)
        for obs in sampled_stream(g, seed, 12):
            _, belief = step(g, belief, obs)
        table = branch_table(g)
        assert len(table.entries) > 3
        for branch, entry in table.entries.items():
            assert entry.branch == branch
            assert table.entry(g, branch) is entry
            assert entry.leaf == ref_leaf(g, branch)
            assert entry.live == ref_terminating(g, branch).count(False)
            assert_keys_follow_the_stack(g, table, entry)
            skeleton = ref_skeleton(g, branch)
            if skeleton is None:
                assert entry.skeleton_id == -1
            else:
                assert table.skeletons[entry.skeleton_id] == skeleton
                assert table.skeleton_ids[skeleton] == entry.skeleton_id
                kept, fresh_symbol = skeleton
                if fresh_symbol is not None:
                    # the fresh chain opens at level len(kept) + 1
                    assert len(kept) + 1 in g.levels[fresh_symbol]

    @pytest.mark.parametrize("make, horizon", [
        (traffic, 2), (lambda: load_file(GOLDEN_DEEP_PLANS), 4),
        (branchy_grammar, 6)])
    def test_stack_rule_follows_the_per_level_definition(self, make,
                                                         horizon):
        """On every stack of the joint walk, `stack_rule` gives the leaf,
        live count and skeleton the test's own definitions give."""
        g = make()
        stacks = {step.stack for e in joint_runs(g, horizon)
                  for step in e.trajectory.steps}
        assert len(stacks) >= 8
        for stack in stacks:
            assert stack_rule(g, stack) == (
                ref_leaf(g, stack), ref_terminating(g, stack).count(False),
                ref_skeleton(g, stack))

    def test_successors_are_kept_prefix_plus_fresh_chains(self):
        g = branchy_grammar()
        belief = init_belief(g)
        for obs in sampled_stream(g, 4, 10):
            _, belief = step(g, belief, obs)
        table = branch_table(g)
        assert len(table.skeletons) == len(table.moves) == len(
            table.skeleton_ids)
        assert any(table.moves)
        # runs open through the root skeleton, id 0
        assert table.skeletons[0] == ((), g.start) and table.moves[0]
        for sid, (skeleton, by_state) in enumerate(zip(table.skeletons,
                                                       table.moves)):
            assert table.skeleton_ids[skeleton] == sid
            kept, fresh_symbol = skeleton
            for q2, (entries, probs) in by_state.items():
                if fresh_symbol is None:
                    want = [(kept, 1.0)]
                else:
                    want = [(kept + chain, cp) for chain, cp in
                            enumerate_chains(g, fresh_symbol, q2)]
                assert [(e.branch, p) for e, p in zip(entries, probs)] == want
                assert all(table.entries[e.branch] is e for e in entries)

    @pytest.mark.parametrize("seed", [2, 3, 8])
    def test_stream_equals_per_branch_reference(self, seed):
        """Completed mass and all seven published tables are the same
        floats a plain per-branch loop gives; the marginals and the
        predicted chart have the same keys, and values within the
        rounding of groups and pools."""
        g = branchy_grammar()
        belief = init_belief(g)
        assert published(belief) == ref_tables(g, by_stack(belief.chart), {})
        most = 0
        stream = sampled_stream(g, seed, 14)
        assert len(stream) >= 10
        for obs in stream:
            exp = explain(g, belief, obs)
            assert_marginals_close((exp.symbols, exp.productions, exp.terminal),
                                   ref_explain(g, belief, exp))
            pred = predict(g, belief, exp)
            assert_predict_matches_reference(g, belief, exp, pred)
            assert_marginals_close(
                (pred.symbols, pred.productions, pred.terminal),
                ref_marginals(g, ((branch, mass)
                                  for row in by_stack(pred.chart).values()
                                  for branch, mass in row.items())))
            report, _ = step(g, belief, obs)
            belief = update(g, belief, exp, pred, obs)
            assert published(belief) == ref_tables(g, by_stack(belief.chart),
                                                   belief.completed)
            symbols, productions, terminal = ref_marginals(
                g, ((branch, mass) for row in by_stack(belief.chart).values()
                    for branch, mass in row.items() if mass > 0.0))
            assert_marginals_close(report.to_dict(g)["predict"], {
                "symbols": symbols,
                "productions": {lvl: {f"{a}:{b}": p
                                      for (a, b), p in row.items()}
                                for lvl, row in productions.items()},
                "terminal": terminal,
                "completed": math.fsum(belief.completed.values()),
            })
            most = max(most, sum(map(len, belief.chart.values())))
        assert most >= 8

    @pytest.mark.parametrize("make, seed", [
        (branchy_grammar, 3), (repeated_child_grammar, 1),
        (lambda: load_file(GOLDEN_DEEP_PLANS), 5)])
    def test_published_tables_keep_first_touch_order(self, make, seed):
        """Each published table lists its keys in the order a per-branch
        loop first touches them: states in chart order, then each
        branch's levels top down."""
        g = make()
        belief = init_belief(g)
        for obs in sampled_stream(g, seed, 9):
            _, belief = step(g, belief, obs)
            want = ref_tables(g, by_stack(belief.chart), belief.completed)
            assert [list(t) for t in published(belief)] == [
                list(t) for t in want]

    @pytest.mark.parametrize("seed", [1010, 1012, 1024])
    def test_pooled_predict_where_skeletons_collide(self, seed):
        """Criterion 1's grammars 1010, 1012 and 1024 on their streams:
        within a step, two skeletons reach the same branch in the same
        new state, and every step still matches the per-branch loop."""
        g, joint = sized_random_psdg(seed, horizon=6)
        stats = pooled_steps(g, random_stream(g, joint, seed - 500,
                                              max_len=5))
        assert any(collided for _, _, collided in stats)

    def test_pooled_predict_on_deep_plans(self):
        """Up to thousands of live branches per step, pooled at least
        three to one."""
        g = load_file(GOLDEN_DEEP_PLANS)
        stats = pooled_steps(g, sampled_stream(g, 5, 9))
        assert len(stats) == 9
        assert any(sources >= 3 * pools for sources, pools, _ in stats)

    def test_grammar_dies_with_its_beliefs(self):
        """No reference cycle keeps a grammar alive: the table holds no
        reference to it, so dropping the grammar and its beliefs frees
        both by reference counting alone."""
        gc.disable()
        try:
            g = branchy_grammar()
            belief = init_belief(g)
            for obs in sampled_stream(g, 3, 6):
                report, belief = step(g, belief, obs)
            assert branch_table(g).entries
            ref = weakref.ref(g)
            del g, belief, report, obs
            assert ref() is None
        finally:
            gc.enable()

    def test_table_frees_itself_by_reference_counting(self):
        """Entries hold skeleton ids, not the move dicts that hold entries,
        so no cycle runs through the table: with the cyclic collector off,
        dropping the grammar and its belief frees every entry."""
        gc.collect()
        gc.disable()
        try:
            before = {id(o) for o in gc.get_objects()
                      if isinstance(o, BranchEntry)}
            g = branchy_grammar()
            belief = init_belief(g)
            for obs in sampled_stream(g, 3, 6):
                report, belief = step(g, belief, obs)
            assert any(branch_table(g).moves)
            del g, belief, report, obs
            assert [o for o in gc.get_objects() if isinstance(o, BranchEntry)
                    and id(o) not in before] == []
        finally:
            gc.enable()

    def test_table_shares_skeletons_and_chain_probabilities(self):
        """The table holds one tuple per distinct skeleton, every move into
        one (symbol, guard cell)'s fresh chains holds that pair's
        probability tuple, and an entry's key tuple holds one production
        key per level, whose implied facts give each level's symbol, so
        building the table leaves few objects alive."""
        g = load_file(GOLDEN_DEEP_PLANS)
        belief = init_belief(g)
        for obs in sampled_stream(g, 5, 6):
            _, belief = step(g, belief, obs)
        table = branch_table(g)
        assert len(table.entries) > len(table.skeletons)
        assert len(set(table.skeletons)) == len(table.skeletons)
        for entry in table.entries.values():
            assert len(entry.keys) == len(entry.branch)
            assert_keys_follow_the_stack(g, table, entry)
        fresh = 0
        for (_, fresh_symbol), by_state in zip(table.skeletons, table.moves):
            for q2, (_, probs) in by_state.items():
                if fresh_symbol is not None:
                    assert probs is \
                        table.chains[fresh_symbol, g.guard_cell(q2)][1]
                    fresh += 1
        assert fresh > len(table.chains)

    def test_chains_enumerated_once_per_symbol_and_guard_cell(
            self, monkeypatch):
        """States of one guard cell share their fresh chains, so over a
        factored-state run (512 states in 18 cells, one nonterminal) each
        (symbol, cell) is expanded at most once."""
        g = load_file(GOLDEN_FACTORED_STATE)
        expanded = []

        def counted(psdg, symbol, state):
            expanded.append((symbol, psdg.guard_cell(state)))
            return enumerate_chains(psdg, symbol, state)

        monkeypatch.setattr(infer_module, "enumerate_chains", counted)
        belief = init_belief(g)
        for obs in sampled_stream(g, 7, 6):
            _, belief = step(g, belief, obs)
        assert len(expanded) == len(set(expanded)) <= 18

    def test_explain_keeps_no_object_per_live_branch(self):
        """explain allocates nothing that lives across the call per live
        branch, so on a wide chart it sets off (almost) no collection."""
        g = load_file(GOLDEN_DEEP_PLANS)
        stream = sampled_stream(g, 5, 9)
        belief = init_belief(g)
        for obs in stream[:-1]:
            _, belief = step(g, belief, obs)
        live = sum(mass > 0.0 for row in belief.chart.values()
                   for mass in row.values())
        assert live >= 1000
        explain(g, belief, stream[-1])
        started = []

        def note(phase, info):
            if phase == "start":
                started.append(info["generation"])
        threshold = gc.get_threshold()
        gc.collect()
        gc.callbacks.append(note)
        gc.set_threshold(100)
        try:
            explain(g, belief, stream[-1])
        finally:
            gc.set_threshold(*threshold)
            gc.callbacks.remove(note)
        # One object kept per live branch would start live / 100 of them.
        assert len(started) <= live // 200

    def test_cli_invocation_leaves_no_table_behind(self, capsys,
                                                   monkeypatch):
        g = traffic()
        lines = "".join(line + "\n" for line in observation_json_lines(
            g, sample_trajectory(g, 6, 2)))
        gc.disable()
        try:
            before = len(infer_module._TABLES)
            monkeypatch.setattr("sys.stdin", io.StringIO(lines))
            assert cli_main(["infer", str(TRAFFIC_PATH)]) == 0
            assert len(infer_module._TABLES) == before
        finally:
            gc.enable()
        assert capsys.readouterr().out.count("\n") >= 1


def group_bits(groups):
    """Everything a chart's groups hold, as exact text."""
    return repr((groups.states, groups.leaves, groups.masses, groups.acc))


class TestChartGroups:
    @pytest.mark.parametrize("make, seed", [
        (lambda: load_file(GOLDEN_DEEP_PLANS), 5),
        (branchy_grammar, 3),
        (repeated_child_grammar, 1)])
    def test_groups_are_a_function_of_the_chart(self, make, seed):
        """Over a stream with gaps, each predict's groups are, bit for
        bit, the groups of its chart, the next belief reads them as they
        are, and explain on that belief with its groups dropped gives the
        same explanation."""
        g = make()
        table = branch_table(g)
        stream = [o for o in sampled_stream(g, seed, 12) if o.time % 4]
        belief = init_belief(g)
        steps = gaps = 0
        for obs in stream:
            gap = [Observation.vacuous(g, t)
                   for t in range(belief.time, obs.time)]
            gaps += len(gap)
            for now in gap + [obs]:
                exp = explain(g, belief, now)
                pred = predict(g, belief, exp)
                assert group_bits(pred.groups) == group_bits(
                    infer_module._Groups(table, pred.chart))
                belief = update(g, belief, exp, pred, now)
                assert belief.groups is pred.groups
                following = Observation(now.time + 1, now.constraint)
                kept = explain(g, belief, following)
                del belief.groups
                assert repr(explain(g, belief, following)) == repr(kept)
                assert group_bits(belief.groups) == group_bits(pred.groups)
                steps += 1
        assert steps == 11 and gaps == 2

    def test_chart_holds_positive_mass_only(self):
        """Shares that underflow stay out of the chart: on traffic's
        unobserved run every chart and completed mass is positive and no
        row is empty, up to belief time 1029, where the chart empties."""
        g = traffic()
        belief = init_belief(g)
        while True:
            assert all(belief.chart.values())
            assert all(m > 0.0 for row in belief.chart.values()
                       for m in row.values())
            assert all(c > 0.0 for c in belief.completed.values())
            if not belief.chart:
                break
            _, belief = step(g, belief, Observation.vacuous(g, belief.time))
        assert belief.time == 1029


class TestLazyTables:
    @pytest.fixture
    def projections(self, monkeypatch):
        calls = []
        project = infer_module._project

        def counted(belief):
            calls.append(belief)
            project(belief)
        monkeypatch.setattr(infer_module, "_project", counted)
        return calls

    def test_cli_run_never_projects(self, projections, capsys, monkeypatch):
        """A traffic stream with a gap, then one that forces a restart:
        every report line comes from the chart."""
        g = traffic()
        lines = list(observation_json_lines(g, sample_trajectory(g, 6, 2)))
        del lines[2]
        contradiction = ('{"t": 1, "observe": {"lane": ["left-lane"]}}\n'
                         '{"t": 2, "observe": {"lane": ["right-lane"]}}\n'
                         '{"t": 4, "observe": {"lane": ["left-lane"]}}\n')
        for stream, policy in (("\n".join(lines) + "\n", "error"),
                               (contradiction, "reinit")):
            monkeypatch.setattr("sys.stdin", io.StringIO(stream))
            assert cli_main(["infer", str(TRAFFIC_PATH),
                             "--on-zero-evidence", policy]) == 0
        out = capsys.readouterr()
        assert out.out.count("\n") == len(lines) + 3
        assert "restarting" in out.err
        assert projections == []

    def test_first_read_projects_all_tables_once(self, projections):
        g = traffic()
        belief = init_belief(g)
        _, belief = step(g, belief, Observation.vacuous(g, 1))
        assert projections == []
        assert math.fsum(belief.b_q.values()) == pytest.approx(1.0)
        assert belief.b_sigma
        belief.check_invariants()
        assert projections == [belief]
        with pytest.raises(AttributeError):
            belief.b_nothing


def endless_grammar():
    """T -> a T | B T with no exit: the root never terminates."""
    g = feature("g", ["go", "halt"], [0.5, 0.5], parents=["g"], cpt=[
        (["go"], "a", [0.8, 0.2]),
        (["go"], "*", [0.4, 0.6]),
        (["halt"], "c", [0.3, 0.7]),
        (["halt"], "*", [0.6, 0.4]),
    ])
    prods = [
        production(0, "T", ["a", "T"],
                   rules=[([("g", ["go"])], 0.7)], default=0.2),
        production(1, "T", ["B", "T"],
                   rules=[([("g", ["go"])], 0.3)], default=0.8),
        production(2, "B", ["c", "c"],
                   rules=[([("g", ["halt"])], 0.6)], default=0.5),
        production(3, "B", ["d"],
                   rules=[([("g", ["halt"])], 0.4)], default=0.5),
    ]
    return build([g], prods, "T")


class TestSoak:
    def test_ten_thousand_steps_stay_normalized_and_bounded(self):
        """Observed and vacuous steps alternate over a sampled run.  The
        grammar has four branches (T:a, and T over B's three frames), so
        at most 4·|Q| are live and the table never grows past four."""
        g = endless_grammar()
        steps = 10_000
        traj = sample_trajectory(g, steps, 17)
        assert len(traj.steps) == steps
        belief = init_belief(g)
        table = branch_table(g)
        for t in range(1, steps + 1):
            obs = (Observation(t, point(traj.steps[t - 1].state.idx))
                   if t % 2 else Observation.vacuous(g, t))
            _, belief = step(g, belief, obs)
            assert abs(math.fsum(belief.b_q.values()) - 1.0) <= 1e-9
            assert sum(map(len, belief.chart.values())) <= 8
            assert math.isfinite(belief.log_evidence)
        assert len(table.entries) == 4
        assert belief.log_evidence < 0.0
