"""Acceptance gate: the seven agreed criteria, one verdict line each.

Every test prints `ACCEPTANCE <n> PASS: ...` with its measurements once
its assertions hold; a failing criterion fails the test instead, so the
pytest report always carries exactly one pass/fail line per criterion.
"""
import math
import statistics
import time

from helpers import (build, feature, forcing_grammar, production,
                     random_stream, repeated_child_grammar, sized_random_psdg,
                     tail_recursive_grammar, traffic, unit_feature)
from psdg.generate import sample_trajectory
from psdg.grammar import StateSet
from psdg.infer import (Observation, explain, init_belief, predict,
                        recognize, step)
from psdg.oracle import (compare_reports, enumerate_joint, reference_reports,
                         to_pcfg)
from referee import parse_tree, pcfg_tree_probability, trajectory_probability


def _verdict(n: int, detail: str):
    print(f"ACCEPTANCE {n} PASS: {detail}")


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    worst = 0.0
    for i in range(25):
        grammar, joint = sized_random_psdg(1000 + i, horizon=6)
        observations = random_stream(grammar, joint, 500 + i, max_len=5)
        got = [report.to_dict(grammar)
               for report in recognize(grammar, observations)]
        want = reference_reports(grammar, joint, observations)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            dev, problems = compare_reports(g, w, tol=1e-9)
            assert not problems, (i, problems[:5])
            worst = max(worst, dev)
    elapsed = time.perf_counter() - started
    assert worst <= 1e-9
    assert elapsed < 60.0
    _verdict(1, f"25 randomized grammars, worst deviation {worst:.3g}, "
                f"{elapsed:.1f}s")


def test_criterion_2_pcfg_equivalence():
    checked = 0
    worst = 0.0
    for seed in range(10):
        grammar, joint = sized_random_psdg(3000 + seed, horizon=5,
                                           max_entries=8000)
        pcfg = to_pcfg(grammar)
        for entry in joint.entries:
            if not entry.trajectory.complete:
                continue
            tree = parse_tree(grammar, entry.trajectory)
            lp = pcfg_tree_probability(pcfg, tree)
            rel = abs(lp - entry.log_prob) / max(1.0, abs(entry.log_prob))
            worst = max(worst, rel)
            checked += 1
    assert checked > 0
    assert worst <= 1e-12
    _verdict(2, f"10 grammars, {checked} complete trees, "
                f"worst relative log-prob gap {worst:.3g}")


def test_criterion_3_generative_consistency():
    for grammar, horizon in ((traffic(), 3), (repeated_child_grammar(), 4),
                             (tail_recursive_grammar(), 4)):
        joint = enumerate_joint(grammar, horizon)
        assert abs(joint.total_mass - 1.0) <= 1e-9

    grammar = repeated_child_grammar()
    horizon = 4
    joint = enumerate_joint(grammar, horizon)

    def key(traj):
        return (traj.initial_state.idx,
                tuple((s.stack, s.terminal, s.state.idx) for s in traj.steps),
                traj.complete)

    n = 100_000
    counts: dict = {}
    for i in range(n):
        k = key(sample_trajectory(grammar, horizon, seed=i))
        counts[k] = counts.get(k, 0) + 1
    worst_sigma = 0.0
    for entry in joint.entries:
        p = entry.prob
        freq = counts.pop(key(entry.trajectory), 0) / n
        sigma = math.sqrt(p * (1.0 - p) / n)
        worst_sigma = max(worst_sigma, abs(freq - p) / sigma)
        assert abs(freq - p) <= 3.0 * sigma, (p, freq)
    assert not counts, "sampler produced a trajectory outside the joint"
    _verdict(3, f"joint mass exact on 3 grammars; sampler at n={n} "
                f"worst offset {worst_sigma:.2f} standard errors")


def _chain_grammar(depth: int):
    """S -> A1 -> ... -> a, one live level per depth unit."""
    prods = [production(i, f"N{i}" if i else "S", [f"N{i + 1}"])
             for i in range(depth - 1)]
    prods.append(production(depth - 1, f"N{depth - 1}" if depth > 1 else "S",
                            ["a"]))
    return build([unit_feature()], prods, "S")


def _fanout_grammar(n_prods: int):
    terms = [f"t{i}" for i in range(n_prods)]
    prods = [production(i, "S", [t], default=1.0 / n_prods)
             for i, t in enumerate(terms)]
    return build([unit_feature()], prods, "S")


def _staggered_grammar(m: int):
    """Root rhs of length m behind a geometric-duration child, so runs
    with every cursor position coexist in one belief slice."""
    prods = [
        production(0, "S", ["A"] + ["a"] * (m - 1)),
        production(1, "A", ["z", "A"], default=0.5),
        production(2, "A", ["z"], default=0.5),
    ]
    return build([unit_feature()], prods, "S")


def _wide_state_grammar(values: int):
    vals = [f"v{i}" for i in range(values)]
    f = feature("f", vals, [1.0 / values] * values, parents=["f"],
                cpt=[(["*"], "*", [1.0 / values] * values)])
    prods = [production(0, "S", ["a", "S"], default=0.7),
             production(1, "S", ["b"], default=0.3)]
    return build([f], prods, "S")


def _max_entries(grammar, steps: int, constraint=None) -> int:
    belief = init_belief(grammar, restrict=constraint)
    worst = belief.entry_count()
    for t in range(1, steps + 1):
        obs = (Observation(t, constraint) if constraint is not None
               else Observation.vacuous(grammar, t))
        _, belief = step(grammar, belief, obs)
        worst = max(worst, belief.entry_count())
    return worst


def _step_time(grammar, steps: int = 12, repeats: int = 5) -> float:
    best = math.inf
    for _ in range(repeats):
        belief = init_belief(grammar)
        started = time.perf_counter()
        for t in range(1, steps + 1):
            _, belief = step(grammar, belief,
                             Observation.vacuous(grammar, t))
        best = min(best, (time.perf_counter() - started) / steps)
    return best


def test_criterion_4_belief_compactness():
    ratios = {}

    wide = _wide_state_grammar(8)
    half = StateSet((frozenset(range(4)),))
    full = StateSet((frozenset(range(8)),))
    ratios["|R|"] = (_max_entries(wide, 4, full)
                     / _max_entries(wide, 4, half))

    ratios["d"] = _max_entries(_chain_grammar(8), 2) \
        / _max_entries(_chain_grammar(4), 2)

    ratios["|P|"] = _max_entries(_fanout_grammar(8), 1) \
        / _max_entries(_fanout_grammar(4), 1)

    ratios["m"] = _max_entries(_staggered_grammar(8), 10) \
        / _max_entries(_staggered_grammar(4), 10)

    for name, ratio in ratios.items():
        assert ratio <= 4.0, (name, ratio)

    # wall time per step against a quadratic envelope in |R|
    times = {v: _step_time(_wide_state_grammar(v)) for v in (4, 8, 16, 32)}
    for small, big in ((4, 8), (8, 16), (16, 32)):
        assert times[big] <= 8.0 * max(times[small], 1e-6), times

    shown = {k: round(v, 2) for k, v in ratios.items()}
    _verdict(4, f"entry-count doubling ratios {shown} (linear allows 4.0); "
                f"step times us {({v: round(t * 1e6) for v, t in times.items()})}")


def test_criterion_5_traffic_cycle_time():
    grammar = traffic()
    belief = init_belief(grammar)
    step(grammar, belief, Observation.vacuous(grammar, 1))  # warm caches
    samples = []
    for _ in range(7):
        b = init_belief(grammar)
        started = time.perf_counter()
        step(grammar, b, Observation.vacuous(grammar, 1))
        samples.append(time.perf_counter() - started)
    cycle = statistics.median(samples)
    assert cycle <= 0.050, cycle
    _verdict(5, f"full cycle on the bundled grammar: {cycle * 1e3:.2f} ms "
                f"(budget 50 ms)")


def test_criterion_6_lane_guards_are_exact_zeros():
    grammar = traffic()
    cases = ((1, {"lane": "left-lane"}), (2, {"lane": "right-lane"}))
    for prod_index, labels in cases:
        constraint = StateSet.from_labels(grammar, labels)
        belief = init_belief(grammar, restrict=constraint)
        mass = math.fsum(
            belief.b_q[q] * belief.b_p.get((1, (prod_index, 1), q), 0.0)
            for q in belief.b_q)
        assert mass == 0.0
        # and after arriving in the lane mid-stream, not just at the prior
        fresh = init_belief(grammar)
        e = explain(grammar, fresh, Observation(1, constraint))
        pred = predict(grammar, fresh, e)
        assert pred.productions[1].get((prod_index, 1), 0.0) == 0.0
    _verdict(6, "lane-guarded productions are exactly zero under both "
                "restricted priors and mid-stream observations")


def test_criterion_7_forced_pass_trace_replay():
    grammar = forcing_grammar()
    traj = sample_trajectory(grammar, horizon=6, seed=0)
    assert traj.complete
    assert [s.terminal for s in traj.steps] == ["Left", "Right", "Exit"]
    stacks = [s.stack for s in traj.steps]
    assert stacks == [((3, 1), (5, 1)), ((3, 1), (5, 2)), ((4, 1),)]
    assert math.isfinite(trajectory_probability(grammar, traj))

    belief = init_belief(grammar)
    pass_posterior = {}
    for t, s in enumerate(traj.steps, start=1):
        obs = Observation(t, StateSet(
            tuple(frozenset({v}) for v in s.state.idx)))
        e = explain(grammar, belief, obs)
        pass_posterior[t] = e.symbols.get(2, {}).get("Pass", 0.0)
        _, belief = step(grammar, belief, obs)
    assert pass_posterior[1] > 0.0
    assert pass_posterior[2] > 0.0
    _verdict(7, f"forced walk reproduces the Left/Right/Exit stacks; "
                f"Pass posterior at level 2 is {pass_posterior[1]:.3f} (t=1) "
                f"and {pass_posterior[2]:.3f} (t=2)")
