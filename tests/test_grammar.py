"""Model layer: probability functions, state sets, validation."""
import functools
import itertools
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (TRAFFIC_PATH, build, feature, production, random_psdg,
                     single_production_grammar, state_of, traffic,
                     unit_feature)
import psdg.grammar as grammar_module
from psdg.errors import ExplosionBound, GrammarError
from psdg.grammar import (ProbabilityFunction, StateSet,
                          _feature_transition, enumerate_states,
                          prior_probability, validate_grammar, RawGrammar)
from psdg.infer import Observation, recognize
from psdg.oracle import compare_reports, streamed_reports
from psdg.parse import load_file, parse_text, validate_text
from referee import production_probability, transition_probability

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_FACTORED_STATE = GOLDEN / "factored-state.psdg"
BUNDLED = [TRAFFIC_PATH, GOLDEN_FACTORED_STATE, GOLDEN / "deep-plans.psdg"]
BUNDLED_IDS = ["traffic", "factored-state", "deep-plans"]


def two_flip_features():
    """Two independent binary features with flip probabilities 0.3, 0.5."""
    f1 = feature("p", ["n0", "n1"], [0.9, 0.1], parents=["p"], cpt=[
        (["n0"], "*", [0.7, 0.3]),
        (["n1"], "*", [0.3, 0.7]),
    ])
    f2 = feature("q", ["m0", "m1"], [0.5, 0.5], parents=["q"], cpt=[
        (["m0"], "*", [0.5, 0.5]),
        (["m1"], "*", [0.5, 0.5]),
    ])
    return build([f1, f2], [production(0, "S", ["a"])], "S")


def full_product_witnesses(features, prods):
    """Per nonterminal, in name order, the NormalizationViolation message
    for the first failing state of a loop over the full state product."""
    def evaluate(p, state):
        for rule in p.rules:
            if all(state[f] in vals for f, vals in rule.guard):
                return rule.value
        return p.default

    names = [f.name for f in features]
    want = []
    for nt in sorted({p.lhs for p in prods}):
        for combo in itertools.product(*(f.values for f in features)):
            state = dict(zip(names, combo))
            s = sum(evaluate(p, state) for p in prods if p.lhs == nt)
            if abs(s - 1.0) > 1e-9:
                labels = ", ".join(f"{n}={state[n]}" for n in names)
                want.append(f"productions of {nt!r} sum to {s:.12g} "
                            f"at state ({labels})")
                break
    return want


@st.composite
def guarded_grammars(draw):
    """1-3 features of 1-5 values, and S -> s0 A | s1 | ..., A -> t0 | ...
    whose productions carry 0-3 random guard rules each; rule values are
    drawn so that the sums sometimes fail to reach one."""
    features = []
    for i in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 5))
        features.append(feature(f"f{i}", [f"v{j}" for j in range(n)],
                                [1.0 / n] * n))

    def guard():
        tests = []
        for _ in range(draw(st.integers(1, 2))):
            f = draw(st.sampled_from(features))
            vals = draw(st.sets(st.sampled_from(f.values), min_size=1))
            tests.append((f.name, sorted(vals)))
        return tests

    prods = []
    for lhs, term in (("S", "s"), ("A", "t")):
        k = draw(st.integers(1, 3))
        values = st.sampled_from([0.0, 1.0 / k, 0.5, 1.0])
        for j in range(k):
            rhs = ["s0", "A"] if lhs == "S" and j == 0 else [f"{term}{j}"]
            rules = [(guard(), draw(values))
                     for _ in range(draw(st.integers(0, 3)))]
            prods.append(production(len(prods), lhs, rhs, rules=rules,
                                    default=1.0 / k))
    return features, prods


@st.composite
def random_cpt_rows(draw):
    """Parents: one or both of a (a0, a1) and b (1-3 values), in either
    order; 0-5 rows for a with wildcards, each its own distribution."""
    domains = {"a": ["a0", "a1"],
               "b": [f"b{j}" for j in range(draw(st.integers(1, 3)))]}
    parents = draw(st.permutations(["a", "b"]))[:draw(st.integers(1, 2))]
    rows = [([draw(st.sampled_from(["*"] + domains[p])) for p in parents],
             draw(st.sampled_from(["*", "x", "y"])), [i / 8, 1 - i / 8])
            for i in range(draw(st.integers(0, 5)))]
    return domains, parents, rows


class TestValidate:
    def test_traffic_levels(self):
        g = traffic()
        assert g.depth == 2
        # trailing Drive re-enters level 1; Pass sits strictly below
        assert g.levels["Drive"] == (1,)
        assert g.levels["Pass"] == (2,)
        assert set(g.nonterminals) == {"Drive", "Pass"}

    def test_normalization_violation(self):
        bad = [production(0, "X", ["a"], default=0.6),
               production(1, "X", ["b"], default=0.5)]
        with pytest.raises(GrammarError) as e:
            build([unit_feature()], bad, "X")
        kinds = {d.kind for d in e.value.diagnostics}
        assert "NormalizationViolation" in kinds
        # the witness names the nonterminal
        msg = next(d.message for d in e.value.diagnostics
                   if d.kind == "NormalizationViolation")
        assert "X" in msg

    def test_non_tail_recursion(self):
        bad = [production(0, "X", ["Y"]),
               production(1, "Y", ["X"])]
        with pytest.raises(GrammarError) as e:
            build([unit_feature()], bad, "X")
        assert any(d.kind == "NonTailRecursion" for d in e.value.diagnostics)

    def test_lhs_repeated_before_tail_rejected(self):
        bad = [production(0, "X", ["X", "X"], default=0.5),
               production(1, "X", ["a"], default=0.5)]
        with pytest.raises(GrammarError) as e:
            build([unit_feature()], bad, "X")
        assert any(d.kind == "NonTailRecursion" for d in e.value.diagnostics)

    def test_undeclared_symbol(self):
        bad = [production(0, "X", ["Zzz", "a"])]
        # Zzz never appears as an lhs, so it would be a terminal; here we
        # fabricate a CPT conditioning on a truly unknown terminal.
        f = feature("u", ["z"], [1.0], parents=["u"],
                    cpt=[(["z"], "nope", [1.0]), (["z"], "*", [1.0])])
        with pytest.raises(GrammarError) as e:
            build([f], bad, "X")
        assert any(d.kind == "UndeclaredSymbol" for d in e.value.diagnostics)

    def test_empty_rhs(self):
        bad = [production(0, "X", [])]
        with pytest.raises(GrammarError) as e:
            build([unit_feature()], bad, "X")
        assert any(d.kind == "EmptyRhs" for d in e.value.diagnostics)

    def test_bad_distribution(self):
        f = feature("u", ["z", "w"], [0.7, 0.7])
        with pytest.raises(GrammarError) as e:
            build([f], [production(0, "X", ["a"])], "X")
        assert any(d.kind == "BadDistribution" for d in e.value.diagnostics)

    def test_deterministic(self):
        def raw():
            return RawGrammar(
                [feature("u", ["z"], [1.0])],
                [production(0, "S", ["a", "S"], default=0.4),
                 production(1, "S", ["b"], default=0.6)],
                "S")
        g1, _ = validate_grammar(raw())
        g2, _ = validate_grammar(raw())
        assert g1.summary() == g2.summary()
        assert [p.rhs for p in g1.productions] == \
               [p.rhs for p in g2.productions]
        assert g1.levels == g2.levels

    def test_scoped_normalization_witness_equals_full_product(self):
        """Guards that skip a feature: the scoped check names the same
        first failing state as a loop over the full product."""
        features = [feature("u", ["u0", "u1"], [0.5, 0.5]),
                    feature("v", ["v0", "v1", "v2"], [0.2, 0.3, 0.5]),
                    feature("w", ["w0", "w1"], [0.5, 0.5])]
        prods = [
            production(0, "S", ["a", "A"],
                       rules=[([("u", ["u1"]), ("w", ["w0"])], 0.4)],
                       default=0.5),
            production(1, "S", ["b"], default=0.5),
            production(2, "A", ["c"], rules=[([("v", ["v2"])], 0.7)],
                       default=0.25),
            production(3, "A", ["d"], rules=[([("w", ["w1"])], 0.25)],
                       default=0.75),
        ]
        _, diags = validate_grammar(RawGrammar(features, prods, "S"))
        want = full_product_witnesses(features, prods)
        assert len(want) == 2
        assert [d.message for d in diags
                if d.kind == "NormalizationViolation"] == want

    @settings(max_examples=150, deadline=None)
    @given(guarded_grammars())
    def test_cell_witness_equals_full_product_on_random_guards(self, drawn):
        """Random guards over 1-3 features of 1-5 values: the per-cell
        check reports what a loop over the full product reports, and each
        state evaluates like the least state of its guard cell."""
        features, prods = drawn
        g, diags = validate_grammar(RawGrammar(features, prods, "S"))
        assert [d.message for d in diags] == \
            full_product_witnesses(features, prods)
        if g is not None:
            for q in enumerate_states(g):
                cell = g.guard_cell(q)
                assert g.guard_cell(cell) == cell
                assert [p.prob.evaluate(q) for p in g.productions] == \
                    [p.prob.evaluate(cell) for p in g.productions]

    def test_production_indices_may_have_gaps(self):
        g = build([unit_feature()],
                  [production(1, "S", ["a", "B"]),
                   production(3, "B", ["b"])], "S")
        assert g.production(3).rhs == ("b",)
        assert g.levels == {"B": (2,), "S": (1,)}
        with pytest.raises(KeyError):
            g.production(2)

    def test_nan_prior_entry_rejected(self):
        text = ("feature u {\n  values: a, b;\n  prior: nan, 1;\n}\n"
                "start S\nprod 0: S -> x { default: 1; }\n")
        g, diags = validate_text(text)
        assert g is None
        assert [(d.kind, d.message, d.line, d.column) for d in diags] == [
            ("BadDistribution",
             "prior of feature 'u' has entry nan outside [0, 1]", 1, 9)]

    def test_nan_cpt_entry_rejected(self):
        # Validated before NaN was rejected, and `infer` then reported an
        # evidence likelihood of 0.75 on a vacuous step.
        text = ("feature u {\n  values: a, b;\n  prior: 0.5, 0.5;\n"
                "  parents: u;\n  cpt: a | * -> nan, 0.5;\n"
                "  cpt: b | * -> 0, 1;\n}\n"
                "start S\nprod 0: S -> x { default: 1; }\n")
        g, diags = validate_text(text)
        assert g is None
        assert [(d.kind, d.message, d.line, d.column) for d in diags] == [
            ("BadDistribution",
             "CPT row of feature 'u' has entry nan outside [0, 1]", 5, 3)]

    def test_state_key_joins_value_labels(self):
        g = traffic()
        q = state_of(g, {"lane": "left-lane", "speed": "fast", "exit": "far"})
        assert g.state_key(q) == "left-lane|fast|far"


def path_lengths(g):
    """Reference levels: for each nonterminal, 1 + the lengths of the
    paths from the start symbol, where a step goes from a production's
    lhs to a nonterminal on its rhs, except the final symbol when it
    repeats the lhs.  Grown to a fixed point, which exists because a
    valid grammar has no cycle of such steps."""
    levels = {nt: set() for nt in g.nonterminals}
    levels[g.start].add(1)
    grown = True
    while grown:
        grown = False
        for p in g.productions:
            for i, sym in enumerate(p.rhs):
                if sym not in levels or (i == len(p.rhs) - 1
                                         and sym == p.lhs):
                    continue
                new = {lvl + 1 for lvl in levels[p.lhs]} - levels[sym]
                if new:
                    levels[sym] |= new
                    grown = True
    return {nt: tuple(sorted(lvls)) for nt, lvls in levels.items()}


def ring(n):
    """N0 -> x N1 -> ... -> x N(n-1) -> x N0: a cycle of n symbols, none
    of them a direct tail recursion."""
    return [production(i, f"N{i}", ["x", f"N{(i + 1) % n}"])
            for i in range(n)]


class TestLevels:
    CYCLE = "recursion other than direct tail recursion: cycle "

    def test_reachable_cycle_is_named_before_a_lesser_unreachable_one(self):
        """The walk meets the cycle as Y -> X -> Y and names it from X."""
        prods = [production(0, "S", ["Y"]),
                 production(1, "X", ["x", "Y"]),
                 production(2, "Y", ["y", "X"]),
                 production(3, "C", ["c", "D"]),
                 production(4, "D", ["d", "C"])]
        psdg, diags = validate_grammar(RawGrammar([unit_feature()], prods,
                                                  "S"))
        assert psdg is None
        assert [(d.kind, d.message, d.line, d.column) for d in diags] == [
            ("NonTailRecursion", self.CYCLE + "X -> Y -> X", 0, 0)]

    def test_long_cycle_is_a_diagnostic(self):
        psdg, diags = validate_grammar(RawGrammar([unit_feature()],
                                                  ring(1200), "N0"))
        assert psdg is None
        assert [(d.kind, d.message) for d in diags] == [
            ("NonTailRecursion", self.CYCLE + " -> ".join(
                f"N{i}" for i in [*range(1200), 0]))]

    def test_unreachable_cycle_validates_without_levels(self):
        g = build([unit_feature()],
                  [production(0, "S", ["s"]),
                   production(3, "C", ["c", "D"]),
                   production(4, "D", ["d", "C"])], "S")
        assert g.levels == {"C": (), "D": (), "S": (1,)}
        assert g.depth == 1

    def test_long_chain_validates(self):
        n = 1200
        g = build([unit_feature()],
                  [production(i, f"N{i}", [f"N{i + 1}"])
                   for i in range(n - 1)]
                  + [production(n - 1, f"N{n - 1}", ["x"])], "N0")
        assert g.depth == n
        assert g.levels == {f"N{i}": (i + 1,) for i in range(n)}

    @pytest.mark.parametrize("load", [
        pytest.param(traffic, id="traffic"),
        *(pytest.param(functools.partial(load_file, GOLDEN / name), id=name)
          for name in ("deep-plans.psdg", "factored-state.psdg")),
        *(pytest.param(functools.partial(random_psdg, seed),
                       id=f"random{seed}") for seed in range(40))])
    def test_levels_are_the_path_lengths_from_the_start(self, load):
        """deep-plans puts C, D and E on two or three levels each."""
        g = load()
        assert g.levels == path_lengths(g)
        assert g.depth == max(max(lvls) for lvls in g.levels.values()
                              if lvls)


class TestProductionProbability:
    def test_left_lane_guard_zero(self):
        g = traffic()
        for speed in ("slow", "fast"):
            for exit_ in ("far", "near", "at"):
                q = state_of(
                    g, {"lane": "left-lane", "speed": speed, "exit": exit_})
                assert production_probability(g, 1, q) == 0.0

    def test_single_production_is_one(self):
        g = single_production_grammar()
        assert production_probability(g, 0, (0,)) == 1.0

    def test_default_rule_fires(self):
        f = feature("Speed", ["slow", "fast"], [0.5, 0.5])
        prods = [production(0, "S", ["a"],
                            rules=[([("Speed", ["fast"])], 0.8)], default=0.2),
                 production(1, "S", ["b"],
                            rules=[([("Speed", ["fast"])], 0.2)], default=0.8)]
        g = build([f], prods, "S")
        assert production_probability(
            g, 0, state_of(g, {"Speed": "slow"})) == 0.2
        assert production_probability(
            g, 0, state_of(g, {"Speed": "fast"})) == 0.8

    def test_normalization_every_state(self):
        g = traffic()
        for q in enumerate_states(g):
            for lhs in g.nonterminals:
                total = math.fsum(
                    production_probability(g, p.index, q)
                    for p in g.productions if p.lhs == lhs)
                assert abs(total - 1.0) <= 1e-9


class TestTransitionProbability:
    def test_identity_dynamics(self):
        f = feature("u", ["z", "w"], [0.5, 0.5])   # no cpt: value persists
        g = build([f], [production(0, "S", ["a"])], "S")
        assert transition_probability(g, (0,), "a", (0,)) == 1.0
        assert transition_probability(g, (0,), "a", (1,)) == 0.0

    def test_single_flip_row(self):
        f = feature("u", ["z", "w"], [1.0, 0.0], parents=["u"], cpt=[
            (["z"], "*", [0.7, 0.3]),
            (["w"], "*", [0.3, 0.7]),
        ])
        g = build([f], [production(0, "S", ["a"])], "S")
        assert transition_probability(g, (0,), "a", (1,)) == pytest.approx(0.3)

    def test_product_of_independent_flips(self):
        g = two_flip_features()
        # both features flip out of (0, 0)
        got = transition_probability(g, (0, 0), "a", (1, 1))
        assert got == pytest.approx(0.3 * 0.5, abs=1e-12)
        # rows sum to one over the four-state joint
        for prev in enumerate_states(g):
            total = math.fsum(transition_probability(g, prev, "a", nxt)
                              for nxt in enumerate_states(g))
            assert abs(total - 1.0) <= 1e-9

    def test_traffic_rows_sum_to_one(self):
        g = traffic()
        for prev in enumerate_states(g):
            for x in g.terminals:
                total = math.fsum(transition_probability(g, prev, x, nxt)
                                  for nxt in enumerate_states(g))
                assert abs(total - 1.0) <= 1e-9


class TestFeatureWithoutParents:
    """A feature declared with no parents (which only the builders can
    declare) draws its next value from a row chosen by the terminal alone."""

    ROWS = {"x": (0.1, 0.6, 0.3), "y": (0.5, 0.25, 0.25)}

    def grammar(self):
        w = feature("w", ["w0", "w1", "w2"], [0.2, 0.5, 0.3], parents=[],
                    cpt=[([], "x", self.ROWS["x"]), ([], "*", self.ROWS["y"])])
        return build([w], [
            production(0, "S", ["x", "S"], rules=[([("w", ["w0"])], 0.7)],
                       default=0.4),
            production(1, "S", ["y"], rules=[([("w", ["w0"])], 0.3)],
                       default=0.6)], "S")

    def test_table_has_one_row_per_terminal(self):
        g = self.grammar()
        for x, row in self.ROWS.items():
            assert g.features[0].table[x] == {(): row}

    def test_transition_ignores_the_previous_state(self):
        g = self.grammar()
        for prev in enumerate_states(g):
            for x, row in self.ROWS.items():
                assert [transition_probability(g, prev, x, nxt)
                        for nxt in enumerate_states(g)] == list(row)

    def test_recognize_matches_the_oracle(self):
        g = self.grammar()
        obs = [Observation.from_labels(g, t, {"w": values}) for t, values in
               ((1, ["w0", "w1"]), (2, ["w2"]), (3, ["w0"]))]
        got = [r.to_dict(g) for r in recognize(g, obs)]
        for a, b in zip(got, streamed_reports(g, obs), strict=True):
            assert compare_reports(a, b, tol=1e-9)[1] == []


def first_match_row(g, raw, prev, terminal):
    """Reference CPT semantics: the first declared row of raw feature
    `raw` whose terminal and parent values (by label) match, walked row
    by row; a feature declared without rows keeps its value."""
    labels = g.labels(prev)
    if raw.cpt is None:
        return tuple(1.0 if v == labels[raw.name] else 0.0
                     for v in raw.values)
    parents = raw.parents if raw.parents is not None else [raw.name]
    for row in raw.cpt:
        if (row.terminal in ("*", terminal)
                and all(pv in ("*", labels[p])
                        for p, pv in zip(parents, row.parent_values))):
            return tuple(row.probs)
    raise AssertionError(f"no row of {raw.name!r} matches")


def shadowed_rows_raw() -> RawGrammar:
    """`b` has a `* | *` row ahead of a specific row that it shadows, and
    `a` has two parents with partly wildcarded rows, so the table is only
    right if it keeps the first match."""
    a = feature("a", ["a0", "a1"], [0.5, 0.5], parents=["a", "b"], cpt=[
        (["a0", "*"], "x", [0.9, 0.1]),
        (["*", "b1"], "*", [0.2, 0.8]),
        (["*", "*"], "*", [0.6, 0.4]),
        (["a0", "b1"], "x", [0.0, 1.0]),
    ])
    b = feature("b", ["b0", "b1", "b2"], [0.2, 0.3, 0.5], parents=["b"], cpt=[
        (["b0"], "y", [0.0, 0.5, 0.5]),
        (["*"], "*", [0.25, 0.25, 0.5]),
        (["b1"], "x", [1.0, 0.0, 0.0]),
    ])
    prods = [production(0, "S", ["x", "S"], default=0.4),
             production(1, "S", ["y"], default=0.3),
             production(2, "S", ["z"], default=0.3)]
    return RawGrammar([a, b], prods, "S")


def shadowed_rows_grammar():
    raw = shadowed_rows_raw()
    return build(raw.features, raw.productions, raw.start)


class TestCompiledTables:
    @pytest.mark.parametrize("make_raw", [
        lambda: parse_text(TRAFFIC_PATH.read_text())[0], shadowed_rows_raw,
        lambda: RawGrammar([*shadowed_rows_raw().features,
                            feature("c", ["c0", "c1"], [0.5, 0.5])],
                           shadowed_rows_raw().productions, "S")],
        ids=["traffic", "shadowed_rows_grammar", "with_a_kept_feature"])
    def test_table_equals_first_match_walk(self, make_raw):
        raw = make_raw()
        g = build(raw.features, raw.productions, raw.start)
        for prev in enumerate_states(g):
            for x in g.terminals:
                for fi, feat in enumerate(raw.features):
                    assert (_feature_transition(g, fi, prev, x)
                            == first_match_row(g, feat, prev, x))
                for nxt in enumerate_states(g):
                    want = 1.0
                    for feat, v in zip(raw.features, nxt):
                        want *= first_match_row(g, feat, prev, x)[v]
                    assert transition_probability(g, prev, x, nxt) == want

    def test_earlier_wildcard_row_shadows_later_row(self):
        g = shadowed_rows_grammar()
        # (a0, b1) under x: the a0-and-x row comes first
        assert _feature_transition(g, 0, (0, 1), "x") == (0.9, 0.1)
        # (a1, b1) under x: the b1 row beats the later specific row
        assert _feature_transition(g, 0, (1, 1), "x") == (0.2, 0.8)
        # b1 under x: `* | *` beats the later b1 row
        assert _feature_transition(g, 1, (0, 1), "x") == (0.25, 0.25, 0.5)
        assert _feature_transition(g, 1, (0, 0), "y") == (0.0, 0.5, 0.5)

    def test_uncovered_combination_is_diagnosed(self):
        a = feature("a", ["a0", "a1"], [0.5, 0.5], parents=["a", "b"], cpt=[
            (["a0", "*"], "*", [0.5, 0.5]),
            (["a1", "b1"], "*", [0.5, 0.5]),
            (["*", "*"], "y", [0.5, 0.5]),
        ])
        b = feature("b", ["b0", "b1"], [0.5, 0.5])
        prods = [production(0, "S", ["x"], default=0.5),
                 production(1, "S", ["y"], default=0.5)]
        with pytest.raises(GrammarError) as e:
            build([a, b], prods, "S")
        assert [(d.kind, d.message) for d in e.value.diagnostics] == [
            ("BadDistribution", "feature 'a' has no CPT row for "
                                "(a=a1, b=b0) with terminal 'x'")]

    @settings(max_examples=150, deadline=None)
    @given(random_cpt_rows())
    def test_table_and_gaps_equal_first_match_walk_on_random_rows(
            self, drawn):
        """Random rows with wildcards: the compiled table holds the first
        matching row of each (parent combo, terminal), and the pairs no
        row matches are diagnosed in combo order, then terminal order."""
        domains, parents, rows = drawn
        a = feature("a", domains["a"], [0.5, 0.5], parents=parents,
                    cpt=rows)
        b = feature("b", domains["b"], [1.0 / len(domains["b"])]
                    * len(domains["b"]))
        prods = [production(0, "S", ["x"], default=0.5),
                 production(1, "S", ["y"], default=0.5)]
        g, diags = validate_grammar(RawGrammar([a, b], prods, "S"))
        want, first = [], {}
        for combo in itertools.product(*(domains[p] for p in parents)):
            for term in ("x", "y"):
                first[combo, term] = next(
                    (tuple(probs) for pv, t, probs in rows
                     if t in ("*", term)
                     and all(v in ("*", c) for v, c in zip(pv, combo))),
                    None)
                if first[combo, term] is None:
                    labels = ", ".join(f"{p}={c}"
                                       for p, c in zip(parents, combo))
                    want.append(f"feature 'a' has no CPT row for "
                                f"({labels}) with terminal {term!r}")
        assert [d.message for d in diags] == want
        if g is not None:
            for (combo, term), probs in first.items():
                prev = [0, 0]
                for p, c in zip(parents, combo):
                    prev["ab".index(p)] = domains[p].index(c)
                assert _feature_transition(g, 0, tuple(prev), term) == probs

    def test_unknown_terminal_rejected(self):
        g = traffic()
        q = enumerate_states(g)[0]
        for bad in ("nope", "Drive", "*"):
            with pytest.raises(ValueError):
                transition_probability(g, q, bad, q)


class TestLoadTimeTables:
    """Every probability read after load is a lookup in a table built once:
    per-cell production vectors and CPT rows, equal rows one object."""

    @staticmethod
    def assert_vectors_equal_guard_rules(g):
        for q in enumerate_states(g):
            for nt in g.nonterminals:
                want = [g.production(a).prob.evaluate(q) for a in g.by_lhs[nt]]
                assert list(g.production_probs(nt, q)) == want, (nt, q)

    @pytest.mark.parametrize("path", BUNDLED, ids=BUNDLED_IDS)
    def test_cell_vectors_equal_the_guard_rules(self, path):
        self.assert_vectors_equal_guard_rules(load_file(path))

    def test_cell_vectors_of_random_grammars(self):
        for seed in range(40):
            self.assert_vectors_equal_guard_rules(random_psdg(seed))

    def test_equal_cpt_rows_are_one_object(self):
        """traffic declares `| Left -> 1, 0, 0` at left-lane and at
        center-lane; the table holds one tuple for both."""
        g = traffic()
        lane = g.features[g.feature_index["lane"]]
        left, center = (lane.values.index(v) for v in ("left-lane",
                                                       "center-lane"))
        rows = lane.table["Left"]
        assert rows[left] == (1.0, 0.0, 0.0)
        assert rows[left] is rows[center]
        for path in BUNDLED:
            for f in load_file(path).features:
                rows = [r for t in f.table.values() for r in t.values()]
                assert len({id(r) for r in rows}) == len(set(rows)), f.name

    @pytest.mark.parametrize("path", BUNDLED, ids=BUNDLED_IDS)
    def test_interned_tables_hold_the_first_matching_row(self, path):
        raw, _ = parse_text(Path(path).read_text(encoding="utf-8"))
        g = load_file(path)
        for prev in enumerate_states(g):
            for x in g.terminals:
                for fi, feat in enumerate(raw.features):
                    assert (_feature_transition(g, fi, prev, x)
                            == first_match_row(g, feat, prev, x))


class TestGuardCells:
    def test_validation_evaluates_once_per_cell(self, monkeypatch):
        """factored-state has 512 states in 18 guard cells (3 pos, 3 speed
        and 2 progress classes) and 6 productions, all of one lhs."""
        calls = []
        evaluate = ProbabilityFunction.evaluate
        monkeypatch.setattr(ProbabilityFunction, "evaluate",
                            lambda f, idx: calls.append(idx)
                            or evaluate(f, idx))
        g = load_file(GOLDEN_FACTORED_STATE)
        assert len(calls) <= 18 * 6
        assert len({g.guard_cell(q) for q in enumerate_states(g)}) == 18

    @pytest.mark.parametrize("path, cells, classes", [
        (TRAFFIC_PATH, 12, 12), (GOLDEN_FACTORED_STATE, 18, 8)])
    def test_states_of_a_cell_evaluate_alike(self, path, cells, classes):
        """Every production evaluates alike on the states of one guard
        cell.  The converse need not hold: on factored-state the
        `progress in {g3}` rules come first and shadow the pos and speed
        tests, so 18 cells share 8 probability vectors."""
        g = load_file(path)
        by_cell = {}
        for q in enumerate_states(g):
            by_cell.setdefault(g.guard_cell(q), set()).add(
                tuple(p.prob.evaluate(q) for p in g.productions))
        assert all(len(values) == 1 for values in by_cell.values())
        assert len(by_cell) == cells
        assert len(set.union(*by_cell.values())) == classes


class TestPriorProbability:
    def test_point_mass(self):
        f = feature("u", ["z", "w"], [1.0, 0.0])
        g = build([f], [production(0, "S", ["a"])], "S")
        assert prior_probability(g, (0,)) == 1.0
        assert prior_probability(g, (1,)) == 0.0

    def test_uniform_binary(self):
        f = feature("u", ["z", "w"], [0.5, 0.5])
        g = build([f], [production(0, "S", ["a"])], "S")
        assert prior_probability(g, (0,)) == 0.5
        assert prior_probability(g, (1,)) == 0.5

    def test_product_and_total(self):
        g = two_flip_features()
        assert prior_probability(g, (0, 0)) == pytest.approx(0.45, abs=1e-12)
        total = math.fsum(prior_probability(g, q) for q in enumerate_states(g))
        assert abs(total - 1.0) <= 1e-9


class TestEnumerateStates:
    def test_two_binary_unconstrained(self):
        g = two_flip_features()
        got = enumerate_states(g)
        assert got == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_fixed_feature(self):
        g = two_flip_features()
        c = StateSet.from_labels(g, {"p": ["n1"]})
        got = [q for q in enumerate_states(g) if q in c]
        assert got == list(c.iter_states()) == [(1, 0), (1, 1)]

    def test_traffic_lane_fixed(self):
        g = traffic()
        c = StateSet.from_labels(g, {"lane": ["left-lane"],
                                     "exit": ["far"]})
        got = [q for q in enumerate_states(g) if q in c]
        assert got == list(c.iter_states())
        assert len(got) == 2          # speed remains free
        assert all(g.labels(q)["lane"] == "left-lane"
                   for q in got)

    def test_bound(self, monkeypatch):
        g = traffic()
        monkeypatch.setattr(grammar_module, "DEFAULT_SET_BOUND", 17)
        with pytest.raises(ExplosionBound, match="18 states exceeds bound 17"):
            enumerate_states(g)


class TestStateSet:
    def test_membership_is_per_feature_conjunction(self):
        g = traffic()
        c = StateSet.from_labels(g, {"lane": ["left-lane", "center-lane"],
                                     "speed": ["fast"]})
        inside = state_of(
            g, {"lane": "left-lane", "speed": "fast", "exit": "far"})
        outside = state_of(
            g, {"lane": "left-lane", "speed": "slow", "exit": "far"})
        assert inside in c and outside not in c
        assert c.size() == 2 * 1 * 3

    def test_a_name_and_a_one_item_list_give_equal_sets(self):
        """Sets compare and hash by their allowed values, so observations
        built from either spelling are equal and hash alike."""
        g = traffic()
        by_name = StateSet.from_labels(g, {"lane": "left-lane"})
        by_list = StateSet.from_labels(g, {"lane": ["left-lane"]})
        assert by_name is not by_list
        assert by_name == by_list and hash(by_name) == hash(by_list)
        assert by_name != StateSet.from_labels(g, {"lane": ["center-lane"]})
        assert by_name != by_name.allowed
        seen = {Observation.from_labels(g, 2, {"lane": "left-lane"})}
        assert Observation.from_labels(g, 2, {"lane": ["left-lane"]}) in seen
        assert Observation(2, by_list) == next(iter(seen))

    def test_empty_component_rejected(self):
        with pytest.raises(ValueError):
            StateSet((frozenset({0}), frozenset()))

    @given(st.lists(st.sets(st.integers(0, 2), min_size=1, max_size=3),
                    min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_size_matches_iteration(self, allowed):
        s = StateSet(tuple(frozenset(a) for a in allowed))
        listed = list(s.iter_states())
        assert len(listed) == s.size()
        assert len(set(listed)) == len(listed)
        assert all(q in s for q in listed)
        assert listed == sorted(listed)


@given(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
@settings(max_examples=30, deadline=None)
def test_first_match_wins(a, b, c):
    """Overlapping guards resolve by order, and the result is a valid
    probability for every state."""
    f1 = feature("x", ["o", "i"], [0.5, 0.5])
    f2 = feature("y", ["o", "i"], [0.5, 0.5])
    f3 = feature("z", ["o", "i"], [0.5, 0.5])
    prods = [
        production(0, "S", ["t"],
                   rules=[([("x", ["o"]), ("y", ["o"])], 0.1),
                          ([("x", ["o"])], 0.2),
                          ([("z", ["i"])], 0.3)],
                   default=0.4),
        production(1, "S", ["u"],
                   rules=[([("x", ["o"]), ("y", ["o"])], 0.9),
                          ([("x", ["o"])], 0.8),
                          ([("z", ["i"])], 0.7)],
                   default=0.6),
    ]
    g = build([f1, f2, f3], prods, "S")
    got = production_probability(g, 0, (a, b, c))
    if a == 0 and b == 0:
        want = 0.1
    elif a == 0:
        want = 0.2
    elif c == 1:
        want = 0.3
    else:
        want = 0.4
    assert got == pytest.approx(want)
