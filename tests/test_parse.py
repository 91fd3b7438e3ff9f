"""Text format: parsing, diagnostics with positions, file loading."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_parse
from helpers import TRAFFIC_PATH, state_of
from make_golden import GRAMMARS, token_spans
from psdg.errors import GrammarError
from psdg.grammar import Psdg
from psdg.parse import (_Parser, load_file, load_text, parse_text,
                        validate_text)

MINI = """
# comment
feature f {
  values: lo, hi;
  prior: 0.25, 0.75;
  parents: f;
  cpt: lo | a -> 0.9, 0.1;
  cpt: lo | * -> 1, 0;
  cpt: hi | * -> 0, 1;
}

start S

prod 0: S -> a S { rule f in {lo} : 0.3; default: 0.6; }
prod 1: S -> b   { rule f in {lo} : 0.7; default: 0.4; }
"""


def test_mini_roundtrip():
    g = load_text(MINI)
    assert g.start == "S"
    assert [p.rhs for p in g.productions] == [("a", "S"), ("b",)]
    assert g.productions[0].tail_recursive
    assert g.terminals == ("a", "b")
    q_lo = state_of(g, {"f": "lo"})
    from referee import production_probability
    assert production_probability(g, 0, q_lo) == pytest.approx(0.3)


def test_empty_file_errors_at_line_one():
    g, diags = parse_text("")
    assert g is None
    assert diags and diags[0].kind == "ParseError"
    assert diags[0].line == 1


def test_comment_only_file_errors_at_line_one():
    g, diags = parse_text("# nothing here\n")
    assert g is None
    assert diags[0].line == 1


def test_missing_start():
    text = MINI.replace("start S", "")
    g, diags = parse_text(text)
    assert g is None
    assert any("start" in d.message for d in diags)


def test_duplicate_start():
    text = MINI + "\nstart S\n"
    g, diags = parse_text(text)
    assert g is None


def test_error_carries_position():
    text = "feature f {\n  values: a b;\n}\n"   # missing comma
    g, diags = parse_text(text)
    assert g is None
    d = diags[0]
    assert d.line == 2
    assert d.column > 0


def test_missing_default_rejected():
    text = MINI.replace("default: 0.6; ", "")
    g, diags = parse_text(text)
    assert g is None
    assert any("default" in d.message for d in diags)


def test_undeclared_guard_feature():
    text = MINI.replace("rule f in {lo} : 0.3", "rule nope in {lo} : 0.3")
    g, diags = validate_text(text)
    assert g is None
    assert any(d.kind == "UndeclaredSymbol" for d in diags)


def test_unknown_value_in_guard():
    text = MINI.replace("rule f in {lo} : 0.3", "rule f in {oops} : 0.3")
    g, diags = validate_text(text)
    assert g is None


@pytest.mark.parametrize("clause, line", [
    ("values", "  values: lo, hi;\n"), ("prior", "  prior: 0.25, 0.75;\n")])
def test_a_feature_needs_values_and_a_prior(clause, line):
    """Each missing clause is one diagnostic, at the feature's name."""
    g, diags = parse_text(MINI.replace(line, "", 1))
    assert g is None
    assert [(d.kind, d.message, d.line, d.column) for d in diags] == [
        ("ParseError", f"feature 'f' has no {clause} clause", 3, 9)]


def test_a_cpt_row_without_a_bar_names_one_terminal():
    """With no '|', a row is a lone terminal's; two names are neither."""
    text = MINI.replace("cpt: lo | * -> 1, 0;", "cpt: a, b -> 0.5, 0.5;")
    g, diags = parse_text(text)
    assert g is None
    assert [(d.kind, d.message, d.line, d.column) for d in diags] == [
        ("ParseError", "cpt row without '|' must name exactly one terminal",
         8, 3)]


def test_load_text_raises_grammar_error():
    with pytest.raises(GrammarError) as e:
        load_text("start S\n")
    assert e.value.diagnostics


def test_grammar_error_shows_three_diagnostics_and_counts_the_rest():
    text = "".join(f"feature f{i} {{ values: a, b; prior: 0.5, 0.6; }}\n"
                   for i in range(5)) + \
        "start S\nprod 0: S -> x { default: 1; }\n"
    with pytest.raises(GrammarError) as e:
        load_text(text)
    assert len(e.value.diagnostics) == 5
    assert str(e.value) == "; ".join(
        f"BadDistribution at {i + 1}:9: prior of feature 'f{i}' sums to 1.1"
        for i in range(3)) + " (+2 more)"


def test_stray_character():
    g, diags = parse_text("start S\nprod 0: S -> a { default: 1; } @\n")
    assert g is None
    assert diags[0].line == 2


@pytest.mark.parametrize("old, new", [
    ("prod 0:", "prod 1_0:"),
    ("prod 0:", "prod \u0661\u0660:"),
    ("default: 0.6;", "default: 0_1e1;"),
    ("prior: 0.25, 0.75;", "prior: 0.25, 0_75;"),
    ("prod 0:", "prod +1:"),
])
def test_numbers_are_plain_ascii_without_separators(old, new):
    """Python's int() and float() read `1_0` and Arabic-Indic digits as
    10, and int() reads `+1` as 1; the grammar format does not, and names
    the token's position."""
    text = MINI.replace(old, new, 1)
    token = new.split()[-1].rstrip(":;")
    at = text.index(token)
    g, diags = parse_text(text)
    assert g is None
    assert [(d.kind, d.line, d.column) for d in diags] == [
        ("ParseError", text.count("\n", 0, at) + 1,
         at - text.rfind("\n", 0, at))]
    assert diags[0].message.endswith(f"found {token!r}")


def test_traffic_file_loads():
    g = load_file(TRAFFIC_PATH)
    assert g.summary() == {"nonterminals": 2, "terminals": 4,
                           "productions": 7, "depth": 2, "max_rhs": 2,
                           "states": 18}


def test_wildcard_parent_rows():
    text = """
feature e {
  values: u, v, w;
  prior: 1, 0, 0;
  parents: e;
  cpt: u, | a -> 0, 1, 0;
  cpt: * | * -> 1, 0, 0;
}
start S
prod 0: S -> a { default: 1; }
"""
    # a trailing comma inside the parent list is a parse error
    g, diags = parse_text(text)
    assert g is None


def test_wildcard_rows_match_anything():
    text = """
feature e {
  values: u, v;
  prior: 0.5, 0.5;
  parents: e;
  cpt: * | a -> 0, 1;
  cpt: * | * -> 1, 0;
}
start S
prod 0: S -> a S { default: 0.5; }
prod 1: S -> b { default: 0.5; }
"""
    g = load_text(text)
    from referee import transition_probability
    assert transition_probability(g, (0,), "a", (1,)) == 1.0
    assert transition_probability(g, (1,), "b", (0,)) == 1.0


### Fuzz net: no text makes parsing or validation raise.

_WORDS = ("feature", "values", "prior", "parents", "cpt", "start", "prod",
          "rule", "in", "default", "S", "T", "a", "b", "f", "g", "lo", "hi",
          "0", "1", "0.5", "-1", "2", "nan", "inf", "1e308", "->", "{", "}",
          ";", ":", ",", "|", "&", "*", "#", "@", "\n")
TRAFFIC_TEXT = TRAFFIC_PATH.read_text(encoding="utf-8")
_SPANS = token_spans(TRAFFIC_TEXT)


def assert_total(text: str):
    """parse_text and validate_text return a result or diagnostics, never
    both and never neither; parse errors carry a 1-based position."""
    raw, diags = parse_text(text)
    assert (raw is None) == bool(diags)
    for d in diags:
        assert d.kind == "ParseError"
        assert d.line >= 1 and d.column >= 1, d
    grammar, vdiags = validate_text(text)
    assert (grammar is None) == bool(vdiags)
    assert grammar is None or isinstance(grammar, Psdg)
    if raw is None:
        assert vdiags == diags


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=120)
       | st.lists(st.sampled_from(_WORDS), max_size=60).map(" ".join))
def test_arbitrary_text_never_raises(text):
    assert_total(text)


def mutants(text, spans=None, words=_WORDS):
    """`text` with one to three tokens replaced, deleted or given a new
    token in front."""
    spans = spans or token_spans(text)
    edits = st.lists(
        st.tuples(st.sampled_from(spans), st.sampled_from(words + ("",)),
                  st.booleans()),
        min_size=1, max_size=3)

    def apply(edits):
        out = text
        for (start, end), token, insert in sorted(edits, reverse=True):
            out = out[:start] + f" {token} " + out[start if insert else end:]
        return out
    return edits.map(apply)


@settings(max_examples=100, deadline=None)
@given(mutants(TRAFFIC_TEXT, _SPANS))
def test_bundled_grammar_mutants_never_raise(text):
    assert_total(text)


### Differential net: the parser keeps the frozen reference's output.

# Characters and fragments at the edges of the lexical rules: blanks that
# are not blanks, line breaks other than `\n`, non-ASCII letters and
# digits, and arrows glued to words.
_LEXER_CHARS = ("\r", "\t", "\x0b", "\x0c", "\x85", "\xa0", "\u2028",
                "\ufeff", "#", "-", ">", "_", ".", "+", ",", "|", "\u00e9",
                "\u0663", "\u00b2")
_LEXER_EDGES = _LEXER_CHARS + ("a->b", "-->", "a-", "->", "1", "x", " ", "\n")
_GRAMMAR_TEXTS = {name: path.read_text(encoding="utf-8")
                  for name, path in GRAMMARS.items()}


def assert_same_as_reference(text: str):
    """Equal raw declarations, every line and column included, or the same
    diagnostics.  reprs compare floats so that nan matches nan."""
    assert repr(parse_text(text)) == repr(reference_parse.parse_text(text))


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from(_LEXER_CHARS), max_size=40)
       | st.lists(st.sampled_from(_LEXER_EDGES + _WORDS),
                  max_size=60).map("".join)
       | st.lists(st.sampled_from(_WORDS), max_size=60).map(" ".join),
       st.booleans())
def test_arbitrary_text_parses_as_the_reference_does(text, hash_at_eof):
    assert_same_as_reference(text + "#" * hash_at_eof)


@settings(max_examples=200, deadline=None)
@given(mutants(TRAFFIC_TEXT, _SPANS, _WORDS + _LEXER_EDGES)
       | mutants(_GRAMMAR_TEXTS["factored-state"],
                 words=_WORDS + _LEXER_EDGES)
       | mutants(_GRAMMAR_TEXTS["deep-plans"], words=_WORDS + _LEXER_EDGES))
def test_grammar_mutants_parse_as_the_reference_does(text):
    assert_same_as_reference(text)


@pytest.mark.parametrize("name", sorted(_GRAMMAR_TEXTS))
def test_golden_grammars_parse_as_the_reference_does(name):
    assert_same_as_reference(_GRAMMAR_TEXTS[name])


@pytest.fixture
def number_reads(monkeypatch):
    """The `what` of each call of the per-number reader."""
    calls = []
    real = _Parser.number

    def spy(self, what="a number", kind=float):
        calls.append(what)
        return real(self, what, kind)
    monkeypatch.setattr(_Parser, "number", spy)
    return calls


def test_number_lists_are_read_whole(number_reads):
    """Every prior and cpt list of the factored-state grammar (3,224
    numbers) is read in one step: the per-number reader sees only the
    production indices and probabilities."""
    raw, _ = parse_text(_GRAMMAR_TEXTS["factored-state"])
    assert sum(len(f.prior) + sum(len(r.probs) for r in f.cpt or ())
               for f in raw.features) == 3224
    assert "a number" not in number_reads
    assert number_reads.count("a production index") == len(raw.productions)


@pytest.mark.parametrize("old, new, what", [
    ("prior: 0.25, 0.75;", "prior: 0.5,, 0.5;", "a number"),
    ("prior: 0.25, 0.75;", "prior: 0_5, 0.5;", "a number"),
    ("prior: 0.25, 0.75;", "prior: 0.25, \u0660.75;", "a number"),
    ("prod 0:", "prod +1:", "a production index"),
])
def test_malformed_numbers_reach_the_per_number_reader(number_reads, old, new,
                                                       what):
    text = MINI.replace(old, new, 1)
    _, diags = parse_text(text)
    assert diags == reference_parse.parse_text(text)[1]
    assert diags[0].message.startswith("expected")
    assert what in number_reads


@pytest.mark.parametrize("old, new", [
    ("# comment", "# (comment) -> 'x' > y, ü"),      # odd only in comments
    ("values: lo, hi;", "values: lö, hi;"),           # non-ASCII, no fault
    ("values: lo, hi;", "values: lo, hi;  $"),
    ("prod 1: S -> b", "prod 1: S > b"),              # `>` outside `->`
    ("prod 1: S -> b", "prod 1: S -> b ->>"),
    ("prod 1: S -> b", "prod 1: S -> b\x0b"),
    ("values: lo, hi;", "values: lo, hi; ‽"),
])
def test_unexpected_characters_are_found_as_the_reference_finds_them(old,
                                                                     new):
    """The whole-text ASCII check and the per-line scan behind it report
    the first bad character of the text, or none."""
    text = MINI.replace(old, new, 1)
    assert text != MINI
    assert_same_as_reference(text)
    assert_same_as_reference(text.replace("prod 0:", "prod 0: ¤", 1))
