"""Golden fixtures: exact outputs of the enumeration oracle and the engine.

`test_golden.py` holds the code to the files this module writes under
`tests/golden/`.  Rewrite them (`PYTHONPATH=src python tests/make_golden.py
[oracle.json|engine.json|diagnostics.json ...]`, all three when none is
named) only in a change that is meant to alter those outputs, and say so
there.

- `oracle.json`: for 3-step sampled streams at seeds 1-3 on the bundled
  traffic grammar and on the deep-plans grammar, the exact stdout of
  `psdg oracle-check`, and the sha256 of the reference reports as sorted
  JSON; plus the sha256 of `psdg to-pcfg` stdout on both grammars (the
  traffic listing is over half a megabyte).
- `engine.json`: `psdg infer` reports on partially observed 12-step
  streams with gaps, on traffic, deep-plans and factored-state.  These are
  compared at 1e-12, so an engine change that only rounds differently
  still passes while a wrong one does not.
- `diagnostics.json`: the exact (kind, message, line, column) list that
  validation reports for one broken grammar per diagnostic the validator
  can emit, plus ordering cases where several problems meet; and the
  sha256 of the outcomes of seeded token mutations of the traffic,
  deep-plans and two-parent mini grammars.  The mutation vocabulary holds
  no `nan` or `inf`, and a mutant with a non-finite number is redrawn.

`deep-plans.psdg` and `factored-state.psdg` are copies of the benchmark's
generated grammars, kept here so that the fixtures do not move with them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
import sys
from pathlib import Path

import psdg as _pkg
from psdg.cli import _read_observations, main
from psdg.grammar import (RawFeature, RawGrammar, RawProduction,
                          validate_grammar)
from psdg.oracle import enumerate_joint, reference_reports
from psdg.parse import load_file, validate_text

GOLDEN = Path(__file__).parent / "golden"
GRAMMARS = {
    "traffic": Path(_pkg.__file__).parent / "data" / "traffic.psdg",
    "deep-plans": GOLDEN / "deep-plans.psdg",
    "factored-state": GOLDEN / "factored-state.psdg",
}
ORACLE_GRAMMARS = ("traffic", "deep-plans")
ORACLE_SEEDS = (1, 2, 3)
ORACLE_HORIZON = 3
ENGINE_SEEDS = (11, 12)
ENGINE_HORIZON = 12
# Features each engine stream keeps; the rest stay hidden.
ENGINE_OBSERVED = {
    "traffic": ("lane",),
    "deep-plans": ("mode",),
    "factored-state": ("pos", "progress"),
}


def run_cli(argv: list[str], stdin_text: str = "") -> str:
    """stdout of `psdg ARGV` run in-process; raises unless it exits 0."""
    out = io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    if code != 0:
        raise RuntimeError(f"psdg {' '.join(argv)} exited {code}")
    return out.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sampled_stream(name: str, seed: int, horizon: int) -> str:
    return run_cli(["sample", str(GRAMMARS[name]), "--horizon", str(horizon),
                    "--seed", str(seed), "--observations-only"])


def oracle_check_stdout(name: str, stream: str) -> str:
    return run_cli(["oracle-check", str(GRAMMARS[name])], stream)


def reference_reports_sha256(name: str, stream: str) -> str:
    """Digest of the oracle's reports at oracle-check's default horizon."""
    grammar = load_file(GRAMMARS[name])
    observations = list(_read_observations(grammar, io.StringIO(stream)))
    joint = enumerate_joint(grammar, observations[-1].time + 1)
    reports = reference_reports(grammar, joint, observations)
    return sha256(json.dumps(reports, sort_keys=True))


def to_pcfg_sha256(name: str) -> str:
    return sha256(run_cli(["to-pcfg", str(GRAMMARS[name])]))


def engine_stream(name: str, seed: int) -> str:
    """A sampled stream with every third time left out and only the
    features in ENGINE_OBSERVED kept."""
    lines = []
    for line in sampled_stream(name, seed, ENGINE_HORIZON).splitlines():
        obs = json.loads(line)
        if obs["t"] % 3 == 0:
            continue
        keep = {f: v for f, v in obs["observe"].items()
                if f in ENGINE_OBSERVED[name]}
        lines.append(json.dumps({"t": obs["t"], "observe": keep}) + "\n")
    return "".join(lines)


def infer_stdout(name: str, stream: str) -> str:
    return run_cli(["infer", str(GRAMMARS[name])], stream)


def build_oracle() -> dict:
    runs = {}
    for name in ORACLE_GRAMMARS:
        for seed in ORACLE_SEEDS:
            stream = sampled_stream(name, seed, ORACLE_HORIZON)
            runs[f"{name}/{seed}"] = {
                "stream": stream,
                "oracle_check": oracle_check_stdout(name, stream),
                "reference_reports_sha256":
                    reference_reports_sha256(name, stream),
            }
    return {"runs": runs,
            "to_pcfg_sha256": {name: to_pcfg_sha256(name)
                               for name in ORACLE_GRAMMARS}}


def build_engine() -> dict:
    runs = {}
    for name in GRAMMARS:
        for seed in ENGINE_SEEDS:
            stream = engine_stream(name, seed)
            runs[f"{name}/{seed}"] = {"stream": stream,
                                      "infer": infer_stdout(name, stream)}
    return {"runs": runs}


### Diagnostics.

# Two features, one with two parents and a wildcard fallback row; most
# broken cases below are this grammar with an edit or two.
MINI = """\
feature f {
  values: lo, hi;
  prior: 0.25, 0.75;
  parents: f, g;
  cpt: lo, * | a -> 0.9, 0.1;
  cpt: *, * | * -> 0.5, 0.5;
}

feature g {
  values: u, v;
  prior: 1, 0;
}

start S

prod 0: S -> a S { rule f in {lo} : 0.3; default: 0.6; }
prod 1: S -> b { rule f in {lo} : 0.7; default: 0.4; }
"""

_G_FEATURE = "feature g {\n  values: u, v;\n  prior: 1, 0;\n}\n"


def _edit(*pairs: tuple[str, str]) -> str:
    text = MINI
    for old, new in pairs:
        assert old in text, old
        text = text.replace(old, new, 1)
    return text


# One case per Diagnostic(...) site in grammar.py, then ordering cases and
# a few parse errors.  A dict is a RawGrammar the text format cannot
# express (the parser rejects an empty values clause).
DIAGNOSTIC_CASES = {
    "feature_declared_twice": MINI + "\n" + _G_FEATURE,
    "no_features": MINI[MINI.index("start S"):],
    "feature_without_values": {
        "features": [{"name": "f", "values": [], "prior": [], "parents": None,
                      "cpt": None, "line": 1, "column": 9}],
        "productions": [{"index": 0, "lhs": "S", "rhs": ["a"], "rules": [],
                         "default": 1.0, "line": 3, "column": 6}],
        "start": "S", "start_line": 2},
    "duplicate_values": _edit(("values: lo, hi", "values: lo, lo")),
    "prior_length": _edit(("prior: 0.25, 0.75", "prior: 0.25")),
    "prior_entry_outside": _edit(("prior: 0.25, 0.75", "prior: -0.25, 1.25")),
    "prior_sum": _edit(("prior: 0.25, 0.75", "prior: 0.5, 0.75")),
    "no_productions": MINI[:MINI.index("prod 0")],
    "start_not_a_lhs": _edit(("start S", "start T")),
    "negative_index": _edit(("prod 1:", "prod -1:")),
    "index_used_twice": _edit(("prod 1:", "prod 0:")),
    "empty_rhs": _edit(("S -> b {", "S -> {")),
    "non_tail_recursion": _edit(("S -> a S", "S -> S a")),
    "single_symbol_self_recursion": _edit(("S -> a S", "S -> S")),
    "guard_unknown_feature": _edit(("rule f in {lo} : 0.3",
                                    "rule h in {lo} : 0.3")),
    "guard_unknown_value": _edit(("rule f in {lo} : 0.3",
                                  "rule f in {lo, mid} & g in {w} : 0.3")),
    "rule_value_outside": _edit(("rule f in {lo} : 0.7",
                                 "rule f in {lo} : 1.7")),
    "default_outside": _edit(("default: 0.4", "default: -0.4")),
    "unknown_parent": _edit(("parents: f, g", "parents: f, h")),
    "cpt_parent_count": _edit(("cpt: lo, * | a", "cpt: lo | a")),
    "cpt_unknown_parent_value": _edit(("cpt: lo, * | a", "cpt: mid, * | a")),
    "cpt_unknown_terminal": _edit(("cpt: lo, * | a", "cpt: lo, * | c")),
    "cpt_entry_count": _edit(("a -> 0.9, 0.1", "a -> 0.9")),
    "cpt_entry_outside": _edit(("a -> 0.9, 0.1", "a -> 1.5, -0.5")),
    "cpt_row_sum": _edit(("a -> 0.9, 0.1", "a -> 0.9, 0.2")),
    "parents_without_rows": _edit(("prior: 1, 0;", "prior: 1, 0;\n  parents: f;")),
    "cpt_uncovered": _edit(("  cpt: *, * | * -> 0.5, 0.5;\n", "")),
    "level_cycle": _edit(("S -> a S", "S -> T a")) + "prod 2: T -> S b { default: 1; }\n",
    "normalization": _edit(("default: 0.4", "default: 0.5")),
    "many_at_once": _edit(("values: lo, hi", "values: lo, lo"),
                          ("parents: f, g", "parents: f, h"),
                          ("prod 1:", "prod -1:"),
                          ("default: 0.4", "default: 1.4")),
    "order_row_error_before_rowless_parents": _edit(
        ("a -> 0.9, 0.1", "a -> 0.9, 0.2"),
        ("prior: 1, 0;", "prior: 1, 0;\n  parents: f;")),
    "order_guard_error_before_cpt_error": _edit(
        ("cpt: lo, * | a", "cpt: lo, * | c"),
        ("rule f in {lo} : 0.3", "rule h in {lo} : 0.3")),
    "order_rowless_parents_before_uncovered": _edit(
        ("  cpt: *, * | * -> 0.5, 0.5;\n", ""),
        ("prior: 1, 0;", "prior: 1, 0;\n  parents: f;")),
    "order_cycle_before_normalization": _edit(
        ("S -> a S", "S -> T a"), ("default: 0.4", "default: 0.5"))
    + "prod 2: T -> S b { default: 1; }\n",
    "parse_stray_character": MINI + "@\n",
    "parse_missing_default": _edit(("default: 0.4; ", "")),
    "parse_unknown_feature_clause": _edit(("prior: 1, 0;", "prior: 1, 0;\n  noise: 2;")),
    "parse_bad_number": _edit(("prior: 0.25, 0.75", "prior: 0.25, high")),
    "parse_empty": "",
}


def _raw_grammar(spec: dict) -> RawGrammar:
    """A RawGrammar from its JSON form (no CPT rows or guard rules)."""
    return RawGrammar([RawFeature(**f) for f in spec["features"]],
                      [RawProduction(**p) for p in spec["productions"]],
                      spec["start"], spec["start_line"])


def outcome(case) -> object:
    """A grammar's validation outcome as plain JSON: its summary if it
    validates, else its diagnostics as [kind, message, line, column]."""
    if isinstance(case, dict):
        grammar, diags = validate_grammar(_raw_grammar(case))
    else:
        grammar, diags = validate_text(case)
    if grammar is not None:
        return grammar.summary()
    return [[d.kind, d.message, d.line, d.column] for d in diags]


_TOKEN = re.compile(r"#[^\n]*|->|[{};:,|&*]|(?:(?!->)[^\s{};:,|&*#])+")
_EXTRA_TOKENS = ("-1", "0", "1", "0.5", "1.5", "-0.5", "1e-3", "2", "@",
                 "Zed", "feature", "prod", "start", "rule", "default",
                 "values", "prior", "parents", "cpt", "in",
                 "{", "}", ";", ":", ",", "|", "&", "*", "->")
MUTATION_GRAMMARS = {
    "traffic": GRAMMARS["traffic"],
    "deep-plans": GRAMMARS["deep-plans"],
    "mini": None,
}
MUTATION_COUNT = 700


def token_spans(text: str) -> list[tuple[int, int]]:
    """(start, end) of each token of grammar text, comments skipped."""
    return [m.span() for m in _TOKEN.finditer(text)
            if not m.group().startswith("#")]


def _finite_numbers(text: str) -> bool:
    for m in _TOKEN.finditer(text):
        try:
            value = float(m.group())
        except ValueError:
            continue
        if not math.isfinite(value):
            return False
    return True


_KEYWORDS = frozenset(("feature", "prod", "start", "rule", "default",
                       "values", "prior", "parents", "cpt", "in"))


def _token_class(token: str) -> str:
    if token in _KEYWORDS or token == "->" or \
            not (token[0].isalnum() or token[0] in "_.+-"):
        return "syntax"
    try:
        float(token)
    except ValueError:
        return "name"
    return "number"


def token_mutations(text: str, seed: int, count: int):
    """`count` copies of `text`, each with one to three token edits.  Most
    edits swap a name or number for another name or number, so most
    mutants still parse and reach the validator; the rest replace, delete
    or insert any token.  New tokens come from the text's own tokens and a
    fixed extra list, spliced in with a space on each side."""
    spans = token_spans(text)
    vocab = sorted({text[a:b] for a, b in spans} | set(_EXTRA_TOKENS))
    pools: dict[str, list[str]] = {}
    for token in vocab:
        pools.setdefault(_token_class(token), []).append(token)
    swappable = [(a, b) for a, b in spans
                 if _token_class(text[a:b]) != "syntax"]
    rng = random.Random(seed)
    made = 0
    while made < count:
        edits = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.8:
                a, b = rng.choice(swappable)
                new = rng.choice(pools[_token_class(text[a:b])])
            else:
                a, b = rng.choice(spans)
                # delete, replace or insert before
                new, b = rng.choice(((None, b), (rng.choice(vocab), b),
                                     (rng.choice(vocab), a)))
            edits.append((a, b, new))
        mutant = text
        # Edit right to left so earlier spans stay valid.
        for a, b, new in sorted(dict.fromkeys(edits),
                                key=lambda e: e[:2], reverse=True):
            mutant = (mutant[:a] + ("" if new is None else f" {new} ")
                      + mutant[b:])
        if _finite_numbers(mutant):
            made += 1
            yield mutant


def mutation_text(name: str) -> str:
    path = MUTATION_GRAMMARS[name]
    return MINI if path is None else path.read_text(encoding="utf-8")


def mutation_outcomes_sha256(name: str, seed: int, count: int) -> str:
    outcomes = [outcome(m)
                for m in token_mutations(mutation_text(name), seed, count)]
    return sha256(json.dumps(outcomes))


def build_diagnostics() -> dict:
    cases = {name: {"input": case, "outcome": outcome(case)}
             for name, case in DIAGNOSTIC_CASES.items()}
    mutations = {}
    for seed, name in enumerate(MUTATION_GRAMMARS, start=1):
        mutations[name] = {
            "seed": seed, "count": MUTATION_COUNT,
            "sha256": mutation_outcomes_sha256(name, seed, MUTATION_COUNT)}
    return {"cases": cases, "mutations": mutations}


BUILDERS = {"oracle.json": build_oracle, "engine.json": build_engine,
            "diagnostics.json": build_diagnostics}


if __name__ == "__main__":
    names = sys.argv[1:] or list(BUILDERS)
    unknown = [name for name in names if name not in BUILDERS]
    if unknown:
        sys.exit(f"usage: make_golden.py [{'|'.join(BUILDERS)} ...]; "
                 f"unknown: {', '.join(unknown)}")
    for file_name in names:
        build = BUILDERS[file_name]
        path = GOLDEN / file_name
        path.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")
