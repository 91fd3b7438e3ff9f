"""Outputs held to the committed fixtures in tests/golden/.

The oracle is held byte for byte: it is the referee, and a faster oracle
must print exactly what the slower one did.  The engine is held at 1e-12
through `compare_reports`, the tolerance at which an engine rewrite must
agree with the engine it replaces.  Validation diagnostics are held
exactly, kind, message, line and column, so a validator rewrite must
report the same problems in the same order.  See make_golden.py for how
the fixtures were made.
"""
import json

import pytest

from make_golden import (GOLDEN, ORACLE_GRAMMARS, infer_stdout,
                         mutation_outcomes_sha256, oracle_check_stdout,
                         outcome, reference_reports_sha256, to_pcfg_sha256)
from psdg.oracle import compare_reports

ORACLE = json.loads((GOLDEN / "oracle.json").read_text(encoding="utf-8"))
ENGINE = json.loads((GOLDEN / "engine.json").read_text(encoding="utf-8"))
DIAGNOSTICS = json.loads((GOLDEN / "diagnostics.json").read_text(
    encoding="utf-8"))


@pytest.mark.parametrize("run", sorted(ORACLE["runs"]))
def test_oracle_check_stdout_is_unchanged(run):
    want = ORACLE["runs"][run]
    name, _ = run.split("/")
    assert oracle_check_stdout(name, want["stream"]) == want["oracle_check"]
    assert reference_reports_sha256(name, want["stream"]) == \
        want["reference_reports_sha256"]


@pytest.mark.parametrize("name", ORACLE_GRAMMARS)
def test_to_pcfg_stdout_is_unchanged(name):
    assert to_pcfg_sha256(name) == ORACLE["to_pcfg_sha256"][name]


@pytest.mark.parametrize("run", sorted(ENGINE["runs"]))
def test_engine_reports_match_at_1e_12(run):
    want = ENGINE["runs"][run]
    name, _ = run.split("/")
    got_lines = infer_stdout(name, want["stream"]).splitlines()
    want_lines = want["infer"].splitlines()
    assert len(got_lines) == len(want_lines) > 0
    for got_line, want_line in zip(got_lines, want_lines):
        got, expected = json.loads(got_line), json.loads(want_line)
        assert got["t"] == expected["t"]
        _, problems = compare_reports(got, expected, tol=1e-12)
        assert not problems, (run, got["t"], problems[:5])


@pytest.mark.parametrize("case", sorted(DIAGNOSTICS["cases"]))
def test_broken_grammar_diagnostics_are_unchanged(case):
    want = DIAGNOSTICS["cases"][case]
    assert outcome(want["input"]) == want["outcome"]


@pytest.mark.parametrize("name", sorted(DIAGNOSTICS["mutations"]))
def test_token_mutation_outcomes_are_unchanged(name):
    want = DIAGNOSTICS["mutations"][name]
    assert mutation_outcomes_sha256(name, want["seed"], want["count"]) == \
        want["sha256"]
