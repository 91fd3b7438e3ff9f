"""Tests for the benchmark itself: its inputs, its arithmetic, its checks."""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
from pathlib import Path

import pytest

from psdg.parse import validate_text

from benchmarks import grammars, harness, tracing, workloads
from benchmarks.run import execute
from benchmarks.workloads import Invocation, Job

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_generated_grammars_validate():
    for text, states, depth in ((grammars.factored_state_text(), 512, 1),
                                (grammars.deep_plans_text(), 2, 5)):
        psdg, diags = validate_text(text)
        assert diags == []
        assert (psdg.state_count, psdg.depth) == (states, depth)


def test_manifest_names_the_workloads_the_code_runs():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads.PASS_JOBS)


def test_inputs_repeat_for_a_seed_and_change_with_it():
    a = workloads.build("traffic-sessions", 5, ROOT, jobs=20)
    b = workloads.build("traffic-sessions", 5, ROOT, jobs=20)
    c = workloads.build("traffic-sessions", 6, ROOT, jobs=20)
    assert a.jobs == b.jobs
    assert a.jobs != c.jobs


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.PASS_JOBS)
def test_tiny_run_prints_every_metric_with_its_unit(name, trace):
    wl = workloads.build(name, 3, ROOT, jobs=1)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = execute(wl, 3, 0.0, trace, ROOT)
    printed = buf.getvalue().splitlines()
    specs = MANIFEST["per_layer" if trace else "end_to_end"]
    for spec in specs:
        assert any(line.split()[:1] == [spec["name"]]
                   and line.split()[-1] == spec["unit"] for line in printed), \
            spec["name"]
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {s["name"]: s["unit"] for s in specs}
    assert any(line.startswith("  report digest sha256:") for line in printed)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, None, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["b", 3.0, 6.0, 0, 1],      # overlaps a: [1, 6] is covered once
        ["c", 2.0, 3.0, 1, 1],
        ["d", 9.0, 12.0, 0, 1],     # only [9, 10] lies inside root
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_corrupted_oracle_check_is_a_failed_op_not_a_crash():
    wl = workloads.build("oracle-xcheck", 3, ROOT, jobs=1)
    check, pcfg = wl.jobs[0].invocations
    bad = Job((Invocation(check.argv + ("--corrupt-belief",), check.lines),
               pcfg))
    timed = harness.measure(dataclasses.replace(wl, jobs=(bad,)), 0.0)
    assert (timed.attempted, timed.failed) == (1, 1)
    assert "oracle-check exit 1" in timed.problems[0]


def test_report_checks_flag_lost_mass_and_a_wrong_log_evidence():
    wl = workloads.build("traffic-sessions", 3, ROOT, jobs=1)
    lines = harness.invoke(wl.jobs[0].invocations[0]).lines
    assert harness.check_reports(lines)[0] == set()
    report = json.loads(lines[0])
    key = next(iter(report["state"]))
    report["state"][key] -= 1e-6
    report["log_evidence"] += 1e-6
    bad, notes, _ = harness.check_reports([json.dumps(report)] + lines[1:])
    assert bad == {0}
    assert "state mass" in notes[0] and "log_evidence" in notes[0]
