"""Traced replay: per-layer spans and counters from the benchmark's side.

The replay redoes one pass of a workload by calling the public functions
behind each CLI command one by one, with a span around every call into a
module.  Spans (name, start, end, parent span, op id) stay in memory and
are written out once at the end.  The replay also reads counters off the
objects those calls return.  End-to-end figures never come from here.
"""
from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from psdg import cli
from psdg.errors import ZeroEvidence
from psdg.grammar import validate_grammar
from psdg.infer import (Observation, StepReport, explain, init_belief,
                        predict, update)
from psdg.oracle import (compare_reports, enumerate_joint, pcfg_text,
                         reference_reports, to_pcfg)
from psdg.parse import parse_text

from .harness import Timed, output_hash, run_job
from .workloads import Invocation, Job, Workload

SPANS = (
    "parse.parse_text", "grammar.validate_grammar", "infer.init_belief",
    "infer.explain", "infer.predict", "infer.update",
    "infer.check_invariants", "cli.read_obs", "cli.report",
    "oracle.enumerate_joint", "oracle.reference_reports",
    "oracle.compare_reports", "oracle.to_pcfg", "oracle.pcfg_text",
)
# The replay's own extra call on each updated belief; the timed run does
# not make it, so it is left out of the overhead figure.
EXTRA_SPAN = "infer.check_invariants"


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op = 0

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self._open.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = perf_counter()
        if self._open.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def unwind(self):
        """Close every open span, after a call raised through them."""
        while self._open:
            self.end(self._open[-1])

    def call(self, name: str, fn, *args):
        idx = self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end(idx)

    def duration(self, name: str) -> float:
        return math.fsum(e - s for n, s, e, _, _ in self.spans if n == name)

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out.append((end - start) - covered)
    return out


@dataclass
class Counters:
    chart_states: list[int] = field(default_factory=list)
    live_branches: list[int] = field(default_factory=list)
    entries_max: int = 0
    gap_steps: int = 0
    transitions_nonzero: int = 0
    transitions_tried: int = 0
    zero_evidence: int = 0
    joint_entries: list[int] = field(default_factory=list)
    pcfg_productions: list[int] = field(default_factory=list)


def _dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


class Replay:
    def __init__(self):
        self.tracer = Tracer()
        self.counters = Counters()

    def _load(self, inv: Invocation):
        with open(inv.argv[1], "r", encoding="utf-8") as fh:
            text = fh.read()
        raw, _ = self.tracer.call("parse.parse_text", parse_text, text)
        psdg, _ = self.tracer.call("grammar.validate_grammar",
                                   validate_grammar, raw)
        return psdg

    def _read_obs(self, psdg, line: str) -> Observation:
        idx = self.tracer.begin("cli.read_obs")
        payload = json.loads(line)
        obs = Observation.from_labels(psdg, payload["t"],
                                      payload.get("observe", {}))
        self.tracer.end(idx)
        return obs

    def _step(self, psdg, belief, obs):
        """`infer.step` one phase at a time, plus the extra invariant check."""
        c, tr = self.counters, self.tracer
        c.chart_states.append(len(belief.chart))
        c.live_branches.append(sum(map(len, belief.chart.values())))
        c.entries_max = max(c.entries_max, belief.entry_count())
        try:
            exp = tr.call("infer.explain", explain, psdg, belief, obs)
        except ZeroEvidence:
            c.zero_evidence += 1
            raise
        c.transitions_nonzero += sum(map(len, exp.transitions.values()))
        c.transitions_tried += len(exp.transitions) * obs.constraint.size()
        pred = tr.call("infer.predict", predict, psdg, belief, exp)
        new = tr.call("infer.update", update, psdg, belief, exp, pred, obs)
        tr.call(EXTRA_SPAN, new.check_invariants)
        report = StepReport(
            time=obs.time,
            evidence_likelihood=exp.evidence,
            log_evidence=new.log_evidence,
            state=dict(exp.state_posterior),
            explain_symbols=exp.symbols,
            explain_productions=exp.productions,
            explain_terminal=exp.terminal,
            explain_completed=exp.completed,
            predict_symbols=pred.symbols,
            predict_productions=pred.productions,
            predict_terminal=pred.terminal,
            predict_completed=pred.completed_mass,
        )
        return report, new

    def _advance(self, psdg, belief, obs):
        """Vacuous steps for missing times, then the observed step."""
        while belief.time < obs.time:
            self.counters.gap_steps += 1
            _, belief = self._step(psdg, belief,
                                   Observation.vacuous(psdg, belief.time))
        return self._step(psdg, belief, obs)

    def _infer(self, inv: Invocation) -> tuple[str, float]:
        tr = self.tracer
        psdg = self._load(inv)
        belief = None
        lines = []
        first = last = None
        for line in inv.lines:
            tr.op += 1
            op = tr.begin("op")
            first = tr.spans[op][1] if first is None else first
            obs = self._read_obs(psdg, line)
            if belief is None:
                belief = tr.call("infer.init_belief", init_belief, psdg)
            report, belief = self._advance(psdg, belief, obs)
            lines.append(tr.call("cli.report", lambda: _dumps(
                report.to_dict(psdg))))
            tr.end(op)
            last = tr.spans[op][2]
        busy = last - first if first is not None else 0.0
        return "".join(line + "\n" for line in lines), busy

    def _oracle_check(self, inv: Invocation) -> tuple[str, float]:
        tr = self.tracer
        psdg = self._load(inv)
        first = perf_counter()
        observations = [self._read_obs(psdg, line) for line in inv.lines]
        last = observations[-1].time if observations else 0
        joint = tr.call("oracle.enumerate_joint", enumerate_joint, psdg,
                        max(last + 1, 1))
        self.counters.joint_entries.append(len(joint.entries))
        want = tr.call("oracle.reference_reports", reference_reports, psdg,
                       joint, observations)
        belief = tr.call("infer.init_belief", init_belief, psdg)
        got = []
        for obs in observations:
            report, belief = self._advance(psdg, belief, obs)
            got.append(tr.call("cli.report", report.to_dict, psdg))
        lines = []
        worst = 0.0
        ok = True
        for g, w in zip(got, want):
            dev, problems = tr.call("oracle.compare_reports", compare_reports,
                                    g, w, cli.ORACLE_TOL)
            worst = max(worst, dev)
            ok = ok and not problems
            lines.append(tr.call("cli.report", _dumps,
                                 {"t": g["t"], "max_deviation": dev}))
        lines.append(tr.call("cli.report", _dumps, {
            "max_deviation": worst, "reports": len(got), "ok": ok}))
        return "".join(line + "\n" for line in lines), perf_counter() - first

    def _to_pcfg(self, inv: Invocation) -> tuple[str, float]:
        start = perf_counter()
        psdg = self._load(inv)
        pcfg = self.tracer.call("oracle.to_pcfg", to_pcfg, psdg)
        text = self.tracer.call("oracle.pcfg_text", pcfg_text, pcfg)
        self.counters.pcfg_productions.append(pcfg.production_count())
        return text, perf_counter() - start

    def job(self, job: Job) -> tuple[list[str], float]:
        """Replay one job: each invocation's output and the busy time, as
        the timed run defines it."""
        commands = {"infer": self._infer, "oracle-check": self._oracle_check,
                    "to-pcfg": self._to_pcfg}
        op = None
        if not job.is_stream:       # the whole job is one op
            self.tracer.op += 1
            op = self.tracer.begin("op")
        outputs, busy = [], 0.0
        for inv in job.invocations:
            idx = self.tracer.begin("cli.invocation")
            text, b = commands[inv.argv[0]](inv)
            self.tracer.end(idx)
            outputs.append(text)
            busy += b
        if op is not None:
            self.tracer.end(op)
        return outputs, busy


@dataclass
class Traced:
    metrics: dict[str, float]
    failed: int
    problems: list[str]
    tracer: Tracer


def replay(workload: Workload, timed: Timed) -> Traced:
    """Replay one pass and check it against the timed run's first pass.

    Each job is first run once more untraced, right before its replay,
    so that the overhead figure compares the two at the same machine
    speed."""
    rp = Replay()
    failed, problems = 0, []
    busy = untraced = wall = 0.0
    for k, job in enumerate(workload.jobs):
        paired = run_job(job)
        failed += paired.failed
        untraced += paired.busy
        start = perf_counter()
        try:
            outputs, b = rp.job(job)
        except ZeroEvidence as e:
            rp.tracer.unwind()
            failed += job.op_count
            problems.append(f"job {k}: zero evidence in replay: {e}")
            continue
        finally:
            wall += perf_counter() - start
        busy += b
        if output_hash(outputs) != timed.first_pass[k].output_hash:
            failed += job.op_count
            problems.append(f"job {k}: replayed output differs from the "
                            f"timed run")
    tr, c = rp.tracer, rp.counters
    selfs: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span, s in zip(tr.spans, self_times(tr.spans)):
        selfs[span[0]] += s
        calls[span[0]] += 1
    traced_busy = busy - tr.duration(EXTRA_SPAN)
    metrics: dict[str, float] = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = selfs[name]
        metrics[f"{name}.share"] = selfs[name] / wall
    metrics.update({
        "infer.chart_states_mean": _mean(c.chart_states),
        "infer.live_branches_mean": _mean(c.live_branches),
        "infer.live_branches_max": max(c.live_branches, default=0),
        "infer.entries_max": c.entries_max,
        "infer.gap_steps": c.gap_steps,
        "infer.transition_density": (c.transitions_nonzero / c.transitions_tried
                                     if c.transitions_tried else 0.0),
        "infer.zero_evidence": c.zero_evidence,
        "oracle.joint_entries": _mean(c.joint_entries),
        "oracle.pcfg_productions": _mean(c.pcfg_productions),
        "trace.overhead_frac": (1.0 - untraced / traced_busy
                                if traced_busy > 0 else 0.0),
    })
    return Traced(metrics, failed, problems, tr)


def _mean(values: list[int]) -> float:
    return statistics.fmean(values) if values else 0.0
