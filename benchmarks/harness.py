"""Timed runs: the public CLI entry `psdg.cli.main` driven in-process.

One client sends one job at a time and hands each observation line over
only when the CLI asks for it, which `cmd_infer` does after writing the
previous report: a closed loop with a single client.  Standard input and
output are swapped for wrappers that note when each line is handed in and
when each output line is complete, so no code inside `psdg` is touched.
"""
from __future__ import annotations

import bisect
import hashlib
import io
import json
import math
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from psdg import cli

from .workloads import Invocation, Job, Workload

TOL = 1e-9
TAIL_BEYOND = 10        # samples that must lie beyond the tail percentile
TAIL_CAP = 99.0

# The shared VMs this benchmark runs on drift in speed by up to 2x over
# seconds to minutes, for all pure-Python work alike.  A fixed piece of the
# benchmark's own work, timed between jobs and between the input lines of a
# job, tracks that drift, and each job run's timings are reported rescaled
# to a machine on which one reference sample takes REF_SECONDS.  A change
# to psdg moves them; the machine's drift mostly does not.  Samples inside
# a job matter for long jobs: a factor resting only on samples from a
# job's two ends sets the tail by its error.
REF_SECONDS = 1e-3
REF_EVERY = 0.1         # seconds of measuring between reference bursts
REF_BURST = 3
REF_WINDOW = 0.5        # seconds either side of a job run that rescale it
_REF_KEYS = tuple((i % 37, i % 11, f"k{i % 7}") for i in range(4000))


def reference_sample() -> float:
    """Time a fixed piece of pure-Python work of the engine's kind:
    tuple-keyed dict updates, float arithmetic, short strings."""
    start = perf_counter()
    acc: dict = {}
    for key in _REF_KEYS:
        acc[key] = acc.get(key, 0.0) + 0.5 * len(key[2])
    return perf_counter() - start


class _Feed:
    """Standard input that hands over one line per read and notes when.
    `between` runs before each line after the first, outside the line's
    latency; the time it takes is summed in `between_s`."""

    def __init__(self, lines: tuple[str, ...], between=None):
        self._lines = lines
        self._next = 0
        self._between = between
        self.between_s = 0.0
        self.first_read: float | None = None
        self.handed: list[float] = []

    def __iter__(self):
        return self

    def __next__(self) -> str:
        line = self.readline()
        if not line:
            raise StopIteration
        return line

    def readline(self) -> str:
        if self.first_read is None:
            self.first_read = perf_counter()
        if self._next == len(self._lines):
            return ""
        if self._next and self._between:
            began = perf_counter()
            self._between()
            self.between_s += perf_counter() - began
        line = self._lines[self._next]
        self._next += 1
        self.handed.append(perf_counter())
        return line


class _Capture:
    """Standard output that keeps the text and the time each line ends."""

    def __init__(self):
        self._parts: list[str] = []
        self.line_ends: list[float] = []

    def write(self, text: str) -> int:
        self._parts.append(text)
        n = text.count("\n")
        if n:
            self.line_ends.extend([perf_counter()] * n)
        return len(text)

    def flush(self):
        pass

    def text(self) -> str:
        return "".join(self._parts)


@dataclass
class Call:
    """What one CLI invocation did, with its timestamps."""
    code: int
    start: float
    first_read: float | None
    handed: list[float]
    output: str
    line_ends: list[float]
    stderr: str
    between_s: float

    @property
    def lines(self) -> list[str]:
        """The complete output lines, in order."""
        return self.output.split("\n")[:len(self.line_ends)]


def invoke(inv: Invocation, between=None) -> Call:
    feed, out, err = _Feed(inv.lines, between), _Capture(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = feed, out, err
    start = perf_counter()
    try:
        code = cli.main(list(inv.argv))
    except SystemExit as e:         # argparse rejects arguments this way
        code = 0 if e.code is None else e.code if isinstance(e.code, int) else 1
    except Exception:
        # A crash of the program under test fails this invocation's ops;
        # the run goes on so the failure is counted, not fatal.
        code = -1
        err.write(traceback.format_exc())
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return Call(code, start, feed.first_read, feed.handed, out.text(),
                out.line_ends, err.getvalue(), feed.between_s)


def output_hash(outputs: list[str]) -> str:
    h = hashlib.sha256()
    for text in outputs:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


@dataclass
class JobResult:
    attempted: int
    failed: int
    latencies: list[float]      # seconds, one per op whose output appeared
    busy: float                 # first line handed in to last output written
    setups: list[float]         # invocation start to its first stdin read
    output_hash: str            # of each invocation's standard output
    final_log_evidence: float | None = None
    problems: list[str] = field(default_factory=list)


def check_reports(lines: list[str]) -> tuple[set[int], list[str], float | None]:
    """Indices of report lines that fail the output checks, a note for each,
    and the last report's log-evidence."""
    bad: set[int] = set()
    notes: list[str] = []
    running = 0.0
    last = None
    for i, line in enumerate(lines):
        try:
            r = json.loads(line)
            running += math.log(r["evidence_likelihood"])
            last = r["log_evidence"]
            sums = {
                "state": math.fsum(r["state"].values()),
                "explain": math.fsum(r["explain"]["terminal"].values())
                + r["explain"]["completed"],
                "predict": math.fsum(r["predict"]["terminal"].values())
                + r["predict"]["completed"],
            }
            wrong = [f"{k} mass {v!r}" for k, v in sums.items()
                     if not abs(v - 1.0) <= TOL]
            if not abs(last - running) <= TOL:
                wrong.append(f"log_evidence {last!r} vs running sum {running!r}")
        except (ValueError, KeyError, TypeError, AttributeError) as e:
            wrong = [f"malformed report: {e!r}"]
        if wrong:
            bad.add(i)
            notes.append(f"report {i + 1}: " + "; ".join(wrong))
    return bad, notes, last


def _run_stream(job: Job, between) -> JobResult:
    inv = job.invocations[0]
    call = invoke(inv, between)
    n = len(inv.lines)
    reports = call.lines
    done = min(len(reports), len(call.handed))
    latencies = [call.line_ends[i] - call.handed[i] for i in range(done)]
    busy = (call.line_ends[done - 1] - call.handed[0] - call.between_s
            if done else 0.0)
    setups = [call.first_read - call.start] if call.first_read else []
    bad, problems, final = check_reports(reports)
    if call.code != 0 or len(reports) != n:
        failed = n
        problems.append(f"exit {call.code}, {len(reports)} reports for {n} "
                        f"lines: {call.stderr.strip()[-300:]}")
    else:
        failed = len(bad)
    return JobResult(n, failed, latencies, busy, setups,
                     output_hash([call.output]), final, problems)


def _run_xcheck(job: Job) -> JobResult:
    check = invoke(job.invocations[0])
    pcfg = invoke(job.invocations[1])
    problems = []
    try:
        summary = json.loads(check.lines[-1])
        if not (check.code == 0 and summary["ok"] is True
                and summary["max_deviation"] <= TOL):
            problems.append(f"oracle-check exit {check.code}: {summary}")
    except (IndexError, ValueError, KeyError, TypeError) as e:
        problems.append(f"oracle-check exit {check.code}, no summary: {e!r}")
    if pcfg.code != 0 or not pcfg.output.strip():
        problems.append(f"to-pcfg exit {pcfg.code}, "
                        f"{len(pcfg.output)} characters of grammar")
    latencies, busy = [], 0.0
    if check.handed and check.line_ends and pcfg.line_ends:
        busy = ((check.line_ends[-1] - check.handed[0])
                + (pcfg.line_ends[-1] - pcfg.start))
        latencies.append(busy)
    setups = [check.first_read - check.start] if check.first_read else []
    return JobResult(1, 1 if problems else 0, latencies, busy, setups,
                     output_hash([check.output, pcfg.output]), None, problems)


def run_job(job: Job, between=None) -> JobResult:
    """Run one job; `between` runs between the input lines of a stream."""
    return _run_stream(job, between) if job.is_stream else _run_xcheck(job)


@dataclass
class JobRun:
    """The timings of one run of one job, kept for rescaling."""
    job: int                    # index of the job in the pass
    start: float
    end: float
    busy: float
    latencies: list[float]
    setups: list[float]


@dataclass
class Timed:
    """Everything a timed run measured."""
    attempted: int = 0
    failed: int = 0
    runs: list[JobRun] = field(default_factory=list)
    first_pass: list[JobResult] = field(default_factory=list)
    ref_times: list[float] = field(default_factory=list)
    ref_samples: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return output_hash([r.output_hash for r in self.first_pass])

    @property
    def log_evidence_sum(self) -> float | None:
        finals = [r.final_log_evidence for r in self.first_pass
                  if r.final_log_evidence is not None]
        return math.fsum(finals) if finals else None

    def factors(self) -> list[float]:
        """Per job run, REF_SECONDS over the median reference sample taken
        within REF_WINDOW of it: multiply its times by this to get them at
        reference speed."""
        out = []
        for run in self.runs:
            lo = bisect.bisect_left(self.ref_times, run.start - REF_WINDOW)
            hi = bisect.bisect_right(self.ref_times, run.end + REF_WINDOW)
            out.append(REF_SECONDS / statistics.median(self.ref_samples[lo:hi]))
        return out

    def sample_reference(self, every: float = 0.0):
        """Time REF_BURST reference samples, unless the last were taken
        less than `every` seconds ago."""
        if self.ref_times and perf_counter() - self.ref_times[-1] < every:
            return
        for _ in range(REF_BURST):
            self.ref_samples.append(reference_sample())
            self.ref_times.append(perf_counter())


def measure(workload: Workload, seconds: float) -> Timed:
    """Cycle through the workload's pass until `seconds` have gone by,
    finishing at least one pass.  A job whose output differs from its first
    run fails all its ops: the program must be deterministic."""
    jobs = workload.jobs
    t = Timed()
    t.sample_reference()
    start = perf_counter()
    while len(t.runs) < len(jobs) or perf_counter() - start < seconds:
        t.sample_reference(REF_EVERY)
        k = len(t.runs) % len(jobs)
        began = perf_counter()
        r = run_job(jobs[k], lambda: t.sample_reference(REF_EVERY))
        t.runs.append(JobRun(k, began, perf_counter(), r.busy, r.latencies,
                             r.setups))
        if len(t.runs) <= len(jobs):
            t.first_pass.append(r)
        elif r.output_hash != t.first_pass[k].output_hash:
            r.failed = r.attempted
            r.problems.append(f"job {k}: output differs from its first run")
        t.attempted += r.attempted
        t.failed += r.failed
        if len(t.problems) < 20:
            t.problems += r.problems[:20 - len(t.problems)]
    t.sample_reference()
    return t


def tail_rank(n: int) -> tuple[float, int]:
    """(percentile, 1-based nearest rank) of the tail among n samples: the
    highest percentile with TAIL_BEYOND samples beyond it, capped at
    TAIL_CAP, or the maximum of a run too small for that.  The cap keeps
    a long run's tail from resting on its few slowest ops, which a busy
    shared machine sets more than the program does."""
    if n <= TAIL_BEYOND:
        return 100.0, n
    pct = min(TAIL_CAP, 100.0 * (n - TAIL_BEYOND) / n)
    return pct, math.ceil(pct / 100.0 * n - 1e-9)


def tail(latencies: list[float]) -> float:
    return sorted(latencies)[tail_rank(len(latencies))[1] - 1]


def end_to_end(t: Timed, peak_rss_mb: float, rescale: bool = True
               ) -> dict[str, float]:
    """The end-to-end metrics; `rescale` puts times at reference speed."""
    factors = t.factors() if rescale else [1.0] * len(t.runs)
    latencies = [f * x for f, r in zip(factors, t.runs) for x in r.latencies]
    setups = [f * x for f, r in zip(factors, t.runs) for x in r.setups]
    busy = math.fsum(f * r.busy for f, r in zip(factors, t.runs))
    completed = sum(len(r.latencies) for r in t.runs)
    return {
        "ops_per_s": completed / busy if busy else 0.0,
        "latency_p50_ms": (1e3 * statistics.median(latencies)
                           if latencies else 0.0),
        "latency_tail_ms": 1e3 * tail(latencies) if latencies else 0.0,
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - t.failed / t.attempted,
    }
