"""Recognizer benchmark: four workloads through `psdg infer`, `oracle-check`
and `to-pcfg`, timed end to end, with a traced per-layer replay.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory, and scratch files (generated grammars, trace files) go
under `.bench_build/`.  With `--trace 0` the run is timed untraced for
`--seconds` and reports the end-to-end metrics.  With `--trace 1` it runs
one timed pass, then replays the pass with spans, each job right after an
untraced run of it, and reports the per-layer metrics.  Metric names and
units come from BENCHMARK.json; the last line of standard output is the
JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HASH_SEED = "0"


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _manifest(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def execute(wl, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Measure the workload, print what was measured, and return the
    result object whose JSON is the run's last output line."""
    from benchmarks import harness, tracing

    manifest = _manifest(root)
    print(f"workload {wl.name}  seed {seed}  closed loop, 1 client  "
          f"grammar {wl.psdg.summary()}")
    print(f"  pass: {len(wl.jobs)} jobs, {wl.op_count} ops, "
          f"|R| = {wl.observation_states} states per observation")
    timed = harness.measure(wl, 0.0 if trace else seconds)
    failed = timed.failed
    problems = list(timed.problems)
    print(f"  timed: {len(timed.runs)} jobs "
          f"({len(timed.runs) / len(wl.jobs):.2f} passes), "
          f"{timed.attempted} ops, {timed.failed} failed")
    print(f"  report digest sha256:{timed.digest}")
    le = timed.log_evidence_sum
    print("  summed final log-evidence: "
          + (repr(le) if le is not None else "n/a (no infer reports)"))
    if trace:
        traced = tracing.replay(wl, timed)
        failed += traced.failed
        problems += traced.problems
        path = root / ".bench_build" / "traces" / f"{wl.name}-seed{seed}.jsonl"
        traced.tracer.write(path)
        print(f"  traced replay of one pass: {len(traced.tracer.spans)} "
              f"spans written to {path.relative_to(root)}")
        print(f"  {'span':28} {'calls':>8} {'self_s':>10} {'share':>8}")
        m = traced.metrics
        for name in sorted(tracing.SPANS, key=lambda n: -m[n + ".self_s"]):
            print(f"  {name:28} {m[name + '.calls']:>8} "
                  f"{m[name + '.self_s']:>10.4f} {m[name + '.share']:>8.4f}")
        metrics = m
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = harness.end_to_end(timed, rss_mb)
        raw = harness.end_to_end(timed, rss_mb, rescale=False)
        factors = timed.factors()
        print(f"  reference: {len(timed.ref_samples)} samples, median "
              f"{1e3 * statistics.median(timed.ref_samples):.4f} ms; times "
              f"rescaled to {1e3 * harness.REF_SECONDS:g} ms by factors "
              f"{min(factors):.3f}..{max(factors):.3f}")
        print("  as measured: " + json.dumps(raw))
        n = sum(len(r.latencies) for r in timed.runs)
        pct, rank = harness.tail_rank(n)
        print(f"  latencies are {n} op samples over "
              f"{len(timed.runs) / len(wl.jobs):.2f} passes; "
              f"latency_tail_ms is p{pct:.3f}, {n - rank} samples beyond it; "
              f"setup_s is the median of "
              f"{sum(len(r.setups) for r in timed.runs)} invocations")
    for p in problems[:20]:
        print(f"  problem: {p}")
    out = {}
    for spec in manifest["per_layer" if trace else "end_to_end"]:
        name, unit = spec["name"], spec["unit"]
        out[name] = {"value": metrics[name], "unit": unit}
        print(f"  {name:32} {_fmt(metrics[name]):>14} {unit}")
    return {"correct": failed == 0, "attempted": timed.attempted,
            "failed": failed, "metrics": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[
        w["name"] for w in _manifest(ROOT)["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # A fixed hash seed makes set iteration repeat exactly from run to
        # run; exec gives a fresh interpreter in the same process.
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()),
                   *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    src = ROOT / "src"
    if not (src / "psdg" / "cli.py").is_file():
        print(f"no psdg sources under {src}: run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import psdg
    if Path(psdg.__file__).resolve().parent != src / "psdg":
        print(f"imported psdg from {psdg.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from benchmarks import workloads

    wl = workloads.build(args.workload, args.seed, ROOT)
    result = execute(wl, args.seed, args.seconds, bool(args.trace), ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
