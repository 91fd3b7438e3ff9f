"""Record a baseline: every workload over several seeds, one at a time.

    python3 benchmarks/baseline.py --out benchmarks/baseline.json

For each workload this runs `run.py --trace 0` once for each of SEEDS and
`run.py --trace 1` once, on the first seed, then writes the medians,
quartiles and spreads of the end-to-end metrics, both as reported and as
measured before rescaling, the per-layer metrics, each seed's report
digest, and the machine it ran on.  It stops if the traced run's digest
differs from the timed run's for the same seed.  The spread is
(Q3 - Q1) / median, the figure the bounds in BENCHMARK.json are set
against.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(41, 51)


def _run(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, str(ROOT / "benchmarks" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600, check=True).stdout
    digest = re.search(r"report digest sha256:(\w+)", out).group(1)
    raw = re.search(r"^  as measured: (.*)$", out, re.M)
    return (json.loads(out.strip().splitlines()[-1]), digest,
            json.loads(raw.group(1)) if raw else None)


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy
    from benchmarks import workloads

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = manifest["run_seconds"]
    record = {
        "machine": {"nproc": os.cpu_count(), "cpu": _cpu(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__},
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for spec in manifest["workloads"]:
        name = spec["name"]
        wl = workloads.build(name, SEEDS[0], ROOT)
        values: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {}
        digests = {}
        failed = 0
        for seed in SEEDS:
            result, digests[seed], measured = _run(name, seed, seconds, 0)
            failed += result["failed"]
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
                raw.setdefault(metric, []).append(measured[metric])
            print(name, seed, {k: round(v[-1], 6) for k, v in values.items()},
                  flush=True)
        end_to_end = {}
        for m in manifest["end_to_end"]:
            end_to_end[m["name"]] = {
                "unit": m["unit"], "bound": m["bound"],
                **_spread(values[m["name"]]),
                "as_measured": _spread(raw[m["name"]])}
        traced, traced_digest, _ = _run(name, SEEDS[0], seconds, 1)
        if traced_digest != digests[SEEDS[0]]:
            raise SystemExit(f"{name}: the traced run's digest differs from "
                             f"the timed run's for seed {SEEDS[0]}")
        record["workloads"][name] = {
            "why": spec["why"],
            "summary": wl.psdg.summary(),
            "loop": "closed, 1 client",
            "jobs_per_pass": len(wl.jobs),
            "ops_per_pass": wl.op_count,
            "observation_states": wl.observation_states,
            "failed_ops": failed,
            "digests": digests,
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for metric, e in end_to_end.items():
            print(f"  {metric:16} median {e['median']:.6g} {e['unit']:6} "
                  f"spread {e['spread']:.4f} (as measured "
                  f"{e['as_measured']['spread']:.4f}) bound {e['bound']}",
                  flush=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
