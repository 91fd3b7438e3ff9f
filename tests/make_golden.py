"""Golden fixtures: exact outputs of the enumeration oracle and the engine.

`test_golden.py` holds the code to the files this module writes under
`tests/golden/`.  Rewrite them (`PYTHONPATH=src python tests/make_golden.py`)
only in a change that is meant to alter those outputs, and say so there.

- `oracle.json`: for 3-step sampled streams at seeds 1-3 on the bundled
  traffic grammar and on the deep-plans grammar, the exact stdout of
  `psdg oracle-check`, and the sha256 of the reference reports as sorted
  JSON; plus the sha256 of `psdg to-pcfg` stdout on both grammars (the
  traffic listing is over half a megabyte).
- `engine.json`: `psdg infer` reports on partially observed 12-step
  streams with gaps, on traffic, deep-plans and factored-state.  These are
  compared at 1e-12, so an engine change that only rounds differently
  still passes while a wrong one does not.

`deep-plans.psdg` and `factored-state.psdg` are copies of the benchmark's
generated grammars, kept here so that the fixtures do not move with them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import psdg as _pkg
from psdg.cli import _read_observations, main
from psdg.oracle import enumerate_joint, reference_reports
from psdg.parse import load_file

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


if __name__ == "__main__":
    for file_name, build in (("oracle.json", build_oracle),
                             ("engine.json", build_engine)):
        path = GOLDEN / file_name
        path.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")
