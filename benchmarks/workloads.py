"""The benchmark's workloads: fixed grammars plus seeded input streams.

A workload is one pass of jobs.  A job is what one client hands the CLI
before it looks at the answer: an `infer` job is one invocation fed one
observation line per op; an `oracle-xcheck` job is one op made of an
`oracle-check` invocation followed by `to-pcfg` on the same grammar.  The
runner cycles through the pass until its time is up, so every pass does
identical work and its report digest does not depend on machine speed.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from pathlib import Path

from psdg.generate import sample_trajectory
from psdg.grammar import Psdg, StateSet
from psdg.parse import validate_text

from .grammars import POS_VALUES, deep_plans_text, factored_state_text

TRAFFIC_GRAMMAR = Path("src") / "psdg" / "data" / "traffic.psdg"


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]       # arguments after the program name
    lines: tuple[str, ...]      # standard input, one observation per line


@dataclass(frozen=True)
class Job:
    invocations: tuple[Invocation, ...]

    @property
    def is_stream(self) -> bool:
        """An `infer` job reports once per input line; anything else is a
        single op that ends with its last invocation's output."""
        return self.invocations[0].argv[0] == "infer"

    @property
    def op_count(self) -> int:
        return len(self.invocations[0].lines) if self.is_stream else 1


@dataclass(frozen=True)
class Workload:
    name: str
    psdg: Psdg
    jobs: tuple[Job, ...]
    observation_states: int     # |R| of every observation line

    @property
    def op_count(self) -> int:
        return sum(job.op_count for job in self.jobs)


# Jobs per pass: few enough that most ops run more than once in a run,
# enough for a tail with ten ops beyond it.  Why each workload exists is
# recorded beside its name in BENCHMARK.json.
PASS_JOBS = {
    "traffic-sessions": 300,
    "factored-state": POS_VALUES,
    "deep-plans": 6,
    "oracle-xcheck": 40,
}
TRAFFIC_HORIZON = 8
TRAFFIC_MISSING = 0.2
FACTORED_HORIZON = 8
POS_WINDOW = 5
DEEP_HORIZON = 24
XCHECK_HORIZON = 2


def _line(t: int, observe: dict) -> str:
    return json.dumps({"t": t, "observe": observe}) + "\n"


def _states(traj, horizon: int) -> list[tuple[int, ...]]:
    """The state after each of `horizon` steps; completion freezes it."""
    states = [step.state.idx for step in traj.steps]
    return states + [states[-1]] * (horizon - len(states))


def _bit_reversed(n: int) -> list[int]:
    """0..n-1 (n a power of two) in bit-reversed order: every prefix of
    length 2^k hits each of 2^k equal slices of the range once."""
    bits = n.bit_length() - 1
    return [int(f"{i:0{bits}b}"[::-1], 2) for i in range(n)]


def _traffic_jobs(psdg: Psdg, rng: random.Random, n: int, path: str):
    lane = psdg.feature_index["lane"]
    for _ in range(n):
        traj = sample_trajectory(psdg, TRAFFIC_HORIZON, rng.randrange(2**32))
        lines = []
        for t, step in enumerate(traj.steps, start=1):
            # the final step is always observed, so no session is empty
            if rng.random() < TRAFFIC_MISSING and t < len(traj.steps):
                continue
            value = psdg.features[lane].values[step.state.idx[lane]]
            lines.append(_line(t, {"lane": [value]}))
        yield Job((Invocation(("infer", path), tuple(lines)),))


def _factored_jobs(psdg: Psdg, rng: random.Random, n: int, path: str):
    # A step's cost grows with the position value (the CPT row walk), so
    # each pass starts one session at every position, in an order whose
    # prefixes stay balanced; the seed picks everything else.
    pos_f = psdg.features[psdg.feature_index["pos"]]
    prog_f = psdg.features[psdg.feature_index["progress"]]
    for target in _bit_reversed(POS_VALUES)[:n]:
        while True:
            seed = rng.randrange(2**32)
            if sample_trajectory(psdg, 1, seed).initial_state.idx[0] == target:
                break
        traj = sample_trajectory(psdg, FACTORED_HORIZON, seed)
        lines = []
        for t, step in enumerate(traj.steps, start=1):
            pos, _, prog = step.state.idx
            lo = min(max(pos - rng.randrange(POS_WINDOW), 0),
                     POS_VALUES - POS_WINDOW)
            lines.append(_line(t, {
                "pos": list(pos_f.values[lo:lo + POS_WINDOW]),
                "progress": [prog_f.values[prog]],
            }))
        yield Job((Invocation(("infer", path), tuple(lines)),))


def _deep_jobs(psdg: Psdg, rng: random.Random, n: int, path: str):
    mode = psdg.features[0]
    for _ in range(n):
        traj = sample_trajectory(psdg, DEEP_HORIZON, rng.randrange(2**32))
        lines = tuple(_line(t, {"mode": [mode.values[step.state.idx[0]]]})
                      for t, step in enumerate(traj.steps, start=1))
        yield Job((Invocation(("infer", path), lines),))


def _xcheck_jobs(psdg: Psdg, rng: random.Random, n: int, path: str):
    lane = psdg.feature_index["lane"]
    values = psdg.features[lane].values
    for _ in range(n):
        traj = sample_trajectory(psdg, XCHECK_HORIZON, rng.randrange(2**32))
        lines = tuple(_line(t, {"lane": [values[q[lane]]]})
                      for t, q in enumerate(_states(traj, XCHECK_HORIZON),
                                            start=1))
        yield Job((Invocation(("oracle-check", path), lines),
                   Invocation(("to-pcfg", path), ())))


def _write_grammar(root: Path, name: str, text: str) -> Path:
    target = root / ".bench_build" / "grammars" / f"{name}.psdg"
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, target)
    return target


def _validated(text: str, what: str) -> Psdg:
    psdg, diags = validate_text(text)
    if psdg is None:
        problems = "; ".join(f"{d.kind} at {d.line}:{d.column}: {d.message}"
                             for d in diags)
        raise SystemExit(f"benchmark bug: {what} does not validate: {problems}")
    return psdg


def build(name: str, seed: int, root: Path, jobs: int | None = None
          ) -> Workload:
    """The workload `name` for `seed`, with its grammar file in place under
    `root`.  `jobs` shortens the pass (the benchmark's own tests use it)."""
    n = PASS_JOBS[name] if jobs is None else jobs
    rng = random.Random(f"{name}:{seed}")
    if name in ("traffic-sessions", "oracle-xcheck"):
        path = root / TRAFFIC_GRAMMAR
        psdg = _validated(path.read_text(encoding="utf-8"), str(path))
    else:
        text = (factored_state_text() if name == "factored-state"
                else deep_plans_text())
        psdg = _validated(text, f"generated {name} grammar")
        path = _write_grammar(root, name, text)
    make = {"traffic-sessions": _traffic_jobs,
            "factored-state": _factored_jobs,
            "deep-plans": _deep_jobs,
            "oracle-xcheck": _xcheck_jobs}[name]
    jobs = tuple(make(psdg, rng, n, str(path)))
    first = json.loads(jobs[0].invocations[0].lines[0])
    observed = StateSet.from_labels(psdg, first["observe"]).size()
    return Workload(name, psdg, jobs, observed)
