"""Command-line front end.

Subcommands: validate, sample, infer, oracle-check, to-pcfg.  Data goes
to standard output as JSON lines (or grammar text for to-pcfg), every
diagnostic to standard error.  Exit codes: 0 success, 1 a failed check or
a `PsdgError` such as `ExplosionBound` (or running out of memory or
recursion depth), 2 an I/O or input-format error, `_CliError`, 3
`ZeroEvidence`: `infer` under the `error` policy or after a failed
restart, or `oracle-check`, whose referee finds the same contradiction.
Each error is raised where it is found and reported by `main` alone.

Observation streams are JSON lines `{"t": k, "observe": {feature:
[values, ...]}}` with no other key and strictly increasing times.  A
`t: 0` line may come first to restrict the initial state.  Times missing
from the stream pass as unconstrained steps; they advance the belief but
produce no report line.  Both commands run it through `infer.recognize`.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Iterator

from .errors import Diagnostic, GrammarError, PsdgError, ZeroEvidence
from .generate import observation_json_lines, sample_trajectory, \
    trajectory_json_lines
from .grammar import Psdg
from .infer import (DEFAULT_SUPPORT_BOUND, BeliefState, Observation,
                    _Groups, branch_table, init_belief, recognize)
from .parse import load_text, validate_text

ORACLE_TOL = 1e-9


class _CliError(Exception):
    """An I/O, option or input-format error: `main` exits 2."""


def _print_diagnostics(diags: list[Diagnostic]):
    for d in diags:
        print(json.dumps({"kind": d.kind, "line": d.line, "column": d.column,
                          "message": d.message}), file=sys.stderr, flush=True)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeError) as e:
        raise _CliError(f"cannot read {path}: {e}") from None


def _read_grammar(path: str) -> Psdg:
    try:
        return load_text(_read_text(path))
    except GrammarError as e:
        _print_diagnostics(e.diagnostics)
        raise PsdgError(f"{path}: {len(e.diagnostics)} problem(s)") from None


def _parse_observation(psdg: Psdg, line: str, lineno: int) -> Observation:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as e:
        raise _CliError(f"line {lineno}: invalid JSON: {e.msg}") from None
    except RecursionError:
        raise _CliError(f"line {lineno}: invalid JSON: nested too "
                        "deeply") from None
    t = payload.get("t") if isinstance(payload, dict) else None
    if not isinstance(t, int) or isinstance(t, bool):
        raise _CliError(f"line {lineno}: expected an object with an "
                        f"integer \"t\"")
    for key in payload:
        if key not in ("t", "observe"):
            raise _CliError(f"line {lineno}: unknown key {key!r}")
    if t < 0:
        raise _CliError(f"line {lineno}: negative time {t}")
    observe = payload.get("observe", {})
    if not isinstance(observe, dict):
        raise _CliError(f"line {lineno}: \"observe\" must be an object")
    try:
        return Observation.from_labels(psdg, t, observe)
    except ValueError as e:
        raise _CliError(f"line {lineno}: {e}") from None


def _read_observations(psdg: Psdg, stream) -> Iterator[Observation]:
    """The stream's observations, one per non-blank line as it is read.
    Times must increase strictly; as none is negative, a t=0 line can
    only come first.  Bytes that are not UTF-8 fail with their line."""
    if hasattr(stream, "reconfigure"):
        stream.reconfigure(errors="surrogateescape")
    last = None
    for lineno, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        obs = _parse_observation(psdg, line, lineno)
        if last is not None and obs.time <= last:
            raise _CliError(f"line {lineno}: time {obs.time} does not "
                            f"increase past {last}")
        last = obs.time
        yield obs


def _emit(payload: dict):
    print(json.dumps(payload, sort_keys=True), flush=True)


def cmd_validate(args) -> int:
    psdg, diags = validate_text(_read_text(args.grammar))
    _print_diagnostics(diags)
    if psdg is None:
        return 1
    _emit(psdg.summary())
    return 0


def cmd_sample(args) -> int:
    psdg = _read_grammar(args.grammar)
    if args.observations_only and args.count != 1:
        raise _CliError("--observations-only requires --count 1")
    for i in range(args.count):
        seed = args.seed + i
        traj = sample_trajectory(psdg, args.horizon, seed)
        lines = (observation_json_lines(psdg, traj) if args.observations_only
                 else trajectory_json_lines(psdg, traj))
        for line in lines:
            print(line, flush=True)
    return 0


def cmd_infer(args) -> int:
    psdg = _read_grammar(args.grammar)
    for report in recognize(psdg, _read_observations(psdg, sys.stdin),
                            args.support_bound,
                            args.on_zero_evidence == "reinit"):
        if report.evidence_likelihood == 0.0:
            print(f"zero evidence at t={report.time}: restarting from the "
                  f"prior restricted to the observation", file=sys.stderr)
        _emit(report.to_dict(psdg))
    return 0


def _skewed_belief(*args) -> BeliefState:
    """init_belief with every chart entry skewed by a different factor, so
    the damage cannot hide behind renormalization.  It edits the chart
    after the belief was built and checked, so it sums the groups again."""
    belief = init_belief(*args)
    scale = 1.0
    for row in belief.chart.values():
        for entry in row:
            scale += 0.01
            row[entry] *= scale
    belief.groups = _Groups(branch_table(belief.psdg), belief.chart)
    return belief


def cmd_oracle_check(args) -> int:
    from .oracle import compare_reports, streamed_reports
    psdg = _read_grammar(args.grammar)
    observations = list(_read_observations(psdg, sys.stdin))
    want = streamed_reports(psdg, observations)
    start = _skewed_belief if args.corrupt_belief else init_belief
    got = [report.to_dict(psdg) for report in recognize(
        psdg, observations, args.support_bound, start=start)]

    worst = 0.0
    ok = True
    for g, w in zip(got, want):
        dev, problems = compare_reports(g, w, ORACLE_TOL)
        worst = max(worst, dev)
        _emit({"t": g["t"], "max_deviation": dev})
        if problems:
            ok = False
            for p in problems[:20]:
                print(f"t={g['t']}: {p}", file=sys.stderr)
    _emit({"max_deviation": worst, "reports": len(got), "ok": ok})
    return 0 if ok else 1


def cmd_to_pcfg(args) -> int:
    from .oracle import pcfg_text, to_pcfg
    psdg = _read_grammar(args.grammar)
    pcfg = to_pcfg(psdg)
    text = pcfg_text(pcfg)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise _CliError(f"cannot write {args.out}: {e}") from None
    else:
        sys.stdout.write(text)
        sys.stdout.flush()
    n_prods = pcfg.production_count()
    bound = len(psdg.productions) * psdg.state_count ** (psdg.max_rhs + 1)
    print(f"nonterminal tuples: {pcfg.nonterminal_count()}  "
          f"productions: {n_prods}  "
          f"bound |P|*|Q|^(m+1): {bound}  ratio: {n_prods / bound:.6g}",
          file=sys.stderr)
    return 0


def _positive_int(text: str) -> int:
    if not (text.isascii() and text.isdigit() and int(text) > 0):
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, found {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; do not alter it."""
    parser = argparse.ArgumentParser(
        prog="psdg",
        description="State-dependent grammar tools: validation, sampling, "
                    "online plan recognition, and exact cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    support_bound = dict(type=_positive_int, default=DEFAULT_SUPPORT_BOUND,
                         help="most states a belief may hold, live or "
                              "completed (default %(default)s)")

    p = sub.add_parser("validate", help="check a grammar file and print "
                                        "its summary")
    p.add_argument("grammar")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sample", help="sample trajectories as JSON lines")
    p.add_argument("grammar")
    p.add_argument("--horizon", type=_positive_int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_positive_int, default=1)
    p.add_argument("--observations-only", action="store_true",
                   help="emit the state observations instead of the "
                        "full trajectory, for piping into `infer`")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("infer", help="run recognition over an observation "
                                     "stream from stdin")
    p.add_argument("grammar")
    p.add_argument("--support-bound", **support_bound)
    p.add_argument("--on-zero-evidence", choices=("error", "reinit"),
                   default="error")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("oracle-check",
                       help="compare recognition reports against exhaustive "
                            "enumeration")
    p.add_argument("grammar")
    p.add_argument("--support-bound", **support_bound)
    p.add_argument("--corrupt-belief", action="store_true",
                   help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("to-pcfg", help="emit the state-annotated "
                                       "constant-probability grammar")
    p.add_argument("grammar")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_to_pcfg)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as e:
        print(str(e), file=sys.stderr)
        return 2
    except ZeroEvidence as e:
        # at t=0 the prior puts no mass on the states an observation allows
        cause = ": the stream contradicts the model" if e.time else ""
        print(f"zero evidence at t={e.time}{cause}", file=sys.stderr)
        return 3
    except PsdgError as e:
        print(str(e), file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Keep the interpreter's shutdown flush from whining about the
        # closed pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except MemoryError:
        # Report after the handler, once the traceback no longer holds the
        # failed call's memory: printing inside it can fail again or hang.
        problem = "out of memory"
    except RecursionError:
        problem = "input nested past the interpreter's recursion limit"
    print(f"{args.command}: {problem}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
