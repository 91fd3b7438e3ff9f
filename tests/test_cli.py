"""End-to-end command behavior, driven through main(argv)."""
import contextlib
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (REINIT_CYCLE, RESTARTS, TRAFFIC_PATH,
                     assert_evidence_restarts, traffic, unpruned)
from psdg.cli import build_parser, main
from psdg.generate import observation_json_lines, sample_trajectory
from psdg.grammar import StateSet
from psdg.infer import Observation, init_belief, recognize
from psdg.oracle import PCFG_PRODUCTION_BOUND
from psdg.parse import load_text

AB_TEXT = """\
feature u {
  values: z;
  prior: 1;
}

start S

prod 0: S -> a { default: 0.3; }
prod 1: S -> b { default: 0.7; }
"""

# The prior puts no mass on f = b, so no restart can explain seeing it.
ZERO_PRIOR_TEXT = """\
feature f {
  values: a, b;
  prior: 1, 0;
}

start S

prod 0: S -> x { default: 1; }
"""

# Each feature's first value has prior 1 and moves to itself with
# probability 1e-200, so the product of two such rows underflows to 0.
UNDERFLOW_TEXT = """\
feature a {
  values: x, y;
  prior: 1, 0;
  cpt: x | * -> 1e-200, 1;
  cpt: y | * -> 1e-200, 1;
}

feature b {
  values: x, y;
  prior: 1, 0;
  cpt: x | * -> 1e-200, 1;
  cpt: y | * -> 1e-200, 1;
}

start S

prod 0: S -> go { default: 1; }
"""

# Each production is positive, but the chain S -> A -> B underflows.
CHAIN_UNDERFLOW_TEXT = """\
feature f { values: a, b; prior: 0.5, 0.5; }

start S

prod 1: S -> A { default: 1e-200; }
prod 2: S -> x { default: 1; }
prod 3: A -> B { default: 1e-200; }
prod 4: A -> y { default: 1; }
prod 5: B -> z { default: 1; }
"""

# One run per stop time from each initial state, so the oracle's joint
# stays small out to a horizon of 51.
TICKER_TEXT = """\
feature f {
  values: lo, hi;
  prior: 0.5, 0.5;
  parents: f;
  cpt: lo | tick -> 0, 1;
  cpt: hi | tick -> 1, 0;
  cpt: lo | * -> 1, 0;
  cpt: hi | * -> 0, 1;
}

start S

prod 0: S -> tick S { rule f in {lo} : 0.9; default: 0.8; }
prod 1: S -> stop { rule f in {lo} : 0.1; default: 0.2; }
"""


def nest_text(n, body, last):
    """Symbols N0 .. N(n-1) with one production each: N_i -> `body`
    formatted with i + 1, and N(n-1) -> `last`."""
    rules = [f"prod {i}: N{i} -> {body.format(i + 1)} {{ default: 1; }}"
             for i in range(n - 1)]
    rules.append(f"prod {n - 1}: N{n - 1} -> {last} {{ default: 1; }}")
    return "feature f { values: a; prior: 1; }\nstart N0\n" + \
        "\n".join(rules) + "\n"


@pytest.fixture
def ab_path(tmp_path):
    path = tmp_path / "ab.psdg"
    path.write_text(AB_TEXT)
    return str(path)


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


class TestValidate:
    def test_traffic_summary(self, capsys):
        code, out, err = run(capsys, ["validate", str(TRAFFIC_PATH)])
        assert code == 0
        assert json.loads(out) == {
            "nonterminals": 2, "terminals": 4, "productions": 7,
            "depth": 2, "max_rhs": 2, "states": 18,
        }

    def test_normalization_failure_diagnosed(self, capsys, tmp_path):
        path = tmp_path / "broken.psdg"
        path.write_text(AB_TEXT.replace("default: 0.7;", "default: 0.8;"))
        code, out, err = run(capsys, ["validate", str(path)])
        assert code == 1
        assert out == ""
        diags = json_lines(err)
        assert diags and all(
            isinstance(d["line"], int) and d["kind"] for d in diags)

    @pytest.mark.parametrize("command", ["infer", "sample", "oracle-check",
                                         "to-pcfg"])
    def test_every_command_reports_an_invalid_grammar(self, capsys,
                                                      monkeypatch, tmp_path,
                                                      command):
        """A command that loads a grammar prints its diagnostics as JSON
        lines and their count, exits 1, and writes nothing to stdout."""
        path = tmp_path / "broken.psdg"
        path.write_text(AB_TEXT.replace("default: 0.7;", "default: 0.8;"))
        code, out, err = run(capsys, [command, str(path)], "", monkeypatch)
        assert (code, out) == (1, "")
        *diags, last = err.splitlines()
        diags = json_lines("\n".join(diags))
        assert diags and all(d["kind"] for d in diags)
        assert last == f"{path}: {len(diags)} problem(s)"

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.psdg"
        path.write_text("")
        code, _, err = run(capsys, ["validate", str(path)])
        assert code == 1
        assert json_lines(err)[0]["line"] == 1

    def test_long_cycle_is_one_diagnostic(self, capsys, tmp_path):
        path = tmp_path / "ring.psdg"
        path.write_text(nest_text(1200, "x N{}", "x N0"))
        code, out, err = run(capsys, ["validate", str(path)])
        assert (code, out) == (1, "")
        (diag,) = json_lines(err)
        assert diag["kind"] == "NonTailRecursion"
        assert diag["message"] == (
            "recursion other than direct tail recursion: cycle "
            + " -> ".join(f"N{i}" for i in [*range(1200), 0]))

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["validate", str(tmp_path / "nope.psdg")])
        assert code == 2
        assert "cannot read" in err

    def test_file_that_is_not_utf8(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "latin1.psdg"
        path.write_bytes(AB_TEXT.replace("z", "\xe9").encode("latin-1"))
        for argv in (["validate", str(path)], ["infer", str(path)]):
            code, out, err = run(capsys, argv, "", monkeypatch)
            assert (code, out) == (2, "")
            assert err.startswith(f"cannot read {path}: 'utf-8' codec")


class TestSample:
    def test_seed_determinism(self, capsys):
        argv = ["sample", str(TRAFFIC_PATH), "--horizon", "5",
                "--seed", "42"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_count_uses_consecutive_seeds(self, capsys):
        code, out, _ = run(capsys, ["sample", str(TRAFFIC_PATH),
                                    "--horizon", "3", "--seed", "42",
                                    "--count", "2"])
        assert code == 0
        headers = [p for p in json_lines(out) if "seed" in p]
        assert [h["seed"] for h in headers] == [42, 43]

    def test_observations_only_shape(self, capsys):
        code, out, _ = run(capsys, ["sample", str(TRAFFIC_PATH),
                                    "--horizon", "4", "--seed", "7",
                                    "--observations-only"])
        assert code == 0
        lines = json_lines(out)
        assert lines
        times = [p["t"] for p in lines]
        assert times == sorted(set(times)) and times[0] == 1
        for p in lines:
            assert set(p) == {"t", "observe"}
            for values in p["observe"].values():
                assert isinstance(values, list) and len(values) == 1

    def test_golden_trajectories(self, capsys):
        """Exact stdout, byte for byte, including each frame's level and
        symbol, which are rendered from the stack position and the
        production's left-hand side."""
        def frame(level, symbol, production, cursor):
            return {"level": level, "symbol": symbol,
                    "production": production, "cursor": cursor}

        def state(lane, speed, exit_):
            return {"lane": lane, "speed": speed, "exit": exit_}

        drive0, drive3, drive4 = (frame(1, "Drive", a, 1) for a in (0, 3, 4))
        want = [
            {"q0": state("left-lane", "fast", "far"), "seed": 1,
             "complete": True},
            {"t": 1, "stack": [drive0], "terminal": "Stay",
             "state": state("left-lane", "fast", "near")},
            {"t": 2, "stack": [drive3, frame(2, "Pass", 5, 1)],
             "terminal": "Left", "state": state("left-lane", "fast", "at")},
            {"t": 3, "stack": [drive3, frame(2, "Pass", 5, 2)],
             "terminal": "Right",
             "state": state("center-lane", "slow", "at")},
            {"t": 4, "stack": [drive4], "terminal": "Exit",
             "state": state("center-lane", "fast", "at")},
            {"q0": state("right-lane", "fast", "far"), "seed": 2,
             "complete": True},
            {"t": 1, "stack": [drive0], "terminal": "Stay",
             "state": state("right-lane", "fast", "near")},
            {"t": 2, "stack": [drive0], "terminal": "Stay",
             "state": state("right-lane", "fast", "at")},
            {"t": 3, "stack": [drive0], "terminal": "Stay",
             "state": state("right-lane", "fast", "at")},
            {"t": 4, "stack": [drive4], "terminal": "Exit",
             "state": state("right-lane", "fast", "at")},
        ]
        code, out, _ = run(capsys, ["sample", str(TRAFFIC_PATH),
                                    "--horizon", "4", "--seed", "1",
                                    "--count", "2"])
        assert code == 0
        assert out == "".join(json.dumps(line) + "\n" for line in want)

    def test_observations_only_needs_single_count(self, capsys):
        code, _, err = run(capsys, ["sample", str(TRAFFIC_PATH),
                                    "--observations-only", "--count", "2"])
        assert code == 2
        assert "--count 1" in err

    def test_terminal_frequencies(self, capsys, ab_path):
        code, out, _ = run(capsys, ["sample", ab_path, "--horizon", "1",
                                    "--count", "2000"])
        assert code == 0
        steps = [p for p in json_lines(out) if "terminal" in p]
        assert len(steps) == 2000
        freq = sum(p["terminal"] == "a" for p in steps) / 2000
        assert abs(freq - 0.3) <= 3 * math.sqrt(0.3 * 0.7 / 2000)


def obs_line(t, observe):
    return json.dumps({"t": t, "observe": observe})


# Names and JSON values for observation payloads: traffic's features and
# values mixed with unknown names and values of every JSON type.
_NAMES = st.sampled_from(("lane", "speed", "exit", "left-lane", "slow",
                          "at", "nope", ""))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats() | _NAMES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_NAMES, inner, max_size=2),
    max_leaves=6)


class TestInfer:
    def test_left_lane_blocks_left_change(self, capsys, monkeypatch):
        stdin = obs_line(0, {"lane": ["left-lane"]}) + "\n" + \
            obs_line(1, {"lane": ["left-lane"]}) + "\n"
        code, out, _ = run(capsys, ["infer", str(TRAFFIC_PATH)],
                           stdin, monkeypatch)
        assert code == 0
        (report,) = json_lines(out)
        assert report["t"] == 1
        row = report["predict"]["productions"]["1"]
        assert row.get("1:1", 0.0) == 0.0
        assert row.get("2:1", 0.0) > 0.0

    def test_replay_keeps_true_terminal_alive(self, capsys, monkeypatch):
        g = traffic()
        traj = sample_trajectory(g, horizon=4, seed=9)
        stdin = "\n".join(observation_json_lines(g, traj)) + "\n"
        code, out, _ = run(capsys, ["infer", str(TRAFFIC_PATH)],
                           stdin, monkeypatch)
        assert code == 0
        reports = json_lines(out)
        assert len(reports) == len(traj.steps)
        for report, s in zip(reports, traj.steps):
            assert report["explain"]["terminal"].get(s.terminal, 0.0) > 0.0

    def test_reports_match_library_path(self, capsys, monkeypatch):
        g = traffic()
        traj = sample_trajectory(g, horizon=3, seed=21)
        # blank lines between the observations are skipped
        stdin = "\n \n".join(observation_json_lines(g, traj)) + "\n\n"
        code, out, _ = run(capsys, ["infer", str(TRAFFIC_PATH)],
                           stdin, monkeypatch)
        assert code == 0
        obs = [Observation.from_labels(g, p["t"], p["observe"])
               for p in json_lines(stdin)]
        want = json_lines("\n".join(json.dumps(r.to_dict(g), sort_keys=True)
                                     for r in recognize(g, obs)))
        assert json_lines(out) == want

    def test_zero_evidence_error_policy(self, capsys, monkeypatch):
        stdin = obs_line(0, {"lane": ["right-lane"]}) + "\n" + \
            obs_line(1, {"lane": ["left-lane"]}) + "\n"
        code, out, err = run(capsys, ["infer", str(TRAFFIC_PATH)],
                             stdin, monkeypatch)
        assert code == 3
        assert out == ""
        assert "zero evidence at t=1" in err

    def test_zero_evidence_reinit_policy(self, capsys, monkeypatch):
        stdin = "\n".join([
            obs_line(0, {"lane": ["right-lane"]}),
            obs_line(1, {"lane": ["left-lane"]}),
            obs_line(2, {"lane": ["left-lane"]}),
        ]) + "\n"
        code, out, err = run(capsys, ["infer", str(TRAFFIC_PATH),
                                      "--on-zero-evidence", "reinit"],
                             stdin, monkeypatch)
        assert code == 0
        assert "restarting" in err
        first, second = json_lines(out)
        assert first["t"] == 1
        assert first["evidence_likelihood"] == 0.0
        assert all("left-lane" in k for k in first["state"])
        assert first["predict"]["terminal"]
        assert second["t"] == 2
        assert second["evidence_likelihood"] > 0.0

    def test_reinit_cycle_restarts_the_evidence_chain(self, capsys,
                                                     monkeypatch):
        stdin = "".join(obs_line(t, {"lane": [lane]}) + "\n"
                        for t, lane in REINIT_CYCLE)
        code, out, err = run(capsys, ["infer", str(TRAFFIC_PATH),
                                      "--on-zero-evidence", "reinit"],
                             stdin, monkeypatch)
        assert code == 0
        assert err == "".join(
            f"zero evidence at t={t}: restarting from the prior restricted "
            f"to the observation\n" for t in RESTARTS)
        assert_evidence_restarts(
            [(r["t"], r["evidence_likelihood"], r["log_evidence"])
             for r in json_lines(out)])

    @pytest.mark.parametrize("policy", ["error", "reinit"])
    @pytest.mark.parametrize("lines, reinit_code", [
        ([(t, {"lane": [lane]}) for t, lane in REINIT_CYCLE], 0),
        ([(0, {"lane": ["left-lane"]}), (1, {"lane": ["right-lane"]}),
          (2, {"lane": ["center-lane"]})], 0),
        ([(0, {"speed": ["slow"]}), (1, {"exit": ["at"]}), (2, {})], 3),
    ], ids=["reinit-cycle", "restart-continues", "restart-fails"])
    def test_a_first_observation_no_state_reaches_reads_as_before(
            self, capsys, monkeypatch, policy, lines, reinit_code):
        """When no initial state can reach the t=1 observation, the first
        belief is empty: the run's exit code, stdout and stderr are those
        of a run that spreads every initial state."""
        argv = ["infer", str(TRAFFIC_PATH), "--on-zero-evidence", policy]
        stdin = "".join(obs_line(t, observe) + "\n" for t, observe in lines)
        pruned = run(capsys, argv, stdin, monkeypatch)
        monkeypatch.setattr("psdg.cli.recognize",
                            functools.partial(recognize, start=unpruned))
        assert run(capsys, argv, stdin, monkeypatch) == pruned
        assert pruned[0] == (3 if policy == "error" else reinit_code)

    def test_reinit_onto_a_zero_prior_exits_3(self, capsys, monkeypatch,
                                              tmp_path):
        """f never moves and its prior excludes b, so a restart onto f=b
        fails: the run prints the reports before it and names the time of
        the contradiction, not t=0."""
        path = tmp_path / "zero-prior.psdg"
        path.write_text(ZERO_PRIOR_TEXT)
        for lines in ([(1, {"f": ["b"]})],
                      [(1, {"f": ["a"]}), (3, {"f": ["b"]})]):
            stdin = "".join(obs_line(*line) + "\n" for line in lines)
            code, out, err = run(capsys, ["infer", str(path),
                                          "--on-zero-evidence", "reinit"],
                                 stdin, monkeypatch)
            assert code == 3
            assert [r["t"] for r in json_lines(out)] == \
                [t for t, _ in lines[:-1]]
            assert err == (f"zero evidence at t={lines[-1][0]}: the stream "
                           f"contradicts the model\n")

    @pytest.mark.parametrize("command", ["infer", "oracle-check"])
    def test_a_contradiction_reads_the_same_from_both_commands(
            self, capsys, monkeypatch, command):
        """The engine and the enumeration find the same contradiction, and
        `main` reports it one way; only infer has a report to print first."""
        stdin = obs_line(1, {"lane": ["left-lane"]}) + "\n" + \
            obs_line(2, {"lane": ["right-lane"]}) + "\n"
        code, out, err = run(capsys, [command, str(TRAFFIC_PATH)], stdin,
                             monkeypatch)
        assert code == 3
        assert err == "zero evidence at t=2: the stream contradicts the " \
                      "model\n"
        assert len(json_lines(out)) == (command == "infer")

    @pytest.mark.parametrize("command", ["infer", "oracle-check"])
    def test_a_lone_t0_line_is_checked(self, capsys, monkeypatch, tmp_path,
                                       command):
        """A stream of one t=0 line the prior cannot meet exits 3, as it
        does once a later line follows; a possible one reports nothing."""
        path = tmp_path / "zero-prior.psdg"
        path.write_text(ZERO_PRIOR_TEXT)
        code, out, err = run(capsys, [command, str(path)],
                             obs_line(0, {"f": ["b"]}) + "\n", monkeypatch)
        assert (code, out) == (3, "")
        assert err == "zero evidence at t=0\n"
        code, out, err = run(capsys, [command, str(path)],
                             obs_line(0, {"f": ["a"]}) + "\n", monkeypatch)
        assert (code, err) == (0, "")
        assert [r for r in json_lines(out) if "t" in r] == []

    def test_an_empty_value_list_is_a_located_format_error(self, capsys,
                                                          monkeypatch):
        stdin = obs_line(1, {"speed": ["slow"]}) + "\n" + \
            obs_line(2, {"lane": []}) + "\n"
        for command in ("infer", "oracle-check"):
            code, _, err = run(capsys, [command, str(TRAFFIC_PATH)], stdin,
                               monkeypatch)
            assert (code, err) == (
                2, "line 2: empty constraint for feature 'lane'\n"), command

    def test_gaps_on_a_grammar_past_the_support_bound(self, capsys,
                                                      monkeypatch, tmp_path):
        """Three 50-value features that never move make 125,000 states,
        past the default bound, but a t=0 line pins one: every belief
        holds that one state, so the gap at t=2 runs."""
        def values(f):
            return ", ".join(f"{f}{i}" for i in range(50))

        prior = ", ".join(["0.02"] * 50)
        path = tmp_path / "wide.psdg"
        path.write_text("".join(
            f"feature {f} {{ values: {values(f)}; prior: {prior}; }}\n"
            for f in "abc") + "start S\n"
            "prod 0: S -> x S { default: 0.5; }\n"
            "prod 1: S -> x { default: 0.5; }\n")
        stdin = obs_line(0, {"a": ["a3"], "b": ["b7"], "c": ["c9"]}) + \
            "\n" + obs_line(1, {"a": ["a3"]}) + "\n" + \
            obs_line(3, {"b": ["b7"]}) + "\n"
        code, out, err = run(capsys, ["infer", str(path)], stdin,
                             monkeypatch)
        assert (code, err) == (0, "")
        reports = json_lines(out)
        assert [r["t"] for r in reports] == [1, 3]
        for r in reports:
            assert r["evidence_likelihood"] == 1.0
            assert r["state"] == {"a3|b7|c9": 1.0}

    def test_malformed_stream_rejected(self, capsys, monkeypatch):
        for stdin in ("not json\n",
                      obs_line(2, {}) + "\n" + obs_line(1, {}) + "\n",
                      obs_line(1, {}) + "\n" + obs_line(0, {}) + "\n",
                      obs_line(1, {"lane": ["sidewalk"]}) + "\n",
                      obs_line(1, {"lane": 5}) + "\n",
                      obs_line(1, {"lane": None}) + "\n",
                      obs_line(1, {"sidewalk": ["left-lane"]}) + "\n",
                      obs_line(1, ["lane"]) + "\n",
                      '{"t": true}\n'):
            for command in ("infer", "oracle-check"):
                code, _, err = run(capsys, [command, str(TRAFFIC_PATH)],
                                   stdin, monkeypatch)
                assert code == 2, (command, stdin)
                assert err.startswith("line "), (command, stdin, err)

    @pytest.mark.parametrize("line, key", [
        ({"t": 3, "obs": {"lane": "left-lane"}}, "obs"),
        ({"t": 3, "observe": {"lane": "left-lane"}, "Observe": {}}, "Observe"),
        ({"time": 2, "t": 3}, "time")])
    def test_an_unknown_key_is_a_located_format_error(self, capsys,
                                                      monkeypatch, line, key):
        """A misspelled key would run the step unconstrained and lose its
        evidence, so the line exits 2 with its number instead."""
        stdin = obs_line(1, {}) + "\n" + json.dumps(line) + "\n"
        for command in ("infer", "oracle-check"):
            code, out, err = run(capsys, [command, str(TRAFFIC_PATH)],
                                 stdin, monkeypatch)
            assert code == 2, command
            assert err == f"line 2: unknown key {key!r}\n"
            assert len(json_lines(out)) == (command == "infer")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.fixed_dictionaries(
        {"t": st.integers(-1, 5) | st.booleans() | st.none()
         | st.floats(0, 5)},
        optional={"observe": st.dictionaries(_NAMES, _JSON, max_size=3)
                  | _JSON}), max_size=4))
    def test_any_observe_payload_exits_cleanly(self, lines):
        stdin = "".join(json.dumps(line) + "\n" for line in lines)
        old_stdin = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(["infer", str(TRAFFIC_PATH)])
        finally:
            sys.stdin = old_stdin
        assert code in (0, 2, 3), stdin


def sampled_lines(text, horizon, seed, opened=False):
    """The observation lines of one sampled run, as bytes; if `opened`,
    after a t = 0 line that names the run's initial state."""
    g = load_text(text)
    traj = sample_trajectory(g, horizon, seed)
    lines = list(observation_json_lines(g, traj))
    if opened:
        observe = {name: [value] for name, value
                   in g.labels(traj.initial_state.idx).items()}
        lines.insert(0, json.dumps({"t": 0, "observe": observe}))
    return [line.encode() for line in lines]


def mostly(common, rare):
    """`common` in four draws of five, else `rare`."""
    return st.integers(0, 4).flatmap(lambda i: common if i else rare)


def json_value(max_t):
    """Any JSON value, mostly an observation-shaped object: a "t", mostly
    an integer at or below `max_t`, and an optional "observe", so that
    most lines pass the key check and reach the time, `observe` and value
    checks; a few objects hold one more key."""
    leaf = (st.none() | st.booleans() | st.integers(-3, max_t) | st.floats()
            | st.text(max_size=3) | _NAMES)
    anything = st.recursive(leaf, lambda inner: st.lists(inner, max_size=3)
                            | st.dictionaries(_NAMES | st.sampled_from(
                                ("t", "observe")), inner, max_size=3),
                            max_leaves=8)
    line = st.fixed_dictionaries(
        {"t": mostly(st.integers(-3, max_t), leaf)},
        optional={"observe": st.dictionaries(
            _NAMES, st.lists(_NAMES, max_size=3) | anything, max_size=3)
            | anything})
    extra = st.builds(lambda obj, key, value: {**obj, key: value}, line,
                      _NAMES, anything)
    return mostly(line, anything | extra)


@st.composite
def mutated_stream(draw, base, max_t):
    """`base` after up to four line edits: drop, duplicate, swap,
    truncate, retime (a new "t" of at most `max_t`), splice in bytes that
    are not UTF-8, or insert a JSON value."""
    lines = list(base)
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(("drop", "dup", "swap", "truncate",
                                   "retime", "bytes", "json")))
        i = draw(st.integers(0, len(lines)))
        if op == "json" or not lines:
            value = draw(json_value(max_t))
            lines.insert(i, json.dumps(value).encode())
            continue
        i = min(i, len(lines) - 1)
        line = lines[i]
        cut = draw(st.integers(0, len(line)))
        if op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, line)
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "truncate":
            lines[i] = line[:cut]
        elif op == "retime":
            t = draw(st.integers(0, max_t))
            lines[i] = re.sub(rb'"t": -?\d+', b'"t": %d' % t, line, count=1)
        else:
            junk = draw(st.sampled_from((b"\xff", b"\xc3", b"\x80\x80",
                                         b"\xed\xa0\x80")))
            lines[i] = line[:cut] + junk + line[cut:]
    return b"".join(line + b"\n" for line in lines)


def run_bytes(argv, data):
    """Exit code and stderr of `psdg ARGV` in-process, reading `data`
    through a strict UTF-8 text stdin, as a UTF-8 locale gives."""
    old_stdin, err = sys.stdin, io.StringIO()
    sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, err.getvalue()


# (command, grammar text, horizon and seed of the sampled base stream,
# largest time, whether the base stream opens with its t = 0 line): on
# traffic a stream that reaches t = 3 takes oracle-check about two seconds
# to enumerate, so it fuzzes traffic up to t = 2, or up to 3 when a t = 0
# line cuts the walk's initial states, and the ticker grammar up to 50.
WHOLE_LINE_CASES = {
    "infer-traffic": ("infer", TRAFFIC_PATH.read_text(), 12, 7, 50, False),
    "oracle-check-traffic": ("oracle-check", TRAFFIC_PATH.read_text(),
                             2, 5, 2, False),
    "oracle-check-traffic-t0": ("oracle-check", TRAFFIC_PATH.read_text(),
                                3, 5, 3, True),
    "oracle-check-ticker": ("oracle-check", TICKER_TEXT, 20, 21, 50, False),
}


class TestWholeLines:
    @pytest.mark.parametrize("case", sorted(WHOLE_LINE_CASES))
    def test_any_line_exits_cleanly(self, case, tmp_path_factory):
        """Arbitrary JSON lines and line mutations of a sampled stream
        exit 0-3, never with a traceback, and exit 2 names the line."""
        command, text, horizon, seed, max_t, opened = WHOLE_LINE_CASES[case]
        path = tmp_path_factory.mktemp("grammar") / "g.psdg"
        path.write_text(text)
        base = sampled_lines(text, horizon, seed, opened)

        @settings(max_examples=60, deadline=None)
        @given(mutated_stream(base, max_t)
               | st.lists(json_value(max_t), max_size=4).map(
                   lambda vs: "".join(json.dumps(v) + "\n"
                                      for v in vs).encode()))
        def check(data):
            code, err = run_bytes([command, str(path)], data)
            assert code in (0, 1, 2, 3), (data, err)
            if code == 2:
                assert err.startswith("line "), (data, err)
        check()


class TestOracleCheck:
    def test_a_transition_product_that_underflows_is_skipped(
            self, capsys, monkeypatch, tmp_path):
        """Each feature's row is positive, but their product is not: the
        oracle leaves that next state out, as explain does."""
        path = tmp_path / "underflow.psdg"
        path.write_text(UNDERFLOW_TEXT)
        code, out, err = run(capsys, ["oracle-check", str(path)],
                             obs_line(1, {"a": ["y"]}) + "\n", monkeypatch)
        assert (code, err) == (0, "")
        assert json_lines(out)[-1]["ok"] is True

    def test_a_chain_probability_that_underflows_is_skipped(
            self, capsys, monkeypatch, tmp_path):
        """A fresh chain whose product is 0.0 is no chain: the oracle
        leaves it out, as the engine's chart does."""
        path = tmp_path / "chain-underflow.psdg"
        path.write_text(CHAIN_UNDERFLOW_TEXT)
        code, out, err = run(capsys, ["oracle-check", str(path)],
                             obs_line(1, {"f": ["a"]}) + "\n", monkeypatch)
        assert (code, err) == (0, "")
        assert json_lines(out)[-1]["ok"] is True

    def test_agreement_on_single_state_grammar(self, capsys, monkeypatch,
                                               ab_path):
        stdin = obs_line(1, {}) + "\n"
        code, out, _ = run(capsys, ["oracle-check", ab_path],
                           stdin, monkeypatch)
        assert code == 0
        final = json_lines(out)[-1]
        assert final["ok"] is True
        assert final["reports"] == 1
        assert final["max_deviation"] <= 1e-9

    def test_agreement_on_traffic(self, capsys, monkeypatch):
        g = traffic()
        traj = sample_trajectory(g, horizon=2, seed=3)
        stdin = "\n".join(observation_json_lines(g, traj)) + "\n"
        code, out, _ = run(capsys, ["oracle-check", str(TRAFFIC_PATH)],
                           stdin, monkeypatch)
        assert code == 0
        assert json_lines(out)[-1]["ok"] is True

    def test_corruption_is_detected(self, capsys, monkeypatch, ab_path):
        stdin = obs_line(1, {}) + "\n"
        code, out, err = run(capsys, ["oracle-check", ab_path,
                                      "--corrupt-belief"],
                             stdin, monkeypatch)
        assert code == 1
        final = json_lines(out)[-1]
        assert final["ok"] is False
        assert final["max_deviation"] > 1e-9
        assert err

    def test_corruption_is_detected_on_a_pruned_belief(self, capsys,
                                                       monkeypatch):
        """lane = right-lane at t=1 leaves the left-lane initial states out
        of the first belief, and the skewed belief is still caught."""
        dropped = []

        def spy(*args):
            belief = init_belief(*args)
            dropped.append(belief.dropped)
            return belief
        monkeypatch.setattr("psdg.cli.init_belief", spy)
        stdin = obs_line(1, {"lane": ["right-lane"]}) + "\n"
        code, out, err = run(capsys, ["oracle-check", str(TRAFFIC_PATH),
                                      "--corrupt-belief"],
                             stdin, monkeypatch)
        assert dropped == [pytest.approx(0.2)]
        assert code == 1
        final = json_lines(out)[-1]
        assert final["ok"] is False
        assert final["max_deviation"] > 1e-9
        assert err

    def test_corruption_report_does_not_follow_the_hash_seed(self):
        g = traffic()
        traj = sample_trajectory(g, horizon=2, seed=3)
        stdin = "\n".join(observation_json_lines(g, traj)) + "\n"
        root = Path(__file__).resolve().parents[1]
        errs = set()
        for seed in ("1", "2", "3"):
            proc = subprocess.run(
                [sys.executable, "-m", "psdg", "oracle-check",
                 "src/psdg/data/traffic.psdg", "--corrupt-belief"],
                input=stdin, capture_output=True, text=True, cwd=root,
                env={**os.environ, "PYTHONPATH": "src",
                     "PYTHONHASHSEED": seed})
            assert proc.returncode == 1, proc.stderr
            errs.add(proc.stderr)
        (err,) = errs
        assert err.count("\n") > 2

    def test_empty_stream(self, capsys, monkeypatch, ab_path):
        code, out, _ = run(capsys, ["oracle-check", ab_path], "",
                           monkeypatch)
        assert code == 0
        assert json_lines(out)[-1] == {
            "max_deviation": 0.0, "reports": 0, "ok": True}


class TestToPcfg:
    def test_single_state_keeps_production_count(self, capsys, ab_path):
        code, out, err = run(capsys, ["to-pcfg", ab_path])
        assert code == 0
        assert "# start" in out and "->" in out
        assert "productions: 2" in err

    def test_out_file_matches_stdout(self, capsys, tmp_path, ab_path):
        _, piped, _ = run(capsys, ["to-pcfg", ab_path])
        target = tmp_path / "ab-pcfg.txt"
        code, out, _ = run(capsys, ["to-pcfg", ab_path,
                                    "--out", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text() == piped

    def test_out_into_a_missing_directory_is_an_io_error(self, capsys,
                                                         tmp_path, ab_path):
        target = tmp_path / "missing" / "ab-pcfg.txt"
        code, out, err = run(capsys, ["to-pcfg", ab_path,
                                      "--out", str(target)])
        assert (code, out) == (2, "")
        assert err.startswith(f"cannot write {target}: ")
        assert err.count("\n") == 1
        assert not target.parent.exists()

    def test_traffic_stays_under_tuple_bound(self, capsys):
        code, _, err = run(capsys, ["to-pcfg", str(TRAFFIC_PATH), "--out",
                                    "/dev/null"])
        assert code == 0
        ratio = float(err.rsplit("ratio:", 1)[1])
        assert 0.0 < ratio < 1.0


    def test_factored_state_stops_at_the_production_bound(self):
        """512 states give far fewer tuple symbols than PCFG_BOUND but
        8.4M productions; the production bound stops the export with its
        message well inside a 1.5 GB address space."""
        root = Path(__file__).resolve().parents[1]
        script = (
            "import resource, sys\n"
            "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, hard))\n"
            "from psdg.cli import main\n"
            "sys.exit(main(['to-pcfg', sys.argv[1]]))\n")
        proc = subprocess.run([sys.executable, "-c", script,
                               "tests/golden/factored-state.psdg"],
                              capture_output=True, text=True, cwd=root,
                              env={**os.environ, "PYTHONPATH": "src"})
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (f"converted grammar exceeds bound "
                               f"{PCFG_PRODUCTION_BOUND} on productions\n")
        assert "out of memory" not in proc.stderr


class TestMain:
    @pytest.mark.parametrize("argv, option", [
        (["sample", "--horizon", "0"], "--horizon"),
        (["sample", "--horizon", "-1"], "--horizon"),
        (["sample", "--count", "0"], "--count"),
        (["sample", "--count", "-1"], "--count"),
        (["infer", "--support-bound", "0"], "--support-bound"),
        (["infer", "--support-bound", "-5"], "--support-bound"),
        (["oracle-check", "--support-bound", "0"], "--support-bound"),
    ])
    def test_counts_below_one_are_usage_errors(self, capsys, argv, option):
        """A horizon, count or support bound below 1 is refused as a usage
        error naming the option, before any grammar is read."""
        with pytest.raises(SystemExit) as e:
            main([argv[0], str(TRAFFIC_PATH), *argv[1:]])
        err = capsys.readouterr().err
        assert e.value.code == 2
        assert f"argument {option}: expected a positive integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["--help"], ["infer", "--help"], ["oracle-check", "--help"], [],
        ["infer"], ["nope"], ["sample", "g", "--count", "0"],
        ["infer", "g", "--on-zero-evidence", "retry"]])
    def test_the_one_parser_reads_as_a_fresh_one(self, capsys, argv):
        """main builds its parser once; help and usage errors through it
        are byte for byte those of a freshly built parser."""
        assert build_parser() is build_parser()
        outputs = []
        for parse in (main, build_parser.__wrapped__().parse_args):
            with pytest.raises(SystemExit) as e:
                parse(argv)
            outputs.append((e.value.code, *capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] in (0, 2)

    def test_memory_error_is_one_line(self, capsys, monkeypatch):
        def exhausted(psdg):
            raise MemoryError
        monkeypatch.setattr("psdg.oracle.to_pcfg", exhausted)
        code, out, err = run(capsys, ["to-pcfg", str(TRAFFIC_PATH)])
        assert code == 1
        assert out == ""
        assert err == "to-pcfg: out of memory\n"

    @pytest.mark.parametrize("command, target", [
        ("infer", "psdg.cli.recognize"),
        ("oracle-check", "psdg.oracle.streamed_reports")],
        ids=["infer", "oracle-check"])
    def test_recursion_limit_is_one_line(self, capsys, monkeypatch, command,
                                         target):
        """Input nested past the interpreter's recursion limit ends the
        run in one line, not a traceback."""
        def nested(*args, **kwargs):
            raise RecursionError
        monkeypatch.setattr(target, nested)
        code, out, err = run(capsys, [command, str(TRAFFIC_PATH)],
                             '{"t": 1}\n', monkeypatch)
        assert (code, out) == (1, "")
        assert err == (f"{command}: input nested past the interpreter's "
                       f"recursion limit\n")

    @pytest.mark.parametrize("command, text, stdin", [
        ("infer", nest_text(1200, "N{}", "x"), '{"t": 1}\n'),
        ("oracle-check", "feature f { values: a; prior: 1; }\nstart S\n"
                         "prod 0: S -> x S { default: 1; }\n",
         "".join(f'{{"t": {t}}}\n' for t in range(1, 1201)))],
        ids=["infer", "oracle-check"])
    def test_deep_input_runs(self, tmp_path, command, text, stdin):
        """A derivation 1,200 levels deep (infer's fresh chains) and a
        1,200-step stream (the oracle's walk) nest past the interpreter's
        recursion limit; both walks keep their own stacks, so both run."""
        path = tmp_path / "deep.psdg"
        path.write_text(text)
        proc = module_run([command, str(path)], stdin)
        assert (proc.returncode, proc.stderr) == (0, "")
        last = json.loads(proc.stdout.splitlines()[-1])
        if command == "infer":
            assert last["t"] == 1 and last["evidence_likelihood"] == 1.0
        else:
            assert (last["ok"], last["reports"]) == (True, 1200)

    @pytest.mark.parametrize("command", ["infer", "oracle-check"])
    def test_deeply_nested_json_is_a_format_error(self, command):
        """A JSON line nested past the decoder's recursion limit is a
        located format error, exit 2, not a traceback."""
        proc = module_run([command, str(TRAFFIC_PATH)],
                          "[" * 100_000 + "]" * 100_000 + "\n")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "line 1: invalid JSON: nested too deeply\n"


def module_run(argv, stdin):
    """`python -m psdg` with `argv`, run from the repository root."""
    root = Path(__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-m", "psdg", *argv], input=stdin,
                          capture_output=True, text=True, cwd=root,
                          env={**os.environ, "PYTHONPATH": "src"})


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(["psdg", "validate", str(TRAFFIC_PATH)],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["states"] == 18

    def test_module_runs(self):
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "psdg", "validate",
             "src/psdg/data/traffic.psdg"],
            capture_output=True, text=True, cwd=root,
            env={**os.environ, "PYTHONPATH": "src"})
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["states"] == 18

    def test_a_reader_that_stops_early_is_not_an_error(self):
        """A closed stdout ends `sample` with exit 0 and a quiet stderr,
        not a traceback or a complaint from the shutdown flush."""
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.Popen(
            [sys.executable, "-m", "psdg", "sample", str(TRAFFIC_PATH),
             "--count", "3000"], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, cwd=root,
            env={**os.environ, "PYTHONPATH": "src"})
        assert json.loads(proc.stdout.readline())["seed"] == 0
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (0, b"")

    def test_infer_does_not_import_numpy(self):
        """Only to-pcfg needs numpy, so an infer run leaves it out of the
        process (and out of every cyclic-GC sweep of its heap)."""
        root = Path(__file__).resolve().parents[1]
        script = (
            "import io, sys\n"
            "from psdg.cli import main\n"
            "sys.stdin = io.StringIO('{\"t\": 1}\\n{\"t\": 2}\\n')\n"
            "code = main(['infer', 'src/psdg/data/traffic.psdg'])\n"
            "print('numpy', code, 'numpy' in sys.modules, file=sys.stderr)\n"
            "main(['to-pcfg', 'src/psdg/data/traffic.psdg'])\n"
            "print('numpy', 'numpy' in sys.modules, file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, cwd=root,
                              env={**os.environ, "PYTHONPATH": "src"})
        assert proc.returncode == 0, proc.stderr
        noted = [line for line in proc.stderr.splitlines()
                 if line.startswith("numpy ")]
        assert noted == ["numpy 0 False", "numpy True"]

    def test_infer_does_not_import_the_oracle(self):
        """Only oracle-check and to-pcfg use the oracle, so an infer run
        neither imports nor compiles it."""
        root = Path(__file__).resolve().parents[1]
        script = (
            "import io, sys\n"
            "from psdg.cli import main\n"
            "sys.stdin = io.StringIO('{\"t\": 1}\\n{\"t\": 2}\\n')\n"
            "code = main(['infer', 'src/psdg/data/traffic.psdg'])\n"
            "print('oracle', code, 'psdg.oracle' in sys.modules,\n"
            "      file=sys.stderr)\n"
            "sys.stdin = io.StringIO('{\"t\": 1}\\n')\n"
            "main(['oracle-check', 'src/psdg/data/traffic.psdg'])\n"
            "print('oracle', 'psdg.oracle' in sys.modules, file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-B", "-c", script],
                              capture_output=True, text=True, cwd=root,
                              env={**os.environ, "PYTHONPATH": "src"})
        assert proc.returncode == 0, proc.stderr
        noted = [line for line in proc.stderr.splitlines()
                 if line.startswith("oracle ")]
        assert noted == ["oracle 0 False", "oracle True"]
