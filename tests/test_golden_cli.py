"""Byte-for-byte CLI outputs at fixed arguments: the golden corpus.

Each file under `golden_cli/` holds the exact stdout of one `montmort`
command, so an engine change that alters any printed figure, label, number
format or line ending shows up here, not only in the figures the other
tests compare as Fractions. Each case also pins the command's exit code:
a simulation whose estimate misses its exact target exits 1, and the
parsers `main` builds: only the command's leaf parser. The bytes are UTF-8
whatever encoding the environment asks stdout for.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from itertools import takewhile
from pathlib import Path

import pytest

from montmort import pool
from montmort.cli import main
from oracles import read_rational

GOLDEN_DIR = Path(__file__).resolve().parent / "golden_cli"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

_PAUL_7_HOLD = [
    "leher", "conditional", "--player", "paul", "--card", "7", "--action", "hold",
    "--pierre", "threshold:8",
]
_PIERRE_8_DRAW = [
    "leher", "conditional", "--player", "pierre", "--card", "8", "--action", "draw",
    "--paul", "threshold:6",
]
_VALUE_3_5_5_3 = ["leher", "value", "--a", "3", "--b", "5", "--c", "5", "--d", "3"]
_POOL_STREAK_1 = [
    "pool", "solve", "--players", "4", "--p", "2/3", "--streak", "1",
    "--ante", "3/2", "--fee", "1/4",
]
_POOL_STREAK_9 = [
    "pool", "solve", "--players", "4", "--p", "2/3", "--streak", "9",
    "--ante", "3/2", "--fee", "1/4",
]
_POOL_STREAK_25 = ["pool", "solve", "--players", "3", "--p", "999/1000", "--streak", "25"]
_POOL_SIM_3 = ["pool", "simulate", "--players", "3", "--seed", "42"]
_POOL_SIM_3_CAP_2 = [*_POOL_SIM_3, "--trials", "50", "--max-games", "2"]
_SIM_LEHER_17 = [
    "simulate", "leher", "--a", "3", "--b", "5", "--c", "5", "--d", "3", "--seed", "17",
]
_JSON = ["--format", "json"]
_CSV = ["--format", "csv"]

# file name -> (exit code, argv)
CASES = {
    "reproduce.txt": (0, ["reproduce"]),
    "reproduce.json": (0, ["reproduce", *_JSON]),
    "reproduce.csv": (0, ["reproduce", *_CSV]),
    "leher_table.txt": (0, ["leher", "table"]),
    "leher_table.json": (0, ["leher", "table", *_JSON]),
    "leher_table.csv": (0, ["leher", "table", *_CSV]),
    "leher_table_all_thresholds.txt": (0, ["leher", "table", "--all-thresholds"]),
    "leher_table_all_thresholds.json": (0, ["leher", "table", "--all-thresholds", *_JSON]),
    "leher_table_all_thresholds.csv": (0, ["leher", "table", "--all-thresholds", *_CSV]),
    "leher_solve.txt": (0, ["leher", "solve"]),
    "leher_solve.json": (0, ["leher", "solve", *_JSON]),
    "leher_solve.csv": (0, ["leher", "solve", *_CSV]),
    "leher_solve_all_thresholds.txt": (0, ["leher", "solve", "--all-thresholds"]),
    "leher_solve_all_thresholds.json": (0, ["leher", "solve", "--all-thresholds", *_JSON]),
    "leher_solve_all_thresholds.csv": (0, ["leher", "solve", "--all-thresholds", *_CSV]),
    "leher_conditional_paul_7_hold.txt": (0, _PAUL_7_HOLD),
    "leher_conditional_paul_7_hold.json": (0, [*_PAUL_7_HOLD, *_JSON]),
    "leher_conditional_paul_7_hold.csv": (0, [*_PAUL_7_HOLD, *_CSV]),
    "leher_conditional_pierre_8_draw.txt": (0, _PIERRE_8_DRAW),
    "leher_conditional_pierre_8_draw.json": (0, [*_PIERRE_8_DRAW, *_JSON]),
    "leher_conditional_pierre_8_draw.csv": (0, [*_PIERRE_8_DRAW, *_CSV]),
    "leher_value_3_5_5_3.txt": (0, _VALUE_3_5_5_3),
    "leher_value_3_5_5_3.json": (0, [*_VALUE_3_5_5_3, *_JSON]),
    "leher_value_3_5_5_3.csv": (0, [*_VALUE_3_5_5_3, *_CSV]),
    "pool_solve_3.txt": (0, ["pool", "solve", "--players", "3"]),
    "pool_solve_3.json": (0, ["pool", "solve", "--players", "3", *_JSON]),
    "pool_solve_3.csv": (0, ["pool", "solve", "--players", "3", *_CSV]),
    "pool_solve_5_stakes.json": (0, [
        "pool", "solve", "--players", "5", "--p", "2/5", "--streak", "3",
        "--ante", "3/2", "--fee", "1/4", *_JSON,
    ]),
    # More streak levels than seats.
    "pool_solve_3_streak_4.json": (0, [
        "pool", "solve", "--players", "3", "--p", "3/4", "--streak", "4", *_JSON,
    ]),
    # Game one decides the pool; two seats only watch.
    "pool_solve_4_streak_1.txt": (0, _POOL_STREAK_1),
    "pool_solve_4_streak_1.json": (0, [*_POOL_STREAK_1, *_JSON]),
    "pool_solve_4_streak_1.csv": (0, [*_POOL_STREAK_1, *_CSV]),
    # Ten streak levels under the default streak.
    "pool_solve_12.json": (0, ["pool", "solve", "--players", "12", "--p", "1/3", *_JSON]),
    # The largest pools: the coupled right-hand side carries the biggest
    # denominators the linear solve meets.
    "pool_solve_30_stakes.json": (0, [
        "pool", "solve", "--players", "30", "--p", "1/3", "--ante", "3/2", "--fee", "5/7",
        *_JSON,
    ]),
    "pool_solve_20_streak_10.json": (0, [
        "pool", "solve", "--players", "20", "--p", "2/5", "--streak", "10",
        "--ante", "3/2", "--fee", "1/4", *_JSON,
    ]),
    # Win paths longer than the table: eight and 24 steps.
    "pool_solve_4_streak_9_stakes.txt": (0, _POOL_STREAK_9),
    "pool_solve_4_streak_9_stakes.json": (0, [*_POOL_STREAK_9, *_JSON]),
    "pool_solve_4_streak_9_stakes.csv": (0, [*_POOL_STREAK_9, *_CSV]),
    "pool_solve_3_streak_25.txt": (0, _POOL_STREAK_25),
    "pool_solve_3_streak_25.json": (0, [*_POOL_STREAK_25, *_JSON]),
    "pool_solve_3_streak_25.csv": (0, [*_POOL_STREAK_25, *_CSV]),
    "pool_simulate_3_seed_42.txt": (0, [*_POOL_SIM_3, "--trials", "2000"]),
    "pool_simulate_3_seed_42.json": (0, [*_POOL_SIM_3, "--trials", "2000", *_JSON]),
    "pool_simulate_3_seed_42.csv": (0, [*_POOL_SIM_3, "--trials", "2000", *_CSV]),
    # One trial: every frequency is 0 or 1 with sigma 0, so every seat fails.
    "pool_simulate_3_seed_42_trials_1.txt": (1, [*_POOL_SIM_3, "--trials", "1"]),
    "pool_simulate_3_seed_42_trials_1.json": (1, [*_POOL_SIM_3, "--trials", "1", *_JSON]),
    "pool_simulate_3_seed_42_trials_1.csv": (1, [*_POOL_SIM_3, "--trials", "1", *_CSV]),
    # Two games cap every trial: seat 3 can never win, the capped trials
    # are counted as truncated, and any truncated trial fails every seat.
    "pool_simulate_3_seed_42_max_games_2.txt": (1, _POOL_SIM_3_CAP_2),
    "pool_simulate_3_seed_42_max_games_2.json": (1, [*_POOL_SIM_3_CAP_2, *_JSON]),
    "pool_simulate_3_seed_42_max_games_2.csv": (1, [*_POOL_SIM_3_CAP_2, *_CSV]),
    "etrennes_solve.txt": (0, ["etrennes", "solve"]),
    "etrennes_solve.json": (0, ["etrennes", "solve", *_JSON]),
    "etrennes_solve.csv": (0, ["etrennes", "solve", *_CSV]),
    "etrennes_solve_7_3_5.json": (0, ["etrennes", "solve", "--even", "7/3", "--odd", "5", *_JSON]),
    "simulate_leher_seed_17.txt": (0, [*_SIM_LEHER_17, "--trials", "2000"]),
    "simulate_leher_seed_17.json": (0, [*_SIM_LEHER_17, "--trials", "2000", *_JSON]),
    "simulate_leher_seed_17.csv": (0, [*_SIM_LEHER_17, "--trials", "2000", *_CSV]),
    "simulate_leher_seed_17_trials_1.txt": (1, [*_SIM_LEHER_17, "--trials", "1"]),
    "simulate_leher_seed_17_trials_1.json": (1, [*_SIM_LEHER_17, "--trials", "1", *_JSON]),
    "simulate_leher_seed_17_trials_1.csv": (1, [*_SIM_LEHER_17, "--trials", "1", *_CSV]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys, built_parsers):
    code, argv = CASES[name]
    assert main(argv) == code
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN_DIR / name).read_bytes()
    path = takewhile(lambda token: not token.startswith("-"), argv)
    assert built_parsers == [" ".join(["montmort", *path])]


@pytest.mark.parametrize("name", sorted(CASES))
def test_text_stream_matches_golden(name):
    """A stdout with no `buffer`, such as an `io.StringIO`, gets the golden text."""
    code, argv = CASES[name]
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert main(argv) == code
    assert stdout.getvalue().encode("utf-8") == (GOLDEN_DIR / name).read_bytes()


def test_figures_past_the_int_string_limit_print(capsys):
    """A solved pool prints figures longer than CPython's `str` limit in every format."""
    argv = ["pool", "solve", "--players", "10", "--streak", "1000"]
    outputs = {}
    for fmt in ("text", "json", "csv"):
        assert main([*argv, "--format", fmt]) == 0
        out, err = capsys.readouterr()
        assert "set_int_max_str_digits" not in out + err
        outputs[fmt] = out
    payload = json.loads(outputs["json"])
    games = payload["expected_games"]
    solution = pool.pool_solve(pool.PoolConfig(players=10, streak_required=1000))
    assert read_rational(games["exact"]) == solution.expected_games
    for figure in ("win_prob", "expected_payment", "expected_net"):
        exact = [seat[figure]["exact"] for seat in payload["seats"]]
        assert list(map(read_rational, exact)) == list(getattr(solution, figure))
    net = payload["seats"][0]["expected_net"]["exact"]
    assert max(map(len, net.split("/"))) > 4_300
    assert outputs["text"].startswith(f"expected games: {games['exact']} ≈ {games['decimal']}\n")
    assert f"\r\nexpected_games,{games['exact']},,\r\n" in outputs["csv"]


def test_lowest_int_string_limit_prints_the_same_bytes(capsys):
    """Under the lowest limit CPython accepts, 640 digits, a 1,414-digit figure still prints."""
    argv = ["pool", "solve", "--players", "3", "--p", "1/1000000000", "--streak", "40"]
    assert main(argv) == 0
    expected = capsys.readouterr().out.encode("utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR), PYTHONINTMAXSTRDIGITS="640")
    run = subprocess.run([sys.executable, "-m", "montmort.cli", *argv], env=env, capture_output=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, expected, b"")
    assert max(map(len, expected.split())) > 1_000


_LONG_DIGITS = "3" * 700  # past the lowest int-string limit, within MAX_DIGITS


@pytest.mark.parametrize("argv, echoed", [
    (["pool", "solve", "--players", "3", "--p", f"1/{_LONG_DIGITS}"], ()),
    (["pool", "simulate", "--players", "3", "--seed", _LONG_DIGITS, "--trials", "100"],
     ("text", "json")),
    (["simulate", "leher", "--a", "3", "--b", "5", "--c", "5", "--d", "3",
      "--seed", _LONG_DIGITS, "--trials", "100"], ("json", "csv")),
])
def test_long_arguments_read_under_the_lowest_int_string_limit(argv, echoed):
    """A 700-digit argument is read, and a 700-digit seed echoed, under a 640-digit limit."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = str(SRC_DIR)
    for fmt in ("text", "json", "csv"):
        command = [sys.executable, "-m", "montmort.cli", *argv, "--format", fmt]
        plain = subprocess.run(command, env=env, capture_output=True)
        limited = subprocess.run(command, env=dict(env, PYTHONINTMAXSTRDIGITS="640"),
                                 capture_output=True)
        assert (limited.returncode, limited.stdout) == (plain.returncode, plain.stdout)
        assert plain.returncode in (0, 1) and plain.stderr == limited.stderr == b""
        assert (_LONG_DIGITS.encode() in plain.stdout) == (fmt in echoed)


@pytest.mark.parametrize("argv", [
    ["pool", "solve", "--players", _LONG_DIGITS],
    ["pool", "solve", "--players", "3", "--streak", _LONG_DIGITS],
    ["pool", "solve", "--players", "3", "--p", _LONG_DIGITS],
    ["pool", "simulate", "--players", "3", "--seed", "1", "--trials", _LONG_DIGITS],
    ["pool", "simulate", "--players", "3", "--p", f"1/{_LONG_DIGITS}", "--seed", "1",
     "--trials", "1"],
    ["simulate", "leher", "--a", "1", "--b", "1", "--c", "1", "--d", "1", "--seed", "1",
     "--trials", _LONG_DIGITS],
    ["simulate", "leher", "--a", f"1/{_LONG_DIGITS}", "--b", "1", "--c", "1", "--d", "1",
     "--seed", "1", "--trials", "1"],
    ["etrennes", "solve", "--even", f"-{_LONG_DIGITS}"],
    ["leher", "conditional", "--player", "paul", "--card", _LONG_DIGITS, "--action", "hold"],
], ids=["players", "streak", "p", "pool-trials", "pool-bound", "leher-trials", "leher-bound",
        "prize", "card"])
def test_refusals_echo_long_numbers_under_the_lowest_int_string_limit(argv):
    """A refusal writes a 700-digit number by `_digits`: the int-string limit changes no byte."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = str(SRC_DIR)
    command = [sys.executable, "-m", "montmort.cli", *argv]
    plain = subprocess.run(command, env=env, capture_output=True)
    assert (plain.returncode, plain.stdout) == (2, b"")
    assert plain.stderr.startswith(b"montmort: error: ")
    assert b"Exceeds the limit" not in plain.stderr
    if hasattr(sys, "get_int_max_str_digits"):
        limited = subprocess.run(command, env=dict(env, PYTHONINTMAXSTRDIGITS="640"),
                                 capture_output=True)
        assert (limited.returncode, limited.stdout, limited.stderr) == (2, b"", plain.stderr)


@pytest.mark.parametrize("name", ["leher_value_3_5_5_3.txt", "pool_solve_3.txt"])
def test_stdout_is_utf8_under_an_ascii_stream_encoding(name):
    code, argv = CASES[name]
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR), PYTHONIOENCODING="ascii")
    command = [sys.executable, "-m", "montmort.cli", *argv]
    run = subprocess.run(command, env=env, capture_output=True)
    golden = (GOLDEN_DIR / name).read_bytes()
    assert (run.returncode, run.stdout, run.stderr) == (code, golden, b"")


def test_fresh_process_imports_no_typing():
    """A fresh interpreter loads the engine and prints a golden without `typing`.

    `site` is off (-S) because some installs' .pth files import `typing`
    before any user code runs.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    probe = "import sys, montmort.cli; print('typing' in sys.modules)"
    run = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, b"False\n", b"")
    argv = [sys.executable, "-S", "-m", "montmort.cli", "reproduce", "--format", "json"]
    run = subprocess.run(argv, env=env, capture_output=True)
    assert run.returncode == 0
    assert run.stdout == (GOLDEN_DIR / "reproduce.json").read_bytes()


# golden -> the engine modules and output writers, beyond `montmort`, `.cli`
# and `.rational`, that a fresh process running its command loads
_COMMAND_MODULES = {
    "leher_table.txt": {"leher", "solver"},
    "leher_solve.txt": {"leher", "solver"},
    "leher_conditional_pierre_8_draw.txt": {"leher", "solver"},
    "leher_value_3_5_5_3.txt": {"leher", "solver"},
    "pool_solve_3.txt": {"pool"},
    "pool_solve_3.json": {"pool", "json"},
    "pool_solve_3.csv": {"pool", "csv"},
    "pool_simulate_3_seed_42.txt": {"montecarlo", "pool"},
    "etrennes_solve.txt": {"etrennes", "solver"},
    "simulate_leher_seed_17.txt": {"leher", "montecarlo", "solver"},
    "reproduce.txt": {"leher", "report", "solver"},
}


@pytest.mark.parametrize("name", sorted(_COMMAND_MODULES))
def test_each_command_loads_only_its_modules(name):
    """A fresh `python -S` process running one command imports only what that command runs."""
    code, argv = CASES[name]
    probe = (
        "import sys, montmort.cli\n"
        f"code = montmort.cli.main({argv!r})\n"
        "loaded = [m for m in sys.modules if m.startswith('montmort.') or m in ('csv', 'json')]\n"
        "print(' '.join(sorted(loaded)), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    run = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True)
    expected = {"cli", "rational", *_COMMAND_MODULES[name]}
    loaded = {m.removeprefix("montmort.") for m in run.stderr.decode().split()}
    assert (run.returncode, loaded) == (code, expected)
    assert run.stdout == (GOLDEN_DIR / name).read_bytes()
