"""Byte-for-byte CLI outputs at fixed arguments: the golden corpus.

Each file under `golden_cli/` holds the exact stdout of one `montmort`
command, so an engine change that alters any printed figure, label, number
format or line ending shows up here, not only in the figures the other
tests compare as Fractions. Each case also pins the command's exit code:
a simulation whose estimate misses its exact target exits 1, and the
parsers `main` builds: only the top, group and leaf parsers on the
command's path.
"""

import os
import subprocess
import sys
from itertools import takewhile
from pathlib import Path

import pytest

from montmort.cli import main

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
    path = list(takewhile(lambda token: not token.startswith("-"), argv))
    assert built_parsers == [" ".join(["montmort", *path[:depth]]) for depth in range(len(path) + 1)]


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
