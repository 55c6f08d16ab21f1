"""Byte-for-byte CLI outputs at fixed arguments: the golden corpus.

Each file under `golden_cli/` holds the exact stdout of one `montmort`
command, so an engine change that alters any printed figure, label, number
format or line ending shows up here, not only in the figures the other
tests compare as Fractions.
"""

from pathlib import Path

import pytest

from montmort.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden_cli"

CASES = {
    "reproduce.txt": ["reproduce"],
    "reproduce.json": ["reproduce", "--format", "json"],
    "reproduce.csv": ["reproduce", "--format", "csv"],
    "leher_table.json": ["leher", "table", "--format", "json"],
    "leher_table.csv": ["leher", "table", "--format", "csv"],
    "leher_table_all_thresholds.json": ["leher", "table", "--all-thresholds", "--format", "json"],
    "leher_table_all_thresholds.csv": ["leher", "table", "--all-thresholds", "--format", "csv"],
    "leher_solve.json": ["leher", "solve", "--format", "json"],
    "leher_solve.csv": ["leher", "solve", "--format", "csv"],
    "leher_solve_all_thresholds.json": ["leher", "solve", "--all-thresholds", "--format", "json"],
    "leher_solve_all_thresholds.csv": ["leher", "solve", "--all-thresholds", "--format", "csv"],
    "leher_conditional_paul_7_hold.json": [
        "leher", "conditional", "--player", "paul", "--card", "7", "--action", "hold",
        "--pierre", "threshold:8", "--format", "json",
    ],
    "leher_conditional_pierre_8_draw.json": [
        "leher", "conditional", "--player", "pierre", "--card", "8", "--action", "draw",
        "--paul", "threshold:6", "--format", "json",
    ],
    "leher_value_3_5_5_3.txt": ["leher", "value", "--a", "3", "--b", "5", "--c", "5", "--d", "3"],
    "pool_solve_3.txt": ["pool", "solve", "--players", "3"],
    "pool_solve_3.json": ["pool", "solve", "--players", "3", "--format", "json"],
    "pool_solve_3.csv": ["pool", "solve", "--players", "3", "--format", "csv"],
    "pool_solve_5_stakes.json": [
        "pool", "solve", "--players", "5", "--p", "2/5", "--streak", "3",
        "--ante", "3/2", "--fee", "1/4", "--format", "json",
    ],
    # More streak levels than seats.
    "pool_solve_3_streak_4.json": [
        "pool", "solve", "--players", "3", "--p", "3/4", "--streak", "4", "--format", "json",
    ],
    # Ten streak levels under the default streak.
    "pool_solve_12.json": ["pool", "solve", "--players", "12", "--p", "1/3", "--format", "json"],
    "pool_simulate_3_seed_42.txt": [
        "pool", "simulate", "--players", "3", "--seed", "42", "--trials", "2000",
    ],
    "pool_simulate_3_seed_42.json": [
        "pool", "simulate", "--players", "3", "--seed", "42", "--trials", "2000",
        "--format", "json",
    ],
    "pool_simulate_3_seed_42.csv": [
        "pool", "simulate", "--players", "3", "--seed", "42", "--trials", "2000",
        "--format", "csv",
    ],
    "etrennes_solve.txt": ["etrennes", "solve"],
    "etrennes_solve.json": ["etrennes", "solve", "--format", "json"],
    "etrennes_solve.csv": ["etrennes", "solve", "--format", "csv"],
    "etrennes_solve_7_3_5.json": [
        "etrennes", "solve", "--even", "7/3", "--odd", "5", "--format", "json",
    ],
    "simulate_leher_seed_17.txt": [
        "simulate", "leher", "--a", "3", "--b", "5", "--c", "5", "--d", "3",
        "--seed", "17", "--trials", "2000",
    ],
    "simulate_leher_seed_17.json": [
        "simulate", "leher", "--a", "3", "--b", "5", "--c", "5", "--d", "3",
        "--seed", "17", "--trials", "2000", "--format", "json",
    ],
    "simulate_leher_seed_17.csv": [
        "simulate", "leher", "--a", "3", "--b", "5", "--c", "5", "--d", "3",
        "--seed", "17", "--trials", "2000", "--format", "csv",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN_DIR / name).read_bytes()
