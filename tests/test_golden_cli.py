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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN_DIR / name).read_bytes()
