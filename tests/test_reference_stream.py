"""The simulation stream checked outside Python, against the goldens.

`tests/reference_stream.c` is written from README "Randomness", not from
`montecarlo.py`: the xorshift-star step, the rejection rule, the draw order
of a Le Her trial and the pool's queue. It prints first draws for a few
seeds and bounds, then the counts behind the simulation goldens.
`expected_output()` builds the same lines from the CLI goldens, the frozen
runs of `test_montecarlo.py` and the Python stream. CI compiles the C with
warnings as errors and compares; run this file as a script to print the
expected lines:

    cc -std=c11 -O2 -Wall -Werror -o reference_stream tests/reference_stream.c
    ./reference_stream | diff - <(PYTHONPATH=src python tests/test_reference_stream.py)
"""

from __future__ import annotations

import json
import shutil
import subprocess
from fractions import Fraction
from pathlib import Path

import pytest

from montmort.montecarlo import MASK64, RandomStream
from montmort.pool import DEFAULT_TRIAL_GAME_CAP, PoolConfig
from test_montecarlo import GOLDEN_LEHER, GOLDEN_POOL

SOURCE = Path(__file__).with_name("reference_stream.c")
GOLDEN_DIR = Path(__file__).with_name("golden_cli")
CC_FLAGS = ["-std=c11", "-O2", "-Wall", "-Werror"]

# (seed, bound) of the first draws the C prints. The first raw output of
# 12165231662994148584 is 2**64 - 1 and that of 12510806886520960570 is
# 2**64 - 16 (`oracles.seed_with_output`), so their first draws below 3,
# 51, 52 and 50 are rejected.
DRAWS = [
    (42, 52), (0, 2**64),
    (12165231662994148584, 3), (12165231662994148584, 51), (12165231662994148584, 2**64),
    (12510806886520960570, 52), (12510806886520960570, 50),
]
# CLI goldens of `simulate leher --a 3 --b 5 --c 5 --d 3`, and of
# `pool simulate --players 3` with each run's game cap.
LEHER_GOLDENS = ["simulate_leher_seed_17.json", "simulate_leher_seed_17_trials_1.json"]
POOL_GOLDENS = [
    ("pool_simulate_3_seed_42.json", DEFAULT_TRIAL_GAME_CAP),
    ("pool_simulate_3_seed_42_trials_1.json", DEFAULT_TRIAL_GAME_CAP),
    ("pool_simulate_3_seed_42_max_games_2.json", 2),
]


def _count(frequency: str, trials: int) -> int:
    count = Fraction(frequency) * trials
    assert count.denominator == 1
    return count.numerator


def _leher_line(weights, seed: int, trials: int, wins: int) -> str:
    a, b, c, d = weights
    return f"leher {a} {b} {c} {d} seed {seed & MASK64} trials {trials}: wins {wins}"


def _pool_line(config, seed, trials, max_games, wins, games, truncated) -> str:
    p = config.champion_win_prob
    return (
        f"pool {config.players} p {p.numerator}/{p.denominator} streak"
        f" {config.streak_required} seed {seed & MASK64} trials {trials} max_games {max_games}:"
        f" wins {' '.join(map(str, wins))} games {games} truncated {truncated}"
    )


def expected_output() -> str:
    """The lines `reference_stream.c` must print, in its order."""
    lines = []
    for seed, bound in DRAWS:
        stream = RandomStream(seed)
        shown = "2**64" if bound == 2**64 else bound
        draws = " ".join(str(stream.next_below(bound)) for _ in range(3))
        lines.append(f"draws seed {seed} bound {shown}: {draws}")
    for name in LEHER_GOLDENS:
        run = json.loads((GOLDEN_DIR / name).read_text())
        wins = _count(run["estimate"], run["trials"])
        lines.append(_leher_line((3, 5, 5, 3), run["seed"], run["trials"], wins))
    for weights, seed, trials, (run, _) in GOLDEN_LEHER:
        if all(type(w) is int for w in weights):
            lines.append(_leher_line(weights, seed, trials, run.wins))
    for name, max_games in POOL_GOLDENS:
        run = json.loads((GOLDEN_DIR / name).read_text())
        trials = run["trials"]
        wins = [_count(seat["win_freq"], trials) for seat in run["seats"]]
        games = _count(run["expected_games"], trials)
        lines.append(_pool_line(
            PoolConfig(3), run["seed"], trials, max_games, wins, games, run["truncated_trials"]
        ))
    for config, seed, trials, max_games, wins, games, truncated in GOLDEN_POOL:
        max_games = DEFAULT_TRIAL_GAME_CAP if max_games is None else max_games
        lines.append(_pool_line(config, seed, trials, max_games, wins, games, truncated))
    return "".join(line + "\n" for line in lines)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler named cc on PATH")
def test_c_reference_reproduces_the_goldens(tmp_path):
    binary = tmp_path / "reference_stream"
    subprocess.run(["cc", *CC_FLAGS, "-o", str(binary), str(SOURCE)], check=True, timeout=120)
    run = subprocess.run([str(binary)], capture_output=True, text=True, check=True, timeout=60)
    assert run.stdout == expected_output()


if __name__ == "__main__":
    print(expected_output(), end="")
