"""The benchmark's own tests: the gate bites, the reset is real, counts repeat.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction

import pytest

import run
import workloads as wl
from tracer import Tracer
from worker import run_ops

m = wl.load_montmort()
OFF = Fraction(1, 5525)


def first_ops(name: str, seed: int, count: int, cls: str | None = None):
    ops = wl.build_inputs(wl.WORKLOADS[name], seed, m)
    return [op for op in ops if cls is None or op.cls == cls][:count]


def run_one(name: str, op):
    wl.reset_caches()
    return wl.WORKLOADS[name].run(op, wl.Runtime(m))


def assert_fails(name: str, op, out, seed: int = 7, match: str | None = None) -> None:
    with pytest.raises(wl.CheckFailed, match=match):
        wl.WORKLOADS[name].check(op, out, wl.load_context(wl.WORKLOADS[name], seed), m)


def test_reset_empties_every_cache():
    op = first_ops("leher-exact", 7, 1)[0]
    run_one("leher-exact", op)
    caches = wl.find_caches()
    assert len(caches) >= 3
    assert any(cache.cache_info().currsize for cache in caches)
    wl.reset_caches()
    assert all(cache.cache_info().currsize == 0 for cache in wl.find_caches())


def test_reset_reaches_caches_behind_traced_wrappers():
    original = m.leher.threshold_matrix
    tracer = Tracer()
    tracer.install()
    try:
        run_one("leher-exact", first_ops("leher-exact", 7, 1)[0])
        assert any(cache.cache_info().currsize for cache in wl.find_caches())
        wl.reset_caches()
        assert all(cache.cache_info().currsize == 0 for cache in wl.find_caches())
    finally:
        tracer.remove()
    assert m.leher.threshold_matrix is original and m.threshold_matrix is original


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_default_seed_ops_pass_with_goldens(name):
    workload = wl.WORKLOADS[name]
    ops = first_ops(name, wl.DEFAULT_SEED, 3)
    result = run_ops(workload, ops, wl.Runtime(m), wl.load_context(workload, wl.DEFAULT_SEED), m)
    assert result["failures"] == []


def test_pool_win_probability_off_by_one_5525th_fails():
    op = first_ops("pool-exact", 7, 1)[0]
    code, text = run_one("pool-exact", op)
    wl.WORKLOADS["pool-exact"].check(op, (code, text), wl.load_context(wl.WORKLOADS["pool-exact"], 7), m)
    data = json.loads(text)
    seat = data["seats"][0]["win_prob"]
    seat["exact"] = wl.fstr(wl.fraction(seat["exact"]) + OFF)
    assert_fails("pool-exact", op, (code, json.dumps(data, indent=2)), match="sum to 1")


def test_pool_output_differing_from_golden_fails():
    op = first_ops("pool-exact", wl.DEFAULT_SEED, 1)[0]
    code, text = run_one("pool-exact", op)
    assert_fails("pool-exact", op, (code, text.replace("\n", "\n ")), seed=wl.DEFAULT_SEED,
                 match="golden")


def test_reproduce_entry_off_by_one_5525th_fails():
    op = first_ops("leher-exact", 7, 1)[0]
    out = run_one("leher-exact", op)
    code, text = out["reproduce"]
    entries = json.loads(text)
    entries[0]["computed"] = wl.fstr(wl.fraction(entries[0]["computed"]) + OFF)
    out["reproduce"] = (code, json.dumps(entries, indent=2))
    assert_fails("leher-exact", op, out, match="golden")


def test_table_lot_off_by_one_5525th_fails():
    op = first_ops("leher-exact", 7, 1)[0]
    out = run_one("leher-exact", op)
    paul, pierre = out["lots"][3]
    out["lots"][3] = (paul + OFF, pierre)
    assert_fails("leher-exact", op, out, match="sum to 1")


def test_game_value_off_by_one_5525th_fails():
    op = first_ops("matrix-solve", 7, 1, cls="int5x5")[0]
    solution = run_one("matrix-solve", op)
    assert_fails("matrix-solve", op, dataclasses.replace(solution, value=solution.value + OFF),
                 match="certificate|payoff")


def test_etrennes_value_off_by_one_5525th_fails():
    op = first_ops("matrix-solve", 7, 1, cls="etrennes")[0]
    solution = run_one("matrix-solve", op)
    assert_fails("matrix-solve", op, dataclasses.replace(solution, value=solution.value + OFF),
                 match="e\\*o")


def test_one_leher_win_count_changed_fails_the_golden():
    op = first_ops("simulate", wl.DEFAULT_SEED, 1, cls="leher")[0]
    code, text = run_one("simulate", op)
    data = json.loads(text)
    trials = data["trials"]
    wins = wl.fraction(data["estimate"]) * trials + 1
    estimate = wins / trials
    f = float(estimate)
    # A self-consistent output: only the golden count can tell.
    data["estimate"] = wl.fstr(estimate)
    data["sigma"] = math.sqrt(f * (1 - f) / trials)
    within = abs(f - float(wl.fraction(data["target"]))) <= wl.SIGMA_BAND * data["sigma"]
    data["verdict"] = "pass" if within else "fail"
    assert_fails("simulate", op, (0 if within else 1, json.dumps(data)), seed=wl.DEFAULT_SEED,
                 match="golden")


def test_one_pool_seat_win_count_changed_fails():
    op = first_ops("simulate", 7, 1, cls="pool-n4")[0]
    code, text = run_one("simulate", op)
    data = json.loads(text)
    trials = data["trials"]
    seat = data["seats"][1]
    seat["win_freq"] = wl.fstr(wl.fraction(seat["win_freq"]) + Fraction(1, trials))
    assert_fails("simulate", op, (code, json.dumps(data)))


def test_tampered_ops_are_counted_as_failed():
    workload = wl.WORKLOADS["pool-exact"]

    class Tampered:
        def __getattr__(self, name):
            return getattr(workload, name)

        def run(self, op, rt):
            code, text = workload.run(op, rt)
            data = json.loads(text)
            data["seats"][-1]["expected_net"]["exact"] = wl.fstr(
                wl.fraction(data["seats"][-1]["expected_net"]["exact"]) - OFF)
            return code, json.dumps(data)

    ops = first_ops("pool-exact", 7, 4)
    result = run_ops(Tampered(), ops, wl.Runtime(m), wl.load_context(workload, 7), m)
    assert len(result["latencies_ms"]) == 4
    assert len(result["failures"]) == 4


def test_traced_counts_repeat_exactly():
    workload = wl.WORKLOADS["matrix-solve"]
    ops = first_ops("matrix-solve", 7, 60)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            run_ops(workload, ops, wl.Runtime(m), wl.load_context(workload, 7), m, tracer=tracer)
        finally:
            tracer.remove()
        layer = tracer.per_layer(0, 0.0)
        counts.append({k: v for k, (v, unit) in layer.items() if unit in ("count", "bits")})
    assert counts[0] == counts[1]
    assert counts[0]["solver.solve_calls"] == 60
    assert counts[0]["solver.linsolve_calls"] > 0


def test_tail_is_highest_percentile_with_ten_beyond():
    samples = [float(i) for i in range(150, 0, -1)]
    assert run.tail(samples) == (100.0 * 140 / 150, 140.0, 10)
    assert run.tail(samples[-11:]) == (100.0 * 1 / 11, 1.0, 10)
    assert run.tail(samples[-10:]) == (100.0, 10.0, 0)
