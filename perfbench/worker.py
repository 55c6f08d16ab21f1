"""One workload run in a fresh process; started by ``run.py``, not by hand.

Imports montmort from the checkout, builds the seed's inputs, prints
``ready`` (the parent times set-up up to that line), then, unless it was
started for set-up only, runs the closed loop: one caller, one op at a time,
every cache reset before each op. It prints one JSON result line and exits.

With ``--trace 1`` it instead runs each op of a fixed prefix of the inputs
twice, plain and then with the boundary tracer installed, and reports
per-layer figures, the tracing overhead and the baseline quantities.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from random import Random

import speed
import workloads as wl
from tracer import Tracer

#: A run stops starting ops after this many seconds whatever ``--seconds``
#: says, so a much slower program still ends well inside the time limit.
HARD_STOP_S = 120.0
#: ... and after this multiple of ``--seconds`` of wall time, so a run on a
#: host running far below nominal speed stays within its time budget.
WALL_LIMIT = 1.25


def run_ops(workload, ops, rt, ctx, m, seconds=None, tracer=None):
    """Closed loop over ``ops`` (cycling) for ``seconds`` of op time, or once if None.

    A time-bounded loop also samples the machine-speed reference between
    ops, counts its ``seconds`` in op time rescaled to nominal speed, so a
    run covers the same ops however fast the host happens to be, and
    returns every latency rescaled (see ``speed.py``).
    """
    latencies, failures, spans, samples = [], [], [], []
    ran = Counter()
    busy = 0.0
    nominal_busy = 0.0
    loop_start = time.perf_counter()
    position = 0
    while True:
        if seconds is None:
            if position == len(ops):
                break
        else:
            now = time.perf_counter()
            if nominal_busy >= seconds or now - loop_start >= min(WALL_LIMIT * seconds,
                                                                  HARD_STOP_S):
                break
            if not samples or now - samples[-1][0] >= speed.SAMPLE_EVERY_S:
                samples.append((now, speed.reference_s()))
        op = ops[position % len(ops)]
        position += 1
        wl.reset_caches()
        error = None
        start = time.perf_counter()
        try:
            if tracer is None:
                out = workload.run(op, rt)
            else:
                with tracer.op(op.index, op.cls):
                    out = workload.run(op, rt)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        busy += end - start
        if samples:
            nominal_busy += (end - start) * speed.NOMINAL_S / samples[-1][1]
        latencies.append((end - start) * 1e3)
        spans.append((start, end))
        ran[op.cls] += 1
        if error is None:
            try:
                workload.check(op, out, ctx, m)
            except wl.CheckFailed as exc:
                error = f"check: {exc}"
            except Exception as exc:  # malformed output the check could not parse
                error = f"check: {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"op {op.index} ({op.cls}): {error}")
    result = {"latencies_ms": latencies, "busy_s": busy, "failures": failures,
              "ran_by_class": dict(sorted(ran.items()))}
    if seconds is not None:
        samples.append((time.perf_counter(), speed.reference_s()))
        scaled = speed.rescale(spans, samples)
        result.update(scaled_latencies_ms=[s * 1e3 for s in scaled], scaled_busy_s=sum(scaled),
                      reference_ms=[value * 1e3 for _, value in samples])
    return result


def traffic(workload, ops, seed) -> dict:
    by_class = Counter(op.cls for op in ops)
    sizes: dict[str, set] = {}
    for op in ops:
        sizes.setdefault(op.cls, set()).add(op.size)
    cycle = len(ops) // workload.built_cycles
    return {
        "workload": workload.name,
        "seed": seed,
        "inputs": len(ops),
        "ops_per_cycle": cycle,
        "classes_per_cycle": {k: v // workload.built_cycles for k, v in sorted(by_class.items())},
        "sizes_by_class": {k: sorted(v) for k, v in sorted(sizes.items())},
        "inputs_sha256": wl.inputs_digest(ops),
    }


def baseline_quantities(m) -> dict:
    """The ROADMAP's reference figures, timed untraced on fixed inputs."""
    wl.reset_caches()
    start = time.perf_counter()
    m.leher_simulate(3, 5, 5, 3, seed=1, trials=20_000)
    us_per_trial = (time.perf_counter() - start) / 20_000 * 1e6
    pool_s = {}
    for players in (3, 6, 10):
        start = time.perf_counter()
        m.pool_solve(m.PoolConfig(players))
        pool_s[str(players)] = time.perf_counter() - start
    rng = Random(0)
    solve_ms = {}
    for k in (4, 6):
        times = []
        for _ in range(5):
            game = m.GameMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)])
            start = time.perf_counter()
            m.solve_zero_sum(game)
            times.append((time.perf_counter() - start) * 1e3)
        solve_ms[str(k)] = statistics.median(times)
    return {"leher_us_per_trial": us_per_trial, "pool_solve_s": pool_s,
            "solve_zero_sum_ms_median_of_5": solve_ms}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)

    workload = wl.WORKLOADS[args.workload]
    m = wl.load_montmort()
    ops = wl.build_inputs(workload, args.seed, m)
    ctx = wl.load_context(workload, args.seed)
    # The inputs live for the whole run, and a CLI process holds none of
    # them, so keep them out of the garbage collector's full scans.
    gc.collect()
    gc.freeze()
    print("ready", flush=True)
    # The speed at which this process ran its set-up, for rescaling it.
    result = {"setup_reference_s": speed.reference_s()}
    if args.mode == "setup":
        print(json.dumps(result), flush=True)
        return 0

    rt = wl.Runtime(m)
    result["traffic"] = traffic(workload, ops, args.seed)
    if args.mode == "run":
        result.update(run_ops(workload, ops, rt, ctx, m, seconds=args.seconds))
        result["attempted"] = len(result["latencies_ms"])
    else:
        # Each op runs plain and then traced, back to back, so a drift in
        # machine speed falls on both sides of its overhead ratio alike; the
        # median ratio over the ops ignores the pairs a burst still split.
        tracer = Tracer()
        ctx.paused = tracer.pause
        traced_rt = wl.Runtime(m)
        plain_busy = 0.0
        ratios = []
        traced = {"latencies_ms": [], "busy_s": 0.0, "failures": [], "ran_by_class": Counter()}
        for op in ops[:workload.trace_ops]:
            plain = run_ops(workload, [op], rt, ctx, m)
            plain_busy += plain["busy_s"]
            traced["failures"] += plain["failures"]
            tracer.install()
            try:
                one = run_ops(workload, [op], traced_rt, ctx, m, tracer=tracer)
            finally:
                tracer.remove()
            traced["latencies_ms"] += one["latencies_ms"]
            traced["busy_s"] += one["busy_s"]
            traced["failures"] += one["failures"]
            traced["ran_by_class"].update(one["ran_by_class"])
            ratios.append(one["busy_s"] / plain["busy_s"])
        overhead = statistics.median(ratios) - 1
        result.update(traced)
        result["ran_by_class"] = dict(sorted(traced["ran_by_class"].items()))
        result["per_layer"] = {k: list(v) for k, v in
                               tracer.per_layer(traced_rt.stdout_bytes, overhead).items()}
        result["absent_boundaries"] = tracer.absent
        result["untraced_busy_s"] = plain_busy
        result["attempted"] = 2 * len(traced["latencies_ms"])
        result["baseline"] = baseline_quantities(m)
        trace_file = Path.cwd() / ".bench_trace" / f"{workload.name}-seed{args.seed}.json"
        tracer.dump(trace_file)
        result["trace_file"] = str(trace_file.relative_to(Path.cwd()))
    result["band_excursions"] = ctx.excursions
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
