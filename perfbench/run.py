"""montmort benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload pool-exact --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; it imports montmort from ``src/`` there.
Each run starts fresh worker processes, one after another: six that only
set up (import montmort, build the seed's inputs) and one that also runs the
closed loop for ``--seconds`` of op time at nominal machine speed.
``setup_s`` is the median of the seven set-up times. Every end-to-end time
is rescaled to the nominal machine speed of ``speed.py``; the ``unscaled``
line gives the times as read. With ``--trace 1`` a single worker runs the
traced pass instead and the result carries the per-layer metrics.

Lines before the last describe the run (traffic, tail percentile, failures,
baseline quantities); the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("leher-exact", "matrix-solve", "pool-exact", "simulate")
SETUP_ONLY_WORKERS = 6
#: The tail latency is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
#: The whole run must end inside the contract's 180 s.
WORKER_TIMEOUT_S = 165.0


class RunFailed(Exception):
    pass


def spawn(workload: str, seed: int, seconds: int, mode: str, deadline: float):
    """Start a worker; return (rescaled set-up seconds, worker output lines after 'ready')."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    start = time.perf_counter()
    # Unbuffered, so reading the 'ready' line reads nothing beyond it and
    # communicate() gets every later byte.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        if first.strip() != b"ready":
            raise RunFailed(f"worker did not become ready (got {first.strip()!r})")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise RunFailed("worker timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with code {proc.returncode}")
    lines = rest.decode("utf-8").splitlines()
    # The worker samples the reference kernel right after set-up, in the
    # same process, so the rescaling sees the CPU that did the set-up.
    reference = json.loads(lines[-1])["setup_reference_s"]
    return setup * speed.NOMINAL_S / reference, lines


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest percentile with ten samples beyond.

    That is the eleventh-largest latency; its percentile rank is (n - 10) / n.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:  # too few samples: report the maximum
        return 100.0, ordered[-1], 0
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1], TAIL_BEYOND


def emit(label: str, payload) -> None:
    print(json.dumps({label: payload}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "montmort" / "__init__.py").is_file():
        print(f"run.py: no montmort sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.pop("PYTHONPATH", None)  # workers import montmort from this checkout only
    deadline = time.perf_counter() + WORKER_TIMEOUT_S

    try:
        if args.trace:
            _, lines = spawn(args.workload, args.seed, args.seconds, "trace", deadline)
            setups = []
        else:
            setups = [spawn(args.workload, args.seed, args.seconds, "setup", deadline)[0]
                      for _ in range(SETUP_ONLY_WORKERS)]
            setup, lines = spawn(args.workload, args.seed, args.seconds, "run", deadline)
            setups.append(setup)
        result = json.loads(lines[-1])
    except (RunFailed, IndexError, KeyError, json.JSONDecodeError) as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1

    latencies = result["latencies_ms"]
    attempted = result["attempted"]
    failed = len(result["failures"])
    emit("traffic", {**result["traffic"], "ran_by_class": result["ran_by_class"],
                     "band_excursions": result["band_excursions"]})
    if result["failures"]:
        emit("failures", result["failures"][:5] + ([f"... {failed - 5} more"] if failed > 5 else []))

    if args.trace:
        emit("baseline", result["baseline"])
        emit("trace", {"ops_traced": len(latencies), "untraced_busy_s": result["untraced_busy_s"],
                       "traced_busy_s": result["busy_s"], "file": result["trace_file"],
                       "absent_boundaries": result["absent_boundaries"]})
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["per_layer"].items()}
    else:
        scaled = result["scaled_latencies_ms"]
        pct, tail_ms, beyond = tail(scaled)
        emit("op_ms.tail", {"percentile": pct, "samples": len(scaled), "beyond": beyond})
        emit("setup_s", {"runs": setups})
        reference = result["reference_ms"]
        emit("unscaled", {"reference_ms": {"nominal": speed.NOMINAL_S * 1e3,
                                           "median": statistics.median(reference),
                                           "min": min(reference), "max": max(reference),
                                           "samples": len(reference)},
                          "ops_per_s": attempted / result["busy_s"],
                          "op_ms.p50": statistics.median(latencies),
                          "op_ms.tail": tail(latencies)[1]})
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": attempted / result["scaled_busy_s"], "unit": "1/s"},
            "op_ms.p50": {"value": statistics.median(scaled), "unit": "ms"},
            "op_ms.tail": {"value": tail_ms, "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024, "unit": "MB"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
