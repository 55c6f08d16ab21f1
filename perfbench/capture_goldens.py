"""Rewrite ``perfbench/goldens/`` from the current montmort sources.

    python3 perfbench/capture_goldens.py            # every golden file
    python3 perfbench/capture_goldens.py pool-exact # one workload's per-op file

The goldens pin outputs that must never change: the ``reproduce`` JSON, the
14x14 threshold matrix, the exact pool win probabilities behind the
simulation targets, and, for the default seed's inputs, every game value,
pool JSON digest and simulation count. Recapture only at a commit whose
outputs are known to be right; a performance change must leave them as
they are. Every op still passes the seed-independent checks first.
"""

from __future__ import annotations

import json
import sys

import workloads as wl


def write(name: str, data) -> None:
    with open(wl.GOLDEN_DIR / name, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=0 if isinstance(data, list) else 1)
        handle.write("\n")


def capture_shared(m) -> None:
    rt = wl.Runtime(m)
    wl.reset_caches()
    code, text = rt.cli(["reproduce", "--format", "json"])
    if code != 0:
        raise SystemExit("reproduce fails at this commit; refusing to capture")
    write("reproduce.json", {"text": text})
    write("threshold_matrix.json",
          [[wl.fstr(x) for x in row] for row in m.threshold_matrix().entries])
    write("pool_sim_targets.json", {
        str(n): [wl.fstr(w) for w in m.pool_solve(m.PoolConfig(n)).win_prob] for n in (3, 4, 5)})


def capture_workload(m, workload) -> None:
    ops = wl.build_inputs(workload, wl.DEFAULT_SEED, m)
    ctx = wl.load_context(workload, seed=None)  # shared goldens only
    rt = wl.Runtime(m)
    recorded = []
    for op in ops:
        wl.reset_caches()
        out = workload.run(op, rt)
        workload.check(op, out, ctx, m)
        recorded.append(workload.record(op, out))
    write(f"{workload.name}.json", recorded)
    print(f"{workload.name}: {len(recorded)} ops", file=sys.stderr)


def main(argv: list[str]) -> int:
    m = wl.load_montmort()
    wl.GOLDEN_DIR.mkdir(exist_ok=True)
    names = argv or list(wl.WORKLOADS)
    if not argv:
        capture_shared(m)
    for name in names:
        workload = wl.WORKLOADS[name]
        if workload.golden_key is not None:
            capture_workload(m, workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
