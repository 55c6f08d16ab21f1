"""Boundary tracing for the traced run, entirely from the benchmark's side.

A *boundary* is a name one montmort module looks up in another (or in
itself): ``montmort.pool.solve_linear_system``, ``montmort.report.
paul_win_probability``, ``leher.paul_wins_deal`` as used by the simulator,
the ``RandomStream`` methods. While installed, the tracer replaces every
montmort module attribute bound to a boundary function with a wrapper, so
each lookup, whichever module makes it, passes through the tracer.

Per call a wrapper records count, inclusive time and self time (inclusive
minus the time of traced calls it made). Boundaries called at most a few
thousand times per op also keep one span per call (name, start, end,
parent span, op id) in memory; the hot ones (the game law, the linear
solver, rational formatting) keep only the aggregates, and the stream
primitives only a call count. Nothing is written until ``dump``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from pathlib import Path

from workloads import montmort_modules

SPAN, AGGREGATE, COUNT = "span", "aggregate", "count"

#: (stat key, defining module, attribute, kind, observer name).
BOUNDARIES = (
    ("leher.lot", "montmort.leher", "paul_win_probability", SPAN, None),
    ("leher.lot", "montmort.leher", "pierre_win_probability", SPAN, None),
    ("leher.conditional", "montmort.leher", "conditional_lot_paul", SPAN, None),
    ("leher.conditional", "montmort.leher", "conditional_lot_pierre", SPAN, None),
    ("leher.matrix", "montmort.leher", "threshold_matrix", SPAN, None),
    ("leher.matrix", "montmort.leher", "build_leher_matrix", SPAN, None),
    ("leher.law", "montmort.leher", "paul_wins_deal", AGGREGATE, None),
    ("solver.solve", "montmort.solver", "solve_zero_sum", SPAN, "solution"),
    ("solver.dominance", "montmort.solver", "eliminate_dominated", SPAN, "dominance"),
    ("solver.linsolve", "montmort.solver", "solve_linear_system", AGGREGATE, "linsolve"),
    ("solver.certify", "montmort.solver", "verify_equilibrium", SPAN, None),
    ("etrennes.solve", "montmort.etrennes", "etrennes_solve", SPAN, None),
    ("pool.solve", "montmort.pool", "pool_solve", SPAN, "pool_solution"),
    ("pool.sim", "montmort.pool", "pool_simulate", SPAN, "pool_sim"),
    ("montecarlo.leher", "montmort.montecarlo", "leher_simulate", SPAN, "leher_sim"),
    ("montecarlo.draws", "montmort.montecarlo", "RandomStream.next_below", COUNT, None),
    ("montecarlo.u64", "montmort.montecarlo", "RandomStream.next_u64", COUNT, None),
    ("report.battery", "montmort.report", "build_reproduction_report", SPAN, "report"),
    ("cli.main", "montmort.cli", "main", SPAN, None),
    ("rational.format", "montmort.rational", "format_rational", AGGREGATE, None),
)

#: Lookups of a boundary from one module counted under their own key too.
SITE_KEYS = {("montmort.pool", "solve_linear_system"): "pool.linsolve"}


def _den_bits(values) -> int:
    return max((v.denominator.bit_length() for v in values), default=0)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # key -> [calls, inclusive s, self s]
        self.counts: dict[str, list] = {}  # key -> [calls] for COUNT boundaries
        self.extra: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # frames: [child seconds, span id]
        self.op_id: int | None = None
        self.paused = False
        self.absent: list[str] = []
        self._patches: list[tuple] | None = None
        self._next_span = 0

    # -- observers: exact work counts read off arguments and results ---------

    def _bump(self, key: str, amount) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount

    def _peak(self, key: str, value) -> None:
        self.extra[key] = max(self.extra.get(key, 0), value)

    def _observe(self, name, key, args, kwargs, result) -> None:
        if name == "linsolve":
            constants = args[1] if len(args) > 1 else kwargs["constants"]
            self._bump(key + ".unknowns", len(constants))
            self._bump(key + ".singular", result is None)
        elif name == "solution":
            self._peak("solver.den_bits", _den_bits(
                (result.value, *result.certificate.row_payoffs, *result.certificate.col_payoffs)))
        elif name == "dominance":
            matrix = args[0] if args else kwargs["matrix"]
            self._bump("solver.dominance_removed", matrix.n_rows + matrix.n_cols
                       - len(result.row_indices) - len(result.col_indices))
        elif name == "pool_solution":
            self._peak("pool.den_bits", _den_bits(
                (*result.win_prob, result.expected_games, *result.expected_payment,
                 *result.expected_net)))
        elif name == "pool_sim":
            self._bump("pool.sim_trials", result.trials)
            self._bump("pool.sim_games", int(result.expected_games * result.trials))
        elif name == "leher_sim":
            self._bump("montecarlo.leher_trials", result.trials)
        elif name == "report":
            passed = sum(entry.passed for entry in result)
            self.extra["report.entries_passed"] = min(
                self.extra.get("report.entries_passed", passed), passed)

    # -- wrappers -------------------------------------------------------------

    def _timed(self, key: str, fn, kind: str, observer: str | None):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack, spans, perf, tracer = self.stack, self.spans, time.perf_counter, self
        keep_span = kind == SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            if keep_span:
                tracer._next_span += 1
                span_id = tracer._next_span
            else:
                span_id = parent[1] if parent else None
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                if keep_span:
                    spans.append((span_id, parent[1] if parent else None, tracer.op_id,
                                  key, start, end))
            if observer is not None:
                tracer._observe(observer, key, args, kwargs, result)
            return result

        for name in ("cache_clear", "cache_info"):
            if hasattr(fn, name):
                setattr(wrapper, name, getattr(fn, name))
        return wrapper

    def _counting(self, key: str, fn):
        cell = self.counts.setdefault(key, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / remove -----------------------------------------------------

    def _plan(self) -> list[tuple]:
        """(target, attribute, original, wrapper) for every boundary lookup that exists."""
        modules = montmort_modules()
        plan = []
        for key, module_name, attr, kind, observer in BOUNDARIES:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.partition(".")
            owner = getattr(module, owner_name, None) if module is not None else None
            if method:
                original = vars(owner).get(method) if isinstance(owner, type) else None
                if original is None:
                    self.absent.append(f"{module_name}.{attr}")
                else:
                    plan.append((owner, method, original, self._counting(key, original)))
                continue
            if owner is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            default = self._timed(key, owner, kind, observer)
            for mod in modules:
                for attr_name, value in list(vars(mod).items()):
                    if value is owner:
                        site = SITE_KEYS.get((mod.__name__, attr_name))
                        wrapper = default if site is None else self._timed(
                            site, owner, kind, observer)
                        plan.append((mod, attr_name, owner, wrapper))
        return plan

    def install(self) -> None:
        """Route every boundary lookup through the tracer; cheap to repeat."""
        if self._patches is None:
            self._patches = self._plan()
        for target, name, _, wrapper in self._patches:
            setattr(target, name, wrapper)

    def remove(self) -> None:
        for target, name, original, _ in self._patches or ():
            setattr(target, name, original)

    @contextlib.contextmanager
    def pause(self):
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # -- ops ------------------------------------------------------------------

    @contextlib.contextmanager
    def op(self, op_id: int, cls: str):
        """Root span of one op; every span inside it carries the op's id."""
        self.op_id = op_id
        self._next_span += 1
        frame = [0.0, self._next_span]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append((frame[1], None, op_id, "op:" + cls, start, end))
            self.op_id = None

    # -- results --------------------------------------------------------------

    def stat(self, key: str) -> list:
        return self.stats.get(key, [0, 0.0, 0.0])

    def per_layer(self, stdout_bytes: int, overhead: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as (value, unit); absent boundaries read 0."""
        s, x = self.stat, self.extra
        lin_solver, lin_pool = s("solver.linsolve"), s("pool.linsolve")
        leher_calls, leher_s = x.get("montecarlo.leher_trials", 0), s("montecarlo.leher")[1]
        solve_calls = s("solver.solve")[0]
        return {
            "leher.lot_calls": (s("leher.lot")[0], "count"),
            "leher.lot_s": (s("leher.lot")[1], "s"),
            "leher.conditional_calls": (s("leher.conditional")[0], "count"),
            "leher.conditional_s": (s("leher.conditional")[1], "s"),
            "leher.matrix_s": (s("leher.matrix")[2], "s"),
            "leher.law_calls": (s("leher.law")[0], "count"),
            "leher.law_s": (s("leher.law")[1], "s"),
            "solver.solve_calls": (solve_calls, "count"),
            "solver.solve_s": (s("solver.solve")[1], "s"),
            "solver.dominance_s": (s("solver.dominance")[1], "s"),
            "solver.dominance_removed": (x.get("solver.dominance_removed", 0), "count"),
            "solver.search_s": (s("solver.solve")[2], "s"),
            "solver.linsolve_calls": (lin_solver[0] + lin_pool[0], "count"),
            "solver.linsolve_s": (lin_solver[1] + lin_pool[1], "s"),
            "solver.linsolve_unknowns": (x.get("solver.linsolve.unknowns", 0)
                                         + x.get("pool.linsolve.unknowns", 0), "count"),
            "solver.linsolve_singular": (x.get("solver.linsolve.singular", 0)
                                         + x.get("pool.linsolve.singular", 0), "count"),
            "solver.linsolve_per_solve": (lin_solver[0] / solve_calls if solve_calls else 0.0,
                                          "ratio"),
            "solver.certify_s": (s("solver.certify")[1], "s"),
            "solver.den_bits.max": (x.get("solver.den_bits", 0), "bits"),
            "etrennes.solve_calls": (s("etrennes.solve")[0], "count"),
            "etrennes.solve_s": (s("etrennes.solve")[1], "s"),
            "pool.solve_calls": (s("pool.solve")[0], "count"),
            "pool.solve_s": (s("pool.solve")[1], "s"),
            "pool.linsolve_s": (lin_pool[1], "s"),
            "pool.linsolve_unknowns": (x.get("pool.linsolve.unknowns", 0), "count"),
            "pool.den_bits.max": (x.get("pool.den_bits", 0), "bits"),
            "pool.sim_trials": (x.get("pool.sim_trials", 0), "count"),
            "pool.sim_games": (x.get("pool.sim_games", 0), "count"),
            "pool.sim_s": (s("pool.sim")[1], "s"),
            "montecarlo.leher_trials": (leher_calls, "count"),
            "montecarlo.leher_s": (leher_s, "s"),
            "montecarlo.us_per_trial": (leher_s / leher_calls * 1e6 if leher_calls else 0.0, "us"),
            "montecarlo.draws": (self.counts.get("montecarlo.draws", [0])[0], "count"),
            "montecarlo.u64": (self.counts.get("montecarlo.u64", [0])[0], "count"),
            "report.battery_s": (s("report.battery")[1], "s"),
            "report.entries_passed": (x.get("report.entries_passed", 0), "count"),
            "cli.main_calls": (s("cli.main")[0], "count"),
            "cli.self_s": (s("cli.main")[2], "s"),
            "cli.stdout_bytes": (stdout_bytes, "bytes"),
            "rational.format_calls": (s("rational.format")[0], "count"),
            "rational.format_s": (s("rational.format")[1], "s"),
            "trace.overhead": (overhead, "ratio"),
        }

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "fields": ["span", "parent", "op", "name", "start_s", "end_s"],
                "spans": self.spans,
                "aggregates": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                               for k, v in sorted(self.stats.items())},
                "counts": {k: v[0] for k, v in sorted(self.counts.items())},
                "absent": self.absent,
            }, handle)
