"""The four benchmark workloads: input generation, the timed op, the check.

Every input is drawn from the benchmark's own ``random.Random(seed)``; the
program sees only the generated inputs. Inputs come in *cycles*: a fixed,
evenly interleaved sequence of input-class slots whose values are drawn fresh
per cycle, so every seed carries the same mix of classes and sizes, and a run
that stops part-way through a cycle has still seen that mix.

Each op is run cold (the caller resets montmort's caches first) and returns
its raw output; ``check`` then verifies it against seed-independent
invariants and, for the default seed, against goldens captured from the
seed commit. ``check`` raises ``CheckFailed`` on any mismatch.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

#: Seed whose outputs are pinned by the files in ``goldens/``.
DEFAULT_SEED = 1

#: The CLI's simulation verdict band, in standard errors.
SIGMA_BAND = 4
#: An estimate this many standard errors off its exact target is treated as
#: a broken simulator, not chance (probability about 2e-9 per check). An
#: estimate between SIGMA_BAND and this is legitimate; the op is then correct
#: when the CLI reports "fail" and exits 1, and the run counts it as a band
#: excursion.
GROSS_SIGMA = 6

ORDERED_DEALS = 52 * 51 * 50
#: Montmort's table of Paul's lots (rows: switch / hold the 7; columns:
#: switch / hold the 8), the reference for every Le Her simulation target.
LEHER_TABLE = ((Fraction(2828, 5525), Fraction(2838, 5525)),
               (Fraction(2834, 5525), Fraction(2828, 5525)))


class CheckFailed(Exception):
    """An op's output disagreed with an invariant or a golden."""


def load_montmort():
    """Import montmort from this checkout's ``src`` and nowhere else."""
    if not (SRC / "montmort" / "__init__.py").is_file():
        raise ImportError(f"montmort sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import montmort
    import montmort.cli  # noqa: F401  (the CLI is a public entry point)

    if Path(montmort.__file__).resolve().parent != (SRC / "montmort").resolve():
        raise ImportError(f"montmort imported from {montmort.__file__}, not {SRC}")
    return montmort


def montmort_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "montmort" or name.startswith("montmort."))]


def find_caches() -> list:
    """Every distinct cache reachable as a ``cache_clear`` attribute on a montmort module."""
    seen: dict[int, Any] = {}
    for mod in montmort_modules():
        for value in list(vars(mod).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                owner = getattr(clear, "__self__", value)
                seen.setdefault(id(owner), owner)
    return list(seen.values())


def reset_caches() -> None:
    """Empty every montmort cache, as a fresh CLI process would start."""
    for cache in find_caches():
        cache.cache_clear()


def fraction(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def fstr(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def load_golden(name: str) -> Any:
    with open(GOLDEN_DIR / name, encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class Op:
    index: int
    cls: str
    size: int
    payload: dict


@dataclass
class Runtime:
    """How an op reaches montmort: public functions and ``cli.main(argv)``."""

    m: Any
    stdout_bytes: int = 0

    def cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.m.cli.main(argv)
        text = out.getvalue()
        self.stdout_bytes += len(text.encode("utf-8"))
        return code, text


@dataclass
class Context:
    """What a check may consult besides the op and its output."""

    goldens: dict = field(default_factory=dict)
    paused: Any = contextlib.nullcontext
    excursions: int = 0


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def certify(entries, row_weights, col_weights, value, row_payoffs=None, col_payoffs=None) -> None:
    """Recompute a zero-sum certificate from the benchmark's own matrix."""
    require(len(row_weights) == len(entries) and len(col_weights) == len(entries[0]),
            "mix lengths do not match the matrix")
    require(all(w >= 0 for w in row_weights) and sum(row_weights) > 0, "bad row mix")
    require(all(w >= 0 for w in col_weights) and sum(col_weights) > 0, "bad column mix")
    rt, ct = sum(row_weights), sum(col_weights)
    x = [w / rt for w in row_weights]
    y = [w / ct for w in col_weights]
    rows = [sum(a * b for a, b in zip(row, y)) for row in entries]
    cols = [sum(x[i] * entries[i][j] for i in range(len(entries))) for j in range(len(entries[0]))]
    require(max(rows) <= value <= min(cols), "certificate: a pure deviation beats the value")
    require(sum(a * b for a, b in zip(x, rows)) == value, "value is not the profile payoff")
    if row_payoffs is not None:
        require(list(row_payoffs) == rows and list(col_payoffs) == cols,
                "reported certificate differs from the recomputed one")


def inputs_digest(ops: list[Op]) -> str:
    """A fingerprint of the generated inputs, so two runs can be shown to carry the same load."""
    digest = hashlib.sha256()
    for op in ops:
        digest.update(repr((op.cls, op.size, sorted(
            (k, v) for k, v in op.payload.items() if k != "objects"))).encode())
    return digest.hexdigest()


def interleave(slots):
    """Spread each slot's repeats evenly over one cycle: [(slot, count), ...] -> [slot, ...]."""
    placed = []
    for order, (slot, count) in enumerate(slots):
        placed += [((j + 0.5) / count, order, slot) for j in range(count)]
    return [slot for _, _, slot in sorted(placed, key=lambda t: (t[0], t[1]))]


def spread(items):
    """Reorder items so every prefix samples the whole list (van der Corput order)."""
    bits = max(1, (len(items) - 1).bit_length())
    keys = sorted(range(1 << bits), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))
    return [items[i] for i in keys if i < len(items)]


def simple_fraction(rng: Random, top: int = 9) -> str:
    den = rng.randint(1, top)
    return fstr(Fraction(rng.randint(1, top), den))


# ---------------------------------------------------------------------------
# leher-exact
# ---------------------------------------------------------------------------


class LeherExact:
    """Cold Le Her enumeration: the battery, the 14x14 game, random tables."""

    name = "leher-exact"
    golden_key = None  # every op is seed-independent: the shared goldens cover it
    built_cycles = 500
    trace_ops = 40
    pairs_per_op = 8

    def build_cycle(self, rng: Random, m, index: int) -> list[Op]:
        def table():
            return tuple(rng.random() < 0.5 for _ in range(13))

        pairs = [(table(), table()) for _ in range(self.pairs_per_op)]
        decomposition = (table(), table())
        objects = {
            "pairs": [(m.PaulStrategy(p), m.PierreStrategy(q)) for p, q in pairs],
            "decomposition": (m.PaulStrategy(decomposition[0]), m.PierreStrategy(decomposition[1])),
        }
        payload = {"pairs": pairs, "decomposition": decomposition, "objects": objects}
        return [Op(index, "battery+14x14+tables", 14, payload)]

    def run(self, op: Op, rt: Runtime) -> dict:
        m = rt.m
        reproduce = rt.cli(["reproduce", "--format", "json"])
        solve = rt.cli(["leher", "solve", "--all-thresholds", "--format", "json"])
        lots = [(m.paul_win_probability(p, q), m.pierre_win_probability(p, q))
                for p, q in op.payload["objects"]["pairs"]]
        paul, pierre = op.payload["objects"]["decomposition"]
        conditional = [
            m.conditional_lot_paul(card, m.PaulAction.SWITCH if paul.switch[card - 1]
                                   else m.PaulAction.HOLD, pierre)
            for card in range(1, 14)
        ]
        full = m.paul_win_probability(paul, pierre)
        return {"reproduce": reproduce, "solve": solve, "lots": lots,
                "conditional": conditional, "full": full}

    def check(self, op: Op, out: dict, ctx: Context, m) -> None:
        code, text = out["reproduce"]
        require(code == 0, "reproduce exited nonzero")
        require(text == ctx.goldens["reproduce"], "reproduce JSON differs from the golden")
        require(all(e["verdict"] == "pass" for e in json.loads(text)), "a battery entry failed")

        matrix = ctx.goldens["threshold_matrix"]
        code, text = out["solve"]
        require(code == 0, "leher solve exited nonzero")
        sol = json.loads(text)
        labels = [f"threshold:{t}" for t in range(14)]
        require(list(sol["row_mix"]) == labels and list(sol["col_mix"]) == labels,
                "solution labels differ")
        certify(matrix, [fraction(sol["row_mix"][k]) for k in labels],
                [fraction(sol["col_mix"][k]) for k in labels],
                fraction(sol["value"]["exact"]),
                [fraction(v) for v in sol["certificate"]["row_payoffs"]],
                [fraction(v) for v in sol["certificate"]["col_payoffs"]])
        with ctx.paused():
            computed = [list(row) for row in m.threshold_matrix().entries]
        require(computed == matrix, "14x14 threshold matrix differs from the golden")

        for paul_lot, pierre_lot in out["lots"]:
            require(paul_lot + pierre_lot == 1, "Paul's and Pierre's lots do not sum to 1")
            require(0 <= paul_lot <= 1 and (paul_lot * ORDERED_DEALS).denominator == 1,
                    "a lot is not a count over the 132,600 ordered deals")
        total = sum(Fraction(4, 52) * lot for lot in out["conditional"])
        require(total == out["full"], "4/52-weighted conditional lots do not sum to the lot")


# ---------------------------------------------------------------------------
# matrix-solve
# ---------------------------------------------------------------------------


class MatrixSolve:
    """``solve_zero_sum`` across the sizes, shapes and denominators it depends on."""

    name = "matrix-solve"
    golden_key = "values"
    #: ((class, rows, cols), slots per cycle). Support enumeration cost grows
    #: steeply and varies widely within a size (a random 6x6 takes 0-0.4 s,
    #: a random 7x7 0.01-1.1 s), so the large random games are few per cycle;
    #: otherwise a handful of them would set the run-to-run spread. The
    #: diagonal games (a prize for each correct guess among five, Les
    #: Etrennes with five choices) have a fully mixed equilibrium, the worst
    #: case for the search, at a nearly constant cost; they are just frequent
    #: enough that the tail latency falls among them.
    schedule = interleave((
        (("int4x4", 4, 4), 300),
        (("int5x5", 5, 5), 120),
        (("int6x6", 6, 6), 4),
        (("int7x7", 7, 7), 1),
        (("diag5x5", 5, 5), 20),
        (("int3x10", 3, 10), 80),
        (("int10x3", 10, 3), 80),
        (("rat4x4", 4, 4), 80),
        (("rat5x5", 5, 5), 80),
        (("etrennes", 2, 2), 40),
    ))
    built_cycles = 3
    trace_ops = 400

    def build_cycle(self, rng: Random, m, index: int) -> list[Op]:
        ops = []
        for cls, rows, cols in self.schedule:
            if cls == "etrennes":
                even, odd = Fraction(simple_fraction(rng)), Fraction(simple_fraction(rng))
                config = m.EtrennesConfig(even_prize=even, odd_prize=odd)
                payload = {"even": fstr(even), "odd": fstr(odd), "objects": config}
            else:
                if cls.startswith("rat"):
                    # Lot-like entries: denominators near Le Her's 5525.
                    entries = [[Fraction(rng.randint(2500, 3000), rng.randint(5450, 5550))
                                for _ in range(cols)] for _ in range(rows)]
                elif cls.startswith("diag"):
                    prizes = [rng.randint(1, 20) for _ in range(rows)]
                    entries = [[Fraction(prizes[i] if i == j else 0) for j in range(cols)]
                               for i in range(rows)]
                else:
                    entries = [[Fraction(rng.randint(-9, 9)) for _ in range(cols)]
                               for _ in range(rows)]
                payload = {"entries": tuple(tuple(fstr(x) for x in row) for row in entries),
                           "objects": (entries, m.GameMatrix.from_rows(entries))}
            ops.append(Op(index + len(ops), cls, rows * cols, payload))
        return ops

    def run(self, op: Op, rt: Runtime):
        if op.cls == "etrennes":
            return rt.m.etrennes_solve(op.payload["objects"])
        return rt.m.solve_zero_sum(op.payload["objects"][1])

    def record(self, op: Op, out) -> str:
        return fstr(out.value)

    def check(self, op: Op, out, ctx: Context, m) -> None:
        if op.cls == "etrennes":
            e, o = fraction(op.payload["even"]), fraction(op.payload["odd"])
            entries = [[e, Fraction(0)], [Fraction(0), o]]
            require(out.value == e * o / (e + o), "Etrennes value is not e*o/(e+o)")
        else:
            entries = op.payload["objects"][0]
            if op.cls.startswith("diag"):
                require(out.value == 1 / sum(1 / row[i] for i, row in enumerate(entries)),
                        "diagonal game value is not 1 / sum(1 / prize)")
        certify(entries, list(out.row_mix.weights), list(out.col_mix.weights), out.value,
                out.certificate.row_payoffs, out.certificate.col_payoffs)
        golden = ctx.goldens.get("values")
        if golden is not None:
            require(self.record(op, out) == golden[op.index], "game value differs from the golden")


# ---------------------------------------------------------------------------
# pool-exact
# ---------------------------------------------------------------------------


class PoolExact:
    """``pool solve --format json`` over every (players, streak) pair."""

    name = "pool-exact"
    golden_key = "digests"
    probabilities = ("1/2", "1/3", "2/3", "2/5", "3/5", "3/7", "4/7", "3/4")
    #: Every (players, streak) pair once per cycle, plus a second copy of the
    #: cheap pairs (n <= 7), so each seed carries the same system sizes and a
    #: run holds enough ops for a stable tail percentile. The order makes
    #: every prefix mix small and large systems; ante and fee are drawn per
    #: slot.
    grid = spread(sorted([(n, s) for n in range(3, 11) for s in range(2, n)]
                         + [(n, s) for n in range(3, 8) for s in range(2, n)],
                         key=lambda pair: (pair[1] - 1) * pair[0]))
    built_cycles = 4
    trace_ops = 51

    def build_cycle(self, rng: Random, m, index: int) -> list[Op]:
        # A large system costs up to twice as much under one p as under
        # another, so p is dealt out evenly: the slots, largest first, take
        # the probabilities in rounds of all of them. The first round, the
        # largest systems, whose ops set the tail latency, is the same for
        # every seed; later rounds are seed-shuffled.
        largest_first = sorted(range(len(self.grid)), reverse=True,
                               key=lambda i: (self.grid[i][1] - 1) * self.grid[i][0])
        p_of = dict(zip(largest_first, self.probabilities))
        for start in range(len(self.probabilities), len(largest_first),
                           len(self.probabilities)):
            dealt = rng.sample(self.probabilities, len(self.probabilities))
            p_of.update(zip(largest_first[start:start + len(dealt)], dealt))
        ops = []
        for slot, (n, streak) in enumerate(self.grid):
            ante, fee = simple_fraction(rng), simple_fraction(rng)
            argv = ["pool", "solve", "--players", str(n), "--p", p_of[slot], "--streak",
                    str(streak), "--ante", ante, "--fee", fee, "--format", "json"]
            ops.append(Op(index + len(ops), f"n{n}", (streak - 1) * n,
                          {"argv": tuple(argv), "players": n}))
        return ops

    def run(self, op: Op, rt: Runtime):
        return rt.cli(list(op.payload["argv"]))

    def record(self, op: Op, out) -> str:
        return hashlib.sha256(out[1].encode("utf-8")).hexdigest()[:20]

    def check(self, op: Op, out, ctx: Context, m) -> None:
        code, text = out
        require(code == 0, "pool solve exited nonzero")
        seats = json.loads(text)["seats"]
        require(len(seats) == op.payload["players"], "wrong number of seats")
        wins = [fraction(s["win_prob"]["exact"]) for s in seats]
        nets = [fraction(s["expected_net"]["exact"]) for s in seats]
        require(all(0 <= w <= 1 for w in wins), "a win probability lies outside [0, 1]")
        require(sum(wins) == 1, "win probabilities do not sum to 1")
        require(sum(nets) == 0, "expected nets do not sum to 0")
        golden = ctx.goldens.get("digests")
        if golden is not None:
            require(self.record(op, out) == golden[op.index], "pool JSON differs from the golden")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def mixed_target(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> Fraction:
    t = LEHER_TABLE
    return (a * c * t[0][0] + a * d * t[0][1] + b * c * t[1][0] + b * d * t[1][1]) / (
        (a + b) * (c + d))


def check_band(ctx: Context, estimate: Fraction, target: Fraction, sigma: float,
               trials: int, verdict: str) -> bool:
    f = float(estimate)
    require(math.isclose(sigma, math.sqrt(f * (1 - f) / trials), rel_tol=1e-9, abs_tol=1e-15),
            "reported sigma is not the binomial standard error")
    miss = abs(f - float(target))
    within = miss <= SIGMA_BAND * sigma
    require(verdict == ("pass" if within else "fail"), "verdict disagrees with the 4-sigma band")
    require(miss <= GROSS_SIGMA * sigma or (sigma == 0 and miss == 0),
            "estimate lies beyond 6 sigma of the exact target")
    if not within:
        ctx.excursions += 1
    return within


class Simulate:
    """``simulate leher`` and ``pool simulate`` at fixed trial counts."""

    name = "simulate"
    golden_key = "counts"
    #: ((class, trials per op), slots per cycle): the trial counts give each
    #: class a similar op cost, so no single class dominates a run.
    schedule = interleave(((("leher", 4000), 2), (("pool-n3", 8000), 1),
                           (("pool-n4", 5000), 1), (("pool-n5", 3000), 1)))
    built_cycles = 120
    trace_ops = 60

    def build_cycle(self, rng: Random, m, index: int) -> list[Op]:
        ops = []
        for cls, trials in self.schedule:
            seed = rng.randrange(1, 1 << 63)
            if cls == "leher":
                while True:
                    weights = [rng.randint(0, 9) for _ in range(4)]
                    if weights[0] + weights[1] and weights[2] + weights[3]:
                        break
                argv = ["simulate", "leher", "--a", str(weights[0]), "--b", str(weights[1]),
                        "--c", str(weights[2]), "--d", str(weights[3]), "--seed", str(seed),
                        "--trials", str(trials), "--format", "json"]
                payload = {"argv": tuple(argv), "weights": tuple(weights)}
            else:
                players = int(cls[-1])
                argv = ["pool", "simulate", "--players", str(players), "--seed", str(seed),
                        "--trials", str(trials), "--format", "json"]
                payload = {"argv": tuple(argv), "players": players}
            payload.update(seed=seed, trials=trials)
            ops.append(Op(index + len(ops), cls, trials, payload))
        return ops

    def run(self, op: Op, rt: Runtime):
        return rt.cli(list(op.payload["argv"]))

    @staticmethod
    def counts(op: Op, data: dict) -> list[int]:
        """The exact integers behind a simulation's output: wins (and truncations, games)."""
        trials = op.payload["trials"]
        if op.cls == "leher":
            wins = fraction(data["estimate"]) * trials
            require(wins.denominator == 1, "estimate is not a win count over the trials")
            return [int(wins)]
        counts = []
        for seat in data["seats"]:
            wins = fraction(seat["win_freq"]) * trials
            require(wins.denominator == 1, "win frequency is not a count over the trials")
            counts.append(int(wins))
        games = fraction(data["expected_games"]) * trials
        require(games.denominator == 1, "mean games is not a count over the trials")
        return counts + [data["truncated_trials"], int(games)]

    def record(self, op: Op, out) -> list[int]:
        return self.counts(op, json.loads(out[1]))

    def check(self, op: Op, out, ctx: Context, m) -> None:
        code, text = out
        data = json.loads(text)
        trials = op.payload["trials"]
        require(data["trials"] == trials and data["seed"] == op.payload["seed"],
                "trials or seed not echoed")
        counts = self.counts(op, data)
        if op.cls == "leher":
            target = mixed_target(*(Fraction(w) for w in op.payload["weights"]))
            require(fraction(data["target"]) == target, "target is not Paul's mixed lot")
            ok = check_band(ctx, fraction(data["estimate"]), target, data["sigma"], trials,
                            data["verdict"])
        else:
            targets = ctx.goldens["pool_targets"][str(op.payload["players"])]
            seats = data["seats"]
            require(len(seats) == op.payload["players"], "wrong number of seats")
            ok = True
            for seat, target in zip(seats, targets):
                require(seat["target"] == target, "seat target is not the exact win probability")
                ok &= check_band(ctx, fraction(seat["win_freq"]), fraction(target),
                                 seat["sigma"], trials, seat["verdict"])
            require(sum(counts[:-2]) + data["truncated_trials"] == trials,
                    "seat wins and truncated trials do not add up to the trials")
        require(code == (0 if ok else 1), "exit code disagrees with the verdicts")
        golden = ctx.goldens.get("counts")
        if golden is not None:
            require(counts == golden[op.index], "simulation counts differ from the golden")


WORKLOADS = {w.name: w for w in (LeherExact(), MatrixSolve(), PoolExact(), Simulate())}


def build_inputs(workload, seed: int, m) -> list[Op]:
    """The run's whole input list: ``built_cycles`` cycles drawn from ``seed``."""
    rng = Random(seed)
    ops: list[Op] = []
    for _ in range(workload.built_cycles):
        ops += workload.build_cycle(rng, m, len(ops))
    return ops


def load_context(workload, seed: int) -> Context:
    """Seed-independent references always; per-op goldens for the default seed only."""
    goldens = {
        "reproduce": load_golden("reproduce.json")["text"],
        "threshold_matrix": [[fraction(x) for x in row]
                             for row in load_golden("threshold_matrix.json")],
        "pool_targets": load_golden("pool_sim_targets.json"),
    }
    if seed == DEFAULT_SEED and workload.golden_key is not None:
        goldens[workload.golden_key] = load_golden(f"{workload.name}.json")
    return Context(goldens=goldens)
