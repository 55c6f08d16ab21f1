"""Acceptance battery: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Every numeric comparison is exact rational equality
unless a criterion is explicitly statistical (the Monte Carlo concordance
uses a four-sigma band).
"""

import random
import time
from fractions import Fraction

from montmort.cli import _sigma
from montmort.etrennes import EtrennesConfig, etrennes_solve
from montmort.leher import (
    PaulAction,
    PaulStrategy,
    PierreAction,
    PierreStrategy,
    build_leher_matrix,
    conditional_lot_paul,
    conditional_lot_pierre,
    conditional_mixed_lot_paul7,
    mixed_value,
    paul_win_probability,
    pierre_win_probability,
    threshold_matrix,
    _weight_table,
)
from montmort.montecarlo import leher_simulate
from montmort.pool import PoolConfig, pool_expected_games, pool_simulate, pool_solve
from montmort.solver import (
    GameMatrix,
    MixedStrategy,
    solve_zero_sum,
    verify_equilibrium,
)
from oracles import enumerate_pool, negated_transpose

T7 = PaulStrategy.threshold(7)
T6 = PaulStrategy.threshold(6)
P8 = PierreStrategy.threshold(8)
P7 = PierreStrategy.threshold(7)

MINIMAX_VALUE = Fraction(2831, 5525) + Fraction(3, 4 * 5525)


def _verdict(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_table_reproduction():
    _weight_table.cache_clear()
    started = time.perf_counter()
    cells = (
        paul_win_probability(T7, P8),
        paul_win_probability(T7, P7),
        paul_win_probability(T6, P8),
        paul_win_probability(T6, P7),
    )
    elapsed = time.perf_counter() - started
    expected = (
        Fraction(2828, 5525),
        Fraction(2838, 5525),
        Fraction(2834, 5525),
        Fraction(2828, 5525),
    )
    _verdict(1, "table of Paul's lots over the four threshold pairs", cells == expected)
    assert elapsed < 1.0, f"table took {elapsed:.3f}s, budget 1s"


def test_criterion_2_waldegrave_conditional_lots():
    started = time.perf_counter()
    figures = (
        (conditional_lot_paul(7, PaulAction.SWITCH, P8), Fraction(780, 2550)),
        (conditional_lot_paul(7, PaulAction.HOLD, P7), Fraction(720, 2550)),
        (conditional_lot_paul(7, PaulAction.HOLD, P8), Fraction(816, 2550)),
        (conditional_lot_pierre(8, PierreAction.HOLD, T7), Fraction(150, 1150)),
        (conditional_lot_pierre(8, PierreAction.DRAW, T7), Fraction(210, 1150)),
        (conditional_lot_pierre(8, PierreAction.HOLD, T6), Fraction(350, 1350)),
        (conditional_lot_pierre(8, PierreAction.DRAW, T6), Fraction(314, 1350)),
    )
    elapsed = time.perf_counter() - started
    _verdict(
        2,
        "Waldegrave's seven conditional lots",
        all(computed == expected for computed, expected in figures),
    )
    assert elapsed < 1.0, f"conditional lots took {elapsed:.3f}s, budget 1s"


def test_criterion_3_bernoulli_token_argument():
    even_tokens = conditional_mixed_lot_paul7(Fraction(1, 2), Fraction(1, 2))
    always_switch = conditional_mixed_lot_paul7(Fraction(1), Fraction(1, 2))
    _verdict(
        3,
        "Bernoulli's even-token lot 774/2550 and the 780/2550 switch guarantee",
        even_tokens == Fraction(774, 2550) and always_switch == Fraction(780, 2550),
    )


def test_criterion_4_minimax_solution():
    solution = solve_zero_sum(build_leher_matrix())
    ok = (
        solution.value == MINIMAX_VALUE
        and solution.value == Fraction(11327, 22100)
        and solution.row_mix.probabilities() == (Fraction(3, 8), Fraction(5, 8))
        and solution.col_mix.probabilities() == (Fraction(5, 8), Fraction(3, 8))
    )
    row_weights = [Fraction(0)] * 14
    row_weights[7], row_weights[6] = Fraction(3), Fraction(5)
    col_weights = [Fraction(0)] * 14
    col_weights[8], col_weights[7] = Fraction(5), Fraction(3)
    extended_ok, extended_value, _ = verify_equilibrium(
        threshold_matrix(),
        MixedStrategy(row_weights),
        MixedStrategy(col_weights),
    )
    _verdict(
        4,
        "minimax value 11327/22100 with 3:5 and 5:3 mixes, certified on the 14x14 game",
        ok and extended_ok and extended_value == MINIMAX_VALUE,
    )


def test_criterion_5_guarantee_sweep():
    rng = random.Random(20260810)
    ok = True
    for _ in range(100):
        c = Fraction(rng.randint(0, 1000), rng.randint(1, 50))
        d = Fraction(rng.randint(0, 1000), rng.randint(1, 50))
        if c + d == 0:
            c = Fraction(1, 7)
        ok = ok and mixed_value(3, 5, c, d) == MINIMAX_VALUE
    for _ in range(100):
        a = Fraction(rng.randint(0, 1000), rng.randint(1, 50))
        b = Fraction(rng.randint(0, 1000), rng.randint(1, 50))
        if a + b == 0:
            a = Fraction(1, 7)
        ok = ok and mixed_value(a, b, 5, 3) == MINIMAX_VALUE
    _verdict(5, "mixed_value(3,5,c,d) and (a,b,5,3) pin 11327/22100 over 100 random pairs", ok)


def test_criterion_6_montmort_1711_bound():
    advantage = paul_win_probability(T7, P8) - Fraction(1, 2)
    _verdict(
        6,
        "Paul's advantage lies strictly between 1/85 and 1/84",
        Fraction(1, 85) < advantage < Fraction(1, 84),
    )


def test_criterion_7_complement_check():
    paul = paul_win_probability(T7, P8)
    pierre = pierre_win_probability(T7, P8)
    _verdict(
        7,
        "Pierre's pure-solution lot is 2697/5525 and complements Paul's exactly",
        pierre == Fraction(2697, 5525) and paul + pierre == 1,
    )


def test_criterion_8_pool_three_fair_players():
    config = PoolConfig(3)
    started = time.perf_counter()
    solution = pool_solve(config)
    games = pool_expected_games(config)
    exact_elapsed = time.perf_counter() - started

    oracle_started = time.perf_counter()
    oracle = enumerate_pool(config, depth=60)
    oracle_elapsed = time.perf_counter() - oracle_started
    oracle_ok = oracle.tail_mass <= Fraction(1, 2**59)
    for seat in range(3):
        low = oracle.win_mass[seat]
        oracle_ok = oracle_ok and low <= solution.win_prob[seat] <= low + oracle.tail_mass
        oracle_ok = oracle_ok and (
            abs(oracle.expected_net[seat] - solution.expected_net[seat])
            <= oracle.residual_net_bound
        )

    ok = (
        solution.win_prob == (Fraction(5, 14), Fraction(5, 14), Fraction(2, 7))
        and games == 3
        and solution.expected_net == (Fraction(1, 98), Fraction(1, 98), Fraction(-1, 49))
        and oracle_ok
    )
    _verdict(8, "pool n=3 fair: (5/14, 5/14, 2/7), 3 games, nets (1/98, 1/98, -1/49)", ok)
    assert exact_elapsed < 1.0, f"exact pool solve took {exact_elapsed:.3f}s, budget 1s"
    assert oracle_elapsed < 30.0, f"depth-60 oracle took {oracle_elapsed:.3f}s, budget 30s"


def test_criterion_9_etrennes():
    solution = etrennes_solve(EtrennesConfig())
    ok = (
        solution.value == Fraction(4, 5)
        and solution.row_mix.weights == (Fraction(1), Fraction(4))
        and solution.col_mix.weights == (Fraction(1), Fraction(4))
    )
    rng = random.Random(1713)
    for _ in range(50):
        even = Fraction(rng.randint(1, 200), rng.randint(1, 20))
        odd = Fraction(rng.randint(1, 200), rng.randint(1, 20))
        swept = etrennes_solve(EtrennesConfig(even, odd))
        ok = ok and swept.value == even * odd / (even + odd)
        ok = ok and swept.row_mix.probabilities() == (
            odd / (even + odd),
            even / (even + odd),
        )
    _verdict(9, "Les Etrennes: value 4/5 with 1:4 mixes, closed form over 50 prize pairs", ok)


def test_criterion_10_monte_carlo_concordance():
    started = time.perf_counter()
    leher_run = leher_simulate(3, 5, 5, 3, seed=17, trials=1_000_000)
    leher_target = mixed_value(3, 5, 5, 3)
    leher_sigma = _sigma(leher_run.frequency, leher_run.trials)
    leher_ok = abs(float(leher_run.frequency) - float(leher_target)) <= 4 * leher_sigma

    config = PoolConfig(3)
    pool_run = pool_simulate(config, seed=17, trials=1_000_000)
    exact = pool_solve(config)
    pool_ok = all(
        abs(float(estimate) - float(target)) <= 4 * _sigma(estimate, pool_run.trials)
        for estimate, target in zip(pool_run.win_prob, exact.win_prob)
    )
    elapsed = time.perf_counter() - started

    replay_ok = (
        leher_simulate(3, 5, 5, 3, seed=17, trials=1_000_000) == leher_run
        and pool_simulate(config, seed=17, trials=1_000_000) == pool_run
    )
    _verdict(
        10,
        "one-million-trial simulations inside four sigma and bit-identical on replay",
        leher_ok and pool_ok and replay_ok,
    )
    assert elapsed < 60.0, f"simulations took {elapsed:.1f}s, budget 60s"


def test_criterion_11_property_suites():
    started = time.perf_counter()

    laws_ok = True
    for t_paul in range(14):
        paul = PaulStrategy.threshold(t_paul)
        for t_pierre in range(14):
            pierre = PierreStrategy.threshold(t_pierre)
            paul_lot = paul_win_probability(paul, pierre)
            laws_ok = laws_ok and paul_lot + pierre_win_probability(paul, pierre) == 1
            total = sum(
                Fraction(4, 52) * conditional_lot_paul(
                    card, PaulAction.SWITCH if switch else PaulAction.HOLD, pierre
                )
                for card, switch in enumerate(paul.switch, 1)
            )
            laws_ok = laws_ok and total == paul_lot

    rng = random.Random(1714)
    solver_ok = True
    for _ in range(200):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        game = GameMatrix.from_rows(
            [[Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(n)] for _ in range(m)]
        )
        solution = solve_zero_sum(game)
        dual = solve_zero_sum(negated_transpose(game))
        certified, value, _ = verify_equilibrium(game, solution.row_mix, solution.col_mix)
        solver_ok = (
            solver_ok
            and dual.value == -solution.value
            and certified
            and value == solution.value
        )
    elapsed = time.perf_counter() - started
    _verdict(
        11,
        "complementarity and total probability on all 196 threshold pairs; "
        "duality and certificates on 200 random games",
        laws_ok and solver_ok,
    )
    assert elapsed < 300.0, f"property suites took {elapsed:.1f}s, budget 5min"
