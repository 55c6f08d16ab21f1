import random
from dataclasses import fields
from fractions import Fraction
from math import sqrt

import pytest

from montmort.cli import _sigma
from montmort.leher import mixed_value
from montmort.montecarlo import (
    MASK64,
    ZERO_SEED_REPLACEMENT,
    LeherSimulation,
    RandomStream,
    leher_simulate,
)
from montmort.pool import PoolConfig, pool_simulate
from oracles import (
    bernoulli,
    seed_with_output,
    simulate_leher_reference,
    simulate_pool_reference,
)

# Generated once from this implementation (seed 42, bound 52) and frozen;
# any change to the generator or its consumption order must show up here.
GOLDEN_SEED42_BELOW52 = [36, 30, 26]

# Whole simulation results, frozen the same way. The README promises that a
# seed gives the same result everywhere; these pin that promise for both
# simulators, including a zero weight, fractional weights, seed 0 and a seed
# above 2**64 (masked to 5). Each run is pinned with the standard error the
# CLI prints for it, an exact float.
GOLDEN_LEHER = [
    ((3, 5, 5, 3), 17, 20000,
     (LeherSimulation(10183, 20000, Fraction(10183, 20000)), 0.003534941848885212)),
    ((1, 0, 1, 0), 8, 5000,
     (LeherSimulation(2624, 5000, Fraction(2624, 5000)), 0.007062364476575816)),
    ((0, 1, 0, 1), 2**64 + 5, 5000,
     (LeherSimulation(2547, 5000, Fraction(2547, 5000)), 0.007069818102327668)),
    (("1/3", 2, 5, "7/2"), 0, 7919,
     (LeherSimulation(4002, 7919, Fraction(4002, 7919)), 0.005618363234482689)),
]

# (config, seed, trials, max_games or None, seat wins, total games, truncated)
GOLDEN_POOL = [
    (PoolConfig(3), 17, 20000, None, [7232, 7073, 5695], 59755, 0),
    (PoolConfig(5, Fraction(2, 5)), 4, 3000, None, [613, 626, 613, 583, 565], 76049, 0),
    (PoolConfig(4, Fraction(3, 4), streak_required=3), 99, 5000, None,
     [2374, 983, 891, 752], 20466, 0),
    (PoolConfig(3), 3, 500, 2, [120, 130, 0], 1000, 250),
]

# The same cases' per-seat win standard errors as the CLI prints them, keyed
# by seed. Exact floats, frozen with the counts above.
GOLDEN_POOL_SE = {
    17: (0.0033973919408864205, 0.003380692809913376, 0.003191139588767624),
    4: (0.007361639813298443, 0.007419004625260024, 0.007361639813298443,
        0.007224215964123463, 0.007138251160447469),
    99: (0.007062081279622884, 0.005620470442943367, 0.005411926828773649,
         0.005055291089541729),
    3: (0.019099738218101316, 0.019616319736382767, 0.0),
}


class TestRandomStream:
    def test_golden_first_outputs(self):
        stream = RandomStream(42)
        assert [stream.next_below(52) for _ in range(3)] == GOLDEN_SEED42_BELOW52

    def test_bound_one_is_always_zero(self):
        stream = RandomStream(7)
        assert {stream.next_below(1) for _ in range(100)} == {0}

    def test_zero_seed_is_remapped(self):
        assert RandomStream(0).state == ZERO_SEED_REPLACEMENT
        a = RandomStream(0)
        b = RandomStream(ZERO_SEED_REPLACEMENT)
        assert [a.next_below(2**64) for _ in range(5)] == [
            b.next_below(2**64) for _ in range(5)
        ]

    def test_equal_seeds_give_equal_long_prefixes(self):
        a = RandomStream(123456789)
        b = RandomStream(123456789)
        assert [a.next_below(52) for _ in range(10_000)] == [
            b.next_below(52) for _ in range(10_000)
        ]

    def test_outputs_stay_in_range(self):
        stream = RandomStream(5)
        for bound in (2, 3, 13, 52, 1000):
            assert all(0 <= stream.next_below(bound) < bound for _ in range(200))

    def test_bound_zero_rejected(self):
        for bound in (0, 2**64 + 1, 2.5, True, "3"):
            with pytest.raises(ValueError, match="bound must lie in 1..2"):
                RandomStream(1).next_below(bound)
        assert 0 <= RandomStream(1).next_below(2**64) < 2**64

    def test_rejection_sampling_is_unbiased_enough(self):
        # Spec'd bias check: one million draws below 52, every residue
        # within five sigma of uniform.
        draws = 1_000_000
        stream = RandomStream(2025)
        counts = [0] * 52
        next_below = stream.next_below
        for _ in range(draws):
            counts[next_below(52)] += 1
        p = 1 / 52
        sigma = sqrt(p * (1 - p) * draws)
        for count in counts:
            assert abs(count - draws * p) <= 5 * sigma

    def test_bernoulli_edges_and_validation(self):
        stream = RandomStream(11)
        assert all(bernoulli(stream, Fraction(1)) for _ in range(50))
        assert not any(bernoulli(stream, Fraction(0)) for _ in range(50))
        with pytest.raises(ValueError):
            bernoulli(stream, Fraction(3, 2))


class TestForcedRejection:
    """Draws at or above the rejection limit, forced by a seed built backwards.

    A draw below `bound` rejects a raw output at or above 2**64 - 2**64 % bound:
    only 2**64 - 1 for bounds 3 and 51, the top 16 outputs for 50 and 52.
    Seeded runs reject with probability at most 2**-58 a draw, so only a
    constructed seed takes that branch.
    """

    def test_seed_builder_hits_the_chosen_output(self):
        assert seed_with_output(MASK64) == 12165231662994148584
        for output, k in ((MASK64, 1), (5, 3), (2**64 - 16, 7)):
            stream = RandomStream(seed_with_output(output, k))
            assert [stream.next_below(2**64) for _ in range(k)][-1] == output

    @pytest.mark.parametrize(
        "bound,output,rejected",
        [(3, MASK64, True), (3, MASK64 - 1, False), (51, MASK64, True),
         (52, 2**64 - 16, True), (52, 2**64 - 17, False), (50, 2**64 - 16, True)],
    )
    def test_next_below_skips_a_rejected_draw(self, bound, output, rejected):
        seed = seed_with_output(output)
        raw = RandomStream(seed)
        outputs = [raw.next_below(2**64) for _ in range(1 + rejected)]
        stream = RandomStream(seed)
        assert stream.next_below(bound) == outputs[-1] % bound
        assert stream.state == raw.state

    # Token bounds of 1 never reject, so the k-th draw is the card meant.
    @pytest.mark.parametrize(
        "weights,k",
        [((1, 2, 1, 0), 1), ((1, 0, 2, 1), 2), ((1, 0, 1, 0), 3), ((1, 0, 1, 0), 4),
         ((0, 1, 0, 1), 5)],
        ids=["paul-token", "pierre-token", "card-52", "card-51", "card-50"],
    )
    def test_leher_simulate_matches_reference(self, weights, k):
        # Every prefix of trials, so a misplaced draw shows in the trial it shifts.
        seed = seed_with_output(MASK64, k)
        for trials in range(1, 31):
            expected = simulate_leher_reference(*weights, seed=seed, trials=trials)
            assert leher_simulate(*weights, seed=seed, trials=trials).wins == expected

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_pool_simulate_matches_reference(self, k):
        config = PoolConfig(3, Fraction(1, 3))
        seed = seed_with_output(MASK64, k)
        for trials in range(1, 21):
            wins, total_games, truncated = simulate_pool_reference(
                config, seed=seed, trials=trials, max_games=1_000_000
            )
            result = pool_simulate(config, seed=seed, trials=trials)
            assert result.win_prob == tuple(Fraction(w, trials) for w in wins)
            assert result.expected_games == Fraction(total_games, trials)
            assert result.truncated_trials == truncated


class TestGoldenSimulations:
    @pytest.mark.parametrize("weights,seed,trials,expected", GOLDEN_LEHER)
    def test_leher_simulate(self, weights, seed, trials, expected):
        run, sigma = expected
        assert leher_simulate(*weights, seed=seed, trials=trials) == run
        assert _sigma(run.frequency, trials) == sigma

    @pytest.mark.parametrize(
        "config,seed,trials,max_games,wins,total_games,truncated", GOLDEN_POOL
    )
    def test_pool_simulate(self, config, seed, trials, max_games, wins, total_games, truncated):
        kwargs = {} if max_games is None else {"max_games": max_games}
        result = pool_simulate(config, seed=seed, trials=trials, **kwargs)
        assert result.win_prob == tuple(Fraction(w, trials) for w in wins)
        assert result.expected_games == Fraction(total_games, trials)
        assert result.truncated_trials == truncated
        sigmas = tuple(_sigma(frequency, trials) for frequency in result.win_prob)
        assert sigmas == GOLDEN_POOL_SE[seed]

    def test_results_are_exact(self):
        # A run returns counts and their frequencies; no field is a float.
        runs = [
            leher_simulate(3, 5, 5, 3, seed=17, trials=500),
            pool_simulate(PoolConfig(4, Fraction(2, 5)), seed=4, trials=300),
            pool_simulate(PoolConfig(3), seed=3, trials=500, max_games=2),
        ]
        assert runs[-1].truncated_trials > 0
        for run in runs:
            for field in fields(run):
                value = getattr(run, field.name)
                if type(value) is tuple:
                    assert {type(x) for x in value} == {Fraction}, field.name
                else:
                    assert type(value) in (int, Fraction), field.name


def _reference_cases(count: int) -> list[tuple]:
    """Seeded (weights, seed, trials) cases for the Le Her reference oracle."""
    rng = random.Random(1504)
    weight_pool = (0, 1, 2, 3, 5, 8, "1/3", "7/2", Fraction(5, 9), "0/7")
    special_seeds = (0, -1, -(2**63), 2**64, 2**64 + 5, 2**100 + 3, 2**64 - 1)
    cases = [((3, 5, 5, 3), 17, 2000), ((1, 0, 0, 1), -8, 2000), ((0, 1, 1, 0), 2**64, 2000)]
    while len(cases) < count:
        a, b, c, d = (rng.choice(weight_pool) for _ in range(4))
        if Fraction(a) + Fraction(b) == 0 or Fraction(c) + Fraction(d) == 0:
            continue
        if len(cases) % 3 == 0:
            seed = special_seeds[len(cases) // 3 % len(special_seeds)]
        else:
            seed = rng.randrange(-(2**70), 2**70)
        cases.append(((a, b, c, d), seed, rng.randint(200, 400)))
    return cases


class TestLeherReferenceOracle:
    def test_wins_match_plain_law(self):
        mismatches = []
        for weights, seed, trials in _reference_cases(240):
            wins = leher_simulate(*weights, seed=seed, trials=trials).wins
            expected = simulate_leher_reference(*weights, seed=seed, trials=trials)
            if wins != expected:
                mismatches.append((weights, seed, trials, wins, expected))
        assert mismatches == []


class TestLeherSimulate:
    def test_deterministic_for_fixed_seed(self):
        assert leher_simulate(3, 5, 5, 3, seed=1, trials=5000) == leher_simulate(
            3, 5, 5, 3, seed=1, trials=5000
        )

    def test_pure_strategies_match_table_cell(self):
        result = leher_simulate(1, 0, 1, 0, seed=8, trials=100_000)
        target = float(Fraction(2828, 5525))
        assert abs(float(result.frequency) - target) <= 4 * _sigma(result.frequency, result.trials)

    def test_optimal_tokens_match_mixed_value(self):
        result = leher_simulate(3, 5, 5, 3, seed=21, trials=100_000)
        target = float(mixed_value(3, 5, 5, 3))
        assert abs(float(result.frequency) - target) <= 4 * _sigma(result.frequency, result.trials)

    def test_equal_tokens_match_average_cell(self):
        result = leher_simulate(1, 1, 1, 1, seed=34, trials=100_000)
        target = float(Fraction(2832, 5525))
        assert abs(float(result.frequency) - target) <= 4 * _sigma(result.frequency, result.trials)

    def test_frequency_is_exact_count_ratio(self):
        result = leher_simulate(1, 1, 1, 1, seed=3, trials=999)
        assert result.frequency == Fraction(result.wins, 999)
        assert result.trials == 999

    def test_weight_validation_mirrors_mixed_value(self):
        with pytest.raises(ValueError):
            leher_simulate(0, 0, 1, 1, seed=1, trials=10)
        with pytest.raises(ValueError):
            leher_simulate(1, 1, -1, 2, seed=1, trials=10)
        with pytest.raises(ValueError):
            leher_simulate(1, 1, 1, 1, seed=1, trials=0)
        for trials in (True, 2.5, "10"):
            with pytest.raises(ValueError):
                leher_simulate(1, 1, 1, 1, seed=1, trials=trials)
        for seed in (True, 1.5, "3", None):
            with pytest.raises(ValueError, match="seed must be an integer"):
                leher_simulate(1, 1, 1, 1, seed=seed, trials=10)
