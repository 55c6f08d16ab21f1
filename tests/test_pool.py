import random
import re
import time
from fractions import Fraction
from math import lcm, sqrt

import pytest

from montmort import pool
from montmort.cli import _sigma
from montmort.pool import (
    PoolConfig,
    PoolDivergenceError,
    PoolSimulation,
    pool_expected_games,
    pool_simulate,
    pool_solve,
    pool_win_probabilities,
)
from oracles import (
    PoolState,
    advance,
    duration_moments,
    enumerate_pool,
    level_one_reference,
    opening_state,
    pool_solve_reference,
    simulate_pool_reference,
    solve_linear_system_reference,
    unlumped_win_probabilities,
)

FAIR3 = PoolConfig(3)
# Game one decides the pool; two seats only pay their antes.
STREAK1_STAKES = PoolConfig(
    4, Fraction(2, 3), ante=Fraction(3, 2), fee=Fraction(1, 4), streak_required=1
)


class TestConfig:
    def test_streak_defaults_to_players_minus_one(self):
        assert PoolConfig(5).streak_required == 4
        assert PoolConfig(3, streak_required=4).streak_required == 4

    def test_wire_form_fields(self):
        config = PoolConfig(3, "1/3", ante="2", fee="1/2")
        assert config.champion_win_prob == Fraction(1, 3)
        assert config.pot == 6

    def test_record_repr_equality_and_hash(self):
        config = PoolConfig(3)
        assert repr(config) == (
            "PoolConfig(players=3, champion_win_prob=Fraction(1, 2), ante=Fraction(1, 1),"
            " fee=Fraction(1, 1), streak_required=2)"
        )
        same = PoolConfig(3, "1/2", ante=1, fee=Fraction(1), streak_required=2)
        assert config == same and hash(config) == hash(same)
        assert config != PoolConfig(3, streak_required=3)

    def test_record_is_immutable(self):
        config = PoolConfig(3)
        with pytest.raises(AttributeError, match="cannot assign to field 'players'"):
            config.players = 4
        assert config.players == 3

    BAD_PARAMETERS = [
        ({"players": 1}, "players must be an integer >= 2, got 1"),
        (
            {"players": 3, "champion_win_prob": Fraction(3, 2)},
            "champion_win_prob must be in [0, 1], got 3/2",
        ),
        ({"players": 3, "ante": -1}, "ante must be >= 0, got -1"),
        ({"players": 3, "fee": Fraction(-1, 2)}, "fee must be >= 0, got -1/2"),
        ({"players": 3, "streak_required": 0}, "streak_required must be an integer >= 1, got 0"),
        ({"players": True}, "players must be an integer >= 2, got True"),
        (
            {"players": 3, "streak_required": True},
            "streak_required must be an integer >= 1, got True",
        ),
    ]

    @pytest.mark.parametrize(
        "kwargs, message", BAD_PARAMETERS, ids=[f"kwargs{i}" for i in range(len(BAD_PARAMETERS))]
    )
    def test_rejects_bad_parameters(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PoolConfig(**kwargs)


class TestStateLaw:
    def test_champion_win_extends_streak(self):
        state = PoolState(0, 1, (2, 1))
        assert advance(state, True) == PoolState(0, 2, (1, 2))

    def test_champion_loss_crowns_the_challenger(self):
        state = PoolState(0, 2, (2, 1))
        assert advance(state, False) == PoolState(2, 1, (1, 0))

    def test_opening_states(self):
        assert opening_state(FAIR3, True) == PoolState(0, 1, (2, 1))
        assert opening_state(FAIR3, False) == PoolState(1, 1, (2, 0))

    def test_state_validation(self):
        with pytest.raises(ValueError):
            PoolState(0, 0, (1, 2))
        with pytest.raises(ValueError):
            PoolState(0, 1, (0, 2))


class TestWinProbabilities:
    def test_three_fair_players(self):
        assert pool_win_probabilities(FAIR3) == (
            Fraction(5, 14),
            Fraction(5, 14),
            Fraction(2, 7),
        )

    def test_role_recursion_closed_form(self):
        # With p = 1/2 and a two-game streak: the fresh champion's chance c
        # solves c = 1/2 + w/2 with h = c/2 and w = h/2, i.e. (4/7, 2/7, 1/7).
        c = Fraction(4, 7)
        h = c / 2
        w = h / 2
        assert c == Fraction(1, 2) + w / 2
        probs = pool_win_probabilities(FAIR3)
        assert probs[0] == (c + w) / 2
        assert probs[2] == h

    @pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)])
    def test_two_players_single_game(self, p):
        assert pool_win_probabilities(PoolConfig(2, p)) == (p, 1 - p)

    def test_certain_champion_sweeps(self):
        assert pool_win_probabilities(PoolConfig(3, Fraction(1))) == (1, 0, 0)

    def test_divergence_error_not_a_hang(self):
        with pytest.raises(PoolDivergenceError):
            pool_win_probabilities(PoolConfig(3, Fraction(0)))
        with pytest.raises(PoolDivergenceError):
            pool_solve(PoolConfig(4, Fraction(0)))

    def test_every_pivot_is_positive(self, monkeypatch):
        # With p = a/b and K = R - 1 each level-1 row's diagonal exceeds its
        # off-diagonal magnitudes by a^K, and elimination keeps that margin
        # positive, so the elimination needs no pivot search.
        eliminate, margin, checked = pool._eliminate, [], []

        def checked_eliminate(rows):
            for r, row in enumerate(rows):
                off_diagonal = sum(abs(x) for j, x in enumerate(row) if j != r)
                assert row[r] - off_diagonal == margin[0], (rows, r)
            eliminate(rows)
            assert all(row[r] > 0 for r, row in enumerate(rows)), rows
            checked.append(len(rows))

        monkeypatch.setattr(pool, "_eliminate", checked_eliminate)
        chances = (Fraction(1, 10**6), Fraction(1, 3), Fraction(1, 2), Fraction(999999, 10**6), Fraction(1))
        configs = [
            PoolConfig(n, p, streak_required=r)
            for n in range(2, 13) for r in range(1, 2 * n + 2) for p in chances
        ] + [PoolConfig(n, Fraction(0), streak_required=1) for n in range(2, 13)]
        for config in configs:
            margin[:] = [config.champion_win_prob.numerator ** (config.streak_required - 1)]
            pool_win_probabilities(config)
        assert checked == [config.players for config in configs]

    def test_streak_one_with_spectators(self):
        probs = pool_win_probabilities(PoolConfig(5, Fraction(2, 3), streak_required=1))
        assert probs == (Fraction(2, 3), Fraction(1, 3), 0, 0, 0)
        # Game one decides the pool, so every win path is empty and the
        # pot is paid at its start, to the incumbent role alone.
        for n in (3, 4, 6):
            for p in (Fraction(0), Fraction(1, 3), Fraction(1)):
                config = PoolConfig(n, p, streak_required=1)
                expected = (p, 1 - p) + (0,) * (n - 2)
                assert pool_win_probabilities(config) == expected
                solution = pool_solve(config)
                assert solution.win_prob == expected
                assert solution.expected_games == 1

    @pytest.mark.parametrize(
        "config",
        [
            PoolConfig(3, Fraction(2, 5)),
            PoolConfig(4, Fraction(1, 2)),
            PoolConfig(4, Fraction(1, 3)),
            PoolConfig(3, Fraction(3, 4), streak_required=3),
            PoolConfig(2, Fraction(1, 3), streak_required=3),
            PoolConfig(5, Fraction(2, 5), streak_required=2),
            PoolConfig(3, Fraction(1, 3), streak_required=4),
        ],
    )
    def test_matches_unlumped_state_space_solve(self, config):
        assert pool_win_probabilities(config) == unlumped_win_probabilities(config)

    def test_opening_symmetry_at_even_odds(self):
        for n in (3, 4, 5):
            solution = pool_solve(PoolConfig(n))
            assert solution.win_prob[0] == solution.win_prob[1]
            assert solution.expected_payment[0] == solution.expected_payment[1]
            assert solution.expected_net[0] == solution.expected_net[1]

    def test_waiting_seats_degrade_at_even_odds(self):
        probs = pool_win_probabilities(PoolConfig(4))
        assert probs[0] == probs[1] >= probs[2] >= probs[3]


class TestHistoricalPoolClosedForm:
    """Under the default streak R = n - 1, seats 1..n-1 win in geometric ratio.

    Law: w[k + 1] / w[k] = 1 / (1 + q p^(n-2)) for k = 1..n-2, q = 1 - p.

    Argument. Let z(s, i) be the chance of the player at queue position
    i >= 1 while the champion is on streak s, and x_i = z(1, i). Couple the
    games of two pools that differ only in that streak, s against s + 1.
    They stay identical until the champion loses, after which their states
    coincide, unless the champion first wins m = R - s - 1 games in a row:
    then the streak-(s + 1) pool ends with the tracked player beaten (it
    stood within reach, i <= m), while the streak-s champion, with
    probability q, loses the next game and starts a fresh reign in which
    the tracked player stands at position i + s. So

        z(s, i) = z(s + 1, i) + q p^m x_{i+s}        (i + s <= n - 2).

    A player at position i + 1 >= 2 is not the next challenger: a champion
    loss starts a fresh reign with it at position i, a champion win leaves
    it at position i behind a streak-2 champion, so
    x_{i+1} = q x_i + p z(2, i) = x_i - q p^(n-2) x_{i+1} for i + 1 <= n - 2.
    Game one leaves a streak-1 champion and seat k >= 2 at position k - 1
    whatever its outcome, so w[k] = x_{k-1}: seats 2..n-1 are geometric.
    Seat 1 stands at position 1 behind a streak-0 champion, so
    w[1] = z(0, 1) = x_1 + q p^(n-2) x_1 = w[2] (1 + q p^(n-2)).
    At p = 1/2 seats 0 and 1 are interchangeable, so w[0] = w[1] as well
    and the law fixes the whole vector.

    This is an independent check on the engine's role solve, far beyond
    the unlumped oracle's reach.
    """

    @staticmethod
    def ratio(n, p):
        return 1 / (1 + (1 - p) * p ** (n - 2))

    @pytest.mark.parametrize(
        "n, p",
        [
            (n, p)
            for n in range(3, 9)
            for p in ("1/7", "1/3", "2/5", "1/2", "3/4", "5/6")
        ]
        + [(n, p) for n in (20, 30, 40) for p in ("1/2", "2/5")],
    )
    def test_geometric_ratio(self, n, p):
        config = PoolConfig(n, p)
        win = pool_win_probabilities(config)
        assert sum(win) == 1
        ratio = self.ratio(n, config.champion_win_prob)
        for k in range(1, n - 1):
            assert win[k + 1] == ratio * win[k]

    def fair_law(self, n):
        # w[0] = w[1] = a and w[k] = a ratio^(k-1) for k >= 1, summing to 1.
        ratio = self.ratio(n, Fraction(1, 2))
        a = 1 / (1 + sum(ratio**k for k in range(n - 1)))
        return (a, *(a * ratio**k for k in range(n - 1)))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_fair_pool_is_fixed_by_the_law(self, n):
        assert pool_win_probabilities(PoolConfig(n)) == self.fair_law(n)

    def test_law_gives_waldegraves_answer(self):
        assert self.fair_law(3) == (Fraction(5, 14), Fraction(5, 14), Fraction(4, 14))


def _determinant(rows):
    """Exact determinant by elimination without row swaps.

    Every pivot stays nonzero on a strictly diagonally dominant matrix, such
    as the level-1 I - M(p) below, because elimination keeps the dominance.
    """
    rows = [list(row) for row in rows]
    determinant = Fraction(1)
    for c, pivot_row in enumerate(rows):
        determinant *= pivot_row[c]
        for row in rows[c + 1:]:
            factor = row[c] / pivot_row[c]
            row[c:] = [a - factor * b for a, b in zip(row[c:], pivot_row[c:])]
    return determinant


def _cleared(config, values, power=1):
    """Each of `values` times D(p)**power, D(p) = det(I - M(p)) of `config`, then D(p)."""
    determinant = _determinant(level_one_reference(config)[0])
    return (*(v * determinant**power for v in values), determinant)


def _cleared_win_chances(players, streak, p):
    config = PoolConfig(players, p, streak_required=streak)
    return _cleared(config, pool_win_probabilities(config))


def _cleared_losses(players, streak, p):
    # With ante 0 and fee 1 a seat's payment is its expected losses.
    config = PoolConfig(players, p, ante=0, fee=1, streak_required=streak)
    return _cleared(config, pool_solve(config).expected_payment)


def _cleared_nets(players, streak, p):
    # The games-weighted wins solve a second system whose right-hand side
    # holds the win chances over D, so the nets clear by D(p)**2.
    config = PoolConfig(players, p, ante=Fraction(3, 2), fee=2, streak_required=streak)
    return _cleared(config, pool_solve(config).expected_net, power=2)


def holds_for_every_p(players, streak, law, bound, extra=3, cleared=_cleared_win_chances):
    """Whether `law` holds at every p in (0, 1], from exact points.

    `cleared(players, streak, p)` gives each seat's quantity cleared of its
    denominator, then D(p): by default the win chances times D(p), or
    `_cleared_losses` (times D(p)) or `_cleared_nets` (times D(p)**2).
    `law(p, values)` returns the law's two cleared sides, each a tuple of
    polynomials in p of degree at most `bound`, evaluated at p: the law
    holds everywhere once the sides agree at bound + 1 distinct points.
    They are evaluated at k / m for k = 1..m, m = bound + 1 + extra. The
    `extra` points beyond bound + 1 check the bound itself: every side's
    (bound + 1)-th finite differences over those points must vanish, so a
    bound that is too small fails here instead of proving nothing. With no
    extra point there is nothing to check, so `extra` must be at least 1.
    """
    if extra < 1:
        raise ValueError(f"extra = {extra} points check no degree; at least 1 is needed")
    count = bound + 1 + extra
    points = [Fraction(k, count) for k in range(1, count + 1)]
    sides = [law(p, cleared(players, streak, p)) for p in points]
    for values in zip(*(left + right for left, right in sides)):
        for _ in range(bound + 1):
            values = [b - a for a, b in zip(values, values[1:])]
        assert not any(values), f"a side of the law has degree above {bound}"
    return all(left == right for left, right in sides)


class TestPoolLawsForEveryP:
    """Four pool laws proven for every p in (0, 1], not only at sampled p.

    No denominator vanishes. The level-1 system is (I - M(p)) C = c(p), with
    M's entries q p^j (j <= R - 2). Each row of M sums to
    q (1 + p + ... + p^(R-2)) = 1 - p^(R-1), below 1 on (0, 1), and M = 0
    at p = 1. So I - M is strictly diagonally dominant and
    D(p) = det(I - M(p)) is nonzero on (0, 1]. By Cramer's rule each seat's
    win chance is N_s(p) / D(p) with N_s a polynomial, and a law cleared of
    D is a polynomial identity in p.

    Degree bounds. M's entries have degree <= R - 1 and c's <= R - 2, so
    each challenge count C_r is a numerator of degree
    <= (n - 1)(R - 1) + R - 2 over D. A level-1 win chance is
    (q C_r + [r = 0]) p^(R-1) and game one multiplies by p or q, so every
    N_s, and D (degree <= n(R - 1)), has degree <= (n + 1)(R - 1) + 1.
    Each law below clears to two sides, and the bound covers both.
    - Sum of the win chances = 1 clears to sum(N_s) = D, of the same degree.
    - The default-streak ratio law w[k+1] (1 + q p^(n-2)) = w[k] clears to
      N_{k+1} (1 + q p^(n-2)) = N_k; with R = n - 1 the left side's degree
      is <= (n + 1)(n - 2) + 1 + (n - 1) = n^2 - 2.
    - Sum of the expected losses = E[G], as each game has one loser. With
      K = R - 1, a level-1 role loses C_r + [r = 0] less its win chance, so
      its losses times D are C_r D (1 - q p^K) + [r = 0] D (1 - p^K), of
      degree <= (n - 1)(R - 1) + R - 2 + R = (n + 1)(R - 1). Game one adds
      a reward (q D for seat 0, p D for seat 1) and multiplies by p or q:
      each seat's cleared losses L_s D, like N_s, have degree
      <= (n + 1)(R - 1) + 1. E[G] = (1 - p^(K+1)) / (q p^K), so the law
      clears to q p^K sum(L_s D) = D (1 - p^(K+1)), whose left side has
      degree <= (n + 1)(R - 1) + 1 + 1 + K = (n + 1)(R - 1) + R + 1 and
      right side n(R - 1) + K + 1 at most.
    - Sum of the nets = 0, with nonzero ante and fee, as the winner takes
      the n antes and every fee. Seat s nets n ante w_s + fee g_s less
      ante + fee L_s, with g_s = E[G 1{s wins}]. The level-1 games-weighted
      wins x solve (I - M) x = h, whose right-hand side
      h_r = sum_j q p^j (j + 1) W_lost[won^j r] + [r = 0] K p^K holds the
      level-1 win chances W over D. So h D has degree
      <= 1 + (R - 2) + (n + 1)(R - 1) = (n + 2)(R - 1), and by Cramer's rule
      x D^2 = adj(I - M) h D has degree
      <= (n - 1)(R - 1) + (n + 2)(R - 1) = (2n + 1)(R - 1). Game one adds
      w_s and multiplies by p or q, so g_s D^2 has degree
      <= (2n + 1)(R - 1) + 1, as have w_s D^2 = N_s D and L_s D^2; the
      ante's D^2 has degree <= 2n(R - 1). The law clears to
      net_0 D^2 = -sum_{s > 0} net_s D^2: both sides are nonzero, so the
      degree check sees the bound. With the first and third laws it proves
      sum(g_s) = E[G].
    """

    GRID = [(n, streak) for n in range(2, 7) for streak in range(1, n + 2)]
    NETS_GRID = [(n, streak) for n, streak in GRID if n <= 5]

    @staticmethod
    def sum_law(p, cleared):
        return (sum(cleared[:-1]),), cleared[-1:]

    @staticmethod
    def ratio_law(n, power):
        def law(p, cleared):
            factor = 1 + (1 - p) * p**power
            return tuple(cleared[k + 1] * factor for k in range(1, n - 1)), cleared[1:n - 1]

        return law

    @staticmethod
    def games_law(power):
        def law(p, cleared):
            left = (1 - p) * p**power * sum(cleared[:-1])
            return (left,), (cleared[-1] * (1 - p ** (power + 1)),)

        return law

    @staticmethod
    def nets_law(p, cleared):
        return cleared[:1], (-sum(cleared[1:-1]),)

    @staticmethod
    def opening_law(p, cleared):
        """The opening seats' nets agree: true at p = 1/2, where they are exchangeable."""
        return cleared[:1], cleared[1:2]

    @pytest.mark.parametrize("n, streak", GRID)
    def test_win_chances_sum_to_one(self, n, streak):
        assert holds_for_every_p(n, streak, self.sum_law, (n + 1) * (streak - 1) + 1)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_default_streak_ratio(self, n):
        assert holds_for_every_p(n, n - 1, self.ratio_law(n, n - 2), n * n - 2)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_ratio_with_one_power_too_many_fails(self, n):
        assert not holds_for_every_p(n, n - 1, self.ratio_law(n, n - 1), n * n - 2)

    @pytest.mark.parametrize("n, streak", GRID)
    def test_losses_sum_to_the_expected_games(self, n, streak):
        bound = (n + 1) * (streak - 1) + streak + 1
        law = self.games_law(streak - 1)
        assert holds_for_every_p(n, streak, law, bound, cleared=_cleared_losses)

    @pytest.mark.parametrize("n, streak", GRID)
    def test_games_law_with_one_power_too_many_fails(self, n, streak):
        bound = (n + 1) * (streak - 1) + streak + 1
        law = self.games_law(streak)
        assert not holds_for_every_p(n, streak, law, bound, cleared=_cleared_losses)

    @pytest.mark.parametrize("n, streak", NETS_GRID)
    def test_nets_sum_to_zero(self, n, streak):
        """Every p, on n 2-5 x R 1..n+1, and so every ante and fee.

        The nets sum to n ante (sum(w_s) - 1) + fee (sum(g_s) - E[G]) and the
        win chances sum to 1, so one nonzero fee fixes sum(g_s) = E[G].
        """
        bound = (2 * n + 1) * (streak - 1) + 1
        assert holds_for_every_p(n, streak, self.nets_law, bound, cleared=_cleared_nets)

    @pytest.mark.parametrize("n, streak", NETS_GRID)
    def test_nets_law_true_only_at_even_odds_fails(self, n, streak):
        """Agreement at one sampled p, here 1/2, proves nothing: the law fails."""
        left, right = self.opening_law(None, _cleared_nets(n, streak, Fraction(1, 2)))
        assert left == right
        bound = (2 * n + 1) * (streak - 1) + 1
        assert not holds_for_every_p(n, streak, self.opening_law, bound, cleared=_cleared_nets)

    def test_a_bound_too_small_is_caught(self):
        with pytest.raises(AssertionError, match="degree above 6"):
            holds_for_every_p(4, 3, self.sum_law, 6)

    def test_a_bound_too_small_for_the_losses_is_caught(self):
        with pytest.raises(AssertionError, match="degree above 8"):
            holds_for_every_p(4, 3, self.games_law(2), 8, cleared=_cleared_losses)

    def test_a_bound_below_the_laws_degree_is_caught(self):
        # Each cleared quantity here has degree 9 at most, but the law's
        # left side has degree 11.
        with pytest.raises(AssertionError, match="degree above 10"):
            holds_for_every_p(4, 3, self.games_law(2), 10, cleared=_cleared_losses)

    def test_no_extra_point_is_refused(self):
        with pytest.raises(ValueError, match="extra = 0"):
            holds_for_every_p(4, 3, self.games_law(2), 11, extra=0, cleared=_cleared_losses)


class TestExpectedGames:
    def test_three_fair_players_play_three_games(self):
        # From any post-game state the remainder f solves f = 1 + f/2, so 2,
        # plus the opening game.
        assert pool_expected_games(FAIR3) == 3

    def test_two_players(self):
        assert pool_expected_games(PoolConfig(2, Fraction(1, 3))) == 1

    def test_certain_champion(self):
        assert pool_expected_games(PoolConfig(3, Fraction(1))) == 2

    def test_duration_moments_oracle(self):
        # The first-step oracle's mean is the engine's closed form, and its
        # variance is Feller's for the wait for k successes in a row, plus
        # the certain game one (zero at p = 1).
        assert duration_moments(Fraction(1, 2), 2) == (3, 2)
        for p in map(Fraction, ("1/2", "1/3", "2/3", "999/1000", "1")):
            q = 1 - p
            for k in (0, 1, 2, 3, 5, 9):
                mean, variance = duration_moments(p, k + 1)
                assert mean == pool_expected_games(PoolConfig(3, p, streak_required=k + 1))
                feller = (
                    (1 - (2 * k + 1) * q * p**k - p ** (2 * k + 1)) / (q * q * p ** (2 * k))
                    if q else 0
                )
                assert variance == feller, (p, k)


class TestExactReach:
    @pytest.mark.parametrize(
        "config", [PoolConfig(101), PoolConfig(3, streak_required=10**6)], ids=["n101", "streak1e6"]
    )
    def test_beyond_reach_fails_fast(self, config):
        for solve in (pool_win_probabilities, pool_expected_games, pool_solve):
            started = time.perf_counter()
            with pytest.raises(ValueError, match="beyond the exact solve's reach"):
                solve(config)
            assert time.perf_counter() - started < 0.1

    def test_cap_is_inclusive(self):
        # players * max(players, streak - 1) = 10,000 exactly is still solved.
        assert pool_expected_games(PoolConfig(100)) == 2**99 - 1
        assert pool_expected_games(PoolConfig(10, streak_required=1001)) == 2**1001 - 1
        with pytest.raises(ValueError, match="= 10010 exceeds 10000"):
            pool_expected_games(PoolConfig(10, streak_required=1002))

    def test_simulation_is_not_capped(self):
        result = pool_simulate(PoolConfig(101, Fraction(1)), seed=1, trials=2)
        assert result.win_prob[0] == 1 and result.expected_games == 100


class TestPoolSolve:
    def test_three_fair_players_money(self):
        solution = pool_solve(FAIR3)
        assert solution.expected_payment == (
            Fraction(29, 14),
            Fraction(29, 14),
            Fraction(13, 7),
        )
        assert solution.expected_net == (
            Fraction(1, 98),
            Fraction(1, 98),
            Fraction(-1, 49),
        )

    def test_two_players_fair_game_is_fair(self):
        solution = pool_solve(PoolConfig(2))
        assert solution.expected_net == (0, 0)

    @pytest.mark.parametrize(
        "config",
        [
            FAIR3,
            PoolConfig(2, Fraction(1, 3)),
            PoolConfig(3, Fraction(2, 3), ante=Fraction(3, 2), fee=Fraction(1, 4)),
            PoolConfig(4, Fraction(1, 3)),
            PoolConfig(4, Fraction(1, 2), ante=0, fee=2),
            PoolConfig(5, Fraction(2, 5), streak_required=2),
            PoolConfig(5, Fraction(1), streak_required=3),
            PoolConfig(6, Fraction(1, 2)),
            PoolConfig(12, Fraction(3, 5), streak_required=5),
            PoolConfig(20, Fraction(1, 3)),
            STREAK1_STAKES,
        ],
    )
    def test_accounting_invariants(self, config):
        solution = pool_solve(config)
        assert sum(solution.win_prob) == 1
        assert sum(solution.expected_net) == 0
        expected_paid = config.players * config.ante + config.fee * solution.expected_games
        assert sum(solution.expected_payment) == expected_paid

    def test_losses_follow_the_win_chances(self):
        # Every loss sends its loser to the back of the queue, and a seat
        # gets a new chance only by challenging the champion. A challenge
        # takes the pot with chance q * p^(R-1) and otherwise costs exactly
        # one loss, so a seat's losses are its win chance read another way.
        # The incumbent's first reign starts at streak 0, which adds
        # 1 - p/q = q - p^2/q. At p = 1 the incumbent sweeps and the
        # challengers lose in queue order.
        ante, fee = Fraction(3, 2), Fraction(1, 4)
        chances = [Fraction(x) for x in ("1/7", "1/3", "1/2", "2/3", "3/4", "1")]
        for n in range(2, 11):
            for streak in range(1, 2 * n + 2):
                for p in chances:
                    config = PoolConfig(n, p, ante=ante, fee=fee, streak_required=streak)
                    solution = pool_solve(config)
                    win = solution.win_prob
                    losses = [(paid - ante) / fee for paid in solution.expected_payment]
                    if p == 1:
                        assert win == (1,) + (0,) * (n - 1), config
                        queued = [len(range(s, streak + 1, n - 1)) for s in range(1, n)]
                        assert losses == [0, *queued], config
                        continue
                    q = 1 - p
                    kappa = 1 / (q * p ** (streak - 1)) - 1
                    assert losses[0] == kappa * win[0] + q - p**2 / q, config
                    assert losses[1:] == [kappa * w for w in win[1:]], config

    def test_truncated_enumeration_brackets_probabilities(self):
        # Depth-40 exhaustive game trees bracket each exact win probability
        # within the leftover tail mass.
        for n in (3, 4):
            for p in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
                config = PoolConfig(n, p)
                oracle = enumerate_pool(config, depth=40)
                exact = pool_win_probabilities(config)
                for seat in range(n):
                    low = oracle.win_mass[seat]
                    assert low <= exact[seat] <= low + oracle.tail_mass

    def test_truncated_enumeration_confirms_money(self):
        # Depth-60 game trees pin the nets and the duration within their
        # residual bounds, streaks above n - 1 included; a streak of 4 has
        # three levels, so the per-seat nets also check the upper levels.
        cases = [
            (FAIR3, Fraction(1, 2**59)),
            (PoolConfig(3, Fraction(1, 3)), Fraction(6, 10**11)),
            (PoolConfig(4, Fraction(2, 3), streak_required=3), Fraction(6, 10**11)),
            (PoolConfig(3, Fraction(3, 4), streak_required=3), Fraction(6, 10**11)),
            (PoolConfig(3, Fraction(4, 5), streak_required=4), Fraction(1, 10**9)),
            # Game one decides the pool, so nothing is left past depth 1.
            (STREAK1_STAKES, Fraction(0)),
        ]
        for config, tail_bound in cases:
            oracle = enumerate_pool(config, depth=60)
            assert oracle.tail_mass <= tail_bound
            solution = pool_solve(config)
            for seat in range(config.players):
                assert abs(oracle.expected_net[seat] - solution.expected_net[seat]) <= (
                    oracle.residual_net_bound
                )
                # Each game past the horizon costs a seat at most one loss.
                losses = (solution.expected_payment[seat] - config.ante) / config.fee
                low = oracle.expected_losses[seat]
                assert low <= losses <= low + oracle.residual_games_bound
            assert abs(oracle.expected_games - solution.expected_games) <= (
                oracle.residual_games_bound
            )

    @pytest.mark.parametrize(
        "config",
        [
            FAIR3,
            PoolConfig(5, Fraction(2, 5), streak_required=3),
            STREAK1_STAKES,
            PoolConfig(5, Fraction(1), streak_required=3),
        ],
    )
    def test_eliminations_per_call(self, config, monkeypatch):
        # One elimination serves both right-hand sides: the challenge counts,
        # which give the win chances and the losses, and the games-weighted
        # wins. `pool_win_probabilities` reads the same full solve.
        calls = []
        for name in ("_eliminate", "_solve"):

            def counted(*args, name=name, run=getattr(pool, name)):
                calls.append((name, len(args[0])))
                return run(*args)

            monkeypatch.setattr(pool, name, counted)
        n = config.players
        pool_solve(config)
        assert calls == [("_eliminate", n), ("_solve", n), ("_solve", n)]
        calls.clear()
        pool_win_probabilities(config)
        assert calls == [("_eliminate", n), ("_solve", n), ("_solve", n)]

    @pytest.mark.parametrize("config", [FAIR3, PoolConfig(5, Fraction(2, 5), streak_required=3)])
    @pytest.mark.parametrize(
        "wrong_call, law",
        [(0, "do not sum to 1"), (1, "misses the expected games")],
        ids=["challenges", "games_weighted_wins"],
    )
    def test_a_wrong_solve_fails_certification(self, config, wrong_call, law, monkeypatch):
        # Each solve's result is nudged in turn, as a kernel fault would:
        # a wrong challenge count breaks the win chances' sum, a wrong
        # coupled solve the games-weighted wins'.
        calls, solve = [], pool._solve

        def nudged(rows, constants):
            scaled, det = solve(rows, constants)
            if len(calls) == wrong_call:
                scaled[0] += 1
            calls.append(len(rows))
            return scaled, det

        monkeypatch.setattr(pool, "_solve", nudged)
        with pytest.raises(RuntimeError, match=law):
            pool_solve(config)
        assert len(calls) == wrong_call + 1


# ---------------------------------------------------------------------------
# The integer kernel: one elimination, any number of right-hand sides
# ---------------------------------------------------------------------------


def _integer_system(a, b):
    """[a | b] as int rows and int constants, each row times its lcm of denominators."""
    rows = []
    for row, constant in zip(a, b):
        row = [Fraction(x) for x in (*row, constant)]
        scale = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (scale // x.denominator) for x in row])
    return [row[:-1] for row in rows], [row[-1] for row in rows]


def _kernel_solve(a, b):
    """x with a x = b through `pool._eliminate` and `pool._solve`.

    Scaling a row and its constant leaves x unchanged, and the kernel's
    det * x is divided by det.
    """
    rows, constants = _integer_system(a, b)
    pool._eliminate(rows)
    scaled, det = pool._solve(rows, constants)
    return [Fraction(x, det) for x in scaled]


def _back_substitute(augmented):
    """(det * x, det) read off the rows [A | c] after one elimination of them all."""
    size = len(augmented)
    det, x = augmented[-1][-2] if augmented else 1, [0] * size
    for r in range(size - 1, -1, -1):
        row = augmented[r]
        x[r] = (det * row[-1] - sum(row[k] * x[k] for k in range(r + 1, size))) // row[r]
    return x, det


# Denominators of the kind the engine meets: 5525 = 5^2 * 13 * 17 is the
# Le Her lots' denominator, and its divisors share factors with one another.
_DENOMINATORS = (1, 1, 1, 2, 3, 4, 5, 7, 12, 13, 17, 25, 65, 221, 425, 1105, 5525)


def _random_entry(rng, rational, zero_share=0.3):
    """An int, or with `rational` an int or Fraction; zero about zero_share of the time."""
    if rng.random() < zero_share:
        return rng.choice((0, Fraction(0)))
    numerator = rng.choice((-1, 1)) * rng.randint(1, 40)
    denominator = rng.choice(_DENOMINATORS) if rational else 1
    if denominator == 1 and rng.random() < 0.5:
        return numerator
    return Fraction(numerator, denominator)


def _dominant_system(rng, rational, max_size=5):
    """A seeded square system whose rows are strictly diagonally dominant.

    Each diagonal entry, of either sign, exceeds the row's off-diagonal
    magnitudes by a positive margin, so every leading block is nonsingular
    and the elimination needs no pivot search.
    """
    size = rng.randint(0, max_size)
    a = [[_random_entry(rng, rational) for _ in range(size)] for _ in range(size)]
    for r, row in enumerate(a):
        off_diagonal = sum(abs(x) for j, x in enumerate(row) if j != r)
        row[r] = rng.choice((-1, 1)) * (off_diagonal + abs(_random_entry(rng, rational, 0)))
    return a, [_random_entry(rng, rational) for _ in range(size)]


class TestLinearSystem:
    def test_exact_solution(self):
        a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
        b = [Fraction(5), Fraction(10)]
        assert _kernel_solve(a, b) == [Fraction(1), Fraction(3)]

    def test_random_systems_reconstruct(self):
        rng = random.Random(9)
        for _ in range(25):
            a, _ = _dominant_system(rng, rational=False)
            x = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in a]
            b = [sum(a_ij * x_j for a_ij, x_j in zip(row, x)) for row in a]
            assert _kernel_solve(a, b) == x

    def test_second_right_hand_side_replays_the_elimination(self):
        # A second vector of constants, solved by replaying the elimination's
        # steps, gives what eliminating [A | c] from the start gives; a
        # first solve leaves the eliminated rows as they were.
        rng = random.Random(31)
        for index in range(500):
            a, b = _dominant_system(rng, rational=index % 2 == 1)
            rows, first = _integer_system(a, b)
            second = [rng.randint(-10**6, 10**6) for _ in rows]
            augmented = [row + [c] for row, c in zip(rows, second)]
            pool._eliminate(rows)
            pool._solve(rows, first)
            pool._eliminate(augmented)
            assert [row[:-1] for row in augmented] == rows
            assert pool._solve(rows, second) == _back_substitute(augmented), (a, second)


def _reference(a, b):
    """The former elimination, fed Fractions: on ints its `1 / pivot` is a float."""
    return solve_linear_system_reference(
        [[Fraction(x) for x in row] for row in a], [Fraction(x) for x in b]
    )


class TestLinearSystemAgainstReference:
    """The fraction-free kernel against the former Fraction elimination."""

    def test_seeded_systems_match(self):
        rng = random.Random(20260412)
        sizes = {"int": set(), "rational": set()}
        for index in range(2500):
            kind = "rational" if index % 2 else "int"
            a, b = _dominant_system(rng, rational=kind == "rational")
            before = ([list(row) for row in a], list(b))
            assert _kernel_solve(a, b) == _reference(a, b), (a, b)
            assert (a, b) == before
            sizes[kind].add(len(a))
        assert sizes == {"int": set(range(6)), "rational": set(range(6))}

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            ([[2, 0], [0, Fraction(1, 3)]], [4, 1], [2, 3]),
            # The former elimination divided int by int here and returned 0.5.
            ([[2]], [1], [Fraction(1, 2)]),
        ],
    )
    def test_results_are_fractions(self, a, b, expected):
        solved = _kernel_solve(a, b)
        assert solved == expected
        assert all(type(x) is Fraction for x in solved)

    # The empty system: no unknowns, and det 1.
    @pytest.mark.parametrize("a, b", [([], [])])
    def test_named_shapes_match(self, a, b):
        assert _kernel_solve(a, b) == _reference(a, b)


_REFERENCE_PS = tuple(
    Fraction(x) for x in ("0", "1/7", "1/3", "1/2", "2/3", "3/4", "1")
)


def _result_or_error(solve, config):
    try:
        return solve(config)
    except Exception as error:  # compared by type only
        return type(error)


def _assert_matches_reference(config):
    expected = _result_or_error(pool_solve_reference, config)
    assert _result_or_error(pool_solve, config) == expected, config
    expected_win = expected if isinstance(expected, type) else expected.win_prob
    assert _result_or_error(pool_win_probabilities, config) == expected_win, config


class TestPoolSolveAgainstReferenceKernel:
    """The engine against the former pool solve, every step a Fraction.

    `oracles.pool_solve_reference` builds the dense level-1 system as
    Fractions and solves it with the former Fraction elimination, so it
    shares no arithmetic with the engine's solve.
    """

    @pytest.mark.parametrize("players", range(2, 13))
    def test_same_solution(self, players):
        stakes = {"ante": Fraction(3, 2), "fee": Fraction(5, 7)}
        for r in range(1, players + 2):
            for p in _REFERENCE_PS:
                _assert_matches_reference(PoolConfig(players, p, **stakes, streak_required=r))

    @pytest.mark.parametrize("players", range(3, 6))
    def test_long_streaks(self, players):
        # Win paths far longer than the table, and p near 1, where every
        # path weight is a large power.
        stakes = {"ante": Fraction(3, 2), "fee": Fraction(1, 4)}
        for r in range(players + 2, 41):
            for p in (Fraction(1, 3), Fraction(999, 1000), Fraction(1)):
                _assert_matches_reference(PoolConfig(players, p, **stakes, streak_required=r))


class TestPoolSimulate:
    def test_deterministic_for_fixed_seed(self):
        first = pool_simulate(FAIR3, seed=42, trials=2000)
        second = pool_simulate(FAIR3, seed=42, trials=2000)
        assert first == second

    def test_single_trial_is_a_unit_vector(self):
        result = pool_simulate(FAIR3, seed=9, trials=1)
        assert sorted(result.win_prob) == [0, 0, 1]
        assert result.truncated_trials == 0

    def test_matches_state_law_reference(self):
        # n = 2 leaves one waiting seat; streak 1 ends every pool at game one;
        # a cap of 1 or 2 games truncates; p = 1 never changes champion.
        seeds = (13, 0, -7, 2**64 + 3)
        mismatches = []
        cases = [(PoolConfig(4, Fraction(2, 5)), 13, 3000, 1_000_000)]
        chances = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(5, 7), Fraction(1))
        for n in (2, 3, 4, 6):
            for p in chances:
                for streak in (1, 2, n, n + 1):
                    for max_games in (1, 2, 1_000_000):
                        config = PoolConfig(n, p, streak_required=streak)
                        cases.append((config, seeds[len(cases) % len(seeds)], 25, max_games))
        for config, seed, trials, max_games in cases:
            wins, total_games, truncated = simulate_pool_reference(
                config, seed=seed, trials=trials, max_games=max_games
            )
            expected = PoolSimulation(
                trials, tuple(Fraction(w, trials) for w in wins),
                Fraction(total_games, trials), truncated,
            )
            if pool_simulate(config, seed=seed, trials=trials, max_games=max_games) != expected:
                mismatches.append((config, seed, max_games))
        assert mismatches == []

    def test_statistics_near_exact_values(self):
        result = pool_simulate(FAIR3, seed=2026, trials=50_000)
        exact = pool_solve(FAIR3)
        for seat in range(3):
            margin = 4 * _sigma(result.win_prob[seat], result.trials)
            assert abs(float(result.win_prob[seat] - exact.win_prob[seat])) <= margin
        _, variance = duration_moments(FAIR3.champion_win_prob, FAIR3.streak_required)
        games_margin = 4 * sqrt(variance / result.trials)
        assert abs(float(result.expected_games - exact.expected_games)) <= games_margin

    def test_truncation_cap_is_honoured(self):
        # A two-game cap on a pool that usually needs three forces truncations
        result = pool_simulate(FAIR3, seed=3, trials=500, max_games=2)
        assert result.truncated_trials > 0
        assert result.expected_games <= 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            pool_simulate(FAIR3, seed=1, trials=0)
        with pytest.raises(ValueError):
            pool_simulate(FAIR3, seed=1, trials=10, max_games=0)
        for bad in (True, 2.5, "10"):
            with pytest.raises(ValueError):
                pool_simulate(FAIR3, seed=1, trials=bad)
            with pytest.raises(ValueError):
                pool_simulate(FAIR3, seed=1, trials=10, max_games=bad)
        for seed in (True, 1.5, "3", None):
            with pytest.raises(ValueError, match="seed must be an integer"):
                pool_simulate(FAIR3, seed=seed, trials=5)

    def test_denominator_beyond_the_stream_is_refused(self):
        # A draw below a bound above 2**64 has no rejection limit; it must raise, not loop.
        config = PoolConfig(3, Fraction(1, 2**65 + 1))
        with pytest.raises(ValueError, match=r"bound must lie in 1\.\.2\*\*64"):
            pool_simulate(config, seed=1, trials=3)
