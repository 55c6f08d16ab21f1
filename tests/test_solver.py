import random
from fractions import Fraction

import pytest
from oracles import support_enumeration_solve

from montmort.leher import build_leher_matrix, threshold_matrix
from montmort.rational import parse_rational
from montmort.solver import (
    GameMatrix,
    MixedStrategy,
    best_response,
    eliminate_dominated,
    expected_payoff,
    solve_linear_system,
    solve_zero_sum,
    verify_equilibrium,
)


def matrix(rows):
    return GameMatrix.from_rows(rows)


def random_matrix(rng, max_size=5, low=-9, high=9):
    m = rng.randint(1, max_size)
    n = rng.randint(1, max_size)
    return matrix([[rng.randint(low, high) for _ in range(n)] for _ in range(m)])


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


class TestGameMatrix:
    def test_requires_rectangular(self):
        with pytest.raises(ValueError):
            matrix([[1, 2], [3]])

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            matrix([])
        with pytest.raises(ValueError):
            matrix([[]])

    def test_label_counts_checked(self):
        with pytest.raises(ValueError):
            GameMatrix.from_rows([[1, 2]], row_labels=["a", "b"])

    def test_json_round_trip(self):
        original = GameMatrix.from_rows(
            [[Fraction(1, 3), 2], [0, Fraction(-5, 7)]], ["x", "y"], ["u", "v"]
        )
        data = original.to_json_dict()
        assert (data["rows"], data["cols"]) == (["x", "y"], ["u", "v"])
        entries = tuple(tuple(parse_rational(x) for x in row) for row in data["entries"])
        assert entries == original.entries

    def test_json_schema(self):
        data = matrix([[Fraction(1, 2)]]).to_json_dict()
        assert data == {"rows": ["row0"], "cols": ["col0"], "entries": [["1/2"]]}

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            matrix([[0.5, 1]])
        with pytest.raises(TypeError):
            GameMatrix(((0.5, 0.25), (0.75, 1.0)), ("r0", "r1"), ("c0", "c1"))

    def test_constructor_coerces_to_fractions(self):
        game = GameMatrix(((1, "1/2"), (Fraction(3, 4), 0)), ("r0", "r1"), ("c0", "c1"))
        assert game.entries == ((Fraction(1), Fraction(1, 2)), (Fraction(3, 4), Fraction(0)))
        assert all(type(x) is Fraction for row in game.entries for x in row)

    def test_negated_transpose(self):
        game = GameMatrix.from_rows([[1, 2], [3, 4]], ["r0", "r1"], ["c0", "c1"])
        flipped = game.negated_transpose()
        assert flipped.entries == ((Fraction(-1), Fraction(-3)), (Fraction(-2), Fraction(-4)))
        assert flipped.row_labels == ("c0", "c1")


class TestMixedStrategy:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            MixedStrategy.from_weights([1, -1])

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            MixedStrategy.from_weights([0, 0])

    def test_probabilities_normalise(self):
        assert MixedStrategy.from_weights([3, 5]).probabilities() == (
            Fraction(3, 8),
            Fraction(5, 8),
        )

    def test_support(self):
        assert MixedStrategy.from_weights([0, 2, 0, 1]).support() == (1, 3)

    def test_from_probabilities_integerises(self):
        mix = MixedStrategy.from_probabilities((Fraction(3, 8), Fraction(5, 8)))
        assert mix.weights == (Fraction(3), Fraction(5))

    def test_pure(self):
        assert MixedStrategy.pure(3, 1).weights == (0, 1, 0)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            MixedStrategy.from_weights([0.5, 0.5])
        with pytest.raises(TypeError):
            MixedStrategy((0.5, 0.5))

    def test_constructor_coerces_to_fractions(self):
        mix = MixedStrategy((1, "1/2"))
        assert mix.weights == (Fraction(1), Fraction(1, 2))
        assert all(type(w) is Fraction for w in mix.weights)
        assert expected_payoff(matrix([[1, 0], [0, 1]]), mix, mix) == Fraction(5, 9)


# ---------------------------------------------------------------------------
# Linear solving
# ---------------------------------------------------------------------------


class TestLinearSystem:
    def test_exact_solution(self):
        a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
        b = [Fraction(5), Fraction(10)]
        assert solve_linear_system(a, b) == [Fraction(1), Fraction(3)]

    def test_singular_returns_none(self):
        a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert solve_linear_system(a, [Fraction(1), Fraction(2)]) is None

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            solve_linear_system([[Fraction(1)]], [Fraction(1), Fraction(2)])

    def test_random_systems_reconstruct(self):
        rng = random.Random(9)
        for _ in range(25):
            size = rng.randint(1, 5)
            a = [[Fraction(rng.randint(-6, 6)) for _ in range(size)] for _ in range(size)]
            x = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(size)]
            b = [sum(a[i][j] * x[j] for j in range(size)) for i in range(size)]
            solved = solve_linear_system(a, b)
            if solved is not None:
                assert solved == x


# ---------------------------------------------------------------------------
# Best response and verification
# ---------------------------------------------------------------------------


class TestBestResponse:
    def test_against_pure_switching_pierre(self):
        rows, value = best_response(build_leher_matrix(), MixedStrategy.from_weights([1, 0]))
        assert rows == {1}  # holding the 7 dominates against a switching Pierre
        assert value == Fraction(2834, 5525)

    def test_optimal_mix_equalises_both_rows(self):
        rows, value = best_response(build_leher_matrix(), MixedStrategy.from_weights([5, 3]))
        assert rows == {0, 1}
        assert value == Fraction(11327, 22100)

    def test_degenerate_single_column(self):
        game = matrix([[1, 9], [5, 0], [5, 2]])
        rows, value = best_response(game, MixedStrategy.pure(2, 0))
        assert rows == {1, 2}
        assert value == 5

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            best_response(matrix([[1, 2]]), MixedStrategy.from_weights([1, 1, 1]))


class TestVerifyEquilibrium:
    def test_trivial_one_by_one(self):
        ok, value, certificate = verify_equilibrium(
            matrix([[Fraction(5, 9)]]), MixedStrategy.pure(1, 0), MixedStrategy.pure(1, 0)
        )
        assert ok and value == Fraction(5, 9)
        assert certificate.row_payoffs == (Fraction(5, 9),)

    def test_pure_table_profile_is_not_an_equilibrium(self):
        ok, value, certificate = verify_equilibrium(
            build_leher_matrix(), MixedStrategy.pure(2, 0), MixedStrategy.pure(2, 0)
        )
        assert not ok
        assert value == Fraction(2828, 5525)
        # Paul's profitable deviation: hold the 7 for 2834/5525
        assert certificate.row_payoffs[1] == Fraction(2834, 5525)

    def test_extended_mixes_on_the_full_threshold_game(self):
        game = threshold_matrix()
        row_weights = [Fraction(0)] * 14
        row_weights[7], row_weights[6] = Fraction(3), Fraction(5)
        col_weights = [Fraction(0)] * 14
        col_weights[8], col_weights[7] = Fraction(5), Fraction(3)
        ok, value, _ = verify_equilibrium(
            game,
            MixedStrategy.from_weights(row_weights),
            MixedStrategy.from_weights(col_weights),
        )
        assert ok
        assert value == Fraction(11327, 22100)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            verify_equilibrium(
                matrix([[1, 2]]), MixedStrategy.pure(2, 0), MixedStrategy.pure(2, 0)
            )


# ---------------------------------------------------------------------------
# Dominance elimination
# ---------------------------------------------------------------------------


class TestEliminateDominated:
    def test_strict_collapse_to_saddle(self):
        result = eliminate_dominated(matrix([[1, 2], [3, 4]]), "strict")
        assert result.matrix.entries == ((Fraction(3),),)
        assert result.row_indices == (1,)
        assert result.col_indices == (0,)
        assert result.value_preserving

    def test_identical_rows_survive_both_modes(self):
        game = matrix([[1, 2], [1, 2]])
        for mode in ("strict", "weak"):
            result = eliminate_dominated(game, mode)
            assert result.row_indices == (0, 1)

    def test_weak_mode_prunes_ties_with_an_edge(self):
        game = matrix([[0, 1], [0, 0]])
        strict = eliminate_dominated(game, "strict")
        assert strict.row_indices == (0, 1)
        weak = eliminate_dominated(game, "weak")
        assert weak.row_indices == (0,)
        assert not weak.value_preserving

    def test_le_her_thresholds_collapse_to_the_historical_pairs(self):
        weak = eliminate_dominated(threshold_matrix(), "weak")
        assert weak.row_indices == (6, 7)
        assert weak.col_indices == (7, 8)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            eliminate_dominated(matrix([[1]]), "loose")


# ---------------------------------------------------------------------------
# Solving
# ---------------------------------------------------------------------------


class TestSolveZeroSum:
    def test_table_of_lots(self):
        solution = solve_zero_sum(build_leher_matrix())
        assert solution.value == Fraction(11327, 22100)
        assert solution.row_mix.weights == (Fraction(3), Fraction(5))
        assert solution.col_mix.weights == (Fraction(5), Fraction(3))

    def test_diagonal_game(self):
        solution = solve_zero_sum(matrix([[4, 0], [0, 1]]))
        assert solution.value == Fraction(4, 5)
        assert solution.row_mix.weights == (Fraction(1), Fraction(4))
        assert solution.col_mix.weights == (Fraction(1), Fraction(4))

    def test_diagonal_game_against_grid_oracle(self):
        # Brute-force guarantee over row mixes p/100: the maximin over the
        # grid must peak exactly at the solved value since 1/5 is on the grid.
        game = matrix([[4, 0], [0, 1]])
        best = max(
            min(
                Fraction(p, 100) * game.entries[0][j]
                + (1 - Fraction(p, 100)) * game.entries[1][j]
                for j in range(2)
            )
            for p in range(101)
        )
        assert best == solve_zero_sum(game).value

    def test_pure_saddle(self):
        solution = solve_zero_sum(matrix([[1, 2], [3, 4]]))
        assert solution.value == 3
        assert solution.row_mix.weights == (0, 1)
        assert solution.col_mix.weights == (1, 0)

    def test_full_threshold_game(self):
        solution = solve_zero_sum(threshold_matrix())
        assert solution.value == Fraction(11327, 22100)
        assert solution.row_mix.support() == (6, 7)
        assert solution.col_mix.support() == (7, 8)
        assert solution.row_mix.weights[6] == Fraction(5)
        assert solution.row_mix.weights[7] == Fraction(3)

    def test_value_zero_game_with_negative_entries(self):
        # Matching pennies shifted to straddle zero exercises the positivity shift
        solution = solve_zero_sum(matrix([[1, -1], [-1, 1]]))
        assert solution.value == 0
        assert solution.row_mix.weights == (Fraction(1), Fraction(1))

    def test_wide_and_tall_matrices(self):
        assert solve_zero_sum(matrix([[1, 2, 3]])).value == 1
        assert solve_zero_sum(matrix([[1], [2], [3]])).value == 3


class TestSolverProperties:
    def test_duality(self):
        rng = random.Random(101)
        for _ in range(40):
            game = random_matrix(rng)
            assert solve_zero_sum(game).value == -solve_zero_sum(game.negated_transpose()).value

    def test_certificate_soundness(self):
        rng = random.Random(102)
        for _ in range(40):
            game = random_matrix(rng)
            solution = solve_zero_sum(game)
            ok, value, _ = verify_equilibrium(game, solution.row_mix, solution.col_mix)
            assert ok and value == solution.value

    def test_value_bracketed_by_pure_guarantees(self):
        rng = random.Random(103)
        for _ in range(40):
            game = random_matrix(rng)
            value = solve_zero_sum(game).value
            maximin = max(min(row) for row in game.entries)
            minimax = min(max(game.column(j)) for j in range(game.n_cols))
            assert maximin <= value <= minimax

    def test_scale_and_shift_equivariance(self):
        rng = random.Random(104)
        for _ in range(15):
            game = random_matrix(rng, max_size=4)
            alpha = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            beta = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            transformed = GameMatrix.from_rows(
                [[alpha * x + beta for x in row] for row in game.entries],
                game.row_labels,
                game.col_labels,
            )
            base = solve_zero_sum(game)
            moved = solve_zero_sum(transformed)
            assert moved.value == alpha * base.value + beta
            assert moved.row_mix == base.row_mix
            assert moved.col_mix == base.col_mix

    def test_strict_elimination_preserves_value(self):
        rng = random.Random(105)
        for _ in range(30):
            game = random_matrix(rng, max_size=4)
            reduced = eliminate_dominated(game, "strict").matrix
            assert solve_zero_sum(game).value == solve_zero_sum(reduced).value

    def test_expected_payoff_matches_certificate(self):
        game = build_leher_matrix()
        solution = solve_zero_sum(game)
        assert expected_payoff(game, solution.row_mix, solution.col_mix) == solution.value

    def test_certificate_equalises_on_the_supports(self):
        rng = random.Random(106)
        for _ in range(25):
            game = random_matrix(rng, max_size=4)
            solution = solve_zero_sum(game)
            for i in solution.row_mix.support():
                assert solution.certificate.row_payoffs[i] == solution.value
            for j in solution.col_mix.support():
                assert solution.certificate.col_payoffs[j] == solution.value
            for payoff in solution.certificate.row_payoffs:
                assert payoff <= solution.value
            for payoff in solution.certificate.col_payoffs:
                assert payoff >= solution.value


class TestSupportEnumerationOracle:
    """The simplex tableau against the old exponential search, kept as an oracle."""

    @pytest.mark.parametrize("low, high, seed", [(-9, 9, 201), (-1, 1, 202)])
    def test_values_match_and_mixes_certify(self, low, high, seed):
        # Entries in {-1, 0, 1} make most games degenerate: ties among
        # supports, where the two solvers may return different optimal mixes.
        rng = random.Random(seed)
        for _ in range(160):
            game = random_matrix(rng, max_size=5, low=low, high=high)
            solution = solve_zero_sum(game)
            oracle_value, _, _ = support_enumeration_solve(game)
            assert solution.value == oracle_value
            ok, value, _ = verify_equilibrium(game, solution.row_mix, solution.col_mix)
            assert ok and value == solution.value

    def test_twelve_by_twelve_solves_and_certifies(self):
        # Support enumeration would try up to C(24, 12) - 1 = 2,704,155 support pairs.
        rng = random.Random(207)
        game = matrix([[rng.randint(-9, 9) for _ in range(12)] for _ in range(12)])
        solution = solve_zero_sum(game)
        ok, value, _ = verify_equilibrium(game, solution.row_mix, solution.col_mix)
        assert ok and value == solution.value
        assert len(solution.row_mix.support()) > 1
