import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import (
    certificate_reference,
    negated_transpose,
    solve_linear_system_reference,
    strict_elimination_reference,
    support_enumeration_solve,
)

from montmort import solver
from montmort.leher import build_leher_matrix, threshold_matrix
from montmort.rational import format_rational, parse_rational
from montmort.solver import (
    GameMatrix,
    MixedStrategy,
    eliminate_dominated,
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


GOLDEN_SOLVER = Path(__file__).resolve().parent / "golden_solver.json"


def _golden_games():
    """The pinned games: 300 seeded games up to 6x6 with entries in -2..2.

    So narrow a range gives many ties: constant matrices, duplicate rows,
    pure saddles with several optimal columns and non-unique optimal mixes.
    """
    rng = random.Random(1713)
    return [random_matrix(rng, max_size=6, low=-2, high=2) for _ in range(300)]


def _solution_record(game):
    solution = solve_zero_sum(game)
    return {
        "value": format_rational(solution.value),
        "row_weights": [format_rational(w) for w in solution.row_mix.weights],
        "col_weights": [format_rational(w) for w in solution.col_mix.weights],
    }


def _entries_record(game):
    return [[format_rational(x) for x in row] for row in game.entries]


def write_solver_golden():
    """Rewrite golden_solver.json from the current solver, one game a line."""
    games = [
        json.dumps({"entries": _entries_record(game), **_solution_record(game)})
        for game in _golden_games()
    ]
    GOLDEN_SOLVER.write_text(
        "{\n"
        f' "threshold_matrix": {json.dumps(_solution_record(threshold_matrix()))},\n'
        ' "games": [\n  ' + ",\n  ".join(games) + "\n ]\n}\n"
    )


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
        # `from_rows` defers to this one check in the constructor.
        with pytest.raises(ValueError, match="at least one row and one column"):
            GameMatrix((), (), ())

    def test_label_counts_checked(self):
        with pytest.raises(ValueError):
            GameMatrix.from_rows([[1, 2]], row_labels=["a", "b"])

    @pytest.mark.parametrize(
        "rows,row_labels,col_labels,message",
        [
            ([], [], [], "at least one row and one column"),
            ([[]], ["r"], [], "at least one row and one column"),
            ([[1, 2], [3]], ["r0", "r1"], ["c0", "c1"], "rows must all have the same length"),
            ([[1, 2]], ["a", "b"], ["c0", "c1"], "label counts must match the matrix shape"),
            ([[1, 2]], ["r"], ["c0"], "label counts must match the matrix shape"),
        ],
    )
    def test_shape_refusals_name_the_rule(self, rows, row_labels, col_labels, message):
        with pytest.raises(ValueError, match=message):
            GameMatrix(rows, row_labels, col_labels)
        with pytest.raises(ValueError, match=message):
            GameMatrix.from_rows(rows, row_labels, col_labels)

    @pytest.mark.parametrize(
        "rows,message",
        [
            ([], "at least one row and one column"),
            ([[]], "at least one row and one column"),
            ([[1, 2], [3]], "rows must all have the same length"),
            ([[1], [2, 3]], "rows must all have the same length"),
        ],
    )
    def test_default_labels_keep_the_shape_refusals(self, rows, message):
        with pytest.raises(ValueError, match=message):
            GameMatrix.from_rows(rows)

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
        # List rows and labels are stored as tuples, so the matrix hashes.
        listed = GameMatrix([[1, 2]], ["r"], ["a", "b"])
        assert (listed.entries, listed.row_labels, listed.col_labels) == (
            ((Fraction(1), Fraction(2)),), ("r",), ("a", "b"),
        )
        assert listed == GameMatrix(((1, 2),), ("r",), ("a", "b"))
        assert hash(listed) == hash(GameMatrix(((1, 2),), ("r",), ("a", "b")))


class TestMixedStrategy:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            MixedStrategy([1, -1])

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            MixedStrategy([0, 0])

    def test_probabilities_normalise(self):
        assert MixedStrategy([3, 5]).probabilities() == (
            Fraction(3, 8),
            Fraction(5, 8),
        )

    def test_support(self):
        assert MixedStrategy([0, 2, 0, 1]).support() == (1, 3)

    def test_from_probabilities_integerises(self):
        mix = MixedStrategy.from_probabilities((Fraction(3, 8), Fraction(5, 8)))
        assert mix.weights == (Fraction(3), Fraction(5))
        # Unnormalised input is reduced by the gcd of its token counts.
        assert MixedStrategy.from_probabilities((2, 4)).weights == (1, 2)

    def test_pure(self):
        # A pure saddle's unit probability vector keeps its 0/1 weights.
        unit = (Fraction(0), Fraction(1), Fraction(0))
        assert MixedStrategy.from_probabilities(unit).weights == (0, 1, 0)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            MixedStrategy([0.5, 0.5])
        with pytest.raises(TypeError):
            MixedStrategy((0.5, 0.5))

    def test_constructor_coerces_to_fractions(self):
        mix = MixedStrategy((1, "1/2"))
        assert mix.weights == (Fraction(1), Fraction(1, 2))
        assert all(type(w) is Fraction for w in mix.weights)
        assert verify_equilibrium(matrix([[1, 0], [0, 1]]), mix, mix).value == Fraction(5, 9)


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


# Denominators of the kind the engine meets: 5525 = 5^2 * 13 * 17 is the
# Le Her lots' denominator, and its divisors share factors with one another.
_DENOMINATORS = (1, 1, 1, 2, 3, 4, 5, 7, 12, 13, 17, 25, 65, 221, 425, 1105, 5525)


def _random_entry(rng, zero_share=0.3):
    """An int or Fraction, zero about zero_share of the time."""
    if rng.random() < zero_share:
        return rng.choice((0, Fraction(0)))
    numerator = rng.choice((-1, 1)) * rng.randint(1, 40)
    denominator = rng.choice(_DENOMINATORS)
    if denominator == 1 and rng.random() < 0.5:
        return numerator
    return Fraction(numerator, denominator)


def _random_system(rng, case):
    """One seeded square system; `case` picks the shape the kernel must meet.

    0: general, about 30% zeros; 1: one row a combination of two others
    (singular); 2: a product of n x r and r x n factors with r < n (rank
    deficient); 3: zero leading entries in the first rows, so the first
    column's pivot sits lower down; 4: a negative diagonal.
    """
    size = rng.randint(1, 10)
    a = [[_random_entry(rng) for _ in range(size)] for _ in range(size)]
    if case == 1 and size >= 2:
        i, j, k = (rng.randrange(size) for _ in range(3))
        c1, c2 = _random_entry(rng, 0), _random_entry(rng, 0.5)
        a[k] = [c1 * x + c2 * y for x, y in zip(a[i], a[j])]
    elif case == 2 and size >= 2:
        rank = rng.randint(1, size - 1)
        left = [[_random_entry(rng, 0.1) for _ in range(rank)] for _ in range(size)]
        right = [[_random_entry(rng, 0.1) for _ in range(size)] for _ in range(rank)]
        a = [
            [sum(left[i][t] * right[t][j] for t in range(rank)) for j in range(size)]
            for i in range(size)
        ]
    elif case == 3:
        for i in range(rng.randint(1, size)):
            if i < size - 1:
                a[i][0] = 0
    elif case == 4:
        for i in range(size):
            a[i][i] = -abs(_random_entry(rng, 0)) - rng.randint(0, 3)
    b = [_random_entry(rng) for _ in range(size)]
    return a, b


def _reference(a, b):
    """The former elimination, fed Fractions: on ints its `1 / pivot` is a float."""
    return solve_linear_system_reference(
        [[Fraction(x) for x in row] for row in a], [Fraction(x) for x in b]
    )


class TestLinearSystemAgainstReference:
    """The fraction-free kernel against the former Fraction elimination."""

    def test_seeded_systems_match(self):
        rng = random.Random(20260412)
        outcomes = {"solved": 0, "singular": 0}
        for index in range(2500):
            a, b = _random_system(rng, index % 5)
            before = ([list(row) for row in a], list(b))
            expected = _reference(a, b)
            assert solve_linear_system(a, b) == expected, (a, b)
            assert (a, b) == before
            outcomes["singular" if expected is None else "solved"] += 1
        assert min(outcomes.values()) >= 400

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            ([[2, 0], [0, Fraction(1, 3)]], [4, 1], [2, 3]),
            # The former elimination divided int by int here and returned 0.5.
            ([[2]], [1], [Fraction(1, 2)]),
        ],
    )
    def test_results_are_fractions(self, a, b, expected):
        solved = solve_linear_system(a, b)
        assert solved == expected
        assert all(type(x) is Fraction for x in solved)

    @pytest.mark.parametrize(
        "a, b, message",
        [
            ([[0.5]], [1], "exact rational expected, got float 0.5"),
            ([[1]], [1.0], "exact rational expected, got float 1.0"),
            ([[1, True], [0, 1]], [1, 2], "exact rational expected, got bool True"),
        ],
    )
    def test_rejects_floats_and_bools(self, a, b, message):
        with pytest.raises(TypeError, match=message):
            solve_linear_system(a, b)

    @pytest.mark.parametrize(
        "a, b",
        [
            # Two zero leading entries: the first pivot is the third row.
            ([[0, 1, 2], [0, 3, 1], [-4, 0, 1]], [Fraction(1, 5525), 2, Fraction(-3, 13)]),
            # A zero column: no pivot is ever found there.
            ([[1, 0], [2, 0]], [1, 1]),
            # A nonzero first column, then nothing left in the second.
            ([[2, 4], [1, 2]], [Fraction(1, 3), 5]),
            ([], []),
        ],
    )
    def test_named_shapes_match(self, a, b):
        assert solve_linear_system(a, b) == _reference(a, b)


# ---------------------------------------------------------------------------
# Best responses and verification
# ---------------------------------------------------------------------------


def best_rows(game, col_weights):
    """Every row maximising the payoff against the column mix, and that payoff.

    Read off the certificate: row_payoffs[i] is what pure row i earns.
    """
    any_row = MixedStrategy([1] * game.n_rows)
    payoffs = verify_equilibrium(game, any_row, MixedStrategy(col_weights)).certificate.row_payoffs
    top = max(payoffs)
    return {i for i, p in enumerate(payoffs) if p == top}, top


class TestBestResponse:
    def test_against_pure_switching_pierre(self):
        rows, value = best_rows(build_leher_matrix(), [1, 0])
        assert rows == {1}  # holding the 7 dominates against a switching Pierre
        assert value == Fraction(2834, 5525)

    def test_optimal_mix_equalises_both_rows(self):
        rows, value = best_rows(build_leher_matrix(), [5, 3])
        assert rows == {0, 1}
        assert value == Fraction(11327, 22100)

    def test_degenerate_single_column(self):
        game = matrix([[1, 9], [5, 0], [5, 2]])
        rows, value = best_rows(game, [1, 0])
        assert rows == {1, 2}
        assert value == 5

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            best_rows(matrix([[1, 2]]), [1, 1, 1])


class TestVerifyEquilibrium:
    def test_trivial_one_by_one(self):
        check = verify_equilibrium(
            matrix([[Fraction(5, 9)]]), MixedStrategy([1]), MixedStrategy([1])
        )
        assert check._fields == ("is_equilibrium", "value", "certificate")
        assert repr(check).startswith("EquilibriumCheck(is_equilibrium=True, value=")
        ok, value, certificate = check
        assert (ok, value, certificate) == (check.is_equilibrium, check.value, check.certificate)
        assert ok and value == Fraction(5, 9)
        assert certificate.row_payoffs == (Fraction(5, 9),)

    def test_pure_table_profile_is_not_an_equilibrium(self):
        ok, value, certificate = verify_equilibrium(
            build_leher_matrix(), MixedStrategy([1, 0]), MixedStrategy([1, 0])
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
            MixedStrategy(row_weights),
            MixedStrategy(col_weights),
        )
        assert ok
        assert value == Fraction(11327, 22100)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            verify_equilibrium(
                matrix([[1, 2]]), MixedStrategy([1, 0]), MixedStrategy([1, 0])
            )


def _seeded_weights(rng, size, kind):
    """Token weights over `size` strategies: zeros mixed in, one strategy, or all."""
    if kind == "one":
        weights = [0] * size
        weights[rng.randrange(size)] = rng.randint(1, 9)
        return weights
    if kind == "full":
        return [rng.randint(1, 9) for _ in range(size)]
    weights = [rng.choice((0, 0, rng.randint(1, 9))) for _ in range(size)]
    weights[rng.randrange(size)] = rng.randint(1, 9)
    return weights


class TestCertificateAgainstReference:
    """Row payoffs, column payoffs and value equal the full double sum, as Fractions."""

    @staticmethod
    def _check(game, row_weights, col_weights, context):
        _, value, certificate = verify_equilibrium(
            game, MixedStrategy(row_weights), MixedStrategy(col_weights)
        )
        rows, cols, expected = certificate_reference(game, row_weights, col_weights)
        assert certificate.row_payoffs == rows, context
        assert certificate.col_payoffs == cols, context
        assert value == expected, context
        for x in (value, *certificate.row_payoffs, *certificate.col_payoffs):
            assert type(x) is Fraction, context

    def test_golden_solver_games(self):
        golden = json.loads(GOLDEN_SOLVER.read_text())["games"]
        for index, pinned in enumerate(golden):
            game = matrix([[parse_rational(x) for x in row] for row in pinned["entries"]])
            row_weights = [parse_rational(w) for w in pinned["row_weights"]]
            col_weights = [parse_rational(w) for w in pinned["col_weights"]]
            self._check(game, row_weights, col_weights, index)

    def test_threshold_game(self):
        game = threshold_matrix()
        solution = solve_zero_sum(game)
        self._check(game, solution.row_mix.weights, solution.col_mix.weights, "optimal")
        waldegrave_rows = [0] * 14
        waldegrave_rows[7], waldegrave_rows[6] = 3, 5
        waldegrave_cols = [0] * 14
        waldegrave_cols[8], waldegrave_cols[7] = 5, 3
        self._check(game, waldegrave_rows, waldegrave_cols, "3:5 / 5:3")

    @pytest.mark.parametrize("kind", ["zeros", "one", "full"])
    def test_seeded_mixes(self, kind):
        rng = random.Random(f"certificate-{kind}")
        for index in range(60):
            game = random_matrix(rng, max_size=6)
            row_weights = _seeded_weights(rng, game.n_rows, kind)
            col_weights = _seeded_weights(rng, game.n_cols, kind)
            self._check(game, row_weights, col_weights, index)


# ---------------------------------------------------------------------------
# Dominance elimination
# ---------------------------------------------------------------------------


class TestEliminateDominated:
    def test_strict_collapse_to_saddle(self):
        result = eliminate_dominated(matrix([[1, 2], [3, 4]]))
        assert result.matrix.entries == ((Fraction(3),),)
        assert result.row_indices == (1,)
        assert result.col_indices == (0,)

    def test_identical_rows_survive(self):
        result = eliminate_dominated(matrix([[1, 2], [1, 2]]))
        assert result.row_indices == (0, 1)

    def test_weakly_dominated_row_survives(self):
        # Row 0 ties row 1 in column 0, so it does not strictly dominate it.
        result = eliminate_dominated(matrix([[0, 1], [0, 0]]))
        assert result.row_indices == (0, 1)

    def test_le_her_thresholds_collapse_to_the_historical_pairs(self):
        result = eliminate_dominated(threshold_matrix())
        assert result.row_indices == (6, 7)
        assert result.col_indices == (7, 8)


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

    def test_refuses_a_solution_that_fails_certification(self, monkeypatch):
        # Both players pure on their first strategy is no equilibrium of matching pennies.
        monkeypatch.setattr(solver, "_simplex", lambda reduced: ((1, 0), (1, 0)))
        with pytest.raises(RuntimeError, match="computed solution failed certification"):
            solve_zero_sum(matrix([[1, -1], [-1, 1]]))


class TestSolverProperties:
    def test_duality(self):
        rng = random.Random(101)
        for _ in range(40):
            game = random_matrix(rng)
            assert solve_zero_sum(game).value == -solve_zero_sum(negated_transpose(game)).value

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
            minimax = min(max(column) for column in zip(*game.entries))
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
            reduced = eliminate_dominated(game).matrix
            assert solve_zero_sum(game).value == solve_zero_sum(reduced).value

    def test_expected_payoff_matches_certificate(self):
        game = build_leher_matrix()
        solution = solve_zero_sum(game)
        x = solution.row_mix.probabilities()
        expected = sum(p * payoff for p, payoff in zip(x, solution.certificate.row_payoffs))
        assert expected == solution.value

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


class TestSolverGolden:
    """Value and both returned mixes, pinned as "p/q" strings.

    Regenerate with `PYTHONPATH=src python tests/test_solver.py`, only for a
    deliberate change of the returned mixes.
    """

    def test_seeded_games(self):
        golden = json.loads(GOLDEN_SOLVER.read_text())["games"]
        games = _golden_games()
        assert len(golden) == len(games)
        for index, (game, pinned) in enumerate(zip(games, golden)):
            assert pinned["entries"] == _entries_record(game), index
            pinned_solution = {k: v for k, v in pinned.items() if k != "entries"}
            assert _solution_record(game) == pinned_solution, index

    def test_threshold_matrix(self):
        golden = json.loads(GOLDEN_SOLVER.read_text())["threshold_matrix"]
        assert _solution_record(threshold_matrix()) == golden


class TestStrictEliminationOracle:
    """Whole-pass elimination against the one-at-a-time reference loop."""

    @staticmethod
    def _check(game):
        rows, cols = strict_elimination_reference(game)
        result = eliminate_dominated(game)
        assert (result.row_indices, result.col_indices) == (rows, cols)
        assert result.matrix.entries == tuple(
            tuple(game.entries[i][j] for j in cols) for i in rows
        )
        assert result.matrix.row_labels == tuple(game.row_labels[i] for i in rows)
        assert result.matrix.col_labels == tuple(game.col_labels[j] for j in cols)

    @pytest.mark.parametrize("low, high, seed", [(-1, 1, 301), (0, 2, 302)])
    def test_seeded_games_with_ties(self, low, high, seed):
        rng = random.Random(seed)
        for _ in range(250):
            self._check(random_matrix(rng, max_size=6, low=low, high=high))

    def test_threshold_matrix(self):
        self._check(threshold_matrix())


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


if __name__ == "__main__":
    write_solver_golden()
