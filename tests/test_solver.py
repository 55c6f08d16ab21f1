import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import (
    certificate_reference,
    negated_transpose,
    simplex_reference,
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
    solve_zero_sum,
    verify_equilibrium,
)


def matrix(rows):
    return GameMatrix.from_rows(rows)


def random_matrix(rng, max_size=5, low=-9, high=9):
    m = rng.randint(1, max_size)
    n = rng.randint(1, max_size)
    return matrix([[rng.randint(low, high) for _ in range(n)] for _ in range(m)])


def rational_matrix(rng, kind, max_size=5):
    """A seeded game whose entries are not all integers.

    "mixed" entries have both signs and denominators 1 to 12, so entries
    such as 1/2 and 3/6 tie; "lot" entries are 2500-3000 over 5450-5550,
    like Le Her's lots, so the common denominator is large; "ties" entries
    are -2..2 over 1, 2 or 3, so many games have several optimal mixes.
    """
    m, n = rng.randint(1, max_size), rng.randint(1, max_size)
    if kind == "mixed":
        def draw():
            return Fraction(rng.randint(-30, 30), rng.randint(1, 12))
    elif kind == "ties":
        def draw():
            return Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3)))
    else:
        def draw():
            return Fraction(rng.randint(2500, 3000), rng.randint(5450, 5550))
    return matrix([[draw() for _ in range(n)] for _ in range(m)])


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
    def test_label_counts_checked(self):
        with pytest.raises(ValueError, match="label counts must match the matrix shape"):
            GameMatrix.from_rows([[1, 2]], row_labels=["a", "b"])

    @pytest.mark.parametrize(
        "rows,row_labels,col_labels,message",
        [
            ([], [], [], "at least one row and one column"),
            ([[]], ["r"], [], "at least one row and one column"),
            ([[1, 2], [3]], ["r0", "r1"], ["c0", "c1"], "rows must all have the same length"),
            ([[1, 2]], ["a", "b"], ["c0", "c1"], "label counts must match the matrix shape"),
            ([[1, 2]], ["r"], ["c0"], "label counts must match the matrix shape"),
            ((), (), (), "at least one row and one column"),
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


class TestRationalTokenWeights:
    """Non-integer token weights give the reference certificate, as Fractions."""

    @pytest.mark.parametrize(
        "row_weights, col_weights",
        [
            ([Fraction(1, 3), Fraction(2, 7)], [Fraction(5, 2), 0]),
            ([0, Fraction(5, 2)], [Fraction(2, 7), Fraction(1, 3)]),
            ([Fraction(2, 7), 0], [Fraction(1, 3), Fraction(5, 2)]),
        ],
    )
    def test_table_of_lots(self, row_weights, col_weights):
        TestCertificateAgainstReference._check(
            build_leher_matrix(), row_weights, col_weights, (row_weights, col_weights)
        )

    def test_seeded_games(self):
        rng = random.Random("rational-weights")
        choices = (0, Fraction(1, 3), Fraction(2, 7), Fraction(5, 2), 1)
        for index in range(80):
            game = rational_matrix(rng, "mixed", max_size=6)
            row_weights = [rng.choice(choices) for _ in range(game.n_rows)]
            col_weights = [rng.choice(choices) for _ in range(game.n_cols)]
            row_weights[rng.randrange(game.n_rows)] = Fraction(1, 3)
            col_weights[rng.randrange(game.n_cols)] = Fraction(2, 7)
            TestCertificateAgainstReference._check(game, row_weights, col_weights, index)


# ---------------------------------------------------------------------------
# Games with rational entries
# ---------------------------------------------------------------------------


class TestRationalGames:
    """Every solver stage against its reference on games with rational entries."""

    @pytest.mark.parametrize("kind", ["mixed", "lot"])
    def test_elimination_matches_reference(self, kind):
        rng = random.Random(f"rational-elimination-{kind}")
        for _ in range(200):
            TestStrictEliminationOracle._check(rational_matrix(rng, kind, max_size=6))

    @pytest.mark.parametrize("kind", ["mixed", "lot"])
    @pytest.mark.parametrize("weights", ["zeros", "one", "full"])
    def test_certificate_matches_reference(self, kind, weights):
        rng = random.Random(f"rational-certificate-{kind}-{weights}")
        for index in range(60):
            game = rational_matrix(rng, kind, max_size=6)
            row_weights = _seeded_weights(rng, game.n_rows, weights)
            col_weights = _seeded_weights(rng, game.n_cols, weights)
            TestCertificateAgainstReference._check(game, row_weights, col_weights, index)

    @pytest.mark.parametrize("kind", ["mixed", "lot"])
    def test_value_matches_support_enumeration(self, kind):
        rng = random.Random(f"rational-value-{kind}")
        for index in range(160):
            game = rational_matrix(rng, kind, max_size=5)
            solution = solve_zero_sum(game)
            oracle_value, _, _ = support_enumeration_solve(game)
            assert solution.value == oracle_value, index
            assert type(solution.value) is Fraction, index
            ok, value, _ = verify_equilibrium(game, solution.row_mix, solution.col_mix)
            assert ok and value == solution.value, index


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


class TestTracedBoundaries:
    """solve_zero_sum reaches dominance and the certificate through their module names."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"eliminate_dominated": 0, "verify_equilibrium": 0}
        for name in counts:
            original = getattr(solver, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(solver, name, counted)
        return counts

    def test_threshold_game_calls_each_once(self, calls):
        solve_zero_sum(threshold_matrix())
        assert calls == {"eliminate_dominated": 1, "verify_equilibrium": 1}

    def test_pure_saddle_skips_dominance(self, calls):
        solve_zero_sum(matrix([[1, 2], [3, 4]]))
        assert calls == {"eliminate_dominated": 0, "verify_equilibrium": 1}


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

    @pytest.mark.parametrize("kind", ["integer", "lot"])
    def test_row_and_column_permutation(self, kind):
        """Permuting rows and columns keeps the value and the certificate.

        The returned mixes are not compared: where optimal mixes are not
        unique, the tie rule depends on row order, so the permuted game may
        return another optimal mix. The base mixes, permuted, stay optimal
        with the permuted certificate, and the permuted game's own solution
        pays the value at every strategy they play.
        """
        rng = random.Random(f"permutation-{kind}")
        for index in range(80):
            if kind == "integer":
                game = random_matrix(rng, max_size=6)
            else:
                game = rational_matrix(rng, "lot", max_size=6)
            rows = rng.sample(range(game.n_rows), game.n_rows)
            cols = rng.sample(range(game.n_cols), game.n_cols)
            permuted = matrix([[game.entries[i][j] for j in cols] for i in rows])
            base = solve_zero_sum(game)
            moved = solve_zero_sum(permuted)
            assert moved.value == base.value, index
            row_weights = [base.row_mix.weights[i] for i in rows]
            col_weights = [base.col_mix.weights[j] for j in cols]
            ok, value, certificate = verify_equilibrium(
                permuted, MixedStrategy(row_weights), MixedStrategy(col_weights)
            )
            assert ok and value == base.value, index
            assert certificate.row_payoffs == tuple(
                base.certificate.row_payoffs[i] for i in rows
            ), index
            assert certificate.col_payoffs == tuple(
                base.certificate.col_payoffs[j] for j in cols
            ), index
            for k, w in enumerate(row_weights):
                if w:
                    assert moved.certificate.row_payoffs[k] == base.value, index
            for k, w in enumerate(col_weights):
                if w:
                    assert moved.certificate.col_payoffs[k] == base.value, index

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


def _twelve_by_twelve_game():
    rng = random.Random(207)
    return matrix([[rng.randint(-9, 9) for _ in range(12)] for _ in range(12)])


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
        game = _twelve_by_twelve_game()
        solution = solve_zero_sum(game)
        ok, value, _ = verify_equilibrium(game, solution.row_mix, solution.col_mix)
        assert ok and value == solution.value
        assert len(solution.row_mix.support()) > 1



def _has_pure_saddle(game):
    maximin = max(min(row) for row in game.entries)
    return maximin == min(max(column) for column in zip(*game.entries))


class TestSimplexAgainstReference:
    """The solved mixes against the former Fraction tableau on the reduced game.

    Where optimal mixes are not unique, a tableau built another way could
    return another optimal mix with the same value and still certify; the
    reference pins which one.
    """

    @staticmethod
    def _check(game, context):
        solution = solve_zero_sum(game)
        reduced = eliminate_dominated(game)
        x, y = simplex_reference(reduced.matrix)
        expected_x = [Fraction(0)] * game.n_rows
        for i, p in zip(reduced.row_indices, x):
            expected_x[i] = p
        expected_y = [Fraction(0)] * game.n_cols
        for j, q in zip(reduced.col_indices, y):
            expected_y[j] = q
        assert list(solution.row_mix.probabilities()) == expected_x, context
        assert list(solution.col_mix.probabilities()) == expected_y, context
        for w in (*solution.row_mix.weights, *solution.col_mix.weights):
            assert type(w) is Fraction, context

    @classmethod
    def _check_all(cls, games):
        mixed = [game for game in games if not _has_pure_saddle(game)]
        for index, game in enumerate(mixed):
            cls._check(game, index)
        return len(mixed)

    def test_golden_solver_games(self):
        assert self._check_all(_golden_games()) >= 100

    @pytest.mark.parametrize("kind", ["mixed", "lot", "ties"])
    def test_rational_games(self, kind):
        rng = random.Random(f"simplex-reference-{kind}")
        games = [rational_matrix(rng, kind, max_size=6) for _ in range(200)]
        assert self._check_all(games) >= 100

    def test_eight_by_eight_games(self):
        rng = random.Random(208)
        games = [
            matrix([[rng.randint(-9, 9) for _ in range(8)] for _ in range(8)])
            for _ in range(20)
        ]
        assert self._check_all(games) == 20

    @pytest.mark.parametrize("rows, cols", [(3, 10), (10, 3)])
    def test_wide_and_tall_games(self, rows, cols):
        rng = random.Random(f"simplex-reference-{rows}x{cols}")
        games = [
            matrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
            for _ in range(60)
        ]
        assert self._check_all(games) >= 50

    def test_five_prize_diagonal_games(self):
        rng = random.Random("simplex-reference-diagonal")
        games = []
        for _ in range(40):
            prizes = [rng.randint(1, 20) for _ in range(5)]
            games.append(
                matrix([[prizes[i] if i == j else 0 for j in range(5)] for i in range(5)])
            )
        assert self._check_all(games) == 40

    def test_twelve_by_twelve_game(self):
        assert self._check_all([_twelve_by_twelve_game()]) == 1

    def test_threshold_game(self):
        assert self._check_all([threshold_matrix()]) == 1


if __name__ == "__main__":
    write_solver_golden()
