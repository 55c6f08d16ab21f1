import random
from fractions import Fraction

import pytest

from montmort.etrennes import EtrennesConfig, etrennes_matrix, etrennes_solve


def closed_form_value(even, odd):
    return even * odd / (even + odd)


class TestConfigAndMatrix:
    def test_default_prizes(self):
        config = EtrennesConfig()
        assert (config.even_prize, config.odd_prize) == (4, 1)

    def test_default_matrix(self):
        matrix = etrennes_matrix()
        assert matrix.entries == (
            (Fraction(4), Fraction(0)),
            (Fraction(0), Fraction(1)),
        )
        assert matrix.row_labels == ("even", "odd")

    def test_symmetric_and_custom_matrices(self):
        assert etrennes_matrix(EtrennesConfig(1, 1)).entries == (
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)),
        )
        assert etrennes_matrix(EtrennesConfig(2, 3)).entries == (
            (Fraction(2), Fraction(0)),
            (Fraction(0), Fraction(3)),
        )

    def test_nonpositive_prizes_rejected(self):
        with pytest.raises(ValueError, match=r"^even_prize must be > 0, got 0$"):
            EtrennesConfig(0, 1)
        with pytest.raises(ValueError, match=r"^odd_prize must be > 0, got -1/2$"):
            EtrennesConfig(4, Fraction(-1, 2))

    def test_wire_form_prizes(self):
        config = EtrennesConfig("7/2", "1/3")
        assert config.even_prize == Fraction(7, 2)


class TestSolve:
    def test_default_solution(self):
        solution = etrennes_solve()
        assert solution.value == Fraction(4, 5)
        assert solution.row_mix.weights == (Fraction(1), Fraction(4))
        assert solution.col_mix.weights == (Fraction(1), Fraction(4))

    def test_symmetric_game(self):
        solution = etrennes_solve(EtrennesConfig(1, 1))
        assert solution.value == Fraction(1, 2)
        assert solution.row_mix.weights == (Fraction(1), Fraction(1))

    def test_scaled_symmetric_game(self):
        solution = etrennes_solve(EtrennesConfig(2, 2))
        assert solution.value == 1
        assert solution.row_mix.weights == (Fraction(1), Fraction(1))

    def test_closed_form_sweep(self):
        rng = random.Random(50)
        for _ in range(50):
            even = Fraction(rng.randint(1, 60), rng.randint(1, 12))
            odd = Fraction(rng.randint(1, 60), rng.randint(1, 12))
            solution = etrennes_solve(EtrennesConfig(even, odd))
            assert solution.value == closed_form_value(even, odd)
            # both players weight "even" by the odd prize and "odd" by the even
            row = solution.row_mix.probabilities()
            col = solution.col_mix.probabilities()
            assert row == (odd / (even + odd), even / (even + odd))
            assert col == row

    def test_value_symmetric_under_prize_swap(self):
        value_a = etrennes_solve(EtrennesConfig(3, 7)).value
        value_b = etrennes_solve(EtrennesConfig(7, 3)).value
        assert value_a == value_b

    def test_mixing_beats_coin_flipping(self):
        # A fair coin guarantees only min(e, o)/2 against a worst-case
        # father; the solved mix lands strictly between the two coin-flip
        # payoffs whenever the prizes differ.
        rng = random.Random(51)
        for _ in range(25):
            even = Fraction(rng.randint(1, 30), rng.randint(1, 6))
            odd = Fraction(rng.randint(1, 30), rng.randint(1, 6))
            value = etrennes_solve(EtrennesConfig(even, odd)).value
            low, high = min(even, odd) / 2, max(even, odd) / 2
            if even == odd:
                assert value == low == high
            else:
                assert low < value < high
