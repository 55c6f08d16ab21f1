import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from montmort.etrennes import EtrennesConfig
from montmort.montecarlo import leher_simulate
from montmort.pool import PoolConfig
from montmort.rational import (
    approx_string,
    as_rational,
    decimal_string,
    format_rational,
    parse_rational,
    require_integer,
    require_rational,
)
from oracles import decimal_string_reference

rationals = st.fractions(
    min_value=Fraction(-10**9), max_value=Fraction(10**9), max_denominator=10**6
)


def test_textbook_addition():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_canonicalisation_of_full_deal_count():
    # 132600 = 52 * 51 * 50; the table denominators reduce by a factor of 24
    assert gcd(67872, 132600) == 24
    assert Fraction(67872, 132600) == Fraction(2828, 5525)


def test_division_by_zero_is_an_explicit_error():
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0, 1)
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 0)


def test_montmort_bracket_comparisons():
    # 131/11050 = 2828/5525 - 1/2; cross multiplication: 131*85 = 11135 > 11050
    assert Fraction(131, 11050) == Fraction(2828, 5525) - Fraction(1, 2)
    assert Fraction(1, 85) < Fraction(131, 11050)
    # and 131*84 = 11004 < 11050
    assert Fraction(131, 11050) < Fraction(1, 84)
    assert Fraction(2, 4) == Fraction(1, 2)


class TestParse:
    def test_plain_fraction(self):
        assert parse_rational("3/8") == Fraction(3, 8)

    def test_bare_integer_means_over_one(self):
        assert parse_rational("7") == Fraction(7)
        assert parse_rational("-7") == Fraction(-7)

    def test_sign_on_numerator(self):
        assert parse_rational("-3/6") == Fraction(-1, 2)
        assert parse_rational("+3/6") == Fraction(1, 2)

    def test_surrounding_whitespace(self):
        assert parse_rational("  5/14 ") == Fraction(5, 14)

    @pytest.mark.parametrize(
        "bad",
        [
            "", "/", "1/", "/2", "1/-2", "1/+2", "a/b", "1.5", "1/0", "--3", "1/2/3", "1 / 2",
            "٣/٤", "٣", "3/٤", "3\n/4", "\u30003/4\u3000",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)


class TestFormat:
    def test_fraction(self):
        assert format_rational(Fraction(2828, 5525)) == "2828/5525"

    def test_integer_is_bare(self):
        assert format_rational(Fraction(3)) == "3"
        assert format_rational(Fraction(0)) == "0"

    def test_negative(self):
        assert format_rational(Fraction(-1, 49)) == "-1/49"


class TestAsRational:
    def test_accepts_int_str_fraction(self):
        assert as_rational(3) == Fraction(3)
        assert as_rational("3/5") == Fraction(3, 5)
        assert as_rational(Fraction(1, 7)) == Fraction(1, 7)

    def test_rejects_floats_and_bools(self):
        with pytest.raises(TypeError):
            as_rational(0.5)
        with pytest.raises(TypeError):
            as_rational(True)
        with pytest.raises(TypeError):
            as_rational(None)


class TestDecimalString:
    def test_truncates_not_rounds(self):
        # 2/3 = 0.6666...; truncation keeps sixes, rounding would give a 7
        assert decimal_string(Fraction(2, 3), 4) == "0.6666"

    def test_truncation_toward_zero_for_negatives(self):
        assert decimal_string(Fraction(-2, 3), 4) == "-0.6666"

    def test_default_six_digits(self):
        assert decimal_string(Fraction(2828, 5525)) == "0.511855"

    def test_approx_string_puts_the_exact_form_first(self):
        assert approx_string(Fraction(2828, 5525)) == "2828/5525 ≈ 0.511855"
        assert approx_string(Fraction(2828, 5525), digits=2) == "2828/5525 ≈ 0.51"

    def test_zero_digits(self):
        assert decimal_string(Fraction(22, 7), 0) == "3"

    def test_integer_value(self):
        assert decimal_string(Fraction(3)) == "3.000000"

    def test_negative_digit_count_rejected(self):
        with pytest.raises(ValueError):
            decimal_string(Fraction(1, 2), -1)

    @pytest.mark.parametrize("digits", [True, False, 2.5, 3.0, "6", None])
    def test_digit_count_must_be_a_non_bool_int(self, digits):
        with pytest.raises(ValueError, match="digits must be an integer >= 0"):
            decimal_string(Fraction(1, 3), digits)


@given(st.fractions(), st.integers(0, 12))
def test_decimal_string_matches_digit_by_digit_reference(value, digits):
    assert decimal_string(value, digits) == decimal_string_reference(value, digits)


class TestRequire:
    """The one argument rule: a refusal names the argument, its range and the value."""

    @staticmethod
    def check(require, args, outcome):
        if isinstance(outcome, str):
            with pytest.raises(ValueError) as refused:
                require(*args)
            assert str(refused.value) == outcome
        elif isinstance(outcome, tuple):
            kind, message = outcome
            with pytest.raises(kind, match=f"^{re.escape(message)}$"):
                require(*args)
        else:
            assert require(*args) == outcome
            assert type(require(*args)) is type(outcome)

    @pytest.mark.parametrize(
        "args, outcome",
        [
            (("trials", True, 1), "trials must be an integer >= 1, got True"),
            (("digits", False, 0), "digits must be an integer >= 0, got False"),
            (("trials", 2.5, 1), "trials must be an integer >= 1, got 2.5"),
            (("seed", 3.0), "seed must be an integer, got 3.0"),
            (("trials", "3", 1), "trials must be an integer >= 1, got '3'"),
            (("seed", None), "seed must be an integer, got None"),
            (("trials", 0, 1), "trials must be an integer >= 1, got 0"),
            (("players", 1, 2), "players must be an integer >= 2, got 1"),
            (("rank", 0, 1, 13), "rank must be an integer in 1..13, got 0"),
            (("rank", 14, 1, 13), "rank must be an integer in 1..13, got 14"),
            (("cap", 6, None, 5), "cap must be an integer <= 5, got 6"),
            (("trials", 1, 1), 1),
            (("rank", 13, 1, 13), 13),
            (("cap", -(2**70), None, 5), -(2**70)),
            (("seed", -5), -5),
        ],
    )
    def test_require_integer(self, args, outcome):
        self.check(require_integer, args, outcome)
        if not isinstance(outcome, str):
            assert require_integer(*args) is args[1]

    @pytest.mark.parametrize(
        "args, outcome",
        [
            (("p", "3/2", 0, 1), "p must be in [0, 1], got 3/2"),
            (("p", Fraction(-1, 10**9), 0, 1), "p must be in [0, 1], got -1/1000000000"),
            (("p", 2, 0, 1), "p must be in [0, 1], got 2"),
            (("ante", -1, 0), "ante must be >= 0, got -1"),
            (("cap", Fraction(11, 10), None, 1), "cap must be <= 1, got 11/10"),
            (("p", "abc", 0, 1), "p: malformed rational 'abc': expected 'p' or 'p/q'"),
            (("p", 0.5, 0, 1), (TypeError, "p: exact rational expected, got float 0.5")),
            (("p", True, 0, 1), (TypeError, "p: exact rational expected, got bool True")),
            (("p", "1/2", 0, 1), Fraction(1, 2)),
            (("p", 0, 0, 1), Fraction(0)),
            (("p", Fraction(1), 0, 1), Fraction(1)),
            (("ante", "7", 0), Fraction(7)),
            (("x", "-7/3"), Fraction(-7, 3)),
        ],
    )
    def test_require_rational(self, args, outcome):
        self.check(require_rational, args, outcome)

    @pytest.mark.parametrize(
        "call, outcome",
        [
            (
                lambda: PoolConfig(3, champion_win_prob=0.5),
                (TypeError, "champion_win_prob: exact rational expected, got float 0.5"),
            ),
            (
                lambda: leher_simulate(1, "x", 1, 1, seed=1, trials=10),
                (ValueError, "weight b: malformed rational 'x': expected 'p' or 'p/q'"),
            ),
            (
                lambda: EtrennesConfig(even_prize=0.5),
                (TypeError, "even_prize: exact rational expected, got float 0.5"),
            ),
            (
                lambda: EtrennesConfig(odd_prize="x"),
                (ValueError, "odd_prize: malformed rational 'x': expected 'p' or 'p/q'"),
            ),
            (lambda: EtrennesConfig(odd_prize=0), (ValueError, "odd_prize must be > 0, got 0")),
        ],
        ids=["PoolConfig", "leher_simulate", "EtrennesConfig-float", "EtrennesConfig-text",
             "EtrennesConfig-zero"],
    )
    def test_engine_refusals_name_the_argument(self, call, outcome):
        self.check(call, (), outcome)


@given(rationals, rationals)
def test_addition_and_multiplication_commute(x, y):
    assert x + y == y + x
    assert x * y == y * x


@given(rationals, rationals, rationals)
def test_addition_and_multiplication_associate(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)


@given(rationals, rationals)
def test_add_then_subtract_is_exact(x, y):
    assert (x + y) - y == x


@given(rationals)
def test_canonical_form_is_invariant(x):
    assert x.denominator > 0
    assert gcd(abs(x.numerator), x.denominator) == 1
    assert Fraction(x.numerator, x.denominator) == x


@given(rationals)
def test_wire_form_round_trips(x):
    assert parse_rational(format_rational(x)) == x
