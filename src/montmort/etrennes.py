"""Les Etrennes, the new-year parity-guessing game, as a 2x2 zero-sum game.

A father hides an odd or even number of tokens in his hand; his son guesses
the parity. A correct "even" earns the son four ecus, a correct "odd" one
ecu, and a wrong guess earns nothing. The historical discussion brought the
game in purely to illuminate Le Her, and never printed a numeric solution,
so every value here is derived by the solver; the closed form for prizes
(e, o) is value e*o/(e + o) with both players weighting "even" by o and
"odd" by e.

Payoffs are the son's gains and the game is treated as a pure opposition of
interests: the father loses what the son wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rational import format_rational, require_rational
from .solver import GameMatrix, GameSolution, solve_zero_sum

GUESS_LABELS = ("even", "odd")


@dataclass(frozen=True)
class EtrennesConfig:
    """Prizes for correct guesses, in ecus; wrong guesses pay exactly zero."""

    even_prize: Fraction = Fraction(4)
    odd_prize: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        for name in ("even_prize", "odd_prize"):
            prize = require_rational(name, getattr(self, name))
            if prize <= 0:
                raise ValueError(f"{name} must be > 0, got {format_rational(prize)}")
            object.__setattr__(self, name, prize)


def etrennes_matrix(config: EtrennesConfig = EtrennesConfig()) -> GameMatrix:
    """Rows: the son's guess; columns: the father's hidden parity.

    The son collects the prize on the matching diagonal and nothing
    elsewhere.
    """
    e, o = config.even_prize, config.odd_prize
    return GameMatrix.from_rows(
        [[e, Fraction(0)], [Fraction(0), o]],
        GUESS_LABELS,
        GUESS_LABELS,
    )


def etrennes_solve(config: EtrennesConfig = EtrennesConfig()) -> GameSolution:
    """Exact value and optimal mixes for the configured prizes."""
    return solve_zero_sum(etrennes_matrix(config))
