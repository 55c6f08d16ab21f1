"""Deterministic seedable sampling for cross-checking the exact results.

The token bag of the correspondence, in modern dress: randomised play is
simulated with a 64-bit shift-register generator (the "xorshift star" rule
with the classic published constants: shifts 12, 25, 27 and multiplier
2685821657736338717). The update is fixed here so that a given seed yields
the same stream on every platform and in any language, making golden
simulation outputs portable.

A seed is any integer (not a bool), masked to its low 64 bits.

Simulations never touch the exact engine's numeric answers. The Le Her
simulator shares the game law `leher._before_draw` with the exact weight
table, so its agreement with the exact results tests the table's counting,
not the law. The law has three checks of its own in `tests/oracles.py`:
`settle_deal`, written from the rules, against `resolve_deal` on every
deal; `weight_table_reference()` against the table, cell by cell; and
`simulate_leher_reference` against this simulator's counts. The simulator
tabulates the law once per call, for every token pair and every pair of
first two ranks, and consumes the stream per trial in a fixed order: the
two tokens, then three cards dealt from an indexed deck. A run's result is
its exact counts and their Fraction frequency; the command that prints a
run computes its standard error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import leher
from .rational import require_integer

MASK64 = (1 << 64) - 1
XORSHIFT_MULTIPLIER = 2685821657736338717  # 0x2545F4914F6CDD1D
#: Substituted for a zero seed, which the shift register cannot leave.
ZERO_SEED_REPLACEMENT = 0x9E3779B97F4A7C15

_TWO64 = 1 << 64


class RandomStream:
    """A single-owner xorshift-star stream; same seed, same sequence, anywhere."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        state = require_integer("seed", seed) & MASK64
        self.state = state if state else ZERO_SEED_REPLACEMENT

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection sampling; advances the stream.

        Each step is one xorshift-star output. A bound above 2**64 is out of
        a 64-bit draw's reach and is rejected.
        """
        # Inline, not require_integer: this runs on every draw, five per Le Her trial.
        if type(bound) is not int or not 1 <= bound <= _TWO64:
            raise ValueError(f"bound must lie in 1..2**64, got {bound!r}")
        limit = _TWO64 - (_TWO64 % bound)
        x = self.state
        while True:
            x ^= x >> 12
            x = (x ^ (x << 25)) & MASK64
            x ^= x >> 27
            draw = (x * XORSHIFT_MULTIPLIER) & MASK64
            if draw < limit:
                self.state = x
                return draw % bound


#: The 52 cards as ranks in rank order, so pick k of a deal is the k-th card left.
_DECK = tuple(
    rank for rank in range(1, leher.RANK_COUNT + 1) for _ in range(leher.COPIES_PER_RANK)
)


@dataclass(frozen=True)
class LeherSimulation:
    """Empirical Paul win frequency under token-bag mixing."""

    wins: int
    trials: int
    frequency: Fraction


def leher_simulate(
    a: Fraction | int | str,
    b: Fraction | int | str,
    c: Fraction | int | str,
    d: Fraction | int | str,
    seed: int,
    trials: int,
) -> LeherSimulation:
    """Play Le Her with both players drawing tokens, and count Paul's wins.

    Per trial the stream is consumed in a fixed order: Paul's token (switch
    the 7 with probability a / (a + b)), Pierre's token (switch the 8 with
    probability c / (c + d)), then the three cards of the deal, each picked
    by its index among the cards left in rank order. The game law of
    :mod:`montmort.leher` is tabulated once per call: `_before_draw` settles
    every pair of first two ranks under each of the four token pairs, and a
    trial only applies Pierre's redraw, in which a drawn king is thrown back.
    """
    require_integer("trials", trials, 1)
    a, b, c, d = leher._token_weights(a, b, c, d)
    stream = RandomStream(seed)

    paul_switch = a / (a + b)
    pierre_switch = c / (c + d)
    paul_num, paul_den = paul_switch.numerator, paul_switch.denominator
    pierre_num, pierre_den = pierre_switch.numerator, pierre_switch.denominator
    # settled[paul token][pierre token][paul rank - 1][pierre rank - 1]
    # is (paul_final, pierre_current, pierre_draws); token 0 is "switch".
    settled = [
        [
            [[leher._before_draw(x, y, s, d) for y, d in enumerate(pierre.draw, 1)]
             for x, s in enumerate(paul.switch, 1)]
            for pierre in leher.PIERRE_TABLE_STRATEGIES
        ]
        for paul in leher.PAUL_TABLE_STRATEGIES
    ]

    king = leher.KING
    deck_size = len(_DECK)
    below = stream.next_below
    wins = 0
    for _ in range(trials):
        law = settled[below(paul_den) >= paul_num][below(pierre_den) >= pierre_num]
        deck = list(_DECK)
        paul_card = deck.pop(below(deck_size))
        pierre_card = deck.pop(below(deck_size - 1))
        replacement = deck[below(deck_size - 2)]
        paul_final, pierre_final, draws = law[paul_card - 1][pierre_card - 1]
        if draws and replacement != king:
            pierre_final = replacement
        if paul_final > pierre_final:
            wins += 1
    return LeherSimulation(wins, trials, Fraction(wins, trials))
