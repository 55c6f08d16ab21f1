"""Deterministic seedable sampling for cross-checking the exact results.

The token bag of the correspondence, in modern dress: randomised play is
simulated with a 64-bit shift-register generator (the "xorshift star" rule
with the classic published constants: shifts 12, 25, 27 and multiplier
2685821657736338717). The update is fixed here so that a given seed yields
the same stream on every platform and in any language, making golden
simulation outputs portable.

Simulations touch only the game-law code paths, never the exact engine's
numeric answers, so their agreement with the exact results is evidence
rather than tautology. Empirical frequencies are exact Fractions of counts;
only the reported standard errors are floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

from . import leher

MASK64 = (1 << 64) - 1
XORSHIFT_MULTIPLIER = 2685821657736338717  # 0x2545F4914F6CDD1D
#: Substituted for a zero seed, which the shift register cannot leave.
ZERO_SEED_REPLACEMENT = 0x9E3779B97F4A7C15

_TWO64 = 1 << 64


def require_count(name: str, value: object) -> None:
    """Reject anything but an int >= 1 (a bool is not a count)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


class RandomStream:
    """A single-owner xorshift-star stream; same seed, same sequence, anywhere."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        state = seed & MASK64
        self.state = state if state else ZERO_SEED_REPLACEMENT

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & MASK64
        x ^= x >> 27
        self.state = x
        return (x * XORSHIFT_MULTIPLIER) & MASK64

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection sampling; advances the stream.

        A bound above 2**64 is out of a 64-bit draw's reach and is rejected.
        """
        if not 1 <= bound <= _TWO64:
            raise ValueError(f"bound must lie in 1..2**64, got {bound}")
        limit = _TWO64 - (_TWO64 % bound)
        while True:
            draw = self.next_u64()
            if draw < limit:
                return draw % bound

    def bernoulli(self, probability: Fraction) -> bool:
        """Exact-probability coin flip: no floating point in the threshold."""
        if not 0 <= probability <= 1:
            raise ValueError(f"probability must lie in [0, 1], got {probability}")
        return self.next_below(probability.denominator) < probability.numerator


def _draw_three_ranks(stream: RandomStream) -> tuple[int, int, int]:
    """Deal three cards without replacement, respecting rank multiplicities."""
    counts = [leher.COPIES_PER_RANK] * leher.RANK_COUNT
    remaining = leher.DECK_SIZE
    dealt = []
    for _ in range(3):
        pick = stream.next_below(remaining)
        for rank0, count in enumerate(counts):
            pick -= count
            if pick < 0:
                dealt.append(rank0 + 1)
                counts[rank0] -= 1
                remaining -= 1
                break
    return dealt[0], dealt[1], dealt[2]


@dataclass(frozen=True)
class LeherSimulation:
    """Empirical Paul win frequency under token-bag mixing."""

    wins: int
    trials: int
    frequency: Fraction
    std_error: float


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
    probability c / (c + d)), then the three cards of the deal. The deal is
    settled by the game law in :mod:`montmort.leher`.
    """
    require_count("trials", trials)
    a, b, c, d = leher._token_weights(a, b, c, d)

    paul_switch = a / (a + b)
    pierre_switch = c / (c + d)
    paul_choices = (leher.PaulStrategy.threshold(6), leher.PaulStrategy.threshold(7))
    pierre_choices = (leher.PierreStrategy.threshold(7), leher.PierreStrategy.threshold(8))

    stream = RandomStream(seed)
    wins = 0
    for _ in range(trials):
        paul = paul_choices[stream.bernoulli(paul_switch)]
        pierre = pierre_choices[stream.bernoulli(pierre_switch)]
        paul_card, pierre_card, replacement = _draw_three_ranks(stream)
        if leher.paul_wins_deal(paul_card, pierre_card, replacement, paul, pierre):
            wins += 1
    frequency = Fraction(wins, trials)
    std_error = sqrt(float(frequency) * float(1 - frequency) / trials)
    return LeherSimulation(wins, trials, frequency, std_error)
