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
two tokens, then three cards picked by index arithmetic over the deck in
rank order. The pool's trial loop (`_pool_trials`, behind
`pool.pool_simulate`) keeps the waiting seats in a ring. A run's result is
its exact counts and their Fraction frequency; the command that prints a
run computes its standard error.

The stream's rule is written only here. A draw below a bound rejects raw
outputs at or above `_rejection_limit(bound)`, the one check of the bound.
Both trial loops write the xorshift-star step out for every draw, as
`RandomStream.next_below` does, and keep the state in a local: a method
call per draw made a trial about 1.45 times slower, and one loop over a Le
Her trial's five draws kept little more than half of the speed-up.
`tests/reference_stream.c`, written from README's text, checks the rule
against the goldens, and the tests pin both loops to references that draw
through `next_below`, forced rejections included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rational import _digits, require_integer

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
        limit = _rejection_limit(bound)
        x = self.state
        while True:
            x ^= x >> 12
            x = (x ^ (x << 25)) & MASK64
            x ^= x >> 27
            draw = (x * XORSHIFT_MULTIPLIER) & MASK64
            if draw < limit:
                self.state = x
                return draw % bound


def _rejection_limit(bound: int) -> int:
    """The first raw output a draw below `bound` rejects: 2**64 - 2**64 mod bound.

    Outputs under the limit fall evenly on each residue mod `bound`. A bound
    outside 1..2**64 is refused; above 2**64 the limit would be 0 and no
    draw would ever be taken.
    """
    if type(bound) is not int or not 1 <= bound <= _TWO64:
        got = _digits(bound) if type(bound) is int else repr(bound)
        raise ValueError(f"bound must lie in 1..2**64, got {got}")
    return _TWO64 - _TWO64 % bound


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
    by its index among the cards left in rank order: the index into the
    52-card deck skips the cards already dealt. The game law of
    :mod:`montmort.leher` is tabulated once per call: `_before_draw` settles
    every pair of first two ranks under each of the four token pairs, and a
    trial only applies Pierre's redraw, in which a drawn king is thrown back.
    A token denominator above 2**64 is refused as `next_below` refuses it.
    """
    from . import leher  # only here, so the pool's simulator runs without Le Her

    require_integer("trials", trials, 1)
    a, b, c, d = leher._token_weights(a, b, c, d)
    state = RandomStream(seed).state

    paul_switch = a / (a + b)
    pierre_switch = c / (c + d)
    paul_num, paul_den = paul_switch.numerator, paul_switch.denominator
    pierre_num, pierre_den = pierre_switch.numerator, pierre_switch.denominator
    paul_limit, pierre_limit, limit52, limit51, limit50 = (
        _rejection_limit(bound) for bound in (paul_den, pierre_den, 52, 51, 50)
    )
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

    # The 52 cards as ranks in rank order; a deal's picks index it, skipping cards dealt.
    deck = tuple(
        rank for rank in range(1, leher.RANK_COUNT + 1) for _ in range(leher.COPIES_PER_RANK)
    )
    king = leher.KING
    # Each draw is `next_below`'s loop written out on the local state.
    mask, multiplier = MASK64, XORSHIFT_MULTIPLIER
    wins = 0
    for _ in range(trials):
        while True:
            state ^= state >> 12
            state = (state ^ (state << 25)) & mask
            state ^= state >> 27
            draw = (state * multiplier) & mask
            if draw < paul_limit:
                break
        paul_token = draw % paul_den >= paul_num
        while True:
            state ^= state >> 12
            state = (state ^ (state << 25)) & mask
            state ^= state >> 27
            draw = (state * multiplier) & mask
            if draw < pierre_limit:
                break
        law = settled[paul_token][draw % pierre_den >= pierre_num]
        # Card indices into the deck: the second skips the first, the third both.
        while True:
            state ^= state >> 12
            state = (state ^ (state << 25)) & mask
            state ^= state >> 27
            draw = (state * multiplier) & mask
            if draw < limit52:
                break
        first = draw % 52
        while True:
            state ^= state >> 12
            state = (state ^ (state << 25)) & mask
            state ^= state >> 27
            draw = (state * multiplier) & mask
            if draw < limit51:
                break
        second = draw % 51
        if second >= first:
            second += 1
            low, high = first, second
        else:
            low, high = second, first
        while True:
            state ^= state >> 12
            state = (state ^ (state << 25)) & mask
            state ^= state >> 27
            draw = (state * multiplier) & mask
            if draw < limit50:
                break
        third = draw % 50
        if third >= low:
            third += 1
        if third >= high:
            third += 1
        paul_final, pierre_final, draws = law[deck[first] - 1][deck[second] - 1]
        if draws and deck[third] != king:
            pierre_final = deck[third]
        if paul_final > pierre_final:
            wins += 1
    return LeherSimulation(wins, trials, Fraction(wins, trials))


def _pool_trials(
    players: int, required: int, num: int, den: int, seed: int, trials: int, max_games: int
) -> tuple[list[int], int, int]:
    """Play `trials` pools on the stream: (wins per seat, total games, truncated trials).

    The pool's law in plain integers, for `pool.pool_simulate`, which checks
    the arguments. The champion wins a game when a draw below `den` falls
    under `num`. The queue is a ring of the players - 1 waiting seats read
    from `head`: the challenger is ring[head]; a loss puts the old champion
    in its place, and either way the head moves on, so the loser is last.
    """
    state = RandomStream(seed).state
    limit = _rejection_limit(den)
    mask, multiplier = MASK64, XORSHIFT_MULTIPLIER
    waiting = tuple(range(1, players))
    last = players - 1
    wins = [0] * players
    total_games = 0
    truncated = 0
    # Built once, not per trial: most trials last only a few games.
    game_numbers = range(1, max_games + 1)

    for _ in range(trials):
        champion = 0
        streak = 0
        ring = list(waiting)
        head = 0
        for games in game_numbers:
            while True:
                state ^= state >> 12
                state = (state ^ (state << 25)) & mask
                state ^= state >> 27
                draw = (state * multiplier) & mask
                if draw < limit:
                    break
            if draw % den < num:
                streak += 1
            else:
                challenger = ring[head]
                ring[head] = champion
                champion = challenger
                streak = 1
            head += 1
            if head == last:
                head = 0
            if streak >= required:
                wins[champion] += 1
                break
        else:
            truncated += 1
        total_games += games
    return wins, total_games, truncated
