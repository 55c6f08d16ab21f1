"""Exact analysis of the two-player card game Le Her.

Pierre deals one card to Paul and one to himself from a standard 52-card
deck (ace low, king high). Paul may force a swap of the two cards, which
Pierre can refuse only when he holds a king. Once Paul has moved, Pierre may
keep his current card or replace it with a fresh draw from the deck, except
that a drawn king must be thrown back and the current card kept. Highest
card takes the pot; ties go to the dealer Pierre.

Strategies are per-rank action tables. The historical analysis centres on
threshold rules ("switch the 7 and under", "hold the 8 and over"), so both
strategy types carry a threshold constructor, but arbitrary tables work too.

One decision node is implicit in the rules and is resolved here the only
sensible way: after a completed swap Pierre holds Paul's former card and has
just handed over his own, so he knows both hands. Standing wins for him
exactly when his new card is at least Paul's (the dealer takes ties), and
drawing is his only hope otherwise. Any other play at that node is strictly
worse. This forced response reproduces every lot quoted in the
Montmort-Bernoulli-Waldegrave correspondence.

A deal's outcome depends only on its first two ranks and the players' flags
at them, so one table of 13 * 13 * 2 * 2 = 676 integer cells counts both
players' wins over the 52 * 51 * 50 = 132,600 ordered deals, and every full
and conditional lot is an exact Fraction summed from it; no floats anywhere.
Each class reads the law from `_before_draw`, which also settles single
deals and feeds the simulator, so the table states no rule of its own. A
settled class counts all 50 third cards at once, and a class that reaches
Pierre's redraw counts each player's winning third cards with one closed
form. The table is stored row-wise, the way the lots read it: for each
Paul rank, flag and side, the 13 cells where Pierre holds, Pierre's 13
per-rank draw increments and the holding total.
The historical 2 x 2 is the four named strategy pairs' full lots; the
14 x 14 threshold game comes from the rows' prefix sums, one per rank and
flag, since a Pierre threshold draws on a prefix of the ranks. The table
and three games are cached, each built once: the historical 2 x 2, the
threshold game and Paul's conditional 2 x 2 with a seven, which
`conditional_mixed_lot_paul7` mixes.
"""

from __future__ import annotations

import enum
import operator
import string
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress

from .rational import parse_integer, require_integer, require_rational
from .solver import GameMatrix, MixedStrategy, verify_equilibrium

KING = 13
RANK_COUNT = 13
COPIES_PER_RANK = 4
DECK_SIZE = RANK_COUNT * COPIES_PER_RANK
ORDERED_DEALS = DECK_SIZE * (DECK_SIZE - 1) * (DECK_SIZE - 2)

class PaulAction(enum.Enum):
    HOLD = "hold"
    SWITCH = "switch"


class PierreAction(enum.Enum):
    HOLD = "hold"
    DRAW = "draw"


def _parse_action_string(text: str, yes_letters: str) -> tuple[bool, ...]:
    if len(text) != RANK_COUNT:
        raise ValueError(f"action string must be {RANK_COUNT} characters, got {text!r}")
    flags = []
    for letter in text:
        letter = letter.upper() if letter.isascii() else letter  # "ſ".upper() is "S"
        if letter not in yes_letters + "H":
            raise ValueError(f"bad action letter {letter!r} in {text!r}")
        flags.append(letter != "H")
    return tuple(flags)


def _threshold_flags(threshold: int) -> tuple[bool, ...]:
    require_integer("threshold", threshold, 0, RANK_COUNT)
    return tuple(rank <= threshold for rank in range(1, RANK_COUNT + 1))


class _RankTable:
    """Behaviour shared by the two per-rank strategy tables.

    A subclass is a frozen dataclass with one tuple of flags, named by
    `_FIELD`; a True flag at index r - 1 means the player acts on rank r.
    In the 13-letter table form H holds and any of `_LETTERS` acts.
    """

    def __post_init__(self) -> None:
        flags = tuple(getattr(self, self._FIELD))
        object.__setattr__(self, self._FIELD, flags)
        if len(flags) != RANK_COUNT or not all(isinstance(f, bool) for f in flags):
            raise ValueError("strategy needs one boolean per rank 1..13")

    @classmethod
    def threshold(cls, threshold: int):
        """Act on every rank up to `threshold`, hold above (0 = never act)."""
        return cls(_threshold_flags(threshold))

    @classmethod
    def parse(cls, text: str):
        """Accepts "threshold:t" or a 13-letter action table (ASCII only)."""
        body = text.strip(string.whitespace)
        if body.lower().startswith("threshold:"):
            value = body.split(":", 1)[1]
            try:
                threshold = parse_integer(value)
            except ValueError:
                raise ValueError(f"threshold must be an integer in 0..13, got {value!r}") from None
            return cls.threshold(threshold)
        return cls(_parse_action_string(body, cls._LETTERS))


@dataclass(frozen=True)
class PaulStrategy(_RankTable):
    """Paul's plan for his dealt card: switch[r - 1] is True when rank r is swapped.

    Table letters: S = switch, H = hold; threshold t switches the ranks 1..t.
    """

    switch: tuple[bool, ...]

    _FIELD = "switch"
    _LETTERS = "S"


@dataclass(frozen=True)
class PierreStrategy(_RankTable):
    """Pierre's plan at his free node (Paul stood): draw[r - 1] is True when rank r redraws.

    Table letters: D (or S) = draw, H = hold; threshold t draws on the ranks 1..t.
    """

    draw: tuple[bool, ...]

    _FIELD = "draw"
    _LETTERS = "DS"


# ---------------------------------------------------------------------------
# Game law
# ---------------------------------------------------------------------------


def _before_draw(
    paul_card: int, pierre_card: int, switch: bool, draw: bool
) -> tuple[int, int, bool]:
    """Both decisions up to Pierre's optional redraw, given the players' flags.

    `switch` is Paul's flag at his card and `draw` Pierre's at his. Returns
    (paul_final, pierre_current, pierre_draws); when pierre_draws is False
    the deal is settled and pierre_current is Pierre's final card.
    """
    if switch:
        if pierre_card == KING:
            # Swap refused; Pierre stands on the king.
            return paul_card, KING, False
        # Swap completed: Pierre holds paul_card and knows Paul holds
        # pierre_card, so his response is forced (dealer keeps ties).
        return pierre_card, paul_card, paul_card < pierre_card
    return paul_card, pierre_card, draw


def resolve_deal(
    paul_card: int,
    pierre_card: int,
    replacement: int,
    paul: PaulStrategy,
    pierre: PierreStrategy,
) -> tuple[int, int]:
    """Final (paul_card, pierre_card) for one ordered three-card deal.

    `replacement` is the next card of the deck; it only matters when the play
    reaches Pierre's redraw, and a replacement king is thrown back.
    """
    for card in (paul_card, pierre_card, replacement):
        require_integer("rank", card, 1, RANK_COUNT)
    paul_final, pierre_current, draws = _before_draw(
        paul_card, pierre_card, paul.switch[paul_card - 1], pierre.draw[pierre_card - 1]
    )
    if draws and replacement != KING:
        return paul_final, replacement
    return paul_final, pierre_current


# ---------------------------------------------------------------------------
# Exact enumeration
# ---------------------------------------------------------------------------


#: One weight-table row: 13 holding cells, 13 draw increments, the holding total.
_Row = tuple[tuple[int, ...], tuple[int, ...], int]


@lru_cache(maxsize=None)
def _weight_table() -> tuple[tuple[tuple[_Row, _Row], tuple[_Row, _Row]], ...]:
    """Integer win weights of the 676 deal classes, one row per (Paul's rank a, flag, side).

    A deal's outcome depends only on its first two ranks a and b, Paul's flag
    at a and Pierre's flag at b. Row `[a - 1][switch][side]` holds Paul's
    (side 0) or Pierre's (side 1) weights with Paul's flag `switch` at a:
    the 13 cells where Pierre holds his rank b, the 13 amounts by which
    drawing on b changes them, and the total of the holding cells.

    Each class takes Paul's final card P, Pierre's current card C and
    whether Pierre draws from `_before_draw`, looked up in the module on
    every call. A cell counts the ordered deals with first ranks (a, b) and
    any third card, 4 * (4 - [a = b]) * 50 of them, that each player wins,
    each by its own predicate (strictly higher for Paul, at least as high
    for Pierre), so the complementarity law checked in the tests is a real
    property of the table, not an accounting identity. A settled class
    gives 50 [P > C] to Paul and 50 [C >= P] to Pierre. A class that
    reaches the redraw counts third cards in one closed form: one below the
    king becomes Pierre's, and any of the kings = 4 - [a = 13] - [b = 13]
    left is thrown back, so Paul wins on 4(P - 1) - [a < P] - [b < P] cards
    plus the kings when P > C, and Pierre on 4(13 - P) - [P <= a < 13] -
    [P <= b < 13] cards plus the kings when C >= P.
    """
    ranks = range(1, RANK_COUNT + 1)
    settled = DECK_SIZE - 2
    table = []
    for a in ranks:
        deals_ab = [COPIES_PER_RANK * (COPIES_PER_RANK - (b == a)) for b in ranks]
        flags = []
        for switch in (False, True):
            cells = []  # per Pierre rank b: (Paul, Pierre) holding, then drawing, per deal
            for b in ranks:
                kings = COPIES_PER_RANK - (a == KING) - (b == KING)
                cell = ()
                for draw in (False, True):
                    paul, pierre, draws = _before_draw(a, b, switch, draw)
                    if draws:
                        cell += (
                            COPIES_PER_RANK * (paul - 1) - (a < paul) - (b < paul)
                            + kings * (paul > pierre),
                            COPIES_PER_RANK * (KING - paul) - (paul <= a < KING)
                            - (paul <= b < KING) + kings * (pierre >= paul),
                        )
                    else:
                        cell += settled * (paul > pierre), settled * (pierre >= paul)
                cells.append(cell)
            paul_hold, pierre_hold, paul_draw, pierre_draw = (
                tuple(map(operator.mul, deals_ab, column)) for column in zip(*cells)
            )
            flags.append(tuple(
                (hold, tuple(map(operator.sub, draw, hold)), sum(hold))
                for hold, draw in ((paul_hold, paul_draw), (pierre_hold, pierre_draw))
            ))
        table.append(tuple(flags))
    return tuple(table)


def _row_weight(a: int, switch: bool, draw: tuple[bool, ...], side: int = 0) -> int:
    """Paul's (side 0) or Pierre's (side 1) win weight over the deals that give Paul rank `a`.

    `switch` is Paul's flag at `a` and `draw` Pierre's per-rank draw flags. A
    full win weight is the sum of these over Paul's ranks, each at his flag.
    """
    _, increments, total = _weight_table()[a - 1][switch][side]
    return total + sum(compress(increments, draw))


def _check_strategy(value: object, kind: type) -> None:
    if not isinstance(value, kind):
        raise ValueError(f"expected a {kind.__name__}, got {type(value).__name__}")


def _full_weight(paul: PaulStrategy, pierre: PierreStrategy, side: int) -> int:
    """Paul's (side 0) or Pierre's (side 1) win weight over all ordered deals."""
    _check_strategy(paul, PaulStrategy)
    _check_strategy(pierre, PierreStrategy)
    return sum(_row_weight(a, switch, pierre.draw, side) for a, switch in enumerate(paul.switch, 1))


def paul_win_probability(paul: PaulStrategy, pierre: PierreStrategy) -> Fraction:
    """Paul's exact lot for a strategy pair on the full 52-card deck."""
    return Fraction(_full_weight(paul, pierre, 0), ORDERED_DEALS)


def pierre_win_probability(paul: PaulStrategy, pierre: PierreStrategy) -> Fraction:
    """Pierre's exact lot; ties go to him, so this complements Paul's exactly."""
    return Fraction(_full_weight(paul, pierre, 1), ORDERED_DEALS)


def conditional_lot_paul(card: int, action: PaulAction, pierre: PierreStrategy) -> Fraction:
    """Paul's winning lot given his dealt card and his chosen action.

    Counts Pierre's 51 possible cards and, where a redraw happens, the 50
    possible replacements; the result has denominator dividing 51 * 50.
    When the action is SWITCH the answer does not depend on `pierre`, since
    Pierre's post-swap response is forced by the rules.
    """
    require_integer("rank", card, 1, RANK_COUNT)
    _check_strategy(action, PaulAction)
    _check_strategy(pierre, PierreStrategy)
    win = _row_weight(card, action is PaulAction.SWITCH, pierre.draw)
    return Fraction(win, COPIES_PER_RANK * (DECK_SIZE - 1) * (DECK_SIZE - 2))


def conditional_lot_pierre(card: int, action: PierreAction, paul: PaulStrategy) -> Fraction:
    """Pierre's winning lot given his card, conditioned on Paul having stood.

    The conditioning event is "Paul was dealt a rank he holds under `paul`,
    and Pierre then drew `card`": with Paul holding h ranks that leaves
    4h - 1 or 4h stand-cards out of 51 (one fewer when `card` is itself a
    stand rank). That count times 50 is the denominator before reduction,
    which is how the historical 23 * 50 and 27 * 50 totals arise.
    """
    require_integer("rank", card, 1, RANK_COUNT)
    _check_strategy(action, PierreAction)
    _check_strategy(paul, PaulStrategy)
    stand_ranks = [a for a, switch in enumerate(paul.switch, 1) if not switch]
    if not stand_ranks:
        raise ValueError("conditioning event impossible: Paul never stands under this strategy")
    table = _weight_table()
    draw = action is PierreAction.DRAW
    win = 0
    for a in stand_ranks:
        hold, increments, _ = table[a - 1][False][1]
        win += hold[card - 1] + draw * increments[card - 1]
    stand_cards = sum(COPIES_PER_RANK - (a == card) for a in stand_ranks)
    return Fraction(win, COPIES_PER_RANK * stand_cards * (DECK_SIZE - 2))


# ---------------------------------------------------------------------------
# Mixing over the four historical strategies
# ---------------------------------------------------------------------------

#: Row strategies of the historical table: switch the 7, hold the 7.
PAUL_TABLE_STRATEGIES = (PaulStrategy.threshold(7), PaulStrategy.threshold(6))
#: Column strategies: switch the 8, hold the 8.
PIERRE_TABLE_STRATEGIES = (PierreStrategy.threshold(8), PierreStrategy.threshold(7))

PAUL_TABLE_LABELS = ("switch the 7", "hold the 7")
PIERRE_TABLE_LABELS = ("switch the 8", "hold the 8")


@lru_cache(maxsize=None)
def build_leher_matrix() -> GameMatrix:
    """The 2x2 table of Paul's lots over the four crucial strategy pairs.

    Rows are `PAUL_TABLE_STRATEGIES` ("switch the 7", "hold the 7"), columns
    `PIERRE_TABLE_STRATEGIES` ("switch the 8", "hold the 8"); each entry is
    that pair's exact lot.
    """
    rows = (
        [paul_win_probability(paul, pierre) for pierre in PIERRE_TABLE_STRATEGIES]
        for paul in PAUL_TABLE_STRATEGIES
    )
    return GameMatrix.from_rows(rows, PAUL_TABLE_LABELS, PIERRE_TABLE_LABELS)


@lru_cache(maxsize=None)
def threshold_matrix() -> GameMatrix:
    """Paul's lot for every threshold pair (t_paul, t_pierre) in 0..13 squared.

    Pierre's threshold t draws on the ranks 1..t, so Paul's row weight at a
    rank against it is the row's holding total plus its first t draw
    increments: one prefix sum per rank and flag gives all 14 at once. Then,
    against each Pierre threshold, moving Paul's threshold from s - 1 to s
    trades rank s's hold weight for its switch weight.
    """
    table = _weight_table()
    # hold[t][a - 1] and switch[t][a - 1]: Paul's weight at rank a against threshold t.
    hold, switch = (
        zip(*(accumulate(increments, initial=total)
              for _, increments, total in (row[flag][0] for row in table)))
        for flag in (False, True)
    )
    columns = (
        [Fraction(w, ORDERED_DEALS)
         for w in accumulate(map(operator.sub, switch_t, hold_t), initial=sum(hold_t))]
        for hold_t, switch_t in zip(hold, switch)
    )
    labels = tuple(f"threshold:{t}" for t in range(RANK_COUNT + 1))
    return GameMatrix.from_rows(zip(*columns), labels, labels)


@lru_cache(maxsize=None)
def _paul7_game() -> GameMatrix:
    """Paul's conditional 2 x 2 with a seven, as `conditional_mixed_lot_paul7` mixes it."""
    return GameMatrix.from_rows(
        [conditional_lot_paul(7, action, pierre) for pierre in PIERRE_TABLE_STRATEGIES]
        for action in (PaulAction.SWITCH, PaulAction.HOLD)
    )


def conditional_mixed_lot_paul7(
    p_switch: Fraction | int | str,
    p_pierre_draw8: Fraction | int | str,
) -> Fraction:
    """Paul's lot with a seven when both players randomise the disputed cards.

    Paul switches the seven with probability `p_switch`; if he stood, Pierre
    redraws his eight with probability `p_pierre_draw8`. The lot is the
    profile payoff of the bags (p, 1 - p) and (q, 1 - q) over Paul's
    conditional 2 x 2 with a seven: rows switch and hold, columns
    `PIERRE_TABLE_STRATEGIES`. Both entries of the switch row are the same
    lot, since Pierre's reply to a completed swap is forced.
    """
    p = require_rational("p_switch", p_switch, 0, 1)
    q = require_rational("p_pierre_draw8", p_pierre_draw8, 0, 1)
    bags = MixedStrategy((p, 1 - p)), MixedStrategy((q, 1 - q))
    return verify_equilibrium(_paul7_game(), *bags).value


def _token_weights(
    a: Fraction | int | str,
    b: Fraction | int | str,
    c: Fraction | int | str,
    d: Fraction | int | str,
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Token weights as exact rationals: all nonnegative, a + b and c + d positive."""
    a, b, c, d = (require_rational(f"weight {n}", x, 0) for n, x in zip("abcd", (a, b, c, d)))
    if a + b == 0:
        raise ValueError("Paul's weights a + b must be positive")
    if c + d == 0:
        raise ValueError("Pierre's weights c + d must be positive")
    return a, b, c, d


def mixed_value(
    a: Fraction | int | str,
    b: Fraction | int | str,
    c: Fraction | int | str,
    d: Fraction | int | str,
) -> Fraction:
    """Paul's lot when both sides mix the four table strategies by weight.

    Paul plays "switch the 7" with weight a and "hold the 7" with weight b;
    Pierre plays "switch the 8" with weight c and "hold the 8" with weight d.
    (a, b) and (c, d) are token bags, so the weights need not be normalised
    and the value is invariant under positive rescaling of either. The lot
    is the bags' profile payoff over `build_leher_matrix()`, normalised by
    (a + b)(c + d), which is what makes the constant-value claims of the
    correspondence come out.
    """
    a, b, c, d = _token_weights(a, b, c, d)
    bags = MixedStrategy((a, b)), MixedStrategy((c, d))
    return verify_equilibrium(build_leher_matrix(), *bags).value
