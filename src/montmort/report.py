"""The historical reproduction battery.

Every quantitative claim about Le Her that the Montmort-Bernoulli-Waldegrave
correspondence printed is recomputed here and compared, exactly, against
the quoted figure: the four cells of Montmort's table of Paul's chances,
Waldegrave's seven conditional lots, Bernoulli's even-token lot and the
always-switch guarantee, the 3:5 / 5:3 token solution and its value,
Montmort's 1711 bracketing of Paul's advantage, the 2697:2828 complement,
and the 60:36 difference ratio. The table cells, the 1711 advantage and
the 3:5 / 5:3 solve read `build_leher_matrix()`, which `leher table` and
`leher solve` print; Paul's three listed lots with a seven, Bernoulli's
two token lots and the ratio read one conditional 2 x 2, so each figure is
computed once. An entry passes only on exact rational
equality; the two strict-inequality bracket checks are encoded as indicator
entries whose computed value is 1 exactly when the inequality holds.

The battery is deterministic, needs no randomness, network, clock or
environment, and is meant to gate CI: the CLI's `reproduce` command exits
zero only if every entry passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .leher import (
    PAUL_TABLE_STRATEGIES,
    PIERRE_TABLE_STRATEGIES,
    PierreAction,
    _paul7_game,
    build_leher_matrix,
    conditional_lot_pierre,
    conditional_mixed_lot_paul7,
    pierre_win_probability,
)
from .solver import solve_zero_sum

_TABLE = "Montmort's table of the lots of Paul and Pierre, Essay d'analyse (2nd ed., 1713)"
_WALDEGRAVE_1712 = "Waldegrave's letter quoted by Montmort, spring 1712"
_BERNOULLI_TOKENS = "Bernoulli to Montmort, 30 December 1712 (the bag of tokens)"
_WALDEGRAVE_MINIMAX = "Waldegrave's letter quoted by Montmort, 15 November 1713"
_MONTMORT_1711 = "Montmort to Bernoulli, 10 April 1711"
_BERNOULLI_1711 = "Bernoulli to Montmort, 10 November 1711"


@dataclass(frozen=True)
class ReportEntry:
    """One recomputed historical figure against its quoted value."""

    label: str
    expected: Fraction
    computed: Fraction
    source: str

    @property
    def passed(self) -> bool:
        return self.expected == self.computed

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def _indicator(condition: bool) -> Fraction:
    return Fraction(1 if condition else 0)


def build_reproduction_report() -> list[ReportEntry]:
    """Recompute the full battery; order is stable across runs."""
    t7, t6 = PAUL_TABLE_STRATEGIES
    p8, _ = PIERRE_TABLE_STRATEGIES
    table = build_leher_matrix()
    cells = (
        (f"Paul's lot: {row} vs {col}", lot)
        for row, lots in zip(table.row_labels, table.entries)
        for col, lot in zip(table.col_labels, lots)
    )
    # The served 2 x 2 row by row against Montmort's printed lots over 5525.
    entries = [
        ReportEntry(label, Fraction(quoted, 5525), lot, _TABLE)
        for (label, lot), quoted in zip(cells, (2828, 2838, 2834, 2828))
    ]

    # Paul's three listed lots with a seven and both token lots read one 2 x 2.
    (lot_switch, _), (lot_hold_vs_switch, lot_hold_vs_hold) = _paul7_game().entries
    entries += [
        ReportEntry(
            "Paul with a 7, switching", Fraction(780, 51 * 50), lot_switch, _WALDEGRAVE_1712
        ),
        ReportEntry(
            "Paul with a 7, holding, Pierre holds the 8",
            Fraction(720, 51 * 50),
            lot_hold_vs_hold,
            _WALDEGRAVE_1712,
        ),
        ReportEntry(
            "Paul with a 7, holding, Pierre switches the 8",
            Fraction(816, 51 * 50),
            lot_hold_vs_switch,
            _WALDEGRAVE_1712,
        ),
        ReportEntry(
            "Pierre with an 8, holding, Paul holds above a 7",
            Fraction(150, 23 * 50),
            conditional_lot_pierre(8, PierreAction.HOLD, t7),
            _WALDEGRAVE_1712,
        ),
        ReportEntry(
            "Pierre with an 8, drawing, Paul holds above a 7",
            Fraction(210, 23 * 50),
            conditional_lot_pierre(8, PierreAction.DRAW, t7),
            _WALDEGRAVE_1712,
        ),
        ReportEntry(
            "Pierre with an 8, holding, Paul holds the 7 too",
            Fraction(350, 27 * 50),
            conditional_lot_pierre(8, PierreAction.HOLD, t6),
            _WALDEGRAVE_1712,
        ),
        ReportEntry(
            "Pierre with an 8, drawing, Paul holds the 7 too",
            Fraction(314, 27 * 50),
            conditional_lot_pierre(8, PierreAction.DRAW, t6),
            _WALDEGRAVE_1712,
        ),
        ReportEntry(
            "Paul's lot with a 7, both tossing even tokens",
            Fraction(774, 51 * 50),
            conditional_mixed_lot_paul7(Fraction(1, 2), Fraction(1, 2)),
            _BERNOULLI_TOKENS,
        ),
        ReportEntry(
            "Paul's guaranteed lot with a 7, always switching",
            Fraction(780, 51 * 50),
            conditional_mixed_lot_paul7(Fraction(1), Fraction(0)),
            _BERNOULLI_TOKENS,
        ),
    ]

    solution = solve_zero_sum(table)
    row_probs = solution.row_mix.probabilities()
    col_probs = solution.col_mix.probabilities()
    entries += [
        ReportEntry(
            "value of the game under best play",
            Fraction(2831, 5525) + Fraction(3, 4 * 5525),
            solution.value,
            _WALDEGRAVE_MINIMAX,
        ),
        ReportEntry(
            "Paul's chance of switching the 7 under the 3:5 tokens",
            Fraction(3, 8),
            row_probs[0],
            _WALDEGRAVE_MINIMAX,
        ),
        ReportEntry(
            "Paul's chance of holding the 7 under the 3:5 tokens",
            Fraction(5, 8),
            row_probs[1],
            _WALDEGRAVE_MINIMAX,
        ),
        ReportEntry(
            "Pierre's chance of switching the 8 under the 5:3 tokens",
            Fraction(5, 8),
            col_probs[0],
            _WALDEGRAVE_MINIMAX,
        ),
        ReportEntry(
            "Pierre's chance of holding the 8 under the 5:3 tokens",
            Fraction(3, 8),
            col_probs[1],
            _WALDEGRAVE_MINIMAX,
        ),
    ]

    advantage = table.entries[0][0] - Fraction(1, 2)
    entries += [
        ReportEntry(
            "Paul's advantage over an even split",
            Fraction(131, 11050),
            advantage,
            _MONTMORT_1711,
        ),
        ReportEntry(
            "advantage greater than 1 in 85 (1 = holds)",
            Fraction(1),
            _indicator(Fraction(1, 85) < advantage),
            _MONTMORT_1711,
        ),
        ReportEntry(
            "advantage less than 1 in 84 (1 = holds)",
            Fraction(1),
            _indicator(advantage < Fraction(1, 84)),
            _MONTMORT_1711,
        ),
        ReportEntry(
            "Pierre's lot against the pure thresholds (2697 to Paul's 2828)",
            Fraction(2697, 5525),
            pierre_win_probability(t7, p8),
            _BERNOULLI_1711,
        ),
        ReportEntry(
            "difference ratio (780 - 720) to (816 - 780), i.e. 5:3",
            Fraction(5, 3),
            (lot_switch - lot_hold_vs_hold) / (lot_hold_vs_switch - lot_switch),
            _WALDEGRAVE_1712,
        ),
    ]
    return entries

