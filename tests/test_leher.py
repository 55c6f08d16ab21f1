import random
from fractions import Fraction
from itertools import product

import pytest

from montmort.leher import (
    KING,
    ORDERED_DEALS,
    PAUL_TABLE_LABELS,
    PAUL_TABLE_STRATEGIES,
    PIERRE_TABLE_LABELS,
    PIERRE_TABLE_STRATEGIES,
    PaulAction,
    PaulStrategy,
    PierreAction,
    PierreStrategy,
    build_leher_matrix,
    conditional_lot_paul,
    conditional_lot_pierre,
    conditional_mixed_lot_paul7,
    mixed_value,
    paul_win_probability,
    pierre_win_probability,
    resolve_deal,
    threshold_matrix,
    _row_weight,
    _weight_table,
)
from oracles import (
    _cell,
    physical_deal_tallies,
    rank_subset_win_weights,
    settle_deal,
    threshold_matrix_reference,
    weight_table_reference,
)

T7 = PaulStrategy.threshold(7)
T6 = PaulStrategy.threshold(6)
P8 = PierreStrategy.threshold(8)
P7 = PierreStrategy.threshold(7)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


class TestStrategies:
    def test_threshold_seven_switches_low_ranks(self):
        assert T7.switch == (True,) * 7 + (False,) * 6

    def test_threshold_zero_never_acts(self):
        assert not any(PaulStrategy.threshold(0).switch)
        assert not any(PierreStrategy.threshold(0).draw)
        # A list of flags is stored as a tuple: equal to the threshold form and hashable.
        for strategy_type in (PaulStrategy, PierreStrategy):
            listed = strategy_type([False] * 13)
            assert listed == strategy_type.threshold(0)
            assert hash(listed) == hash(strategy_type.threshold(0))

    def test_threshold_thirteen_always_acts(self):
        assert all(PaulStrategy.threshold(13).switch)

    def test_threshold_out_of_range(self):
        with pytest.raises(ValueError):
            PaulStrategy.threshold(14)
        with pytest.raises(ValueError):
            PierreStrategy.threshold(-1)
        with pytest.raises(ValueError):
            PaulStrategy.threshold(7.5)
        with pytest.raises(ValueError):
            PierreStrategy.threshold(True)

    def test_parse_threshold_form(self):
        assert PaulStrategy.parse("threshold:7") == T7
        assert PierreStrategy.parse("threshold:8") == P8
        # Both constructors build the class they are called on.
        for strategy_type in (PaulStrategy, PierreStrategy):
            assert type(strategy_type.threshold(7)) is strategy_type
            assert type(strategy_type.parse("threshold:7")) is strategy_type
            assert type(strategy_type.parse("HHHHHHHHHHHHH")) is strategy_type

    def test_parse_action_string(self):
        assert PaulStrategy.parse("SSSSSSSHHHHHH") == T7
        assert PierreStrategy.parse("DDDDDDDDHHHHH") == P8
        # S is accepted as a draw letter for Pierre too
        assert PierreStrategy.parse("SSSSSSSSHHHHH") == P8

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            PaulStrategy.parse("SSSS")
        with pytest.raises(ValueError):
            PaulStrategy.parse("SSSSSSSXHHHHH")
        with pytest.raises(ValueError):
            PaulStrategy.parse("SSSSSSSDHHHHH")  # D is Pierre's letter
        for bad in ("ſſſſſſſHHHHHH", "threshold:٧", "threshold:1_0", "\u3000threshold:7"):
            for strategy_type in (PaulStrategy, PierreStrategy):
                with pytest.raises(ValueError):
                    strategy_type.parse(bad)

    def test_parse_non_threshold_table(self):
        flags = list((False,) * 13)
        flags[4] = True
        strategy = PaulStrategy(tuple(flags))
        assert PaulStrategy(flags) == strategy
        assert PaulStrategy.parse("HHHHSHHHHHHHH") == strategy

    @pytest.mark.parametrize("value", ["abc", "", "7.5", "٧", "1_0", "0x7"])
    def test_parse_reports_a_malformed_threshold(self, value):
        message = f"threshold must be an integer in 0..13, got {value!r}"
        for strategy_type in (PaulStrategy, PierreStrategy):
            with pytest.raises(ValueError) as excinfo:
                strategy_type.parse(f"threshold:{value}")
            assert str(excinfo.value) == message

    def test_parse_accepts_signed_and_padded_thresholds(self):
        for text in ("threshold:+7", "threshold: 7", "threshold:07", "THRESHOLD:7"):
            assert PaulStrategy.parse(text) == T7
        assert PierreStrategy.parse("threshold:-0") == PierreStrategy.threshold(0)

    def test_strategy_requires_thirteen_flags(self):
        with pytest.raises(ValueError):
            PaulStrategy((True, False))


# ---------------------------------------------------------------------------
# Game law
# ---------------------------------------------------------------------------


class TestGameLaw:
    def test_swap_refused_on_king(self):
        # Paul tries to switch a 3 into Pierre's king: he keeps the 3, loses
        assert resolve_deal(3, KING, 5, T7, P8) == (3, KING)

    def test_completed_swap_pierre_stands_when_ahead(self):
        # Paul swaps his 5 for Pierre's 3; Pierre keeps the 5 since it beats
        # the 3 he just handed over
        assert resolve_deal(5, 3, 12, T7, P8) == (3, 5)

    def test_completed_swap_pierre_draws_when_behind(self):
        # Paul swaps a 2 for Pierre's 9; Pierre, stuck with the 2, redraws
        assert resolve_deal(2, 9, 11, T7, P8) == (9, 11)

    def test_completed_swap_pierre_keeps_tie(self):
        # Swapped sevens: Pierre stands on the tie and wins it
        assert resolve_deal(7, 7, 12, T7, P8) == (7, 7)

    def test_drawn_king_must_be_kept(self):
        # Paul stands on a 9; Pierre draws on his 5 and pulls a king: keeps the 5
        assert resolve_deal(9, 5, KING, T7, P8) == (9, 5)

    def test_pierre_holds_when_strategy_says_hold(self):
        assert resolve_deal(9, 10, 2, T7, P7) == (9, 10)

    def test_ties_go_to_pierre(self):
        assert resolve_deal(9, 3, 9, T7, P8) == (9, 9)

    def test_oracle_law_agrees_on_every_deal(self):
        # All 13^3 rank triples under each pair of flags at the dealt ranks.
        ranks = range(1, 14)
        for switch, draw in product((False, True), repeat=2):
            paul, pierre = PaulStrategy((switch,) * 13), PierreStrategy((draw,) * 13)
            for deal in product(ranks, repeat=3):
                assert settle_deal(*deal, paul, pierre) == resolve_deal(*deal, paul, pierre)

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            resolve_deal(0, 5, 5, T7, P8)
        with pytest.raises(ValueError):
            resolve_deal(5, 14, 5, T7, P8)


# ---------------------------------------------------------------------------
# Paul's marginal lots (the printed table)
# ---------------------------------------------------------------------------


class TestTableOfLots:
    @pytest.mark.parametrize(
        "paul,pierre,expected",
        [
            (T7, P8, Fraction(2828, 5525)),
            (T7, P7, Fraction(2838, 5525)),
            (T6, P8, Fraction(2834, 5525)),
            (T6, P7, Fraction(2828, 5525)),
        ],
    )
    def test_printed_cells(self, paul, pierre, expected):
        assert paul_win_probability(paul, pierre) == expected

    def test_pierre_complement_of_the_pure_solution(self):
        assert pierre_win_probability(T7, P8) == Fraction(2697, 5525)

    def test_matrix_layout(self):
        matrix = build_leher_matrix()
        assert matrix.row_labels == ("switch the 7", "hold the 7")
        assert matrix.col_labels == ("switch the 8", "hold the 8")
        assert matrix.entries == (
            (Fraction(2828, 5525), Fraction(2838, 5525)),
            (Fraction(2834, 5525), Fraction(2828, 5525)),
        )
        thresholds = threshold_matrix().entries
        assert matrix.entries == tuple(tuple(thresholds[s][t] for t in (8, 7)) for s in (7, 6))

    def test_matrix_is_the_named_pairs_lots(self):
        matrix = build_leher_matrix()
        assert matrix.row_labels == PAUL_TABLE_LABELS
        assert matrix.col_labels == PIERRE_TABLE_LABELS
        assert matrix.entries == tuple(
            tuple(paul_win_probability(paul, pierre) for pierre in PIERRE_TABLE_STRATEGIES)
            for paul in PAUL_TABLE_STRATEGIES
        )

    def test_matrix_is_the_threshold_block(self):
        matrix, full = build_leher_matrix(), threshold_matrix()
        rows, cols = (7, 6), (8, 7)
        assert matrix.entries == tuple(tuple(full.entries[s][t] for t in cols) for s in rows)
        # The block's labels name exactly the table strategies, in the table's order.
        assert tuple(PaulStrategy.parse(full.row_labels[s]) for s in rows) == PAUL_TABLE_STRATEGIES
        assert tuple(
            PierreStrategy.parse(full.col_labels[t]) for t in cols
        ) == PIERRE_TABLE_STRATEGIES

    def test_entries_are_probabilities(self):
        for row in build_leher_matrix().entries:
            for lot in row:
                assert 0 < lot < 1

    def test_threshold_matrix_shape_and_corner(self):
        matrix = threshold_matrix()
        assert matrix.n_rows == matrix.n_cols == 14
        assert matrix.entries[7][8] == Fraction(2828, 5525)
        assert matrix.row_labels[7] == "threshold:7"

    def test_switching_kings_is_always_worse(self):
        matrix = threshold_matrix()
        for t in range(14):
            assert matrix.entries[13][t] < matrix.entries[7][t]

    @pytest.mark.parametrize("t_paul,t_pierre", [(0, 0), (3, 11), (7, 8), (13, 13)])
    def test_complementarity_spot_checks(self, t_paul, t_pierre):
        paul = PaulStrategy.threshold(t_paul)
        pierre = PierreStrategy.threshold(t_pierre)
        assert paul_win_probability(paul, pierre) + pierre_win_probability(paul, pierre) == 1

    def test_complementarity_for_non_threshold_strategies(self):
        rng = random.Random(11)
        for _ in range(10):
            paul = PaulStrategy(tuple(rng.random() < 0.5 for _ in range(13)))
            pierre = PierreStrategy(tuple(rng.random() < 0.5 for _ in range(13)))
            total = paul_win_probability(paul, pierre) + pierre_win_probability(paul, pierre)
            assert total == 1

    def test_denominator_divides_ordered_deal_count(self):
        lot = paul_win_probability(T7, P8)
        assert ORDERED_DEALS % lot.denominator == 0


# ---------------------------------------------------------------------------
# Conditional lots (Waldegrave's figures)
# ---------------------------------------------------------------------------


class TestConditionalLots:
    def test_paul_seven_switching(self):
        assert conditional_lot_paul(7, PaulAction.SWITCH, P8) == Fraction(780, 2550)

    def test_paul_switch_ignores_pierre_strategy(self):
        lots = {
            conditional_lot_paul(7, PaulAction.SWITCH, PierreStrategy.threshold(t))
            for t in range(14)
        }
        assert lots == {Fraction(780, 2550)}

    def test_paul_seven_holding(self):
        assert conditional_lot_paul(7, PaulAction.HOLD, P7) == Fraction(720, 2550)
        assert conditional_lot_paul(7, PaulAction.HOLD, P8) == Fraction(816, 2550)

    def test_pierre_eight_against_paul_holding_above_seven(self):
        assert conditional_lot_pierre(8, PierreAction.HOLD, T7) == Fraction(150, 1150)
        assert conditional_lot_pierre(8, PierreAction.DRAW, T7) == Fraction(210, 1150)

    def test_pierre_eight_against_paul_holding_the_seven(self):
        assert conditional_lot_pierre(8, PierreAction.HOLD, T6) == Fraction(350, 1350)
        assert conditional_lot_pierre(8, PierreAction.DRAW, T6) == Fraction(314, 1350)

    def test_waldegrave_difference_ratio_is_five_to_three(self):
        switch = conditional_lot_paul(7, PaulAction.SWITCH, P8)
        hold_vs_hold = conditional_lot_paul(7, PaulAction.HOLD, P7)
        hold_vs_switch = conditional_lot_paul(7, PaulAction.HOLD, P8)
        assert (switch - hold_vs_hold) / (hold_vs_switch - switch) == Fraction(5, 3)

    def test_conditioning_impossible_when_paul_never_stands(self):
        with pytest.raises(ValueError, match="impossible"):
            conditional_lot_pierre(8, PierreAction.HOLD, PaulStrategy.threshold(13))

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            conditional_lot_paul(0, PaulAction.HOLD, P8)
        with pytest.raises(ValueError):
            conditional_lot_pierre(14, PierreAction.HOLD, T7)

    def test_wrong_action_type(self):
        with pytest.raises(ValueError):
            conditional_lot_paul(7, PierreAction.HOLD, P8)
        with pytest.raises(ValueError):
            conditional_lot_pierre(8, PaulAction.HOLD, T7)

    @pytest.mark.parametrize(
        "lot,args,message",
        [
            (conditional_lot_paul, (7, PaulAction.HOLD, T7), "PierreStrategy, got PaulStrategy"),
            (conditional_lot_paul, (7, PaulAction.HOLD, "threshold:8"), "PierreStrategy, got str"),
            (conditional_lot_pierre, (8, PierreAction.HOLD, P8), "PaulStrategy, got PierreStrat"),
            (conditional_lot_pierre, (8, PierreAction.DRAW, None), "PaulStrategy, got NoneType"),
            (paul_win_probability, (P8, T7), "PaulStrategy, got PierreStrategy"),
            (paul_win_probability, (T7, "threshold:8"), "PierreStrategy, got str"),
            (pierre_win_probability, (P8, T7), "PaulStrategy, got PierreStrategy"),
            (pierre_win_probability, (T7, T6), "PierreStrategy, got PaulStrategy"),
        ],
    )
    def test_wrong_strategy_type(self, lot, args, message):
        with pytest.raises(ValueError, match=f"expected a {message}"):
            lot(*args)

    def test_total_probability_law_spot_checks(self):
        # The marginal lot is the deal-weighted sum of the conditional ones.
        for paul, pierre in [(T7, P8), (T6, P7), (PaulStrategy.threshold(13), P8)]:
            total = sum(
                Fraction(4, 52) * conditional_lot_paul(
                    card, PaulAction.SWITCH if switch else PaulAction.HOLD, pierre
                )
                for card, switch in enumerate(paul.switch, 1)
            )
            assert total == paul_win_probability(paul, pierre)


# ---------------------------------------------------------------------------
# Differential check against a card-by-card count of the physical deals
# ---------------------------------------------------------------------------


def _random_tables(seed, count):
    rng = random.Random(seed)
    return [
        (
            PaulStrategy(tuple(rng.random() < 0.5 for _ in range(13))),
            PierreStrategy(tuple(rng.random() < 0.5 for _ in range(13))),
        )
        for _ in range(count)
    ]


ORACLE_PAIRS = [
    (T7, P8),
    (T6, P7),
    (PaulStrategy.threshold(13), PierreStrategy.threshold(0)),
    (PaulStrategy.threshold(0), PierreStrategy.threshold(13)),
] + _random_tables(23, 3)

ALWAYS_SWITCH = PaulStrategy.threshold(13)
NEVER_SWITCH = PaulStrategy.threshold(0)
ALWAYS_DRAW = PierreStrategy.threshold(13)
NEVER_DRAW = PierreStrategy.threshold(0)


def _wire_form(flags, letter):
    """A strategy's command-line form, "threshold:t" when it is one: the oracle test ids."""
    t = flags.count(True)
    if flags == (True,) * t + (False,) * (13 - t):
        return f"threshold:{t}"
    return "".join(letter if flag else "H" for flag in flags)


def _counted_lot(tallies, paul_ranks, pierre_ranks, side):
    """Wins of `side` (1 = Paul, 2 = Pierre) over the deals with those first two ranks."""
    selected = [
        tally for (a, b), tally in tallies.items() if a in paul_ranks and b in pierre_ranks
    ]
    deals = sum(tally[0] for tally in selected)
    return None if deals == 0 else Fraction(sum(tally[side] for tally in selected), deals)


@pytest.mark.parametrize(
    "paul,pierre",
    ORACLE_PAIRS,
    ids=[
        f"{_wire_form(paul.switch, 'S')}-{_wire_form(pierre.draw, 'D')}"
        for paul, pierre in ORACLE_PAIRS
    ],
)
class TestPhysicalDealOracle:
    def test_full_lots(self, paul, pierre):
        tallies = physical_deal_tallies(paul, pierre)
        every = range(1, 14)
        assert paul_win_probability(paul, pierre) == _counted_lot(tallies, every, every, 1)
        assert pierre_win_probability(paul, pierre) == _counted_lot(tallies, every, every, 2)

    def test_conditional_lots_paul(self, paul, pierre):
        for action, plan in ((PaulAction.SWITCH, ALWAYS_SWITCH), (PaulAction.HOLD, NEVER_SWITCH)):
            tallies = physical_deal_tallies(plan, pierre)
            for card in range(1, 14):
                expected = _counted_lot(tallies, (card,), range(1, 14), 1)
                assert conditional_lot_paul(card, action, pierre) == expected

    def test_conditional_lots_pierre(self, paul, pierre):
        stand_ranks = [rank for rank in range(1, 14) if not paul.switch[rank - 1]]
        for action, plan in ((PierreAction.DRAW, ALWAYS_DRAW), (PierreAction.HOLD, NEVER_DRAW)):
            tallies = physical_deal_tallies(paul, plan)
            for card in range(1, 14):
                expected = _counted_lot(tallies, stand_ranks, (card,), 2)
                if expected is None:
                    with pytest.raises(ValueError, match="impossible"):
                        conditional_lot_pierre(card, action, paul)
                else:
                    assert conditional_lot_pierre(card, action, paul) == expected


# ---------------------------------------------------------------------------
# The weight table against the former rank-subset enumerator
# ---------------------------------------------------------------------------

THRESHOLD_PAIRS = [
    (PaulStrategy.threshold(s), PierreStrategy.threshold(t)) for s in range(14) for t in range(14)
]


def _cells_from_rows() -> list[tuple[int, int]]:
    """The 676 (Paul's, Pierre's) cells rebuilt from `_weight_table()`'s rows, indexed by `_cell`.

    A holding cell is read as is; a drawing cell is the holding cell plus its increment.
    """
    table = _weight_table()
    return [
        tuple(
            table[a - 1][switch][side][0][b - 1] + draw * table[a - 1][switch][side][1][b - 1]
            for side in (0, 1)
        )
        for a, b, switch, draw in product(range(1, 14), range(1, 14), (False, True), (False, True))
    ]


class TestWeightTable:
    def test_rows_hold_their_totals(self):
        table = _weight_table()
        assert len(table) == 13
        for by_flag in table:
            assert len(by_flag) == 2
            for by_side in by_flag:
                assert len(by_side) == 2
                for hold, increments, total in by_side:
                    assert len(hold) == len(increments) == 13
                    assert total == sum(hold)

    def test_cell_invariants(self):
        cells = _cells_from_rows()
        assert len(cells) == 676
        for a in range(1, 14):
            for b in range(1, 14):
                deals = 4 * (4 - (a == b)) * 50
                for switch in (False, True):
                    for draw in (False, True):
                        assert sum(cells[_cell(a, b, switch, draw)]) == deals
                assert cells[_cell(a, b, True, False)] == cells[_cell(a, b, True, True)]

    def test_table_matches_third_card_reference(self):
        cells, reference = _cells_from_rows(), weight_table_reference()
        assert len(cells) == len(reference) == 676
        for index, (cell, expected) in enumerate(zip(cells, reference)):
            assert cell == expected, index

    @pytest.mark.parametrize("side", [0, 1], ids=["paul", "pierre"])
    def test_row_weights_match_reference_cells(self, side):
        reference = weight_table_reference()
        rng = random.Random(47)
        tables = [PierreStrategy.threshold(t).draw for t in range(14)]
        tables += [tuple(rng.random() < 0.5 for _ in range(13)) for _ in range(200)]
        for draw in tables:
            for a in range(1, 14):
                for switch in (False, True):
                    expected = sum(
                        reference[_cell(a, b, switch, flag)][side]
                        for b, flag in enumerate(draw, 1)
                    )
                    assert _row_weight(a, switch, draw, side) == expected, (a, switch, draw)

    def test_threshold_matrix_matches_196_lot_reference(self):
        threshold_matrix.cache_clear()
        matrix, reference = threshold_matrix(), threshold_matrix_reference()
        assert matrix.entries == reference.entries
        assert matrix.row_labels == reference.row_labels
        assert matrix.col_labels == reference.col_labels

    @pytest.mark.parametrize("threshold", range(14))
    def test_conditional_lot_paul_against_pierre_thresholds(self, threshold):
        pierre = PierreStrategy.threshold(threshold)
        paul_plans = ((PaulAction.SWITCH, ALWAYS_SWITCH), (PaulAction.HOLD, NEVER_SWITCH))
        for card in range(1, 14):
            for action, plan in paul_plans:
                win, _, total = rank_subset_win_weights(plan, pierre, (card,))
                assert conditional_lot_paul(card, action, pierre) == Fraction(win, total)

    @pytest.mark.parametrize(
        "pairs", [THRESHOLD_PAIRS, _random_tables(41, 200)], ids=["thresholds", "tables"]
    )
    def test_full_lots_match_reference(self, pairs):
        for paul, pierre in pairs:
            paul_weight, pierre_weight, total = rank_subset_win_weights(paul, pierre)
            assert total == ORDERED_DEALS
            assert paul_win_probability(paul, pierre) == Fraction(paul_weight, total)
            assert pierre_win_probability(paul, pierre) == Fraction(pierre_weight, total)

    @pytest.mark.parametrize("paul,pierre", [(T7, P8), (T6, P7)] + _random_tables(41, 4))
    def test_conditional_lots_match_reference(self, paul, pierre):
        stand_ranks = tuple(rank for rank in range(1, 14) if not paul.switch[rank - 1])
        paul_plans = ((PaulAction.SWITCH, ALWAYS_SWITCH), (PaulAction.HOLD, NEVER_SWITCH))
        pierre_plans = ((PierreAction.DRAW, ALWAYS_DRAW), (PierreAction.HOLD, NEVER_DRAW))
        for card in range(1, 14):
            for action, plan in paul_plans:
                win, _, total = rank_subset_win_weights(plan, pierre, (card,))
                assert conditional_lot_paul(card, action, pierre) == Fraction(win, total)
            for action, plan in pierre_plans:
                _, win, total = rank_subset_win_weights(paul, plan, stand_ranks, (card,))
                assert conditional_lot_pierre(card, action, paul) == Fraction(win, total)


# ---------------------------------------------------------------------------
# Waldegrave's mix over every per-rank table
# ---------------------------------------------------------------------------

#: Paul plays "switch the 7" 3 times in 8, Pierre "switch the 8" 5 times in 8.
PAUL_MIX = ((Fraction(3, 8), T7), (Fraction(5, 8), T6))
PIERRE_MIX = ((Fraction(5, 8), P8), (Fraction(3, 8), P7))
MINIMAX = Fraction(11327, 22100)


def _lot_against_pierre_mix(paul):
    return sum(weight * paul_win_probability(paul, pierre) for weight, pierre in PIERRE_MIX)


def _lot_against_paul_mix(pierre):
    return sum(weight * paul_win_probability(paul, pierre) for weight, paul in PAUL_MIX)


def _card_gains(strategy_type, lot):
    """Paul's lot at the never-act table, and its change from acting on each card alone."""
    base = lot(strategy_type.threshold(0))
    gains = [
        lot(strategy_type(tuple(rank == card for rank in range(1, 14)))) - base
        for card in range(1, 14)
    ]
    return base, gains


class TestWholeGameCertificate:
    """Waldegrave's 3:5 / 5:3 mix is an equilibrium over all 2**13 x 2**13 per-rank tables.

    Paul's lot is a sum over the deal classes (a, b) of a weight that reads
    only Paul's flag at a and Pierre's flag at b. Against a fixed Pierre table,
    or a mix of them, the lot is therefore a constant plus one term per card
    Paul switches, and against Paul's mix it is a constant plus one term per
    card Pierre draws on. Each best reply over all 8192 tables is thus a
    per-card argmax of those terms, read off from 14 lots.
    """

    def test_paul_best_reply_to_pierre_mix(self):
        base, gains = _card_gains(PaulStrategy, _lot_against_pierre_mix)
        assert [card for card, gain in enumerate(gains, 1) if gain > 0] == list(range(1, 7))
        assert [card for card, gain in enumerate(gains, 1) if gain == 0] == [7]
        assert base + sum(gain for gain in gains if gain > 0) == MINIMAX
        for paul in (T6, T7):
            assert _lot_against_pierre_mix(paul) == MINIMAX

    def test_pierre_best_reply_to_paul_mix(self):
        base, gains = _card_gains(PierreStrategy, _lot_against_paul_mix)
        assert [card for card, gain in enumerate(gains, 1) if gain < 0] == list(range(1, 8))
        assert [card for card, gain in enumerate(gains, 1) if gain == 0] == [8]
        assert base + sum(gain for gain in gains if gain < 0) == MINIMAX
        for pierre in (P7, P8):
            assert _lot_against_paul_mix(pierre) == MINIMAX

    def test_no_sampled_table_beats_a_best_reply(self):
        paul_base, paul_gains = _card_gains(PaulStrategy, _lot_against_pierre_mix)
        pierre_base, pierre_gains = _card_gains(PierreStrategy, _lot_against_paul_mix)
        for paul, pierre in _random_tables(43, 200):
            lot = _lot_against_pierre_mix(paul)
            assert lot == paul_base + sum(g for g, f in zip(paul_gains, paul.switch) if f)
            assert lot <= MINIMAX
            lot = _lot_against_paul_mix(pierre)
            assert lot == pierre_base + sum(g for g, f in zip(pierre_gains, pierre.draw) if f)
            assert lot >= MINIMAX


# ---------------------------------------------------------------------------
# Token mixing
# ---------------------------------------------------------------------------


class TestBernoulliTokenLot:
    def test_even_tokens(self):
        assert conditional_mixed_lot_paul7(Fraction(1, 2), Fraction(1, 2)) == Fraction(774, 2550)

    def test_always_switching_guarantees_780(self):
        for q in (Fraction(0), Fraction(1, 3), Fraction(1)):
            assert conditional_mixed_lot_paul7(Fraction(1), q) == Fraction(780, 2550)

    def test_degenerate_hold_against_holding_pierre(self):
        assert conditional_mixed_lot_paul7(Fraction(0), Fraction(0)) == Fraction(720, 2550)

    def test_composition_formula(self):
        rng = random.Random(5)
        for _ in range(20):
            p = Fraction(rng.randint(0, 20), 20)
            q = Fraction(rng.randint(0, 20), 20)
            expected = (
                p * Fraction(780, 2550)
                + (1 - p) * (q * Fraction(816, 2550) + (1 - q) * Fraction(720, 2550))
            )
            assert conditional_mixed_lot_paul7(p, q) == expected

    def test_rejects_non_probabilities(self):
        with pytest.raises(ValueError):
            conditional_mixed_lot_paul7(Fraction(3, 2), Fraction(1, 2))
        with pytest.raises(ValueError):
            conditional_mixed_lot_paul7(Fraction(1, 2), Fraction(-1, 2))


class TestMixedValue:
    def test_equal_weights_average_the_table(self):
        assert mixed_value(1, 1, 1, 1) == Fraction(2832, 5525)

    def test_corner_weights_recover_pure_values(self):
        table = build_leher_matrix().entries
        assert mixed_value(1, 0, 1, 0) == table[0][0]
        assert mixed_value(0, 1, 1, 0) == table[1][0]
        assert mixed_value(1, 0, 0, 1) == table[0][1]
        assert mixed_value(0, 1, 0, 1) == table[1][1]

    def test_waldegrave_weights_pin_the_value(self):
        guarantee = Fraction(2831, 5525) + Fraction(3, 4 * 5525)
        assert guarantee == Fraction(11327, 22100)
        rng = random.Random(35)
        for _ in range(25):
            c = Fraction(rng.randint(0, 30), rng.randint(1, 9))
            d = Fraction(rng.randint(0, 30), rng.randint(1, 9))
            if c + d == 0:
                c = Fraction(1)
            assert mixed_value(3, 5, c, d) == guarantee

    def test_pierre_weights_cap_the_value(self):
        guarantee = Fraction(11327, 22100)
        rng = random.Random(36)
        for _ in range(25):
            a = Fraction(rng.randint(0, 30), rng.randint(1, 9))
            b = Fraction(rng.randint(0, 30), rng.randint(1, 9))
            if a + b == 0:
                a = Fraction(1)
            assert mixed_value(a, b, 5, 3) == guarantee

    def test_rescaling_invariance(self):
        rng = random.Random(37)
        for _ in range(15):
            a, b, c, d = (Fraction(rng.randint(0, 9), 1) for _ in range(4))
            if a + b == 0:
                a = Fraction(2)
            if c + d == 0:
                d = Fraction(3)
            k = Fraction(rng.randint(1, 7), rng.randint(1, 7))
            assert mixed_value(k * a, k * b, c, d) == mixed_value(a, b, c, d)
            assert mixed_value(a, b, k * c, k * d) == mixed_value(a, b, c, d)

    def test_accepts_wire_form_strings(self):
        assert mixed_value("3", "5", "1/2", "1/2") == Fraction(11327, 22100)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            mixed_value(0, 0, 1, 1)
        with pytest.raises(ValueError):
            mixed_value(1, 1, 0, 0)
        with pytest.raises(ValueError):
            mixed_value(-1, 2, 1, 1)
