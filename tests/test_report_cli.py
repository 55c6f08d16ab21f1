import csv
import io
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from montmort.cli import MAX_LEHER_TRIALS, MAX_SIMULATED_GAMES, SIGMA_BAND, _sigma, _verdict, main
from montmort.leher import build_leher_matrix, mixed_value
from montmort.montecarlo import leher_simulate
from montmort.pool import MAX_EXACT_POOL_SIZE, PoolConfig, pool_simulate, pool_win_probabilities
from montmort.rational import MAX_DIGITS, parse_rational
from montmort.report import ReportEntry, build_reproduction_report
from montmort.solver import solve_zero_sum

GOLDEN_DIR = Path(__file__).resolve().parent / "golden_cli"

_SIMULATE_LEHER = ["simulate", "leher", "--c", "1", "--d", "1", "--seed", "1"]
_BOUND = 2**64 + 1  # one past the largest denominator a 64-bit draw can sample
# One argv just past each cap, and its refusal.
_CAP_REFUSALS = {
    "exact_pool_size": (
        ["pool", "solve", "--players", "101"],
        "pool beyond the exact solve's reach: players * max(players, streak - 1)"
        f" = {101 * 101} exceeds {MAX_EXACT_POOL_SIZE}",
    ),
    "simulated_games": (
        # E[games] = 3 at the default streak and p = 1/2.
        ["pool", "simulate", "--players", "3", "--seed", "1", "--trials", "33333334"],
        "pool simulate beyond reach: trials * min(expected games, max_games)"
        f" = 100000002 exceeds {MAX_SIMULATED_GAMES} games",
    ),
    "leher_trials": (
        [*_SIMULATE_LEHER, "--a", "1", "--b", "1", "--trials", str(MAX_LEHER_TRIALS + 1)],
        f"simulate leher beyond reach: trials = {MAX_LEHER_TRIALS + 1} exceeds {MAX_LEHER_TRIALS}",
    ),
    "digits": (
        ["pool", "solve", "--players", "3", "--p", "1/" + "3" * (MAX_DIGITS + 1)],
        f"argument --p: denominator must have at most {MAX_DIGITS} digits, got {MAX_DIGITS + 1}",
    ),
    "pool_draw_bound": (
        ["pool", "simulate", "--players", "3", "--p", f"1/{_BOUND}",
         "--seed", "1", "--trials", "1"],
        f"bound must lie in 1..2**64, got {_BOUND}",
    ),
    # Paul switches with chance 1 / (1 + 2**64).
    "leher_draw_bound": (
        [*_SIMULATE_LEHER, "--a", "1", "--b", str(_BOUND - 1), "--trials", "1"],
        f"bound must lie in 1..2**64, got {_BOUND}",
    ),
}


class TestReport:
    def test_every_entry_passes(self):
        entries = build_reproduction_report()
        assert entries, "battery must not be empty"
        assert all(entry.passed for entry in entries)
        for entry in entries:
            assert entry.verdict == "pass"

    def test_labels_unique_and_sources_present(self):
        entries = build_reproduction_report()
        labels = [entry.label for entry in entries]
        assert len(set(labels)) == len(labels)
        assert all(entry.source for entry in entries)

    def test_table_entries_are_the_served_table(self):
        entries = build_reproduction_report()
        table = build_leher_matrix()
        cells = [
            (f"Paul's lot: {row} vs {col}", lot)
            for row, lots in zip(table.row_labels, table.entries)
            for col, lot in zip(table.col_labels, lots)
        ]
        assert [(entry.label, entry.computed) for entry in entries[:4]] == cells
        by_label = {entry.label: entry.computed for entry in entries}
        assert by_label["value of the game under best play"] == solve_zero_sum(table).value
        switch, hold_vs_hold, hold_vs_switch = (entry.computed for entry in entries[4:7])
        ratio = (switch - hold_vs_hold) / (hold_vs_switch - switch)
        assert entries[-1].label.startswith("difference ratio")
        assert entries[-1].computed == ratio

    def test_verdict_follows_passed(self):
        hit = ReportEntry("figure", Fraction(1, 3), Fraction(1, 3), "source")
        miss = ReportEntry("figure", Fraction(1, 3), Fraction(1, 4), "source")
        assert (hit.passed, hit.verdict) == (True, "pass")
        assert (miss.passed, miss.verdict) == (False, "fail")

    def test_json_rationals_round_trip(self, capsys):
        assert main(["reproduce", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {"label", "expected", "computed", "source", "verdict"} == set(payload[0])
        for item in payload:
            assert parse_rational(item["expected"]) == parse_rational(item["computed"])

    def test_csv_parses(self, capsys):
        assert main(["reproduce", "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["label", "expected", "computed", "source", "verdict"]
        assert all(row[4] == "pass" for row in rows[1:])

    def test_text_rendering_counts(self, capsys):
        entries = build_reproduction_report()
        assert main(["reproduce"]) == 0
        text = capsys.readouterr().out
        assert f"{len(entries)}/{len(entries)} historical figures reproduced exactly" in text
        assert "[FAIL]" not in text


class TestCli:
    def test_reproduce_exits_zero(self, capsys):
        assert main(["reproduce"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_reproduce_json(self, capsys):
        assert main(["reproduce", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(item["verdict"] == "pass" for item in payload)

    def test_leher_value_text(self, capsys):
        assert main(["leher", "value", "--a", "3", "--b", "5", "--c", "1", "--d", "1"]) == 0
        assert capsys.readouterr().out.startswith("11327/22100 ")

    def test_leher_value_rejects_zero_weights(self, capsys):
        code = main(["leher", "value", "--a", "0", "--b", "0", "--c", "1", "--d", "1"])
        assert code != 0
        assert "error" in capsys.readouterr().err

    def test_malformed_rational_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["leher", "value", "--a", "1.5", "--b", "5", "--c", "1", "--d", "1"])
        assert excinfo.value.code == 2
        assert "malformed rational" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["leher", "conditional", "--player", "paul", "--card", "٧", "--action", "hold"],
            ["pool", "solve", "--players", "٣"],
            ["pool", "solve", "--players", "3", "--streak", "٢"],
            ["pool", "simulate", "--players", "3", "--seed", "1", "--trials", "10",
             "--max-games", "1_000"],
            ["simulate", "leher", "--a", "3", "--b", "5", "--c", "5", "--d", "3",
             "--seed", "1_0", "--trials", "1_000"],
            ["simulate", "leher", "--a", "3", "--b", "5", "--c", "5", "--d", "3",
             "--seed", "1", "--trials", "1_000"],
        ],
    )
    def test_integer_flags_are_ascii_only(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "invalid int value" in capsys.readouterr().err

    def test_negative_seed_accepted(self, capsys):
        argv = ["pool", "simulate", "--players", "3", "--seed", "-5", "--trials", "200"]
        assert main(argv) == 0
        assert "seed -5" in capsys.readouterr().out

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["leher", "table", "--frobnicate"])
        assert excinfo.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_leher_table_json_matches_matrix_schema(self, capsys):
        assert main(["leher", "table", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rows"] == ["switch the 7", "hold the 7"]
        assert data["entries"][0][0] == "2828/5525"

    def test_leher_table_full_size(self, capsys):
        assert main(["leher", "table", "--all-thresholds", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["rows"]) == len(data["cols"]) == 14

    def test_leher_solve_reports_tokens(self, capsys):
        assert main(["leher", "solve"]) == 0
        out = capsys.readouterr().out
        assert "value: 11327/22100" in out
        assert "switch the 7 = 3" in out and "hold the 7 = 5" in out

    def test_leher_conditional_paul(self, capsys):
        code = main(
            [
                "leher",
                "conditional",
                "--player",
                "paul",
                "--card",
                "7",
                "--action",
                "switch",
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert parse_rational(payload["lot"]["exact"]) == Fraction(780, 2550)

    def test_leher_conditional_pierre(self, capsys):
        code = main(
            [
                "leher",
                "conditional",
                "--player",
                "pierre",
                "--card",
                "8",
                "--action",
                "draw",
                "--paul",
                "threshold:7",
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert parse_rational(payload["lot"]["exact"]) == Fraction(210, 1150)

    def test_leher_conditional_rank_out_of_range(self, capsys):
        code = main(
            ["leher", "conditional", "--player", "paul", "--card", "14", "--action", "hold"]
        )
        assert code == 2
        assert "rank" in capsys.readouterr().err

    def test_paul_action_draw_rejected(self, capsys):
        code = main(
            ["leher", "conditional", "--player", "paul", "--card", "7", "--action", "draw"]
        )
        assert code == 2

    def test_pierre_action_switch_rejected(self, capsys):
        code = main(
            ["leher", "conditional", "--player", "pierre", "--card", "8", "--action", "switch"]
        )
        assert code == 2
        assert capsys.readouterr().err == "montmort: error: Pierre's action must be hold or draw\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("pool solve --players 3 --streak 0", "streak_required must be an integer >= 1, got 0"),
            ("pool solve --players 3 --p 3/2", "champion_win_prob must be in [0, 1], got 3/2"),
            ("pool solve --players 3 --ante -1", "ante must be >= 0, got -1"),
            ("leher value --a -1 --b 1 --c 1 --d 1", "weight a must be >= 0, got -1"),
        ],
    )
    def test_argument_errors_name_the_value(self, capsys, argv, message):
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"montmort: error: {message}\n")

    def test_etrennes_solve_text(self, capsys):
        assert main(["etrennes", "solve"]) == 0
        out = capsys.readouterr().out
        assert "value: 4/5" in out
        assert "even = 1, odd = 4" in out

    def test_etrennes_custom_prizes(self, capsys):
        assert main(["etrennes", "solve", "--even", "1", "--odd", "1"]) == 0
        assert "value: 1/2" in capsys.readouterr().out

    def test_pool_solve_json(self, capsys):
        assert main(["pool", "solve", "--players", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["expected_games"]["exact"] == "3"
        assert payload["seats"][0]["win_prob"]["exact"] == "5/14"
        assert payload["seats"][2]["expected_net"]["exact"] == "-1/49"

    def test_pool_solve_csv(self, capsys):
        assert main(["pool", "solve", "--players", "3", "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["seat", "win_prob", "expected_payment", "expected_net"]
        assert rows[1][1] == "5/14"

    def test_pool_divergence_reported(self, capsys):
        code = main(["pool", "solve", "--players", "3", "--p", "0"])
        assert code == 2
        assert "never finishes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra", [["--players", "101"], ["--players", "3", "--streak", "1000000"]]
    )
    def test_pool_beyond_reach_exits_2_fast(self, extra, capsys):
        started = time.perf_counter()
        code = main(["pool", "solve", *extra])
        assert time.perf_counter() - started < 0.1
        assert code == 2
        assert "beyond the exact solve's reach" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--players", "3", "--trials", "0"], "trials must be an integer >= 1, got 0"),
            (["--players", "3", "--trials", "1", "--max-games", "0"],
             "max_games must be an integer >= 1, got 0"),
            # Wrong twice over: the run arguments are refused before the pool's reach.
            (["--players", "101", "--trials", "0"], "trials must be an integer >= 1, got 0"),
        ],
        ids=["trials", "max_games", "trials_and_reach"],
    )
    def test_pool_simulate_run_arguments_refused_before_the_exact_solve(
        self, extra, message, monkeypatch, capsys
    ):
        def exact_solve(config):
            raise AssertionError("exact targets computed for a run that is refused")

        monkeypatch.setattr("montmort.pool.pool_win_probabilities", exact_solve)
        assert main(["pool", "simulate", "--seed", "1", *extra]) == 2
        assert f"montmort: error: {message}\n" == capsys.readouterr().err

    def test_simulate_leher_run_arguments_refused_before_the_exact_target(
        self, monkeypatch, capsys
    ):
        def exact_target(*args):
            raise AssertionError("exact target computed for a run that is refused")

        monkeypatch.setattr("montmort.leher.mixed_value", exact_target)
        argv = ["simulate", "leher", "--a", "1", "--b", "1", "--c", "1", "--d", "1", "--seed", "1"]
        assert main([*argv, "--trials", "0"]) == 2
        message = "trials must be an integer >= 1, got 0"
        assert capsys.readouterr().err == f"montmort: error: {message}\n"

    def test_pool_simulate_beyond_reach_refused_before_any_draw(self, monkeypatch, capsys):
        def simulate(*args, **kwargs):
            raise AssertionError("a pool beyond the exact solve's reach was simulated")

        monkeypatch.setattr("montmort.pool.pool_simulate", simulate)
        assert main(["pool", "simulate", "--players", "101", "--seed", "1", "--trials", "1"]) == 2
        assert "beyond the exact solve's reach" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, planned",
        [
            # E[games] = 1,001,001,001,001,001: every trial would hit the game cap.
            (["--p", "1/1000", "--streak", "6", "--trials", "100000"], 10**11),
            (["--p", "1/1000", "--streak", "6", "--trials", "2", "--max-games", "50000001"],
             100000002),
            # E[games] = 3 at the default streak and p = 1/2.
            (["--trials", "33333334"], 100000002),
        ],
        ids=["capped", "max_games", "trials"],
    )
    def test_pool_simulate_too_long_refused_before_any_work(
        self, extra, planned, monkeypatch, capsys
    ):
        def work(*args, **kwargs):
            raise AssertionError("a run beyond the game budget was started")

        monkeypatch.setattr("montmort.pool.pool_simulate", work)
        monkeypatch.setattr("montmort.pool.pool_win_probabilities", work)
        assert main(["pool", "simulate", "--players", "3", "--seed", "1", *extra]) == 2
        assert capsys.readouterr().err == (
            "montmort: error: pool simulate beyond reach: trials * min(expected games,"
            f" max_games) = {planned} exceeds {MAX_SIMULATED_GAMES} games\n"
        )

    def test_pool_simulate_at_the_game_budget_runs(self, monkeypatch):
        # 33,333,333 trials of E[games] = 3 expect 99,999,999 games: not refused.
        def stop(*args, **kwargs):
            raise RuntimeError("simulation reached")

        monkeypatch.setattr("montmort.pool.pool_simulate", stop)
        with pytest.raises(RuntimeError, match="simulation reached"):
            main(["pool", "simulate", "--players", "3", "--seed", "1", "--trials", "33333333"])

    @pytest.mark.parametrize("trials", [MAX_LEHER_TRIALS + 1, 10**10])
    def test_simulate_leher_too_long_refused_before_any_work(self, trials, monkeypatch, capsys):
        def work(*args, **kwargs):
            raise AssertionError("a run beyond the trial budget was started")

        monkeypatch.setattr("montmort.montecarlo.leher_simulate", work)
        monkeypatch.setattr("montmort.leher.mixed_value", work)
        argv = ["simulate", "leher", "--a", "1", "--b", "1", "--c", "1", "--d", "1", "--seed", "1"]
        started = time.perf_counter()
        assert main([*argv, "--trials", str(trials)]) == 2
        assert time.perf_counter() - started < 0.1
        assert capsys.readouterr().err == (
            f"montmort: error: simulate leher beyond reach: trials = {trials}"
            f" exceeds {MAX_LEHER_TRIALS}\n"
        )

    def test_simulate_leher_at_the_trial_budget_runs(self, monkeypatch):
        def stop(*args, **kwargs):
            raise RuntimeError("simulation reached")

        monkeypatch.setattr("montmort.montecarlo.leher_simulate", stop)
        argv = ["simulate", "leher", "--a", "1", "--b", "1", "--c", "1", "--d", "1", "--seed", "1"]
        with pytest.raises(RuntimeError, match="simulation reached"):
            main([*argv, "--trials", str(MAX_LEHER_TRIALS)])

    @pytest.mark.parametrize("argv, message", _CAP_REFUSALS.values(), ids=list(_CAP_REFUSALS))
    def test_every_cap_refuses_before_any_exact_work(self, argv, message, monkeypatch, capsys):
        def exact_work(*args):
            raise AssertionError("exact work started for an argv past a cap")

        monkeypatch.setattr("montmort.pool._eliminate", exact_work)
        monkeypatch.setattr("montmort.leher.mixed_value", exact_work)
        try:
            code = main(argv)
        except SystemExit as usage_error:  # argparse refuses an over-long number
            code = usage_error.code
        assert code == 2
        assert capsys.readouterr().err.endswith(f": error: {message}\n")

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--players", "1" * 5000, "integer must have at most 1000 digits, got 5000"),
            ("--p", "1/" + "3" * 5000, "denominator must have at most 1000 digits, got 5000"),
            ("--ante", "-" + "7" * 1001, "numerator must have at most 1000 digits, got 1001"),
        ],
        ids=["integer", "denominator", "numerator"],
    )
    def test_overlong_number_gets_montmorts_refusal(self, option, value, message, capsys):
        argv = ["pool", "solve", "--players", "3", option, value]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: {message}\n" in err
        assert "4300" not in err and "set_int_max_str_digits" not in err
        assert value[-50:] not in err

    def test_malformed_threshold_is_a_usage_error(self, capsys):
        argv = ["leher", "conditional", "--player", "pierre", "--card", "8", "--action", "draw"]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--paul", "threshold:abc"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "threshold must be an integer in 0..13, got 'abc'" in err
        assert "invalid literal" not in err

    def test_pool_simulate_small(self, capsys):
        code = main(
            [
                "pool",
                "simulate",
                "--players",
                "3",
                "--seed",
                "12",
                "--trials",
                "20000",
                "--format",
                "json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["trials"] == 20000
        assert all(seat["verdict"] == "pass" for seat in payload["seats"])

    def test_pool_simulate_truncated_trials_fail_every_seat(self, capsys):
        # Unfailed, every seat's frequency here lies inside its 4-sigma band.
        argv = ["pool", "simulate", "--players", "3", "--seed", "42", "--trials", "200",
                "--max-games", "3", "--format", "json"]
        assert main(argv) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["truncated_trials"] == 49
        assert [seat["verdict"] for seat in payload["seats"]] == ["fail"] * 3

    def test_simulate_leher_small(self, capsys):
        code = main(
            [
                "simulate",
                "leher",
                "--a", "3", "--b", "5", "--c", "5", "--d", "3",
                "--seed", "4", "--trials", "20000",
                "--format", "json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["target"] == "11327/22100"
        assert payload["verdict"] == "pass"
        estimate = parse_rational(payload["estimate"])
        assert abs(float(estimate) - float(Fraction(11327, 22100))) <= 4 * payload["sigma"]

    def test_simulate_leher_denominator_beyond_the_stream_exits_2(self, capsys):
        # Pierre's switch chance is 1/(2**65 + 1): no 64-bit draw can sample it.
        code = main(
            [
                "simulate",
                "leher",
                "--a", "1/36893488147419103232", "--b", "1", "--c", "1", "--d", "1",
                "--seed", "1", "--trials", "10",
            ]
        )
        assert code == 2
        assert "2**64" in capsys.readouterr().err

    def test_reproduce_csv(self, capsys):
        assert main(["reproduce", "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0][0] == "label"


def _float_verdict(estimate, target, sigma):
    """The float band: |e - t| <= SIGMA_BAND * sigma, with the printed sigma."""
    return "pass" if abs(float(estimate) - float(target)) <= SIGMA_BAND * sigma else "fail"


class TestExactVerdict:
    """`_verdict` squares the 4-sigma band and compares Fractions; no float decides."""

    def test_band_edge_is_exact(self):
        # e = 1/2 over 64 trials: sigma = 1/16, so the band reaches exactly 1/4.
        half = Fraction(1, 2)
        assert _verdict(half, Fraction(1, 4), 64) == "pass"
        assert _verdict(half, Fraction(3, 4), 64) == "pass"
        # Closer to the edge than a float can tell: float(t) rounds to 0.25.
        assert _verdict(half, Fraction(1, 4) - Fraction(1, 10**30), 64) == "fail"
        assert _verdict(Fraction(1), Fraction(1), 1) == "pass"
        assert _verdict(Fraction(0), Fraction(1, 10**30), 1) == "fail"

    @pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_DIR.glob("*simulate*.json")))
    def test_golden_verdicts_agree(self, name):
        payload = json.loads((GOLDEN_DIR / name).read_text())
        if "seats" in payload:
            figures = [(s["win_freq"], s["target"], s["sigma"], s["verdict"])
                       for s in payload["seats"]]
            truncated = payload["truncated_trials"]
        else:
            figures = [(payload["estimate"], payload["target"], payload["sigma"],
                        payload["verdict"])]
            truncated = 0
        for estimate, target, sigma, printed in figures:
            estimate, target = parse_rational(estimate), parse_rational(target)
            verdict = _verdict(estimate, target, payload["trials"])
            assert verdict == _float_verdict(estimate, target, sigma)
            # A truncated run fails every seat whatever its band says.
            assert printed == ("fail" if truncated else verdict)

    def test_seeded_short_runs_agree(self):
        rng = random.Random(1654)
        verdicts = []
        for seed in range(1000):
            a, b, c, d = (rng.randint(0, 4) for _ in range(4))
            a, c = a or b or 1, c or d or 1
            result = leher_simulate(a, b, c, d, seed=seed, trials=rng.randint(1, 60))
            target = mixed_value(a, b, c, d)
            verdict = _verdict(result.frequency, target, result.trials)
            sigma = _sigma(result.frequency, result.trials)
            assert verdict == _float_verdict(result.frequency, target, sigma)
            verdicts.append(verdict)
        for seed in range(1000):
            config = PoolConfig(3, Fraction(rng.randint(1, 9), 10))
            result = pool_simulate(config, seed=seed, trials=rng.randint(1, 60))
            for estimate, target in zip(result.win_prob, pool_win_probabilities(config)):
                verdict = _verdict(estimate, target, result.trials)
                sigma = _sigma(estimate, result.trials)
                assert verdict == _float_verdict(estimate, target, sigma)
                verdicts.append(verdict)
        assert {"pass", "fail"} <= set(verdicts)
