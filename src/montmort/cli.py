"""Command-line surface: every computation behind `montmort <command>`.

Exact fractions are always the primary output; decimals are annotations.
Rationals on the command line use the "p/q" form (a bare integer works too).
Strategies are "threshold:t" or a 13-letter table, rank 1 (ace) through 13
(king). Formats: text (default), json, csv; each handler formats every
figure once and hands the JSON payload, CSV rows and text lines built from
those same strings to `_emit`, which prints one. `montmort reproduce` recomputes
the whole historical battery and exits 0 only when every figure matches,
so it can gate CI directly. Every command's stdout, result and exit code
ignore the environment. Only argparse's own text reads it: usage and errors
on stderr, and `--help`, are wrapped to `COLUMNS` and translated through
gettext, which reads the locale variables.

`main` builds only the parsers on the argv's command path (top, group,
leaf), from the same command table as the full `build_parser()`. Help,
`--version` and every argv the path's parsers cannot take whole go to the
full parser, so their text is unchanged.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable
from fractions import Fraction
from math import sqrt

from . import __version__, etrennes, leher, montecarlo, pool, report, solver
from .rational import (
    decimal_string,
    format_rational,
    parse_integer,
    parse_rational,
    require_integer,
)

SIGMA_BAND = 4  # simulation verdicts: estimate within 4 standard errors


def _argument_type(parse: Callable[[str], object]) -> Callable[[str], object]:
    """An argparse type that reports a parser's ValueError as a usage error."""

    def convert(text: str) -> object:
        try:
            return parse(text)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None

    return convert


_integer = _argument_type(parse_integer)
_rational = _argument_type(parse_rational)
_paul_strategy = _argument_type(leher.PaulStrategy.parse)
_pierre_strategy = _argument_type(leher.PierreStrategy.parse)


def _emit(fmt: str, payload: dict | list, rows: list[list[str]], text: list[str]) -> None:
    """Print one result in the chosen format: the JSON payload, CSV rows or text lines."""
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        buffer = io.StringIO()
        csv.writer(buffer).writerows(rows)
        print(buffer.getvalue(), end="")
    else:
        print("\n".join(text))


def _value_payload(value: Fraction) -> dict:
    return {"exact": format_rational(value), "decimal": decimal_string(value)}


def _approx(value: dict) -> str:
    """A `_value_payload` as text: the exact fraction, then its decimal."""
    return f"{value['exact']} ≈ {value['decimal']}"


def _sigma(frequency: Fraction, trials: int) -> float:
    """The printed standard error sqrt(f(1 - f)/N) of a frequency f over N trials."""
    return sqrt(float(frequency) * float(1 - frequency) / trials)


def _verdict(estimate: Fraction, target: Fraction, trials: int) -> str:
    """A simulated frequency passes within SIGMA_BAND standard errors of its exact target.

    The band |e - t| <= SIGMA_BAND * sigma, with sigma = sqrt(e(1 - e)/N) as
    `_sigma` prints it, is squared and compared exactly:
    (e - t)^2 * N <= SIGMA_BAND^2 * e(1 - e). The float sigma is only printed.
    """
    miss = estimate - target
    passed = miss * miss * trials <= SIGMA_BAND**2 * estimate * (1 - estimate)
    return "pass" if passed else "fail"


def _rank_name(rank: int) -> str:
    names = {1: "an ace", 8: "an 8", 11: "a jack", 12: "a queen", 13: "a king"}
    return names.get(rank, f"a {rank}")


def _emit_solution(solution: solver.GameSolution, matrix: solver.GameMatrix, fmt: str) -> None:
    value = _value_payload(solution.value)
    row_mix = dict(zip(matrix.row_labels, map(format_rational, solution.row_mix.weights)))
    col_mix = dict(zip(matrix.col_labels, map(format_rational, solution.col_mix.weights)))
    certificate = solution.certificate
    payload = {
        "value": value,
        "row_mix": row_mix,
        "col_mix": col_mix,
        "certificate": {
            "row_payoffs": [format_rational(x) for x in certificate.row_payoffs],
            "col_payoffs": [format_rational(x) for x in certificate.col_payoffs],
        },
    }
    rows = [["quantity", "strategy", "value"], ["value", "", value["exact"]]]
    rows += [["row_weight", label, weight] for label, weight in row_mix.items()]
    rows += [["col_weight", label, weight] for label, weight in col_mix.items()]
    text = [f"value: {_approx(value)}"] + [
        f"{side} weights: " + ", ".join(f"{label} = {weight}" for label, weight in mix.items())
        for side, mix in (("row", row_mix), ("col", col_mix))
    ]
    _emit(fmt, payload, rows, text)


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _cmd_leher_table(args: argparse.Namespace) -> int:
    matrix = leher.threshold_matrix() if args.all_thresholds else leher.build_leher_matrix()
    payload = matrix.to_json_dict()
    rows = [["row\\col", *payload["cols"]]]
    rows += [[label, *entries] for label, entries in zip(payload["rows"], payload["entries"])]
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    text = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() for row in rows
    ]
    _emit(args.format, payload, rows, text)
    return 0


def _cmd_leher_solve(args: argparse.Namespace) -> int:
    matrix = leher.threshold_matrix() if args.all_thresholds else leher.build_leher_matrix()
    _emit_solution(solver.solve_zero_sum(matrix), matrix, args.format)
    return 0


def _cmd_leher_conditional(args: argparse.Namespace) -> int:
    if args.player == "paul":
        if args.action not in ("hold", "switch"):
            raise ValueError("Paul's action must be hold or switch")
        action = leher.PaulAction(args.action)
        lot = leher.conditional_lot_paul(args.card, action, args.pierre)
        label = f"Paul's lot holding {_rank_name(args.card)} and playing {args.action}"
    else:
        if args.action not in ("hold", "draw"):
            raise ValueError("Pierre's action must be hold or draw")
        action = leher.PierreAction(args.action)
        lot = leher.conditional_lot_pierre(args.card, action, args.paul)
        label = f"Pierre's lot holding {_rank_name(args.card)} and playing {args.action} (Paul stood)"
    value = _value_payload(lot)
    rows = [["label", "lot"], [label, value["exact"]]]
    _emit(args.format, {"label": label, "lot": value}, rows, [f"{label}: {_approx(value)}"])
    return 0


def _cmd_leher_value(args: argparse.Namespace) -> int:
    value = _value_payload(leher.mixed_value(args.a, args.b, args.c, args.d))
    _emit(args.format, {"value": value}, [["value"], [value["exact"]]], [_approx(value)])
    return 0


def _pool_config(args: argparse.Namespace) -> pool.PoolConfig:
    return pool.PoolConfig(
        players=args.players,
        champion_win_prob=args.p,
        ante=args.ante,
        fee=args.fee,
        streak_required=args.streak,
    )


def _cmd_pool_solve(args: argparse.Namespace) -> int:
    solution = pool.pool_solve(_pool_config(args))
    games = _value_payload(solution.expected_games)
    seats = [
        {
            "seat": index + 1,
            "win_prob": _value_payload(win),
            "expected_payment": _value_payload(payment),
            "expected_net": _value_payload(net),
        }
        for index, (win, payment, net) in enumerate(
            zip(solution.win_prob, solution.expected_payment, solution.expected_net)
        )
    ]
    figures = ("win_prob", "expected_payment", "expected_net")
    rows = [["seat", *figures]]
    rows += [[str(seat["seat"]), *(seat[key]["exact"] for key in figures)] for seat in seats]
    rows.append(["expected_games", games["exact"], "", ""])
    text = [f"expected games: {_approx(games)}"] + [
        f"seat {seat['seat']}: wins {_approx(seat['win_prob'])}; "
        f"pays {_approx(seat['expected_payment'])}; net {_approx(seat['expected_net'])}"
        for seat in seats
    ]
    _emit(args.format, {"expected_games": games, "seats": seats}, rows, text)
    return 0


def _cmd_pool_simulate(args: argparse.Namespace) -> int:
    config = _pool_config(args)
    # The run arguments are refused before the exact targets' Fraction work.
    require_integer("trials", args.trials, 1)
    require_integer("max_games", args.max_games, 1)
    targets = pool.pool_win_probabilities(config)
    result = pool.pool_simulate(config, seed=args.seed, trials=args.trials, max_games=args.max_games)
    games = _value_payload(result.expected_games)
    # An abandoned trial pays no seat, so a capped run estimates another game
    # than the targets describe: no seat's frequency can pass against them.
    truncated = result.truncated_trials
    seats = [
        {
            "seat": index + 1,
            "win_freq": format_rational(estimate),
            "sigma": _sigma(estimate, result.trials),
            "target": format_rational(target),
            "verdict": "fail" if truncated else _verdict(estimate, target, result.trials),
        }
        for index, (estimate, target) in enumerate(zip(result.win_prob, targets))
    ]
    payload = {
        "trials": result.trials,
        "seed": args.seed,
        "expected_games": games["exact"],
        "truncated_trials": truncated,
        "seats": seats,
    }
    rows = [["seat", "win_freq", "sigma", "target", "verdict"]]
    rows += [[str(x) for x in seat.values()] for seat in seats]
    text = [
        f"{result.trials} pools, seed {args.seed}, truncated {truncated}",
        f"mean games: {_approx(games)}",
    ] + [
        f"seat {seat['seat']}: win freq {seat['win_freq']} "
        f"(target {seat['target']}, sigma {seat['sigma']:.6f}) {seat['verdict']}"
        for seat in seats
    ]
    _emit(args.format, payload, rows, text)
    return 0 if all(seat["verdict"] == "pass" for seat in seats) else 1


def _cmd_etrennes_solve(args: argparse.Namespace) -> int:
    config = etrennes.EtrennesConfig(even_prize=args.even, odd_prize=args.odd)
    matrix = etrennes.etrennes_matrix(config)
    _emit_solution(etrennes.etrennes_solve(config), matrix, args.format)
    return 0


def _cmd_simulate_leher(args: argparse.Namespace) -> int:
    exact = leher.mixed_value(args.a, args.b, args.c, args.d)
    result = montecarlo.leher_simulate(
        args.a, args.b, args.c, args.d, seed=args.seed, trials=args.trials
    )
    estimate, target = _value_payload(result.frequency), _value_payload(exact)
    verdict = _verdict(result.frequency, exact, result.trials)
    sigma = _sigma(result.frequency, result.trials)
    payload = {
        "estimate": estimate["exact"],
        "target": target["exact"],
        "sigma": sigma,
        "trials": result.trials,
        "seed": args.seed,
        "verdict": verdict,
    }
    rows = [list(payload), [str(x) for x in payload.values()]]
    text = [
        f"Paul won {result.wins} of {result.trials}: {_approx(estimate)} "
        f"(target {_approx(target)}, sigma {sigma:.6f}) {verdict}"
    ]
    _emit(args.format, payload, rows, text)
    return 0 if verdict == "pass" else 1


def _cmd_reproduce(args: argparse.Namespace) -> int:
    entries = report.build_reproduction_report()
    payload = [
        {
            "label": entry.label,
            "expected": format_rational(entry.expected),
            "computed": format_rational(entry.computed),
            "source": entry.source,
            "verdict": entry.verdict,
        }
        for entry in entries
    ]
    rows = [["label", "expected", "computed", "source", "verdict"]]
    rows += [list(item.values()) for item in payload]
    text = [
        f"[{item['verdict'].upper()}] {item['label']}: expected {item['expected']}, "
        f"computed {item['computed']}  ({item['source']})"
        for item in payload
    ]
    passed = sum(entry.passed for entry in entries)
    text.append(f"{passed}/{len(entries)} historical figures reproduced exactly")
    _emit(args.format, payload, rows, text)
    return 0 if passed == len(entries) else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", help="output format"
    )


def _all_thresholds_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--all-thresholds",
        action="store_true",
        help="the full 14x14 game over every threshold pair instead of the 2x2 table",
    )


def _conditional_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--player", choices=("paul", "pierre"), required=True)
    parser.add_argument("--card", type=_integer, required=True, help="dealt rank, 1..13")
    parser.add_argument(
        "--action", choices=("hold", "switch", "draw"), required=True,
        help="hold/switch for Paul, hold/draw for Pierre",
    )
    parser.add_argument(
        "--pierre", type=_pierre_strategy, default=leher.PierreStrategy.threshold(8),
        help="Pierre's strategy when Paul is conditioned (default threshold:8)",
    )
    parser.add_argument(
        "--paul", type=_paul_strategy, default=leher.PaulStrategy.threshold(7),
        help="Paul's strategy when Pierre is conditioned (default threshold:7)",
    )


def _token_options(parser: argparse.ArgumentParser) -> None:
    for name, description in (
        ("--a", "Paul's weight on switching the 7"),
        ("--b", "Paul's weight on holding the 7"),
        ("--c", "Pierre's weight on switching the 8"),
        ("--d", "Pierre's weight on holding the 8"),
    ):
        parser.add_argument(name, type=_rational, required=True, help=description)


def _pool_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--players", type=_integer, required=True, help="number of seats, >= 2")
    parser.add_argument("--p", type=_rational, default=Fraction(1, 2),
                        help="incumbent's win probability each game (default 1/2)")
    parser.add_argument("--ante", type=_rational, default=Fraction(1), help="ante (default 1)")
    parser.add_argument("--fee", type=_rational, default=Fraction(1),
                        help="fee each loser pays (default 1)")
    parser.add_argument("--streak", type=_integer, default=None,
                        help="consecutive wins required (default players - 1)")


def _run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_integer, required=True)
    parser.add_argument("--trials", type=_integer, required=True)


def _max_games_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-games", type=_integer, default=pool.DEFAULT_TRIAL_GAME_CAP,
                        help="abandon a trial after this many games; any abandoned "
                        "trial fails every seat")


def _etrennes_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--even", type=_rational, default=Fraction(4),
                        help="prize for a correct even guess (default 4)")
    parser.add_argument("--odd", type=_rational, default=Fraction(1),
                        help="prize for a correct odd guess (default 1)")


_GROUP_HELP = {
    "leher": "the card game Le Her",
    "pool": "the problem of the pool",
    "etrennes": "the parity-guessing gift game",
    "simulate": "token-bag Monte Carlo",
}


_Command = namedtuple("_Command", "path help handler options")

# Every leaf command in help order: its path (a tuple of names), help,
# handler (Namespace -> exit code) and option groups (each adds to a leaf
# parser; each leaf then takes --format last). The full parser and a single
# path's parser are both built from these rows, so each option is defined once.
_COMMANDS = (
    _Command(("leher", "table"), "print the table of Paul's lots", _cmd_leher_table,
             (_all_thresholds_option,)),
    _Command(("leher", "solve"), "value and optimal token mixes", _cmd_leher_solve,
             (_all_thresholds_option,)),
    _Command(("leher", "conditional"), "a lot conditioned on the dealt card",
             _cmd_leher_conditional, (_conditional_options,)),
    _Command(("leher", "value"), "Paul's lot under token weights", _cmd_leher_value,
             (_token_options,)),
    _Command(("pool", "solve"), "exact per-seat solution", _cmd_pool_solve, (_pool_options,)),
    _Command(("pool", "simulate"), "Monte Carlo cross-check", _cmd_pool_simulate,
             (_pool_options, _run_options, _max_games_option)),
    _Command(("etrennes", "solve"), "value and optimal mixes", _cmd_etrennes_solve,
             (_etrennes_options,)),
    _Command(("simulate", "leher"), "simulate mixed-strategy Le Her", _cmd_simulate_leher,
             (_token_options, _run_options)),
    _Command(("reproduce",), "recompute every historical figure; exit 0 only if all match",
             _cmd_reproduce, ()),
)


def _build(commands: Iterable[_Command]) -> argparse.ArgumentParser:
    """The top parser with `commands` and the groups they sit in, in table order."""
    parser = argparse.ArgumentParser(
        prog="montmort",
        description="Exact engine for Le Her, the problem of the pool, and Les Etrennes.",
    )
    parser.add_argument("--version", action="version", version=f"montmort {__version__}")
    subcommands = {(): parser.add_subparsers(dest="command", required=True)}
    for command in commands:
        group = command.path[:-1]
        if group not in subcommands:
            group_parser = subcommands[()].add_parser(group[0], help=_GROUP_HELP[group[0]])
            subcommands[group] = group_parser.add_subparsers(dest="subcommand", required=True)
        leaf = subcommands[group].add_parser(command.path[-1], help=command.help)
        for add_options in command.options:
            add_options(leaf)
        _add_format(leaf)
        leaf.set_defaults(handler=command.handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    return _build(_COMMANDS)


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse `argv` through only the parsers on its command path.

    Building all 14 parsers costs far more than parsing, so an argv that
    opens with a leaf's exact path is parsed by the top, group and leaf
    parsers alone. Each is built by the same calls as in the full parser, so
    `prog`, usage and every error the leaf raises are the same. Any other
    argv (help, --version, an unknown or abbreviated command) and a path
    parse that leaves extras go to the full parser, which prints the help or
    error text the full parser always printed.
    """
    path = [command for command in _COMMANDS if tuple(argv[: len(command.path)]) == command.path]
    if path:
        args, extras = _build(path).parse_known_args(argv)
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.handler(args)
    except ValueError as error:
        print(f"montmort: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
