"""Command-line surface: every computation behind `montmort <command>`.

Exact fractions are always the primary output; decimals are annotations.
Rationals on the command line use the "p/q" form (a bare integer works too).
Strategies are "threshold:t" or a 13-letter table, rank 1 (ace) through 13
(king). Formats: text (default), json, csv; each handler prints nothing: it
formats every figure once and returns its exit code, JSON payload, CSV rows
and text lines built from those same strings, and `main` hands them to
`_emit`, which writes one as UTF-8. JSON comes from `_json_text`, which
returns exactly `json.dumps(payload, indent=2)` (two-space indent,
non-ASCII escaped) without the stdlib's generator-based encoder, which
`json.dumps` falls back to whenever `indent` is set. `_json_text` writes
strings, plain ints and finite plain floats itself and hands every other
scalar (booleans, None, NaN, the infinities) to `json.dumps`. The simulate
commands refuse every run argument, the 2**64 draw bound included, before
they compute the exact target. `montmort reproduce` recomputes the
whole historical battery and exits 0 only when every figure matches, so it
can gate CI directly. Every command's stdout, result and exit code ignore
the environment, the stream encoding included. Only argparse's own text
reads it: usage and errors on stderr, and `--help`, are wrapped to
`COLUMNS` and translated through gettext, which reads the locale variables.

`main` builds only the argv's leaf parser, from the same command table as
the full `build_parser()`. The leaf parser never prints: help, `--version`
and every argv it refuses or cannot take whole go to the full parser, so
every usage line, error and help text is the full parser's.

Each command imports only the modules it runs. Every handler imports its
engine modules itself, so beside `montmort`, `cli` and `rational` a `pool
solve` loads only `pool`, and `reproduce` only `report`, `leher` and
`solver`. The `--paul` and `--pierre` defaults are strategy strings that
argparse passes through the argument type, which imports Le Her when it
parses one. `_emit` imports `json` only for JSON and `csv` only for CSV.
"""

from __future__ import annotations

import argparse
import sys
from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction
from functools import partial
from math import ceil, isfinite, sqrt

from . import __version__
from .rational import (
    _digits,
    decimal_string,
    format_rational,
    parse_integer,
    parse_rational,
    require_integer,
)

SIGMA_BAND = 4  # simulation verdicts: estimate within 4 standard errors
#: Most games `pool simulate` expects to play, trials * min(E[games], max_games):
#: at 0.5-1.2 us a game (CPython 3.11, 2-vCPU VM), about two minutes.
MAX_SIMULATED_GAMES = 10**8
#: Most trials `simulate leher` plays: at 2.0-2.2 us a trial (CPython 3.11,
#: 2-vCPU VM), about two minutes.
MAX_LEHER_TRIALS = 5 * 10**7


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


def _leher_strategy(kind: str, text: str) -> object:
    """`leher.<kind>.parse(text)`: Le Her is imported only when a strategy is parsed."""
    from . import leher

    return getattr(leher, kind).parse(text)


_paul_strategy = _argument_type(partial(_leher_strategy, "PaulStrategy"))
_pierre_strategy = _argument_type(partial(_leher_strategy, "PierreStrategy"))


def _json_chunks(value: object, indent: str, out: list[str], quote: Callable[[str], str]) -> None:
    """Append `value`'s indent-2 JSON to `out`; `indent` is a newline and its depth's spaces."""
    if isinstance(value, str):
        out.append(quote(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner, opener = indent + "  ", "{"
        for key, item in value.items():
            out.append(opener + inner + quote(key) + ": ")
            _json_chunks(item, inner, out, quote)
            opener = ","
        out.append(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner, opener = indent + "  ", "["
        for item in value:
            out.append(opener + inner)
            _json_chunks(item, inner, out, quote)
            opener = ","
        out.append(indent + "]")
    elif type(value) is int:
        out.append(_digits(value))
    elif type(value) is float and isfinite(value):
        out.append(repr(value))
    else:
        from json import dumps

        out.append(dumps(value))


def _json_text(value: object) -> str:
    """`json.dumps(value, indent=2)`, for str-keyed dicts, lists, tuples and scalars.

    The stdlib's C encoder serves only `indent=None`; with an indent,
    `json.dumps` runs a chain of Python generators instead. This writer
    lays out the containers itself in one list of chunks, joined once, and
    hands every key and string to the C string encoder that `json.dumps`
    also uses, imported here so that only JSON output loads `json`. A plain
    int (exact type, so never a bool) is written by `rational._digits`,
    which prints `str`'s digits at any size, and a finite plain float by
    `repr`, as the stdlib encoder writes them; every other scalar, booleans,
    None, NaN and the infinities included, goes to `json.dumps`.
    """
    from json.encoder import encode_basestring_ascii

    out: list[str] = []
    _json_chunks(value, "\n", out, encode_basestring_ascii)
    return "".join(out)


def _emit(fmt: str, payload: dict | list, rows: list[list[str]], text: list[str]) -> None:
    """Write one result to stdout as UTF-8: the JSON payload, CSV rows or text lines.

    Each format imports its own writer, so text output loads neither `json` nor `csv`.
    """
    if fmt == "json":
        out = _json_text(payload) + "\n"
    elif fmt == "csv":
        import csv
        import io

        buffer = io.StringIO()
        csv.writer(buffer).writerows(rows)
        out = buffer.getvalue()
    else:
        out = "\n".join(text) + "\n"
    if hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        sys.stdout.buffer.write(out.encode("utf-8"))
    else:
        sys.stdout.write(out)


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


def _solution_output(solution, matrix) -> tuple:
    """The JSON payload, CSV rows and text lines of a `GameSolution` of `matrix`."""
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
    return payload, rows, text


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _cmd_leher_table(args: argparse.Namespace) -> tuple:
    from . import leher

    matrix = leher.threshold_matrix() if args.all_thresholds else leher.build_leher_matrix()
    payload = matrix.to_json_dict()
    rows = [["row\\col", *payload["cols"]]]
    rows += [[label, *entries] for label, entries in zip(payload["rows"], payload["entries"])]
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    text = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() for row in rows
    ]
    return 0, payload, rows, text


def _cmd_leher_solve(args: argparse.Namespace) -> tuple:
    from . import leher, solver

    matrix = leher.threshold_matrix() if args.all_thresholds else leher.build_leher_matrix()
    return 0, *_solution_output(solver.solve_zero_sum(matrix), matrix)


def _cmd_leher_conditional(args: argparse.Namespace) -> tuple:
    from . import leher

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
    return 0, {"label": label, "lot": value}, rows, [f"{label}: {_approx(value)}"]


def _cmd_leher_value(args: argparse.Namespace) -> tuple:
    from . import leher

    value = _value_payload(leher.mixed_value(args.a, args.b, args.c, args.d))
    return 0, {"value": value}, [["value"], [value["exact"]]], [_approx(value)]


def _pool_config(args: argparse.Namespace):
    """The `pool.PoolConfig` of a pool command's arguments."""
    from . import pool

    return pool.PoolConfig(
        players=args.players,
        champion_win_prob=args.p,
        ante=args.ante,
        fee=args.fee,
        streak_required=args.streak,
    )


def _cmd_pool_solve(args: argparse.Namespace) -> tuple:
    from . import pool

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
    return 0, {"expected_games": games, "seats": seats}, rows, text


def _cmd_pool_simulate(args: argparse.Namespace) -> tuple:
    from . import pool

    config = _pool_config(args)
    # Run arguments and overlong runs are refused before the exact targets;
    # the simulator refuses a draw bound above 2**64 before its first draw.
    require_integer("trials", args.trials, 1)
    require_integer("max_games", args.max_games, 1)
    planned = args.trials * min(pool.pool_expected_games(config), args.max_games)
    if planned > MAX_SIMULATED_GAMES:
        raise ValueError(f"pool simulate beyond reach: trials * min(expected games, max_games)"
                         f" = {_digits(ceil(planned))} exceeds {MAX_SIMULATED_GAMES} games")
    result = pool.pool_simulate(config, seed=args.seed, trials=args.trials, max_games=args.max_games)
    targets = pool.pool_win_probabilities(config)
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
        f"{result.trials} pools, seed {_digits(args.seed)}, truncated {truncated}",
        f"mean games: {_approx(games)}",
    ] + [
        f"seat {seat['seat']}: win freq {seat['win_freq']} "
        f"(target {seat['target']}, sigma {seat['sigma']:.6f}) {seat['verdict']}"
        for seat in seats
    ]
    return (0 if all(seat["verdict"] == "pass" for seat in seats) else 1), payload, rows, text


def _cmd_etrennes_solve(args: argparse.Namespace) -> tuple:
    from . import etrennes, solver

    config = etrennes.EtrennesConfig(even_prize=args.even, odd_prize=args.odd)
    matrix = etrennes.etrennes_matrix(config)
    return 0, *_solution_output(solver.solve_zero_sum(matrix), matrix)


def _cmd_simulate_leher(args: argparse.Namespace) -> tuple:
    from . import leher, montecarlo

    # Run arguments and overlong runs are refused before the exact target;
    # the simulator refuses a draw bound above 2**64 before its first draw.
    require_integer("trials", args.trials, 1)
    if args.trials > MAX_LEHER_TRIALS:
        raise ValueError(f"simulate leher beyond reach: trials = {_digits(args.trials)}"
                         f" exceeds {MAX_LEHER_TRIALS}")
    result = montecarlo.leher_simulate(
        args.a, args.b, args.c, args.d, seed=args.seed, trials=args.trials
    )
    exact = leher.mixed_value(args.a, args.b, args.c, args.d)
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
    rows = [list(payload), [_digits(x) if type(x) is int else str(x) for x in payload.values()]]
    text = [
        f"Paul won {result.wins} of {result.trials}: {_approx(estimate)} "
        f"(target {_approx(target)}, sigma {sigma:.6f}) {verdict}"
    ]
    return 0 if verdict == "pass" else 1, payload, rows, text


def _cmd_reproduce(args: argparse.Namespace) -> tuple:
    from . import report

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
    return 0 if passed == len(entries) else 1, payload, rows, text


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


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
        "--pierre", type=_pierre_strategy, default="threshold:8",
        help="Pierre's strategy when Paul is conditioned (default threshold:8)",
    )
    parser.add_argument(
        "--paul", type=_paul_strategy, default="threshold:7",
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
    from . import pool

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
# handler (Namespace -> exit code, JSON payload, CSV rows and text lines; it
# prints nothing) and option groups (each adds to a leaf parser; each leaf
# then takes --format last). The full parser and a single leaf's parser are
# both built from these rows, so each option is defined once.
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


def _fill_leaf(leaf: argparse.ArgumentParser, command: _Command) -> argparse.ArgumentParser:
    """Give a leaf parser its command's options, then --format, and its handler."""
    for add_options in command.options:
        add_options(leaf)
    leaf.add_argument("--format", choices=("text", "json", "csv"), default="text",
                      help="output format")
    leaf.set_defaults(handler=command.handler)
    return leaf


def build_parser() -> argparse.ArgumentParser:
    """The full parser: the top parser, its four groups and every leaf, in table order."""
    parser = argparse.ArgumentParser(
        prog="montmort",
        description="Exact engine for Le Her, the problem of the pool, and Les Etrennes.",
    )
    parser.add_argument("--version", action="version", version=f"montmort {__version__}")
    subcommands = {(): parser.add_subparsers(dest="command", required=True)}
    for name, help_text in _GROUP_HELP.items():
        group_parser = subcommands[()].add_parser(name, help=help_text)
        subcommands[(name,)] = group_parser.add_subparsers(dest="subcommand", required=True)
    for command in _COMMANDS:
        leaf = subcommands[command.path[:-1]].add_parser(command.path[-1], help=command.help)
        _fill_leaf(leaf, command)
    return parser


class _LeafRefused(Exception):
    """A leaf parser's error: the full parser parses the argv again and says why."""


class _LeafParser(argparse.ArgumentParser):
    """A leaf parser that only parses: it has no -h and never prints or exits."""

    def __init__(self, prog: str) -> None:
        # A fixed width spares a terminal query per `add_argument`, which
        # builds a `HelpFormatter` to check the option's metavar; the leaf
        # never prints, so the width never shows.
        formatter = partial(argparse.HelpFormatter, width=80)
        super().__init__(prog=prog, add_help=False, formatter_class=formatter)

    def error(self, message: str) -> None:
        raise _LeafRefused(message)


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse `argv` with only its leaf command's parser when that parser takes it whole.

    Building all 14 parsers costs far more than parsing, so an argv that
    opens with a leaf's exact path is parsed by that leaf's options alone,
    added by the same calls as in the full parser. That leaf parser only
    parses: it has no -h, never asks the terminal for its width, and refuses
    instead of printing an error. Every other argv (help, --version, an
    unknown or abbreviated command), a leaf parse that leaves extras and a
    refused one go to the full parser, so every usage line, error and help
    text is the full parser's.
    """
    for command in _COMMANDS:
        if tuple(argv[: len(command.path)]) == command.path:
            leaf = _LeafParser(" ".join(("montmort", *command.path)))
            try:
                args, extras = _fill_leaf(leaf, command).parse_known_args(argv[len(command.path):])
            except _LeafRefused:
                break
            if not extras:
                return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        code, payload, rows, text = args.handler(args)
    except ValueError as error:
        print(f"montmort: error: {error}", file=sys.stderr)
        return 2
    _emit(args.format, payload, rows, text)
    return code


if __name__ == "__main__":
    sys.exit(main())
