"""`cli.main` parses every argv exactly as the full parser does.

`main` builds only the leaf parser of an argv's command, which only
parses, and falls back to the full parser for help, --version and every
argv the leaf refuses. Each case here runs through `main` and through the
full `build_parser().parse_args` followed by the handler and `_emit`, and
both must print the same stdout and stderr and return (or exit with) the
same code. Usage and help wrap at `COLUMNS`, so CI also runs this file
under a narrow terminal and the C locale.
"""

import argparse
import gc
import shutil
import sys
from fractions import Fraction

import pytest

from montmort import cli

_PATHS = [list(command.path) for command in cli._COMMANDS]
_GROUPS = sorted({path[0] for path in _PATHS if len(path) > 1})
_VALUE = ["leher", "value", "--a", "3", "--b", "5", "--c", "5", "--d", "3"]
_CONDITIONAL = ["leher", "conditional", "--player", "paul", "--card", "7", "--action", "hold"]
_POOL = ["pool", "solve", "--players", "3"]

CASES = [
    # Help and version.
    [],
    ["-h"],
    ["--version"],
    *([group, "-h"] for group in _GROUPS),
    *([*path, "-h"] for path in _PATHS),
    [*_POOL, "--help"],
    [*_POOL, "--he"],
    [*_POOL[:3], "-h"],
    [*_POOL, "--p=-h"],
    ["simulate", "leher", "--a", "1", "--b", "1", "-h", "--c", "1", "--d", "1", "--seed", "3",
     "--trials", "40"],
    # Leaf errors.
    ["pool", "solve"],
    ["leher", "conditional", "--player", "paul", "--card", "7"],
    ["pool", "solve", "--players", "x"],
    ["leher", "value", "--a", "1.5", "--b", "5", "--c", "5", "--d", "3"],
    [*_CONDITIONAL, "--pierre", "bogus"],
    ["leher", "table", "--format", "xml"],
    [*_POOL, "--bogus"],
    ["reproduce", "extra"],
    [*_POOL, "--version"],
    # A handler's ValueError: exit 2 after parsing succeeded.
    ["leher", "value", "--a", "0", "--b", "0", "--c", "5", "--d", "3"],
    ["pool", "solve", "--players", "1"],
    # Parsing forms that succeed.
    ["leher", "table", "--all-thr"],
    ["leher", "value", "--a=3", "--b=5", "--c=5", "--d=3", "--format=csv"],
    [*_POOL, "--players", "4", "--format", "json"],
    [*_CONDITIONAL, "--pierre", "threshold:9"],
    ["etrennes", "solve", "--even", "7/3", "--odd", "5"],
    ["simulate", "leher", "--a", "1", "--b", "1", "--c", "1", "--d", "1", "--seed", "3",
     "--trials", "40"],
    ["pool", "simulate", "--players", "3", "--seed", "3", "--trials", "40", "--max-games", "2"],
    # Bad commands.
    ["bogus"],
    ["pool"],
    ["pool", "solv"],
    ["reproduc"],
    ["--format", "json", "reproduce"],
]


def _full_parser_main(argv):
    """The reference: parse with every parser built, then run and emit as `main` does."""
    args = cli.build_parser().parse_args(argv)
    try:
        code, payload, rows, text = args.handler(args)
    except ValueError as error:
        print(f"montmort: error: {error}", file=sys.stderr)
        return 2
    cli._emit(args.format, payload, rows, text)
    return code


def _outcome(run, argv, capsys):
    try:
        code = run(argv)
    except SystemExit as exit:
        code = ("SystemExit", exit.code)
    captured = capsys.readouterr()
    return captured.out, captured.err, code


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_main_matches_full_parser(argv, capsys):
    assert _outcome(cli.main, argv, capsys) == _outcome(_full_parser_main, argv, capsys)


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["montmort", *_VALUE])
    via_sys_argv = _outcome(cli.main, None, capsys)
    assert via_sys_argv == _outcome(_full_parser_main, None, capsys)
    assert via_sys_argv[0].startswith("11327/22100 ")


def test_command_rows_name_their_fields():
    for command in cli._COMMANDS:
        path, help_text, handler, options = command
        assert (command.path, command.help, command.handler, command.options) == command
        assert isinstance(path, tuple) and help_text and callable(handler)
        assert all(callable(add_options) for add_options in options)


def test_help_builds_every_parser(built_parsers, capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    assert capsys.readouterr().out.startswith("usage: montmort ")
    # The top parser, four groups and nine leaves.
    assert len(built_parsers) == 1 + len(_GROUPS) + len(_PATHS) == 14


def test_the_leaf_parser_only_parses(built_parsers, monkeypatch, capsys):
    def no_terminal():
        raise AssertionError("the leaf parser asked for the terminal size")

    with monkeypatch.context() as patch:
        patch.setattr(shutil, "get_terminal_size", no_terminal)
        args = cli._parse([*_POOL, "--p", "1/3"])
    assert (args.players, args.p, args.handler) == (3, Fraction(1, 3), cli._cmd_pool_solve)
    assert built_parsers == ["montmort pool solve"]
    assert capsys.readouterr() == ("", "")
    # A refused argv: the leaf, then all 14 parsers, and the full parser's error.
    built_parsers.clear()
    with pytest.raises(SystemExit) as exit:
        cli._parse(["pool", "solve", "--players", "x"])
    assert exit.value.code == 2
    assert built_parsers[:2] == ["montmort pool solve", "montmort"]
    assert len(built_parsers) == 1 + 14
    err = capsys.readouterr().err
    assert err.startswith("usage: montmort pool solve") and "argument --players" in err


def test_no_parser_outlives_main(capsys):
    assert cli.main(_VALUE) == 0
    with pytest.raises(SystemExit):
        cli.main(["--format", "json", "reproduce"])
    with pytest.raises(SystemExit):
        cli.main(["pool", "solve", "--players", "x"])
    gc.collect()
    survivors = [
        thing.prog for thing in gc.get_objects()
        if isinstance(thing, argparse.ArgumentParser) and thing.prog.startswith("montmort")
    ]
    assert survivors == []
