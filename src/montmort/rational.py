"""Exact rational values and their textual forms.

Every lot, probability and game value in this package is a
:class:`fractions.Fraction`: arbitrary precision, always in canonical form
(positive denominator, gcd 1), with exact comparisons. This module adds the
textual conventions shared by the CLI, JSON and CSV surfaces: the "p/q" wire
form, and a truncating decimal rendering used only for human display next to
the exact value.

No floating point enters any computation; floats are rejected outright when
coercing inputs.
"""

from __future__ import annotations

import re
import string
from fractions import Fraction

DEFAULT_DECIMAL_DIGITS = 6
#: Most digits an integer, numerator or denominator may be written with; far
#: below CPython's own int-string limit (4,300 digits from 3.11 and 3.10.7).
MAX_DIGITS = 1_000

#: Most digits `_digits` hands to one `str` call: under 640, the lowest
#: int-string limit CPython accepts, so no `PYTHONINTMAXSTRDIGITS` refuses a figure.
_PIECE_DIGITS = 600
_PIECE = 10**_PIECE_DIGITS

_NUMERATOR_RE = re.compile(r"[+-]?[0-9]+")
_DENOMINATOR_RE = re.compile(r"[0-9]+")
_Bound = int | None  # one side of an argument's range; None leaves it open


def _read_digits(name: str, digits: str) -> int:
    """The int an optionally signed ASCII digit string spells, of at most MAX_DIGITS digits.

    The inverse of `_digits`: a string of more than 600 digits is read in
    pieces of at most 600, so no `PYTHONINTMAXSTRDIGITS` refuses an
    argument. The refusal does not echo the digits.
    """
    body = digits.lstrip("+-")
    count = len(body)
    if count > MAX_DIGITS:
        raise ValueError(f"{name} must have at most {MAX_DIGITS} digits, got {count}")
    if count <= _PIECE_DIGITS:
        return int(digits)
    value = 0
    for start in range(0, count, _PIECE_DIGITS):
        piece = body[start:start + _PIECE_DIGITS]
        value = value * 10**len(piece) + int(piece)
    return -value if digits.startswith("-") else value


def parse_integer(text: str) -> int:
    """An optionally signed ASCII integer: int() alone would also read "٣" and "1_0"."""
    body = text.strip(string.whitespace)
    if not _NUMERATOR_RE.fullmatch(body):
        raise ValueError(f"invalid int value: {text!r}")
    return _read_digits("integer", body)


def parse_rational(text: str) -> Fraction:
    """Parse the "p/q" wire form, or a bare integer "p" meaning p/1.

    The sign, if any, goes on p; q must be a plain positive integer. Digits
    and the surrounding whitespace are ASCII only, and p and q have at most
    `MAX_DIGITS` digits each.

    >>> parse_rational("-3/6")
    Fraction(-1, 2)
    """
    body = text.strip(string.whitespace)
    numerator, slash, denominator = body.partition("/")
    if not _NUMERATOR_RE.fullmatch(numerator):
        raise ValueError(f"malformed rational {text!r}: expected 'p' or 'p/q'")
    numerator = _read_digits("numerator", numerator)
    if not slash:
        return Fraction(numerator)
    if not _DENOMINATOR_RE.fullmatch(denominator):
        raise ValueError(f"malformed rational {text!r}: denominator must be a plain integer")
    denominator = _read_digits("denominator", denominator)
    if denominator == 0:
        raise ValueError(f"malformed rational {text!r}: denominator must be positive")
    return Fraction(numerator, denominator)


def _digits(n: int) -> str:
    """`str(n)` at any size: CPython's `str` refuses ints past 4,300 digits by default.

    The inverse of `_read_digits`: an int under 600 digits is one plain
    `str`. A longer one is cut into 600-digit pieces from the low end, each
    zero-padded, and its top piece written plainly, so `str` only ever sees
    at most 600 digits and no interpreter setting is read or changed.
    """
    if -_PIECE < n < _PIECE:
        return str(n)
    if n < 0:
        return "-" + _digits(-n)
    pieces = []
    while n >= _PIECE:
        n, piece = divmod(n, _PIECE)
        pieces.append(f"{piece:0{_PIECE_DIGITS}d}")
    return str(n) + "".join(reversed(pieces))


def format_rational(value: Fraction) -> str:
    """Render in the "p/q" wire form; integers come out as a bare "p"."""
    numerator, denominator = value.numerator, value.denominator
    if denominator == 1:
        return _digits(numerator)
    return f"{_digits(numerator)}/{_digits(denominator)}"


def _outside(value: int | Fraction, low: _Bound, high: _Bound) -> bool:
    return (low is not None and value < low) or (high is not None and value > high)


def _bounds(low: _Bound, high: _Bound, between: str) -> str:
    """The range phrase of an argument error; `between` is its form for two bounds."""
    if low is None or high is None:
        return f" >= {low}" if low is not None else f" <= {high}" if high is not None else ""
    return " in " + between.format(low, high)


def require_integer(name: str, value: object, low: _Bound = None, high: _Bound = None) -> int:
    """`value` itself if it is an int, not a bool, in [low, high]; a None bound is open."""
    if not isinstance(value, int) or isinstance(value, bool) or _outside(value, low, high):
        got = _digits(value) if type(value) is int else repr(value)
        raise ValueError(f"{name} must be an integer{_bounds(low, high, '{}..{}')}, got {got}")
    return value


def require_rational(name: str, value: object, low: _Bound = None, high: _Bound = None) -> Fraction:
    """`as_rational(value)` if it lies in [low, high], a None bound open; refusals name `name`."""
    try:
        rational = as_rational(value)
    except (TypeError, ValueError) as refused:
        raise type(refused)(f"{name}: {refused}") from None
    if _outside(rational, low, high):
        raise ValueError(f"{name} must be{_bounds(low, high, '[{}, {}]')}, got {format_rational(rational)}")
    return rational


def as_rational(value: Fraction | int | str) -> Fraction:
    """Coerce an int, a "p/q" string or a Fraction to an exact Fraction.

    Floats are rejected: a binary float is almost never the exact quantity
    the caller means, and silently accepting one would poison exact results.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"exact rational expected, got {type(value).__name__} {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"exact rational expected, got {type(value).__name__}")


def decimal_string(value: Fraction, digits: int = DEFAULT_DECIMAL_DIGITS) -> str:
    """Decimal rendering truncated toward zero after `digits` places.

    Display only; the exact "p/q" form is always what gets compared.

    >>> decimal_string(Fraction(2828, 5525))
    '0.511855'
    """
    require_integer("digits", digits, 0)
    numerator, denominator = value.numerator, value.denominator
    sign = "-" if numerator < 0 else ""
    scale = 10**digits
    whole, places = divmod(abs(numerator) * scale // denominator, scale)
    if digits == 0:
        return sign + _digits(whole)
    return f"{sign}{_digits(whole)}.{_digits(places).zfill(digits)}"


def approx_string(value: Fraction, digits: int = DEFAULT_DECIMAL_DIGITS) -> str:
    """The standard two-part rendering: exact form first, decimal alongside."""
    return f"{format_rational(value)} ≈ {decimal_string(value, digits)}"

