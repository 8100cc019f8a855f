"""Helpers for exact rational values and their "p/q" JSON encoding.

All core quantities in lotbench are `fractions.Fraction` values, which are
always stored in lowest terms with a positive denominator.  JSON carries
rationals as strings like "5/24"; plain integers are accepted as shorthand.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import chain
from operator import mul

from .errors import LotbenchError

# no exponents: Fraction("1e999999999") would build a 10^9-digit integer
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(value) -> Fraction:
    """Parse a JSON-level value ("p/q" string, int, or Fraction) exactly.

    Floats are rejected: they would silently break the exact-arithmetic
    contract of every identity checked downstream.  A string must be "p"
    or "p/q" in ASCII digits, with an optional sign and surrounding spaces.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise LotbenchError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        match = _RATIONAL.fullmatch(text)
        if match is None:
            raise LotbenchError(f"Invalid literal for Fraction: {text!r}")
        try:
            return Fraction(int(match[1]), int(match[2] or 1))
        except ZeroDivisionError:
            raise LotbenchError(f"zero denominator: {value!r}") from None
        except ValueError as exc:
            raise LotbenchError(str(exc)) from None
    raise LotbenchError(f"not a rational: {value!r}")


def _exact_type(t: type) -> bool:
    return issubclass(t, (Fraction, int)) and not issubclass(t, bool)


def require_exact(*named):
    """Raise LotbenchError unless every entry is a Fraction or an int other
    than bool, as parse_rational accepts: a float or a numpy scalar would
    round every identity checked downstream.

    Each argument is a (name, entries) pair, and the message names the
    first inexact entry by its pair's name.  The types are checked as one
    set; the entries are searched only for the message.
    """
    types = set(map(type, chain.from_iterable(entries for _, entries in named)))
    if not all(map(_exact_type, types)):
        name, bad = next(
            (name, v) for name, entries in named for v in entries if not _exact_type(type(v))
        )
        raise LotbenchError(f"{name} entries must be Fraction or int, got {bad!r}")


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p/q" (or "p" when the denominator is 1)."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_rational_vector(values) -> tuple[Fraction, ...]:
    if not isinstance(values, (list, tuple)):
        raise LotbenchError(f"not a list of rationals: {values!r}")
    return tuple(parse_rational(v) for v in values)


def to_common_denominator(rows):
    """(L, the rows times L as lists of ints, one row at a time), with L the
    lcm of every entry's denominator, so that exact sums over the rows can
    run in Python ints and be divided once.  rows must be a sequence."""
    factor = dict.fromkeys(v.denominator for row in rows for v in row)
    scale = math.lcm(*factor)
    factor = {d: scale // d for d in factor}
    return scale, ([v.numerator * factor[v.denominator] for v in row] for row in rows)


def exact_sum(values) -> Fraction:
    """The sum of exact entries (Fraction or int) as one Fraction: summed in
    ints over the lcm of their denominators, not one Fraction addition per
    entry.  values must be a sequence."""
    scale, (ints,) = to_common_denominator([values])
    return Fraction(sum(ints), scale)


def exact_dot(values, weights) -> Fraction:
    """sum_k values[k] * weights[k] of exact entries as one Fraction: each
    sequence over the lcm of its own denominators, the products summed in
    ints.  Both must be sequences of one length."""
    vscale, (vs,) = to_common_denominator([values])
    wscale, (ws,) = to_common_denominator([weights])
    return Fraction(sum(map(mul, vs, ws)), vscale * wscale)


def format_rational_vector(values) -> list[str]:
    return [format_rational(v) for v in values]


def format_rational_matrix(rows) -> list[list[str]]:
    return [format_rational_vector(row) for row in rows]
