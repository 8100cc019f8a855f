"""Helpers for exact rational values and their "p/q" JSON encoding.

All core quantities in lotbench are `fractions.Fraction` values, which are
always stored in lowest terms with a positive denominator.  JSON carries
rationals as strings like "5/24"; plain integers are accepted as shorthand.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

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


def exact_type(t: type) -> bool:
    """True for Fraction and for int other than bool, the entry types that
    keep arithmetic exact: a float or a numpy scalar would round it."""
    return issubclass(t, (Fraction, int)) and not issubclass(t, bool)


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


def format_rational_vector(values) -> list[str]:
    return [format_rational(v) for v in values]


def format_rational_matrix(rows) -> list[list[str]]:
    return [format_rational_vector(row) for row in rows]
