"""Scaled-integer decimal helpers.

All heavy arithmetic in this package runs on plain Python integers that
represent fixed-point decimals: the integer ``m`` at scale ``s`` stands for
the value ``m / 10**s``.  Additions are then exact, every quantization is an
explicit division, and results are bit-reproducible.  Values only become
:class:`decimal.Decimal` at the output boundary.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from fractions import Fraction
from itertools import repeat
from typing import Iterable


def div_nearest(a: int, b: int) -> int:
    """Round a/b to the nearest integer, ties to even.  Requires b > 0."""
    q, r = divmod(a, b)
    twice = 2 * r
    if twice > b or (twice == b and q & 1):
        q += 1
    return q


def div_toward_zero(a: int, b: int) -> int:
    """Truncate a/b toward zero.  Requires b > 0.

    Used when requantizing recurrence cells: rounding to nearest would let a
    one-ulp residue reproduce itself forever (0.9 ulp rounds back to 1 ulp),
    whereas truncation lets exhausted cells decay to exactly zero.
    """
    if a < 0:
        return -((-a) // b)
    return a // b


# Wide enough that scaleb never rounds and no exponent overflows.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _unit(scale: int, decimals: int) -> int:
    if decimals > scale:
        raise ValueError(f"cannot widen scale {scale} to {decimals} decimals")
    return 10 ** (scale - decimals)


def fixed_to_decimal(mantissa: int, scale: int, decimals: int) -> Decimal:
    """Quantize a scaled integer to ``decimals`` places, half-even.

    The one-value form of :func:`fixed_to_decimals`, without its iterators,
    which would double the cost of a call.
    """
    return _EXACT.scaleb(Decimal(div_nearest(mantissa, _unit(scale, decimals))), -decimals)


def fixed_to_decimals(
    mantissas: Iterable[int], scale: int, decimals: int
) -> tuple[Decimal, ...]:
    """Quantize each scaled integer to ``decimals`` places, half-even.

    Each value is its rounded mantissa, an int (so never a negative zero),
    with exponent ``-decimals``: ``Decimal(q)`` converts an int of any size
    exactly, without the text that Python caps at 4300 digits.  One ``map``
    chain costs about 0.6 of mapping :func:`fixed_to_decimal` over the
    values, which matters for the 3**10 cells of all ten digits twice.
    """
    unit = _unit(scale, decimals)
    return tuple(map(
        _EXACT.scaleb,
        map(Decimal, map(div_nearest, mantissas, repeat(unit))),
        repeat(-decimals),
    ))


def parse_exact_decimal(text: str) -> tuple[Fraction, int | None]:
    """Parse a plain decimal string exactly.

    Returns the exact rational value and the number of fractional digits
    written in the text, or ``None`` for integer-form input (which is exact
    with unlimited precision).  Scientific notation is rejected: the textual
    decimal count carries meaning for threshold searches.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty decimal string")
    sign = 1
    if s[0] in "+-":
        if s[0] == "-":
            sign = -1
        s = s[1:]
    if not s:
        raise ValueError(f"invalid decimal string: {text!r}")
    if "." in s:
        whole, _, frac = s.partition(".")
        if not (whole + frac).isdigit() or not frac:
            raise ValueError(f"invalid decimal string: {text!r}")
        whole = whole or "0"
        value = Fraction(sign * int(whole + frac), 10 ** len(frac))
        return value, len(frac)
    if not s.isdigit():
        raise ValueError(f"invalid decimal string: {text!r}")
    return Fraction(sign * int(s)), None


def format_plain(value: Decimal) -> str:
    """Fixed-notation string (never exponent form, even for 0E-15)."""
    return format(value, "f")


def format_grouped(value: Decimal) -> str:
    """Fixed-notation string with the fractional digits in blocks of 5."""
    text = format_plain(value)
    if "." not in text:
        return text
    whole, frac = text.split(".")
    blocks = [frac[i : i + 5] for i in range(0, len(frac), 5)]
    return whole + "." + " ".join(blocks)
