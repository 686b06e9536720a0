"""Scaled-integer decimal helpers.

All heavy arithmetic in this package runs on plain Python integers that
represent fixed-point decimals: the integer ``m`` at scale ``s`` stands for
the value ``m / 10**s``.  Additions are then exact, every quantization is an
explicit division, and results are bit-reproducible.  Values only become
:class:`decimal.Decimal` at the output boundary.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction


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


def fixed_to_decimal(mantissa: int, scale: int, decimals: int) -> Decimal:
    """Quantize a scaled integer to ``decimals`` places, half-even."""
    if decimals > scale:
        raise ValueError(f"cannot widen scale {scale} to {decimals} decimals")
    # Decimal() reads text exactly, whatever the context's precision.
    return Decimal(f"{div_nearest(mantissa, 10 ** (scale - decimals))}E-{decimals}")


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
