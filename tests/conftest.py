"""Shared test helpers."""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

import pytest


def assert_ulp(value, expected_text: str, ulps: int = 1) -> None:
    """Assert a value matches a quoted decimal within ``ulps`` units in the
    last place shown by the quote."""
    expected = Decimal(expected_text)
    tolerance = Decimal(ulps).scaleb(expected.as_tuple().exponent)
    got = Decimal(str(value))
    assert abs(got - expected) <= tolerance, (
        f"{got} differs from {expected_text} by more than {ulps} ulp"
    )


def expansion_coefficient(base: int, power: int, n: int) -> Fraction:
    """The n-th series coefficient (-1)**n * C(power+n-1, n) / base**(power+n),
    the exact reference for the integer coefficients the recurrence uses."""
    value = Fraction(math.comb(power + n - 1, n), base ** (power + n))
    return -value if n & 1 else value


@pytest.fixture
def ulp():
    return assert_ulp
