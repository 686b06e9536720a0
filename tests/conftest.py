"""Shared test helpers."""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

import pytest

from irwinsums.model import occurrence_vector
from irwinsums.powersums import PowerSumTable


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


def layer(conditions, digit_length: int) -> list[int]:
    """The slots with |k| = digit_length in ascending order, read from
    ``occurrence_vector``: the cells a finite series' table at that length
    holds."""
    return [
        slot for slot in range(conditions.cell_count)
        if sum(occurrence_vector(slot, conditions)) == digit_length
    ]


def full_rows(table: PowerSumTable, conditions) -> list[list[int]]:
    """A table's rows over every slot.  A finite series' rows hold only its
    layer |k| = digit_length, whose cells are the only nonzero ones."""
    if not conditions.is_finite_series():
        return table.rows
    slots = layer(conditions, table.digit_length)
    rows = []
    for row in table.rows:
        assert len(row) == len(slots)
        full = [0] * conditions.cell_count
        for slot, v in zip(slots, row):
            full[slot] = v
        rows.append(full)
    return rows


def stored(table: PowerSumTable, conditions) -> PowerSumTable:
    """A table whose rows cover every slot, in the engine's storage: a finite
    series keeps its layer |k| = digit_length only."""
    if not conditions.is_finite_series():
        return table
    slots = layer(conditions, table.digit_length)
    rows = [[row[slot] for slot in slots] for row in table.rows]
    return PowerSumTable(table.digit_length, rows)


@pytest.fixture
def ulp():
    return assert_ulp
