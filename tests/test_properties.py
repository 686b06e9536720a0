"""Property-based checks for the model, coefficients, the power-1, kernel and
finite steps, the engine against the oracle's exact sums, and formatting."""

from __future__ import annotations

import math
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irwinsums.fixedpoint import (
    div_nearest,
    div_toward_zero,
    fixed_to_decimal,
    fixed_to_decimals,
    format_grouped,
    format_plain,
    parse_exact_decimal,
)
from irwinsums.model import ConditionSet, occurrence_index, occurrence_vector
from irwinsums.oracle import block_cell_sums, brute_force_fraction
from irwinsums.powersums import PowerSumTable, digit_power_sum
from irwinsums.recurrence import advance
from irwinsums.summation import irwin_sum, partial_sum
from conftest import expansion_coefficient, layer
from test_recurrence import carried_rows, full_term_step


@st.composite
def condition_sets(draw, max_cells=10 ** 4):
    base = draw(st.integers(min_value=2, max_value=10))
    m = draw(st.integers(min_value=1, max_value=base))
    digits = draw(
        st.lists(
            st.integers(min_value=0, max_value=base - 1),
            min_size=m,
            max_size=m,
            unique=True,
        )
    )
    counts = []
    cells = 1
    for _ in range(m):
        bound = max(0, max_cells // cells - 1)
        count = draw(st.integers(min_value=0, max_value=min(9, bound)))
        counts.append(count)
        cells *= count + 1
    return ConditionSet.of(digits, counts, base=base)


@given(
    condition_sets(max_cells=3000).filter(lambda c: not c.is_finite_series()),
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=1, max_value=4),
    st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_power1_step_equals_full_term_step(conditions, digit_length, j_active, rng):
    # a table of an infinite series whose rows above power 1 are 0, with
    # values of either sign on the cells a digit length can reach
    cells = conditions.cell_count
    row = [
        rng.randint(-10 ** 30, 10 ** 30)
        if sum(occurrence_vector(slot, conditions)) <= digit_length else 0
        for slot in range(cells)
    ]
    table = PowerSumTable(digit_length, [row] + [[0] * cells] * (j_active - 1))
    got, live = advance(table, conditions, j_active)
    want, want_live = full_term_step(table, conditions, j_active)
    assert got.rows == carried_rows(table, want)
    assert live == want_live
    assert got.digit_length == digit_length + 1


@given(
    condition_sets(max_cells=2000).filter(
        lambda c: not c.is_finite_series() and c.num_conditions > 1
    ),
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=2),
    st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_infinite_step_equals_full_term_step(conditions, digit_length, top, spare, rng):
    # rows up to `top` >= 2 nonzero on the cells a digit length can reach: the
    # kernel steps over grades |k| <= digit_length + 1, which are not a prefix
    # of the slots once there are several conditions
    cells = conditions.cell_count
    grades = [sum(occurrence_vector(slot, conditions)) for slot in range(cells)]
    rows = [
        [rng.randint(-10 ** 30, 10 ** 30) if w <= digit_length else 0 for w in grades]
        for _ in range(top)
    ]
    table = PowerSumTable(digit_length, rows + [[0] * cells] * spare)
    got, live = advance(table, conditions, top + spare)
    want, want_live = full_term_step(table, conditions, top + spare)
    assert got.rows == carried_rows(table, want)
    assert live == want_live
    assert got.digit_length == digit_length + 1


@st.composite
def finite_sets(draw, max_cells=3000):
    """Every digit of a base, in shuffled order, with counts 0..3."""
    base = draw(st.integers(min_value=2, max_value=10))
    digits = draw(st.permutations(range(base)))
    counts = []
    cells = 1
    for _ in digits:
        count = draw(st.integers(min_value=0, max_value=min(3, max_cells // cells - 1)))
        counts.append(count)
        cells *= count + 1
    return ConditionSet.of(digits, counts, base=base)


@given(
    finite_sets(),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=8),
    st.data(),
    st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_finite_step_equals_full_term_step(conditions, digit_length, j_active, data, rng):
    # values of either sign on the source layer |k| = digit_length, the only
    # cells a finite table holds, in the rows up to `top`; negative numerators
    # truncate toward zero.  The reference steps every slot and keeps the
    # target layer.
    top = data.draw(st.integers(min_value=0, max_value=j_active))
    cells = len(layer(conditions, digit_length))
    rows = [[rng.randint(-10 ** 30, 10 ** 30) for _ in range(cells)] for _ in range(top)]
    table = PowerSumTable(digit_length, rows + [[0] * cells] * (j_active - top))
    got, live = advance(table, conditions, j_active)
    want, want_live = full_term_step(table, conditions, j_active)
    assert got.rows == carried_rows(table, want)
    assert live == want_live
    assert got.digit_length == digit_length + 1


# Integers the oracle enumerates per example: base**L at most.
ORACLE_INTEGERS = 2 * 10 ** 5


def assert_within_half_unit(value: Decimal, exact: Fraction, decimals: int) -> None:
    """``value``, printed to ``decimals`` places, lies within half a unit of
    its last place of ``exact``, plus 10**-(decimals + 5): room for the
    rounding of ``block_cell_sums``, far below the half unit."""
    slack = Fraction(1, 2 * 10 ** decimals) + Fraction(1, 10 ** (decimals + 5))
    assert abs(Fraction(value) - exact) <= slack, (value, float(exact))


def assert_cells_match_oracle(result, conditions, digit_limit: int) -> None:
    """Every per-cell sum against the oracle's blocks of 1..digit_limit digits,
    each rounded per integer 10 places below the result's last."""
    cells = [Fraction(0)] * conditions.cell_count
    for length in range(1, digit_limit + 1):
        block = block_cell_sums(conditions, length, result.decimals + 10)
        cells = [total + v for total, v in zip(cells, block)]
    assert len(cells) == len(result.per_cell_sums)
    for got, want in zip(result.per_cell_sums, cells):
        assert_within_half_unit(got, want, result.decimals)


@st.composite
def oracle_cases(draw):
    """Base 2..10, 1..3 distinct digits with counts 0..3, and a digit limit L
    with base**L <= ORACLE_INTEGERS."""
    base = draw(st.integers(min_value=2, max_value=10))
    m = draw(st.integers(min_value=1, max_value=min(3, base)))
    digits = draw(
        st.lists(st.integers(min_value=0, max_value=base - 1), min_size=m, max_size=m,
                 unique=True)
    )
    counts = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=m, max_size=m))
    top = max(L for L in range(1, 18) if base ** L <= ORACLE_INTEGERS)
    digit_limit = draw(st.integers(min_value=1, max_value=top))
    return ConditionSet.of(digits, counts, base=base), digit_limit


@given(oracle_cases(), st.sampled_from((15, 20, 30)))
@settings(max_examples=25, deadline=None)
def test_partial_sums_match_the_oracle(case, decimals):
    conditions, digit_limit = case
    result = partial_sum(conditions, digit_limit, decimals)
    limit = conditions.base ** digit_limit
    exact = brute_force_fraction(conditions, limit)
    assert_within_half_unit(result.requested_sum, exact, decimals)
    at_most = brute_force_fraction(conditions, limit, mode="at-most")
    assert_within_half_unit(result.at_most_sum, at_most, decimals)
    if conditions.num_conditions > 1:
        assert_cells_match_oracle(result, conditions, digit_limit)


@given(
    st.sampled_from((2, 3)).flatmap(lambda base: st.tuples(
        st.permutations(range(base)),
        st.lists(st.integers(min_value=0, max_value=3), min_size=base, max_size=base),
    )),
    st.sampled_from((15, 20, 30)),
)
@example(([2, 0, 1], [3, 3, 3]), 30)
@example(([1, 2, 0], [3, 2, 3]), 15)
@settings(max_examples=15, deadline=None)
def test_finite_sums_match_the_oracle(case, decimals):
    # with at most 3 conditions, a finite series has base 2 or 3 and every
    # digit constrained; its longest denominators have sum(counts) digits.
    # Only base-3 sets with sum(counts) > 7 step past their 7-digit seed,
    # so two of them always run.
    digits, counts = case
    conditions = ConditionSet.of(digits, counts, base=len(digits))
    result = irwin_sum(conditions, decimals)
    limit = conditions.base ** conditions.finite_digit_limit()
    exact = brute_force_fraction(conditions, limit)
    assert_within_half_unit(result.requested_sum, exact, decimals)
    at_most = brute_force_fraction(conditions, limit, mode="at-most")
    assert_within_half_unit(result.at_most_sum, at_most, decimals)
    assert_cells_match_oracle(result, conditions, conditions.finite_digit_limit())


@given(condition_sets())
@settings(max_examples=60, deadline=None)
def test_index_bijection_is_exhaustive(conditions):
    cells = conditions.cell_count
    assert cells <= 10 ** 4
    seen = set()
    for slot in range(cells):
        vector = occurrence_vector(slot, conditions)
        assert occurrence_index(vector, conditions) == slot
        seen.add(vector)
    assert len(seen) == cells


@given(condition_sets(), st.integers(min_value=0, max_value=10))
@settings(max_examples=60, deadline=None)
def test_digit_power_sum_matches_enumeration(conditions, n):
    constrained = set(conditions.digits)
    want = 0
    for d in range(conditions.base):
        if d in constrained:
            continue
        want += 1 if (d == 0 and n == 0) else d ** n
    assert digit_power_sum(conditions.base, n, conditions) == want


@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=20),
)
@settings(max_examples=120, deadline=None)
def test_expansion_coefficient_recurrence(base, power, n):
    a_n = expansion_coefficient(base, power, n)
    a_next = expansion_coefficient(base, power, n + 1)
    assert a_n == (-1) ** n * Fraction(math.comb(power + n - 1, n), base ** (power + n))
    assert abs(a_next / a_n) == Fraction(power + n, (n + 1) * base)
    if n + 1 >= Fraction(power, base - 1):
        assert abs(a_next) < abs(a_n)


@given(st.integers(), st.integers(min_value=1, max_value=10 ** 9))
@settings(max_examples=200)
def test_div_nearest_is_closest(a, b):
    q = div_nearest(a, b)
    assert abs(Fraction(a, b) - q) <= Fraction(1, 2)


@given(st.integers(), st.integers(min_value=1, max_value=10 ** 9))
@settings(max_examples=200)
def test_div_toward_zero_shrinks(a, b):
    q = div_toward_zero(a, b)
    assert abs(q) <= abs(Fraction(a, b))
    assert abs(Fraction(a, b) - q) < 1


@given(
    st.integers(min_value=0, max_value=10 ** 12),
    st.integers(min_value=0, max_value=12),
)
@settings(max_examples=200)
def test_parse_exact_decimal_round_trip(mantissa, frac_digits):
    if frac_digits:
        text = f"{mantissa // 10 ** frac_digits}.{mantissa % 10 ** frac_digits:0{frac_digits}d}"
        want_decimals = frac_digits
    else:
        text = str(mantissa)
        want_decimals = None
    value, decimals = parse_exact_decimal(text)
    assert value == Fraction(mantissa, 10 ** frac_digits)
    assert decimals == want_decimals


@given(st.decimals(allow_nan=False, allow_infinity=False, places=20))
@settings(max_examples=200)
def test_grouped_format_blocks_of_five(value):
    text = format_grouped(value)
    plain = format_plain(value)
    assert text.replace(" ", "") == plain
    if "." in text:
        blocks = text.split(".")[1].split(" ")
        assert all(len(b) == 5 for b in blocks[:-1])
        assert 1 <= len(blocks[-1]) <= 5
        assert Decimal(text.replace(" ", "")) == value


def test_fixed_to_decimal_half_even():
    assert fixed_to_decimal(25, 3, 2) == Decimal("0.02")
    assert fixed_to_decimal(35, 3, 2) == Decimal("0.04")
    assert fixed_to_decimal(251, 4, 2) == Decimal("0.03")
    assert fixed_to_decimal(-25, 3, 2) == Decimal("-0.02")
    # `==` cannot see the exponent (Decimal("0E-15") == 0); compare tuples with
    # an exact quantize in a context wide enough for every input
    for mantissa, scale, decimals in [
        (25, 3, 2), (35, 3, 2), (-25, 3, 2), (0, 23, 15), (0, 3, 0), (-6, 3, 2),
        (1500, 3, 0), (2500, 3, 0), (-2500, 3, 0), (10 ** 60 + 5, 30, 29),
        (-(7 * 10 ** 1010) - 5, 1012, 1000), (123456789, 0, 0),
    ]:
        with localcontext() as ctx:
            ctx.prec = 2100
            want = Decimal(mantissa).scaleb(-scale).quantize(
                Decimal(1).scaleb(-decimals), rounding=ROUND_HALF_EVEN
            )
        got = fixed_to_decimal(mantissa, scale, decimals)
        assert got.as_tuple() == want.as_tuple(), (mantissa, scale, decimals)
    # the rounded mantissa is an int, which has no negative zero
    assert fixed_to_decimal(-1, 3, 2).as_tuple() == Decimal("0.00").as_tuple()


@given(
    st.lists(st.integers(min_value=-(10 ** 90), max_value=10 ** 90), max_size=6),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=20),
)
@example([0, 1, -1], 24, 0)
@example([0], 0, 0)
@settings(max_examples=200)
def test_quantizing_matches_the_text_path(mantissas, decimals, spare):
    """Each value is the rounded mantissa read as text with exponent
    -decimals, digit for digit, alone or in a sequence."""
    scale = decimals + spare
    unit = 10 ** (scale - decimals)
    got = fixed_to_decimals(mantissas, scale, decimals)
    assert isinstance(got, tuple) and len(got) == len(mantissas)
    for mantissa, value in zip(mantissas, got):
        want = Decimal(f"{div_nearest(mantissa, unit)}E-{decimals}")
        for form in (value, fixed_to_decimal(mantissa, scale, decimals)):
            assert str(form) == str(want)
            assert form.as_tuple() == want.as_tuple()


@given(
    st.integers(min_value=-(10 ** 40), max_value=10 ** 40),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=1, max_value=20),
)
def test_quantizing_ties_go_to_even(q, decimals, spare):
    unit = 10 ** spare
    tie = q * unit + unit // 2
    even = q + (q & 1)
    pair = fixed_to_decimals([tie, -tie], decimals + spare, decimals)
    assert [v.as_tuple() for v in pair] == [
        Decimal(f"{even}E-{decimals}").as_tuple(),
        Decimal(f"{-even}E-{decimals}").as_tuple(),
    ]
    assert fixed_to_decimal(tie, decimals + spare, decimals) == pair[0]


def test_quantizing_cannot_widen_the_scale():
    with pytest.raises(ValueError, match="cannot widen"):
        fixed_to_decimal(5, 3, 4)
    with pytest.raises(ValueError, match="cannot widen"):
        fixed_to_decimals([5, 6], 3, 4)


def test_quantizing_past_the_int_text_limit():
    """Python refuses to turn an int of more than 4300 digits into text."""
    value = fixed_to_decimal(3 * 10 ** 4400 + 7, 4408, 4400)
    assert value.as_tuple() == (0, (3,) + (0,) * 4392, -4400)
    assert value == Decimal("3E-8")
    (negative,) = fixed_to_decimals([-(3 * 10 ** 4400) - 7], 4408, 4400)
    assert negative.as_tuple() == (1, (3,) + (0,) * 4392, -4400)
