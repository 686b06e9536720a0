"""Direct-summation tables, digit power sums, and truncation-order sizing."""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from irwinsums.fixedpoint import div_nearest
from irwinsums.model import (
    ConditionSet,
    PrecisionPlan,
    RangeTooLarge,
    direct_sum_digit_count,
    occurrence_index,
)
from irwinsums.oracle import block_cell_sums
from irwinsums.powersums import digit_power_sum, direct_sum, estimate_max_power
from irwinsums.summation import build_plan
from conftest import full_rows


def one_ulp(plan) -> Fraction:
    return Fraction(1, plan.scale)


def nearest_rows(c: ConditionSet, plan) -> list[list[int]]:
    """The seed block's rows term by term: div_nearest(scale, x**j), to the unit."""
    digits, counts, base = c.digits, c.counts, c.base
    length, powers = plan.direct_sum_digits, plan.max_power
    want = [[0] * c.cell_count for _ in range(powers)]
    for x in range(base ** (length - 1), base ** length):
        found = [0] * len(digits)
        value = x
        while value:
            value, digit = divmod(value, base)
            if digit in digits:
                found[digits.index(digit)] += 1
        if any(k > n for k, n in zip(found, counts)):
            continue
        slot = occurrence_index(found, c)
        for j in range(1, powers + 1):
            want[j - 1][slot] += div_nearest(plan.scale, x ** j)
    return want


class TestDirectSum:
    def test_one_digit_no_nine(self):
        # 1/1 + ... + 1/8 = 761/280
        c = ConditionSet.of([9], [0])
        plan = build_plan(c, 15)
        table = direct_sum(c, 1, 1, plan)
        got = Fraction(table.rows[0][0], plan.scale)
        assert abs(got - Fraction(761, 280)) <= one_ulp(plan)

    def test_one_digit_single_nine(self):
        c = ConditionSet.of([9], [1])
        plan = build_plan(c, 15)
        table = direct_sum(c, 1, 1, plan)
        got = Fraction(table.rows[0][1], plan.scale)
        assert abs(got - Fraction(1, 9)) <= one_ulp(plan)

    def test_enumeration_budget(self):
        c = ConditionSet.of([9], [0])
        plan = build_plan(c, 15)
        with pytest.raises(RangeTooLarge):
            direct_sum(c, 30, 1, plan)

    def test_no_leading_zero(self):
        # two-digit block must not include the nine 1-digit integers
        c = ConditionSet.of([0], [0])
        plan = build_plan(c, 15)
        table = direct_sum(c, 2, 1, plan)
        want = sum(Fraction(1, n) for n in range(11, 100) if "0" not in str(n))
        got = Fraction(table.rows[0][0], plan.scale)
        assert abs(got - want) <= Fraction(100, plan.scale)

    @pytest.mark.parametrize(
        "digits,counts,base",
        [
            ([9], [2], 10),
            ([9, 3], [2, 1], 10),
            ([0], [1], 2),
            # digit 0 at a stride above 1, and skipped over-counts
            ([0, 1, 2], [2, 2, 2], 3),
            ([6, 0], [1, 2], 7),
        ],
    )
    def test_matches_oracle_cells(self, digits, counts, base):
        c = ConditionSet.of(digits, counts, base=base)
        plan = build_plan(c, 15)
        for digit_length in range(1, 4):
            row = full_rows(direct_sum(c, digit_length, 2, plan), c)[0]
            cells = block_cell_sums(c, digit_length, decimals=plan.working_decimals)
            for slot, want in enumerate(cells):
                got = Fraction(row[slot], plan.scale)
                assert abs(got - want) <= Fraction(10, plan.scale)

    def test_cells_nonnegative_and_decreasing_in_power(self):
        c = ConditionSet.of([9], [1])
        plan = build_plan(c, 15)
        table = direct_sum(c, 2, 4, plan)
        for row in table.rows:
            assert all(v >= 0 for v in row)
        for j in range(1, 4):
            for slot in range(c.cell_count):
                assert table.rows[j][slot] <= table.rows[j - 1][slot]

    @pytest.mark.parametrize(
        "digits,counts,base,decimals",
        [
            ([9], [0], 10, 300),
            ([9], [1], 10, 120),
            ([9, 3], [2, 1], 10, 60),
            ([1], [0], 5, 100),
            ([0, 4], [1, 2], 5, 30),
            ([0], [2], 8, 150),
            ([7], [1], 8, 15),
            ([1], [1], 2, 99),
            ([1], [1], 2, 297),
            ([0, 1], [4, 7], 2, 40),
        ],
    )
    def test_rows_equal_nearest_division_by_power(self, digits, counts, base, decimals):
        c = ConditionSet.of(digits, counts, base=base)
        plan = build_plan(c, decimals)
        length, powers = plan.direct_sum_digits, plan.max_power
        table = direct_sum(c, length, powers, plan)
        assert full_rows(table, c) == nearest_rows(c, plan)

    @pytest.mark.parametrize(
        "digits, counts, decimals, x, j, odd",
        [
            ([9], [0], 16, 160, 5, 5 ** 19),
            ([0], [11], 15, 128, 4, 5 ** 27),
        ],
    )
    def test_ties_at_bench_precision(self, digits, counts, decimals, x, j, odd):
        # 2 * scale / x**j is odd, so div_nearest rounds scale / x**j to even
        c = ConditionSet.of(digits, counts)
        plan = build_plan(c, decimals)
        assert 2 * plan.scale == odd * x ** j
        assert plan.direct_sum_digits == len(str(x)) and plan.max_power >= j
        rows = direct_sum(c, plan.direct_sum_digits, plan.max_power, plan).rows
        assert rows == nearest_rows(c, plan)

    def test_exact_tie_rounds_to_even(self):
        # base-2 [1]x[1] at length 10 holds only x = 512; at power 34,
        # 2 * 10**305 / 512**34 = 5**305 exactly, which is odd: a true tie
        c = ConditionSet.of([1], [1], base=2)
        plan = PrecisionPlan(
            requested_decimals=300, working_decimals=305, max_power=40,
            direct_sum_digits=10,
        )
        assert 2 * plan.scale == 5 ** 305 * 512 ** 34
        rows = direct_sum(c, 10, plan.max_power, plan).rows
        assert rows[33][1] == div_nearest(10 ** 305, 512 ** 34)

    def test_block_total_is_at_most_block_sum(self):
        # summed over every occurrence vector, a block equals the brute-force
        # at-most sum over that block
        c = ConditionSet.of([9, 3], [1, 1])
        plan = build_plan(c, 15)
        table = direct_sum(c, 3, 1, plan)
        want = sum(block_cell_sums(c, 3, decimals=plan.working_decimals), Fraction(0))
        got = Fraction(sum(table.rows[0]), plan.scale)
        assert abs(got - want) <= Fraction(10 ** 4, plan.scale)


class TestDigitPowerSum:
    def test_examples(self):
        assert digit_power_sum(10, 0, ConditionSet.of([9], [1])) == 9
        assert digit_power_sum(10, 1, ConditionSet.of([9], [1])) == 36
        assert digit_power_sum(2, 3, ConditionSet.of([0], [1], base=2)) == 1

    def test_matches_direct_digit_summation(self):
        for base in range(2, 11):
            c = ConditionSet.of([0, base - 1], [1, 2], base=base)
            excluded = {0, base - 1}
            for n in range(0, 11):
                want = sum(
                    (1 if (d == 0 and n == 0) else d ** n)
                    for d in range(base)
                    if d not in excluded
                )
                assert digit_power_sum(base, n, c) == want


def smallest_sufficient_power(base: int, decimals: int, ds_digits: int) -> int:
    a = base ** (ds_digits - 1)
    b = base ** ds_digits - 1
    eps = Fraction(1, 10 ** decimals)
    power = 1
    while sum(Fraction(1, n ** power) for n in range(a, b + 1)) >= eps:
        power += 1
    return power


class TestEstimateMaxPower:
    def test_base10_15_decimals(self):
        want = smallest_sufficient_power(10, 15, 3)
        assert estimate_max_power(10, 15, 3) == want + 2

    def test_base2_20_decimals(self):
        want = smallest_sufficient_power(2, 20, 10)
        assert estimate_max_power(2, 20, 10) == want + 2

    def test_monotone_in_decimals(self):
        previous = 0
        for decimals in (5, 10, 15, 20, 30):
            power = estimate_max_power(10, decimals, 3)
            assert power >= previous
            previous = power

    def test_tail_bound_holds(self):
        # the defining property: the tail at the returned order is negligible
        for base, decimals in [(10, 15), (2, 20), (7, 12)]:
            ds = {10: 3, 2: 10, 7: 4}[base]
            power = estimate_max_power(base, decimals, ds)
            a, b = base ** (ds - 1), base ** ds - 1
            tail = sum(Fraction(1, n ** power) for n in range(a, b + 1))
            assert tail < Fraction(1, 10 ** decimals)

    def test_block_past_budget_is_refused_before_searching(self, monkeypatch):
        # 9 * 10**10 seed integers: the search would walk them one by one
        import irwinsums.powersums as powersums

        def no_search(*args):
            raise AssertionError("searched a block past the budget")

        monkeypatch.setattr(powersums, "_tail_below", no_search)
        with pytest.raises(RangeTooLarge):
            powersums.estimate_max_power(10, 15, 11)

    def test_every_plan_stops_at_its_guess_or_one_above(self, monkeypatch):
        # every (base, decimals) build_plan accepts; J fixes the digits of
        # every result, so the list must keep the digest recorded for it
        import irwinsums.powersums as powersums

        calls = []
        tail_below = powersums._tail_below

        def counted(*args):
            calls.append(args)
            return tail_below(*args)

        monkeypatch.setattr(powersums, "_tail_below", counted)
        powers = []
        for base in range(2, 11):
            for decimals in range(5, 1001):
                calls.clear()
                powers.append(
                    powersums.estimate_max_power(
                        base, decimals, direct_sum_digit_count(base)
                    )
                )
                assert len(calls) in (1, 2), (base, decimals)
        digest = hashlib.sha256(repr(powers).encode()).hexdigest()
        assert digest == (
            "fa34482a9eb4f0676cd0743171eccb1ccc7d1c853be0ade8337158629be94f63"
        )
