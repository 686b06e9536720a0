"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  The two long-documented extras (the 434-zeros construction and the
deep-precision hundred-zeros total) carry the ``slow`` marker.
"""

from __future__ import annotations

import decimal
import time
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction

import pytest

import irwinsums.summation as summation
from irwinsums.model import ConditionSet, InsufficientAccuracy, PrecisionPlan
from irwinsums.oracle import (
    block_cell_sums,
    brute_force_sum,
    closed_form_base2,
    count_one_digit_numbers,
)
from irwinsums.powersums import digit_power_sum, direct_sum, estimate_max_power
from irwinsums.recurrence import advance
from irwinsums.summation import (
    Termination,
    build_plan,
    irwin_sum,
    partial_sum,
    threshold_search,
)
from conftest import assert_ulp


@contextmanager
def criterion(name: str, budget_seconds: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance {name}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"acceptance {name}: PASS ({elapsed:.1f}s, budget {budget_seconds:.0f}s)")
    assert elapsed < budget_seconds


def test_01_kempner_no_nine():
    with criterion("1 kempner no-9", 5):
        r = irwin_sum(ConditionSet.of([9], [0]), 20)
        assert_ulp(r.requested_sum, "22.92067661926415034816")


def test_02_irwin_one_nine():
    with criterion("2 irwin one-9", 10):
        r = irwin_sum(ConditionSet.of([9], [1]), 20)
        assert_ulp(r.requested_sum, "23.04428708074784831968")


TABLE_1 = {
    0: ("23.10344790942054161603", "23.02673534156912696109", "23.02586068273551997642"),
    1: ("16.17696952812344426658", "23.16401859427283204085", "23.02727628635600571224"),
    2: ("19.25735653280807222453", "23.08826066275634239334", "23.02648597376847065598"),
    3: ("20.56987795096123037108", "23.06741088193023010242", "23.02627319066793505960"),
    4: ("21.32746579959003668664", "23.05799241338182439576", "23.02617788539260017317"),
    5: ("21.83460081229691816341", "23.05272889453011749904", "23.02612487531564760861"),
    6: ("22.20559815955609188417", "23.04940997329550055704", "23.02609154986488712587"),
    7: ("22.49347531170594539818", "23.04714619019864185083", "23.02606886491441507436"),
    8: ("22.72636540267937060283", "23.04551390798215553342", "23.02605253084569367648"),
    9: ("22.92067661926415034816", "23.04428708074784831968", "23.02604026596124378845"),
}


def test_03_table_one_grid():
    with criterion("3 table-1 grid", 300):
        for digit, row in TABLE_1.items():
            result = irwin_sum(ConditionSet.of([digit], [2]), 20)
            for k in range(3):
                assert_ulp(result.per_count_sums[k], row[k])


def test_04_mixed_conditions():
    with criterion("4 mixed conditions", 600):
        c = ConditionSet.of([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
        r = irwin_sum(c, 22)
        assert_ulp(
            r.at_most_sum.quantize(Decimal("1e-20")), "27.56008294889636705754"
        )
        assert_ulp(r.requested_sum, "0.0046539022540563815564")


def test_05_finite_series():
    with criterion("5 finite series", 600):
        once = irwin_sum(ConditionSet.of(list(range(10)), [1] * 10), 23)
        assert_ulp(once.requested_sum, "0.00082589034791925293861")
        assert once.termination is Termination.FINITE_SERIES_EXHAUSTED
        assert once.digits_processed == 10

        twice = irwin_sum(ConditionSet.of(list(range(10)), [2] * 10), 24)
        assert twice.termination is Termination.FINITE_SERIES_EXHAUSTED
        assert twice.digits_processed == 20
        assert_ulp(
            twice.at_most_sum.quantize(Decimal("1e-20")), "20.58988677491808564961"
        )
        assert_ulp(twice.requested_sum, "0.000054406219429099091465")


def test_06_base2_closed_forms():
    with criterion("6 base-2 closed forms", 30):
        no_zero = irwin_sum(ConditionSet.of([0], [0], base=2), 10)
        assert_ulp(no_zero.requested_sum, "1.6066951524")
        assert_ulp(closed_form_base2("no-zero", 10), "1.6066951524")
        assert abs(
            Decimal(str(no_zero.requested_sum)) - closed_form_base2("no-zero", 10)
        ) <= Decimal("1e-10")

        single_one = irwin_sum(ConditionSet.of([1], [1], base=2), 15)
        assert single_one.requested_sum == Decimal("2.000000000000000")

        single_zero = irwin_sum(ConditionSet.of([0], [1], base=2), 25)
        oracle_value = closed_form_base2("single-zero", 25)
        assert_ulp(single_zero.requested_sum, "1.4625907350443646995461454")
        assert_ulp(oracle_value, "1.4625907350443646995461454")
        assert abs(Decimal(str(single_zero.requested_sum)) - oracle_value) <= Decimal(
            "2e-25"
        )


ROSTER = [
    ([9], [0], 10),
    ([9], [1], 10),
    ([9], [2], 10),
    ([9, 3], [2, 1], 10),
    ([0], [1], 10),
    ([0], [1], 2),
]


def seeded_plan(conditions, seed_digits, decimals):
    plan = build_plan(conditions, decimals)
    return PrecisionPlan(
        requested_decimals=plan.requested_decimals,
        working_decimals=plan.working_decimals,
        max_power=estimate_max_power(
            conditions.base, plan.working_decimals, seed_digits
        ),
        direct_sum_digits=plan.direct_sum_digits,
    )


def test_07_oracle_equivalence():
    with criterion("7 oracle equivalence", 900):
        tolerance = Decimal("1e-12")
        for digits, counts, base in ROSTER:
            c = ConditionSet.of(digits, counts, base=base)
            power = 23 if base == 2 else 7
            limit = base ** power
            brute = brute_force_sum(c, limit, mode="exact", decimals=25)
            engine = partial_sum(c, power, 20).requested_sum
            assert abs(Decimal(str(brute)) - engine) < tolerance, (digits, counts, base)

            # seed exact 4-digit tables, recur to 7 digits, compare each block
            plan = seeded_plan(c, 4, 20)
            table = direct_sum(c, 4, plan.max_power, plan)
            for digit_length in (5, 6, 7):
                table, _ = advance(table, c, plan.max_power)
                cells = block_cell_sums(c, digit_length, decimals=plan.working_decimals)
                for slot, want in enumerate(cells):
                    got = Fraction(table.rows[0][slot], plan.scale)
                    assert abs(got - want) < Fraction(1, 10 ** 12), (
                        digits, counts, base, digit_length, slot,
                    )


def test_08_zero_occurrence_cross_check():
    with criterion("8 zero-occurrence cross-check", 300):
        for digit in range(10):
            one = irwin_sum(ConditionSet.of([digit], [1]), 15)
            none = irwin_sum(ConditionSet.of([digit], [0]), 15)
            assert abs(one.per_count_sums[0] - none.requested_sum) <= Decimal("1e-15")


def test_09_threshold_search():
    with criterion("9 threshold search", 600):
        r = threshold_search(ConditionSet.of([9], [1]), "23", 15)
        assert (r.digits_low, r.digits_high) == (80, 81)
        assert_ulp(r.sum_low, "22.995762680948152")
        assert_ulp(r.sum_high, "23.000125707332644")

        r = threshold_search(ConditionSet.of([9, 0], [3, 1]), "2", 16)
        assert (r.digits_low, r.digits_high) == (27, 28)
        assert_ulp(r.sum_low, "1.910422503190251")
        assert_ulp(r.sum_high, "2.0043388417551473")

        with pytest.raises(InsufficientAccuracy):
            threshold_search(ConditionSet.of([9], [1]), "23.044287080747", 15)
        r = threshold_search(
            ConditionSet.of([9], [1]), "23.044287080747", 15, threshold_decimals=25
        )
        assert (r.digits_low, r.digits_high) == (327, 328)


def test_10_partial_sum_landmarks():
    with criterion("10 partial-sum landmarks", 900):
        assert_ulp(
            partial_sum(ConditionSet.of([9], [0]), 30, 15).requested_sum,
            "21.971055078178619",
        )
        zeros = ConditionSet.of([0], [10])
        assert_ulp(partial_sum(zeros, 62, 17).requested_sum, "0.99441822277757923")
        assert_ulp(
            partial_sum(zeros, 63, 17).requested_sum.quantize(Decimal("1e-16")),
            "1.0992951336073236",
        )
        assert_ulp(partial_sum(zeros, 209, 15).requested_sum, "22.917796696018994")
        assert_ulp(partial_sum(zeros, 210, 15).requested_sum, "22.924073628793615")

        one_nine = ConditionSet.of([9], [1])
        below = partial_sum(one_nine, 69, 15).requested_sum
        above = partial_sum(one_nine, 70, 15).requested_sum
        no_nine_total = Decimal("22.92067661926415034816")
        assert below < no_nine_total < above
        assert abs(below - Decimal("22.90872")) <= Decimal("1e-5")
        assert abs(above - Decimal("22.92072")) <= Decimal("1e-5")


def test_11_count_limit_gap():
    with criterion("11 count-limit gap", 600):
        r = irwin_sum(ConditionSet.of([0], [10]), 25)
        s10 = r.per_count_sums[10]
        assert_ulp(s10, "23.0258509299404568401819892")
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            gap = Decimal(str(s10)) - Decimal(10) * Decimal(10).ln()
        assert Decimal("1e-21") <= gap <= Decimal("4e-21")


def test_12_large_sum_construction():
    with criterion("12 large-sum construction", 900):
        r = irwin_sum(ConditionSet.of([0], [43]), 20)
        assert_ulp(r.at_most_sum, "1013.21593216968323658704")

        hundred = ConditionSet.of([0], [100])
        low = partial_sum(hundred, 852, 15).requested_sum
        high = partial_sum(hundred, 853, 15).requested_sum
        assert abs(low - Decimal("0.99153")) <= Decimal("1e-5")
        assert abs(high - Decimal("1.01670")) <= Decimal("1e-5")
        assert low < 1 <= high


@pytest.mark.slow
def test_12b_extra_434_zeros():
    # documented long-running extra: at most 434 zeros passes 10000
    with criterion("12b 434-zeros extra", 900):
        r = irwin_sum(ConditionSet.of([0], [434]), 20)
        assert_ulp(r.at_most_sum, "10016.32364577640186109739")


def test_13_property_suite():
    with criterion("13 property suite", 900):
        # occurrence-index bijection, exhaustive at the size bound
        c = ConditionSet.of([1, 2, 3, 4], [9, 9, 9, 9])
        assert c.cell_count == 10 ** 4
        from irwinsums.model import occurrence_index, occurrence_vector

        for slot in range(c.cell_count):
            assert occurrence_index(occurrence_vector(slot, c), c) == slot

        # digit power sums against direct digit summation, all bases
        for base in range(2, 11):
            conds = ConditionSet.of([base - 1], [1], base=base)
            for n in range(11):
                want = sum(
                    (1 if (d == 0 and n == 0) else d ** n) for d in range(base - 1)
                )
                assert digit_power_sum(base, n, conds) == want

        # truncation soundness: doubling the power order changes nothing
        one_nine = ConditionSet.of([9], [1])
        plan = build_plan(one_nine, 15)
        doubled = PrecisionPlan(
            requested_decimals=plan.requested_decimals,
            working_decimals=plan.working_decimals,
            max_power=2 * plan.max_power,
            direct_sum_digits=plan.direct_sum_digits,
        )
        assert abs(
            summation._compute(one_nine, doubled).requested_sum
            - summation._compute(one_nine, plan).requested_sum
        ) < Decimal("1e-15")

        # per-count partition identity
        r = irwin_sum(ConditionSet.of([9], [2]), 15)
        assert abs(sum(r.per_count_sums) - r.at_most_sum) <= Decimal("3e-15")

        # one-occurrence counting formula versus enumeration
        for length in range(1, 8):
            want = sum(
                1
                for n in range(10 ** (length - 1), 10 ** length)
                if str(n).count("9") == 1
            )
            assert count_one_digit_numbers(9, length) == want

        # sums for k zeros strictly decrease over small k at 20 decimals
        s = irwin_sum(ConditionSet.of([0], [3]), 20).per_count_sums
        assert s[0] > s[1] > s[2] > s[3]


@pytest.mark.slow
def test_extra_hundred_zeros_deep_precision():
    # the hundred-zeros series exceeds 10*ln(10) by about 1.0075e-197;
    # resolving that needs over two hundred working decimals
    with criterion("extra s100 deep precision", 1800):
        r = irwin_sum(ConditionSet.of([0], [100]), 220)
        with decimal.localcontext() as ctx:
            ctx.prec = 260
            gap = Decimal(str(r.requested_sum)) - Decimal(10) * Decimal(10).ln()
        assert_ulp(gap, "1.00745721706770421142E-197", ulps=10)
