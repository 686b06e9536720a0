"""Recurrence step: expansion coefficients, table advancement over the cells a
digit length can reach, the walk dropping powers whose rows have become all
zero, and the row kernel skipping only terms that read exact zeros."""

from __future__ import annotations

import math
from array import array
from dataclasses import replace
from fractions import Fraction
from itertools import repeat

import pytest

import irwinsums.recurrence as recurrence
from irwinsums.fixedpoint import div_nearest, div_toward_zero
from irwinsums.model import (
    ConditionSet,
    occurrence_index,
    occurrence_vector,
)
from irwinsums.oracle import block_cell_sums
from irwinsums.powersums import PowerSumTable, digit_power_sum, direct_sum
from irwinsums.recurrence import advance, expansion_terms, solve_tail
from irwinsums.summation import build_plan, partial_sum
from conftest import expansion_coefficient, full_rows, layer, stored


class TestExpansionCoefficient:
    def test_values(self):
        assert expansion_coefficient(10, 1, 0) == Fraction(1, 10)
        assert expansion_coefficient(10, 1, 1) == Fraction(-1, 100)
        assert expansion_coefficient(10, 3, 2) == Fraction(math.comb(4, 2), 10 ** 5)
        assert expansion_coefficient(2, 2, 3) == Fraction(-math.comb(4, 3), 2 ** 5)

    def test_ratio(self):
        for base in (2, 10):
            for j in range(1, 8):
                for n in range(0, 12):
                    ratio = expansion_coefficient(base, j, n + 1) / expansion_coefficient(
                        base, j, n
                    )
                    assert abs(ratio) == Fraction(j + n, (n + 1) * base)

    def test_geometric_decay_past_crossover(self):
        # |a(j, n+1)| < |a(j, n)| once n + 1 >= j / (base - 1)
        for base in (2, 3, 10):
            for j in range(1, 10):
                for n in range(0, 15):
                    if n + 1 >= Fraction(j, base - 1):
                        assert abs(expansion_coefficient(base, j, n + 1)) < abs(
                            expansion_coefficient(base, j, n)
                        )

    def test_integer_terms_match_coefficients(self):
        # the shared integer terms are the coefficients over base**j_active,
        # weighted by the unconstrained digits' power sums and by d**n; a
        # digit whose count is 0 is never read and gets exactly 0
        for digits, counts, base, j_active in [
            ([9, 3], [2, 1], 10, 7), ([0], [1], 2, 7), ([2], [0], 3, 7),
            ([9, 3], [2, 0], 10, 7), ([9, 3], [2, 1], 10, 60),
            # deep rows, base 2, ten conditions, and a constrained 0 beside a
            # count-0 digit: each row is the row above times an exact factor
            ([9], [1], 10, 250), ([1], [1], 2, 120),
            (list(range(10)), [1] * 10, 10, 25), ([0, 5], [3, 0], 10, 40),
        ]:
            c = ConditionSet.of(digits, counts, base=base)
            terms = list(expansion_terms(c, j_active))
            assert [j for j, _ in terms] == list(range(j_active, 0, -1))
            for j, coeffs in terms:
                assert len(coeffs) == j_active - j + 1
                for n, (k0, kcs) in enumerate(coeffs):
                    a = expansion_coefficient(base, j, n) * base ** j_active
                    assert k0 == a * digit_power_sum(base, n, c)
                    assert kcs == tuple(
                        a * d ** n if count else 0 for d, count in zip(digits, counts)
                    )


def seeded_plan(conditions, seed_digits, decimals=15):
    """A plan whose truncation order suits tables seeded at ``seed_digits``
    (the engine seeds at direct_sum_digits; tests may seed shallower, which
    needs more powers for the same tail bound)."""
    base_plan = build_plan(conditions, decimals)
    from irwinsums.powersums import estimate_max_power

    return replace(
        base_plan,
        max_power=estimate_max_power(
            conditions.base, base_plan.working_decimals, seed_digits
        ),
    )


def advance_from_direct(conditions, seed_digits, target_digits, decimals=15):
    plan = seeded_plan(conditions, seed_digits, decimals)
    table = direct_sum(conditions, seed_digits, plan.max_power, plan)
    results = {}
    for digit_length in range(seed_digits + 1, target_digits + 1):
        table, _ = advance(table, conditions, plan.max_power)
        results[digit_length] = table
    return plan, results


class TestAdvance:
    def test_no_nine_four_digits(self):
        c = ConditionSet.of([9], [0])
        plan, tables = advance_from_direct(c, 3, 4)
        want = block_cell_sums(c, 4, decimals=plan.working_decimals)[0]
        got = Fraction(tables[4].rows[0][0], plan.scale)
        assert abs(got - want) < Fraction(1, 10 ** (plan.working_decimals - 2))

    def test_one_nine_four_digits(self):
        c = ConditionSet.of([9], [1])
        plan, tables = advance_from_direct(c, 3, 4)
        want = block_cell_sums(c, 4, decimals=plan.working_decimals)[1]
        got = Fraction(tables[4].rows[0][1], plan.scale)
        assert abs(got - want) < Fraction(1, 10 ** (plan.working_decimals - 2))

    def test_zero_tables_propagate(self):
        c = ConditionSet.of([9, 3], [1, 1])
        plan = build_plan(c, 15)
        empty = PowerSumTable(3, [[0] * c.cell_count for _ in range(4)])
        table, live = advance(empty, c, 4)
        assert all(v == 0 for row in table.rows for v in row)
        assert live == 0

    def test_finite_table_must_hold_its_layer(self):
        # rows over every slot would be read as the layer, position by
        # position, and step to wrong integers
        c = ConditionSet.of(list(range(10)), [1] * 10)
        full = PowerSumTable(3, [[1] * c.cell_count for _ in range(4)])
        with pytest.raises(ValueError, match="120-cell layer"):
            advance(full, c, 4)

    @pytest.mark.parametrize(
        "digits,counts,base",
        [
            ([9], [0], 10),
            ([9], [1], 10),
            ([9], [2], 10),
            ([9, 3], [2, 1], 10),
            ([0], [1], 10),
            ([0], [0], 2),
            ([0], [1], 2),
            ([1], [1], 2),
        ],
    )
    def test_seeded_recurrence_matches_enumeration(self, digits, counts, base):
        # seed with an exact 4-digit table, recur onward, compare every j=1
        # cell against brute-force enumeration of each block (base-10 blocks
        # past 5 digits are covered by the acceptance suite)
        c = ConditionSet.of(digits, counts, base=base)
        last = 7 if base == 2 else 5
        plan, tables = advance_from_direct(c, 4, last)
        tolerance = Fraction(1, 10 ** (plan.working_decimals - 2))
        for digit_length in range(5, last + 1):
            cells = block_cell_sums(c, digit_length, decimals=plan.working_decimals)
            for slot, want in enumerate(cells):
                got = Fraction(tables[digit_length].rows[0][slot], plan.scale)
                assert abs(got - want) < tolerance

    def test_cells_stay_nonnegative(self):
        c = ConditionSet.of([9, 3], [2, 1])
        plan, tables = advance_from_direct(c, 3, 8)
        floor = -Fraction(1, 10 ** plan.working_decimals)
        for table in tables.values():
            for v in table.rows[0]:
                assert Fraction(v, plan.scale) >= floor

    def test_max_term_reflects_term_sizes(self):
        # the power-1 row holds the largest cell and row peaks decrease with power
        c = ConditionSet.of([9], [0])
        plan = build_plan(c, 15)
        table = direct_sum(c, 3, plan.max_power, plan)
        table, _ = advance(table, c, plan.max_power)
        peaks = [max(map(abs, row)) for row in table.rows]
        assert max(peaks) == peaks[0] > 0
        assert all(peaks[j] >= peaks[j + 1] for j in range(len(peaks) - 1))

    @pytest.mark.parametrize(
        "digits,counts,last",
        [([9], [0], 20), ([9, 3], [2, 1], 20), (list(range(10)), [1] * 10, 11)],
    )
    def test_live_is_the_top_nonzero_row(self, digits, counts, last):
        # steps on past the lengths where the top rows vanish; all ten digits
        # x1 end at length 10, so their table is all 0 at length 11
        c = ConditionSet.of(digits, counts)
        plan = build_plan(c, 15)
        table = direct_sum(c, 3, plan.max_power, plan)
        lives = []
        for _ in range(4, last + 1):
            table, live = advance(table, c, plan.max_power)
            nonzero = [j for j, row in enumerate(table.rows, 1) if any(row)]
            assert live == max(nonzero, default=0)
            lives.append(live)
        assert lives[-1] < plan.max_power

    @pytest.mark.parametrize(
        "digits,counts,base,zero_at",
        [([9], [0], 10, 495), ([0], [3], 10, 596), ([9, 3], [2, 1], 10, 281)],
    )
    def test_every_walk_decays_to_a_zero_table(self, digits, counts, base, zero_at):
        # the threshold walk's only stop past a crossing: the top nonzero row
        # never rises, and the table reaches exact zeros, also from a table
        # whose power-1 row alone holds 1.0 in every cell
        c = ConditionSet.of(digits, counts, base=base)
        plan = build_plan(c, 15)
        seeded = direct_sum(c, plan.direct_sum_digits, plan.max_power, plan)
        power_one = PowerSumTable(
            plan.direct_sum_digits,
            [[plan.scale] * c.cell_count]
            + [[0] * c.cell_count for _ in range(plan.max_power - 1)],
        )
        ends = []
        for table, top in ((seeded, plan.max_power), (power_one, 1)):
            while any(map(any, table.rows)) and table.digit_length < 10 * zero_at:
                table, live = advance(table, c, plan.max_power)
                assert live <= top
                top = live
            assert top == 0
            assert not any(map(any, table.rows))
            ends.append(table.digit_length)
        assert ends[0] == zero_at


def step_tables(conditions, last, powers=4):
    """Tables for digit lengths 1..last: enumerate length 1, then advance."""
    plan = build_plan(conditions, 15)
    tables = [direct_sum(conditions, 1, powers, plan)]
    while len(tables) < last:
        tables.append(advance(tables[-1], conditions, powers)[0])
    return tables


class TestActiveSet:
    @pytest.mark.parametrize(
        "digits,counts,base,last",
        [
            (list(range(10)), [1] * 10, 10, 10),
            ([0, 1, 2], [2, 2, 2], 3, 8),
            ([0], [10], 10, 30),
            ([9, 3], [2, 1], 10, 12),
            ([1, 2, 3, 4, 5], [1, 2, 3, 4, 5], 10, 17),
            ([1], [3], 2, 12),
        ],
    )
    def test_unreached_slots_are_exact_zeros(
        self, monkeypatch, digits, counts, base, last
    ):
        # stepping only the slots with |k| <= i + 1 (|k| = i + 1 for a finite
        # series) gives the same integers as stepping every slot
        c = ConditionSet.of(digits, counts, base=base)
        reached = [full_rows(t, c) for t in step_tables(c, last)]
        # every slot in grade 0: each kernel step's reach is the whole table
        cells = c.cell_count
        every_slot = (array("l", range(cells)), (0,) + (cells,) * (sum(counts) + 1))
        monkeypatch.setattr(recurrence, "_grades", lambda _: every_slot)
        monkeypatch.setattr(ConditionSet, "is_finite_series", lambda self: False)
        every = step_tables(c, last)
        assert reached == [t.rows for t in every]
        assert [t.digit_length for t in every] == list(range(1, last + 1))


class TestSlotLayout:
    def test_patterns_are_shared_per_support(self):
        # one pattern object per set of nonzero counts: at most 2**10 for all
        # ten digits, not one per each of the 3**10 cells
        c = ConditionSet.of(list(range(10)), [2] * 10)
        patterns = recurrence._slot_layout(c)
        assert len(patterns) == 3 ** 10
        assert len({id(p) for p in patterns}) <= 2 ** 10

    @pytest.mark.parametrize(
        "digits,counts,base",
        [
            ([0, 1, 2], [2, 2, 2], 3),
            ([9, 3], [2, 1], 10),
            ([9, 0, 3], [2, 0, 1], 10),
            ([0, 1], [3, 2], 2),
            (list(range(10)), [1] * 10, 10),
        ],
    )
    def test_stride_reaches_the_decremented_vector(self, digits, counts, base):
        c = ConditionSet.of(digits, counts, base=base)
        patterns = recurrence._slot_layout(c)
        assert len(patterns) == c.cell_count
        for slot, pattern in enumerate(patterns):
            vector = occurrence_vector(slot, c)
            assert [cond for cond, _ in pattern] == [
                cond for cond, k in enumerate(vector) if k
            ]
            for cond, stride in pattern:
                lower = list(vector)
                lower[cond] -= 1
                assert slot - stride == occurrence_index(lower, c)

    @pytest.mark.parametrize(
        "digits,counts,base",
        [
            ([0, 1, 2], [2, 2, 2], 3),
            ([9, 0, 3], [2, 0, 1], 10),
            ([0, 1], [3, 2], 2),
            (list(range(10)), [1, 2, 0, 1, 2, 0, 1, 2, 0, 1], 10),
        ],
    )
    def test_grades_place_every_slot_once_in_its_grade(self, digits, counts, base):
        c = ConditionSet.of(digits, counts, base=base)
        order, starts = recurrence._grades(c)
        assert sorted(order) == list(range(c.cell_count))
        assert len(starts) == sum(counts) + 2
        assert starts[0] == 0 and starts[-1] == c.cell_count
        assert list(starts) == sorted(starts)
        for w in range(sum(counts) + 1):
            # ascending: the order of a finite series' rows at length w
            assert list(order[starts[w] : starts[w + 1]]) == layer(c, w)


def full_term_step(table, conditions, j_active):
    """``advance`` with every row and every expansion term of every slot
    evaluated: the reference for the terms it skips.  Tables go in and come
    out as the engine stores them; a finite series' rows are its layer."""
    sources = full_rows(table, conditions)
    neighbors = recurrence._slot_layout(conditions)
    length = table.digit_length + 1
    low = length if conditions.is_finite_series() else 0
    cells = range(conditions.cell_count)
    grades = [sum(occurrence_vector(slot, conditions)) for slot in cells]
    targets = [slot for slot in cells if low <= grades[slot] <= length]
    rows = [[0] * len(cells) for _ in range(j_active)]
    for j, coeffs in expansion_terms(conditions, j_active):
        recurrence._fill_row(
            rows[j - 1], rows[j - 1], sources[j - 1 :], coeffs, neighbors,
            targets, repeat(range(len(coeffs))), conditions.base ** j_active,
            div_toward_zero,
        )
    live = max((j for j, row in enumerate(rows, 1) if any(row)), default=0)
    return stored(PowerSumTable(length, rows), conditions), live


def carried_rows(table, reference):
    """The rows a step of ``table`` carries, read from the ``reference`` step
    of it: powers 1 through the top nonzero power of ``table``, at least
    power 1.  Every later row of the reference reads 0."""
    top = max((j for j, row in enumerate(table.rows, 1) if any(row)), default=1)
    assert not any(map(any, reference.rows[top:]))
    return reference.rows[:top]


def full_term_solve(seed, conditions):
    """``solve_tail`` with every expansion term of every slot evaluated."""
    j_max = len(seed.rows)
    neighbors = recurrence._slot_layout(conditions)
    scaled = conditions.base ** j_max
    z = [[0] * conditions.cell_count for _ in range(j_max)]
    for j, coeffs in expansion_terms(conditions, j_max):
        recurrence._fill_row(
            z[j - 1], [scaled * v for v in seed.rows[j - 1]], z[j - 1 :], coeffs,
            neighbors, range(conditions.cell_count), repeat(range(len(coeffs))),
            scaled - coeffs[0][0], div_nearest,
        )
    return z[0]


class TestSkippedTermsAreExactZeros:
    @pytest.mark.parametrize(
        "digits,counts,base,decimals",
        [
            ([0], [100], 10, 120),
            ([0], [43], 10, 20),
            ([1, 2, 3, 4, 5], [1, 2, 3, 4, 5], 10, 22),
            (list(range(1, 10)), [1] * 9, 10, 20),
            ([9], [1], 10, 200),
            ([1], [1], 2, 60),
            ([0], [2], 8, 100),
        ],
    )
    def test_solve_equals_full_term_solve(self, digits, counts, base, decimals):
        # terms past a cell's height read only exact zeros, so skipping them
        # changes no integer of the solve
        c = ConditionSet.of(digits, counts, base=base)
        plan = build_plan(c, decimals)
        seed = direct_sum(c, plan.direct_sum_digits, plan.max_power, plan)
        assert solve_tail(seed, c) == full_term_solve(seed, c)

    @pytest.mark.parametrize(
        "digits,counts,base",
        [
            ([9], [1], 10),
            ([9, 3], [2, 1], 10),
            ([0], [100], 10),
            ([1], [1], 2),
            ([9, 0], [0, 2], 10),  # a count-0 digit beside a counted one
            ([9, 0, 5], [2, 1, 3], 10),
            ([0, 2], [2, 3], 3),
            # finite series, stepped by Taylor shifts: digits out of order,
            # and a count-0 digit among counted ones
            (list(range(10)), [1] * 10, 10),
            ([1, 0], [4, 3], 2),
            ([2, 0, 1], [2, 2, 2], 3),
            (list(range(8)), [3, 1, 0, 2, 1, 1, 2, 3], 8),
        ],
    )
    def test_step_equals_full_term_step(self, digits, counts, base):
        # a table whose rows above `top` are 0: the step skips those rows and
        # every term reading them, and carries the reference's rows through
        # its input's top power, with the same `live`
        c = ConditionSet.of(digits, counts, base=base)
        plan = build_plan(c, 15)
        seeded = direct_sum(c, 3, plan.max_power, plan)
        zero = [0] * len(seeded.rows[0])
        for top in (0, 1, 2, plan.max_power // 2, plan.max_power):
            table = want = PowerSumTable(
                3, seeded.rows[:top] + [zero] * (plan.max_power - top)
            )
            for _ in range(3):
                got, live = advance(table, c, plan.max_power)
                want, want_live = full_term_step(want, c, plan.max_power)
                assert got.rows == carried_rows(table, want)
                assert live == want_live <= top
                assert got.digit_length == want.digit_length
                table = got

    @pytest.mark.parametrize(
        "digits,counts,base,steps",
        [
            ([9, 0], [3, 1], 10, ["_power1_step"]),
            ([0], [2], 3, ["_power1_step"]),
            ([0, 1], [2, 1], 2, []),
        ],
    )
    def test_power1_tables_of_infinite_series_skip_the_kernel(
        self, digits, counts, base, steps, monkeypatch
    ):
        # rows above power 1 are 0: an infinite series steps by the whole-row
        # stencil alone, a finite one by Taylor shifts, which call neither
        c = ConditionSet.of(digits, counts, base=base)
        plan = build_plan(c, 15)
        seeded = direct_sum(c, 2, plan.max_power, plan)
        zero = [0] * len(seeded.rows[0])
        table = PowerSumTable(2, seeded.rows[:1] + [zero] * (plan.max_power - 1))
        want, want_live = full_term_step(table, c, plan.max_power)
        calls = []
        for name in ("_fill_row", "_power1_step"):
            step = getattr(recurrence, name)
            monkeypatch.setattr(
                recurrence, name,
                lambda *a, name=name, step=step: calls.append(name) or step(*a),
            )
        got, live = advance(table, c, plan.max_power)
        assert (got.rows, got.digit_length, live) == (
            carried_rows(table, want), 3, want_live
        )
        assert calls == steps


def walk_totals(conditions, digit_limit, plan):
    """Per-level totals of a walk that keeps every power at every length and
    evaluates every expansion term."""
    target = conditions.cell_count - 1
    total = 0
    totals = []
    for i in range(1, digit_limit + 1):
        if i <= plan.direct_sum_digits:
            seeds = i == plan.direct_sum_digits
            table = direct_sum(conditions, i, plan.max_power if seeds else 1, plan)
        else:
            table, _ = full_term_step(table, conditions, plan.max_power)
        total += full_rows(table, conditions)[0][target]
        totals.append((i, total))
    return totals


class TestShrinkActivePowers:
    @pytest.mark.parametrize(
        "digits,counts,base,digit_limit",
        [
            ([9], [1], 10, 200),
            ([0], [10], 10, 210),
            ([0], [100], 10, 60),
            ([9, 3], [2, 1], 10, 60),
            ([0], [1], 2, 60),
            (list(range(10)), [1] * 10, 10, 10),
            ([2], [0], 3, 80),
            (list(range(1, 10)), [1] * 9, 10, 20),
            ([9], [0], 10, 500),  # past the walk's end, its all-zero table at 495
            ([9, 0], [3, 1], 10, 300),
        ],
    )
    def test_dropping_zero_rows_is_exact(self, digits, counts, base, digit_limit):
        # an all-zero row reads only higher rows that are 0 too, so the
        # walk's totals equal, as integers, those of one that never drops
        c = ConditionSet.of(digits, counts, base=base)
        plan = build_plan(c, 15)
        levels = partial_sum(c, digit_limit, 15).levels
        want = walk_totals(c, digit_limit, plan)
        walked = len(levels)
        assert [(i, total) for i, (total, _) in enumerate(levels, 1)] == want[:walked]
        # no total moves after the walk's end
        assert [total for _, total in want[walked:]] == [levels[-1][0]] * (
            digit_limit - walked
        )
        assert min(j for _, j in levels) < plan.max_power

    def test_monotone_over_run(self):
        # active powers never grow over successive digit lengths
        c = ConditionSet.of([9], [0])
        history = [j_active for _, j_active in partial_sum(c, 43, 15).levels]
        assert len(history) == 43
        assert history == sorted(history, reverse=True)
        assert history[-1] < build_plan(c, 15).max_power  # it does shrink eventually
