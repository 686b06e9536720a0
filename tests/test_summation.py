"""Drivers: full sums, at-most aggregation, partial sums, threshold search."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import pytest

import irwinsums.summation as summation
from irwinsums.cli import main
from irwinsums.fixedpoint import fixed_to_decimal
from irwinsums.model import (
    ConditionSet,
    InsufficientAccuracy,
    RangeTooLarge,
    ThresholdAboveTotal,
    occurrence_vector,
)
from irwinsums.summation import (
    Termination,
    at_most_sum,
    build_plan,
    irwin_sum,
    partial_sum,
    threshold_search,
)


class TestIrwinSum:
    def test_kempner_no_nine(self, ulp):
        r = irwin_sum(ConditionSet.of([9], [0]), 20)
        ulp(r.requested_sum, "22.92067661926415034816")
        assert r.termination is Termination.CONVERGED

    def test_one_nine(self, ulp):
        r = irwin_sum(ConditionSet.of([9], [1]), 20)
        ulp(r.requested_sum, "23.04428708074784831968")

    def test_two_nines_no_threes(self, ulp):
        r = irwin_sum(ConditionSet.of([9, 3], [2, 0]), 15)
        ulp(r.requested_sum, "2.593253652747189")

    def test_base2_single_one_is_two(self):
        r = irwin_sum(ConditionSet.of([1], [1], base=2), 20)
        assert r.requested_sum == Decimal("2.00000000000000000000")

    def test_base2_empty_series(self):
        r = irwin_sum(ConditionSet.of([1], [0], base=2), 15)
        assert r.requested_sum == 0
        assert r.termination is Termination.EMPTY_SERIES
        assert r.digits_processed == 0

    def test_all_digits_once_finite(self, ulp):
        r = irwin_sum(ConditionSet.of(list(range(10)), [1] * 10), 23)
        ulp(r.requested_sum, "0.00082589034791925293861")
        assert r.termination is Termination.FINITE_SERIES_EXHAUSTED
        assert r.digits_processed == 10

    def test_requested_never_exceeds_at_most(self):
        r = irwin_sum(ConditionSet.of([9, 3], [2, 1]), 15)
        assert 0 <= r.requested_sum <= r.at_most_sum

    def test_per_count_structure(self, ulp):
        r = irwin_sum(ConditionSet.of([9], [2]), 15)
        assert len(r.per_count_sums) == 3
        assert r.per_count_sums[2] == r.requested_sum
        total = sum(r.per_count_sums)
        assert abs(total - r.at_most_sum) <= Decimal("3e-15")
        ulp(r.at_most_sum, "68.991003965973242")

    def test_per_count_matches_standalone_runs(self):
        r = irwin_sum(ConditionSet.of([9], [2]), 15)
        for k in range(3):
            standalone = irwin_sum(ConditionSet.of([9], [k]), 15).requested_sum
            assert abs(r.per_count_sums[k] - standalone) < Decimal("1e-15")

    def test_no_per_count_for_multiple_conditions(self):
        r = irwin_sum(ConditionSet.of([9, 3], [1, 1]), 15)
        assert r.per_count_sums is None

    def test_zero_count_sums_decrease(self):
        # sums for k zeros strictly decrease for small k
        r = irwin_sum(ConditionSet.of([0], [3]), 20)
        s = r.per_count_sums
        assert s[0] > s[1] > s[2] > s[3]

    def test_sparse_early_blocks_do_not_stop_the_run(self):
        # with twelve zeros required, the first qualifying denominator has 13
        # digits; the empty early blocks must not trigger convergence
        r = irwin_sum(ConditionSet.of([0], [12]), 15)
        assert r.termination is Termination.CONVERGED
        assert r.requested_sum == Decimal("23.025850929940457")

    def test_per_cell_partition(self):
        r = irwin_sum(ConditionSet.of([9, 3], [2, 1]), 15)
        assert len(r.per_cell_sums) == 6
        total = sum(r.per_cell_sums)
        assert abs(total - r.at_most_sum) <= Decimal("6e-15")
        assert r.per_cell_sums[-1] == r.requested_sum

    def test_convergence_stop_is_sound(self):
        # walking to 540 digit lengths, five past where blocks of one-9 become
        # negligible at 15 decimals, agrees with the solved total
        c = ConditionSet.of([9], [1])
        full = irwin_sum(c, 15)
        longer = partial_sum(c, 540, 15)
        assert abs(longer.requested_sum - full.requested_sum) < Decimal("1e-15")

    @pytest.mark.parametrize(
        "digits,counts,base,walk",
        [
            ([9, 3], [2, 0], 10, 272),
            (list(range(1, 10)), [1] * 9, 10, 44),
            ([0], [1], 2, 90),
            ([0], [3], 3, 165),
            ([2], [0], 3, 137),
        ],
    )
    def test_solved_cells_match_walk(self, digits, counts, base, walk):
        # ``walk`` lies a few digit lengths past the point where every block
        # is negligible at 15 decimals
        c = ConditionSet.of(digits, counts, base=base)
        solved = irwin_sum(c, 15)
        walked = partial_sum(c, walk, 15)
        assert solved.termination is Termination.CONVERGED
        assert solved.digits_processed == build_plan(c, 15).direct_sum_digits
        assert len(solved.per_cell_sums) == len(walked.per_cell_sums)
        for got, want in zip(solved.per_cell_sums, walked.per_cell_sums):
            assert abs(got - want) <= Decimal("1e-15")

    def test_truncation_order_is_sound(self):
        # doubling the power truncation leaves the result unchanged
        c = ConditionSet.of([9], [1])
        plan = build_plan(c, 15)
        doubled = replace(plan, max_power=2 * plan.max_power)
        assert abs(
            summation._compute(c, doubled).requested_sum
            - summation._compute(c, plan).requested_sum
        ) < Decimal("1e-15")

    def test_decimals_clamped_to_five(self):
        r = irwin_sum(ConditionSet.of([9], [0]), 2)
        assert r.decimals == 5
        assert r.requested_sum == Decimal("22.92068")

    def test_every_run_plans_itself(self):
        # no plan can be handed in: each run builds its own with build_plan
        c = ConditionSet.of([9], [0])
        with pytest.raises(TypeError):
            irwin_sum(c, 20, plan=build_plan(c, 20))
        with pytest.raises(TypeError):
            partial_sum(c, 5, 20, plan=build_plan(c, 20))
        # the requested decimals are clamped to the minimum before planning
        assert irwin_sum(c, 3) == irwin_sum(c, 5)
        assert partial_sum(c, 5, 3) == partial_sum(c, 5, 5)

    @pytest.mark.parametrize(
        "digits,counts,digit_limit,decimals,levels",
        [
            ([9], [0], None, 20, 3),
            ([9], [1], 30, 20, 30),
            # past the walk's end: no-9 walks 495 lengths
            ([9], [0], 1000, 15, 495),
            (list(range(10)), [1] * 10, None, 23, 10),
        ],
    )
    def test_result_carries_its_plan(self, digits, counts, digit_limit, decimals, levels):
        c = ConditionSet.of(digits, counts)
        if digit_limit is None:
            r = irwin_sum(c, decimals)
        else:
            r = partial_sum(c, digit_limit, decimals)
        assert r.plan == build_plan(c, decimals)
        assert len(r.levels) == levels

    def test_levels_read_at_the_plans_scale(self):
        r = partial_sum(ConditionSet.of([9], [1]), 30, 20)
        last = fixed_to_decimal(r.levels[-1][0], r.plan.working_decimals, 20)
        assert last == r.requested_sum == Decimal("18.90465064954486922500")

    def test_decimals_above_cap_are_refused(self):
        c = ConditionSet.of([9], [0])
        with pytest.raises(RangeTooLarge):
            irwin_sum(c, 1001)
        assert build_plan(c, 1000).requested_decimals == 1000

    def test_non_integral_arguments_are_refused(self):
        # int() would run 15.9 decimals as 15; islice would refuse 2.5 digits
        # with a message about its own stop argument
        c = ConditionSet.of([9], [0])
        with pytest.raises(TypeError):
            irwin_sum(c, 15.9)
        with pytest.raises(TypeError):
            partial_sum(c, 2.5)
        with pytest.raises(TypeError):
            threshold_search(c, "22", 15, threshold_decimals=2.5)
        assert partial_sum(c, True) == partial_sum(c, 1)
        assert partial_sum(c, True).digits_processed == 1
        assert threshold_search(c, "22", 15, threshold_decimals=True) == (
            threshold_search(c, "22", 15, threshold_decimals=1)
        )

    def test_finite_series_walk_ends_before_its_longest_denominator(self):
        # 101-digit denominators are below 2**-100 and round to 0 long before:
        # the walk reads an all-zero table at length 91
        r = irwin_sum(ConditionSet.of([0, 1], [100, 1], base=2), 15)
        assert len(r.levels) == 91
        assert r.digits_processed == 101
        assert r.termination is Termination.FINITE_SERIES_EXHAUSTED


class TestAtMost:
    def test_distinct_digit_aggregate(self, ulp):
        # at most one of every digit: integers with all-distinct digits
        value = at_most_sum(ConditionSet.of(list(range(10)), [1] * 10), 20)
        ulp(value, "8.92994817475544342417")

    def test_two_nines_aggregate(self, ulp):
        ulp(at_most_sum(ConditionSet.of([9], [2]), 15), "68.991003965973242")


class TestPartialSum:
    def test_no_nine_thirty_digits(self, ulp):
        r = partial_sum(ConditionSet.of([9], [0]), 30, 15)
        ulp(r.requested_sum, "21.971055078178619")
        assert r.termination is Termination.PARTIAL_REQUESTED
        assert r.digits_processed == 30

    def test_ten_zeros_landmarks(self, ulp):
        c = ConditionSet.of([0], [10])
        ulp(partial_sum(c, 209, 15).requested_sum, "22.917796696018994")
        ulp(partial_sum(c, 210, 15).requested_sum, "22.924073628793615")

    def test_base2_single_one_six_digits(self):
        r = partial_sum(ConditionSet.of([1], [1], base=2), 6, 15)
        assert r.requested_sum == Decimal("1.968750000000000")  # 63/32

    def test_crossover_against_no_nine_total(self):
        # one-9 partial sums pass the no-9 total between 69 and 70 digits
        c = ConditionSet.of([9], [1])
        no_nine_total = Decimal("22.92067661926415034816")
        below = partial_sum(c, 69, 15).requested_sum
        above = partial_sum(c, 70, 15).requested_sum
        assert below < no_nine_total < above
        assert abs(below - Decimal("22.90872")) < Decimal("1e-5")
        assert abs(above - Decimal("22.92072")) < Decimal("1e-5")

    def test_partial_beyond_finite_end_is_total(self):
        c = ConditionSet.of([0, 1], [2, 3], base=2)
        full = irwin_sum(c, 15)
        r = partial_sum(c, 40, 15)
        assert r.requested_sum == full.requested_sum
        assert r.termination is Termination.PARTIAL_REQUESTED

    def test_power_must_be_positive(self):
        with pytest.raises(ValueError):
            partial_sum(ConditionSet.of([9], [0]), 0, 15)


    def test_walk_ends_at_its_first_all_zero_table(self, monkeypatch):
        # no-9 at 15 decimals: the seed is length 3 and the table at length
        # 495 reads all zeros, so advance steps lengths 4..495, not 4..1000
        advance, lengths = summation.advance, []

        def counting(table, conditions, j_active):
            lengths.append(table.digit_length + 1)
            return advance(table, conditions, j_active)

        monkeypatch.setattr(summation, "advance", counting)
        r = partial_sum(ConditionSet.of([9], [0]), 1000, 15)
        assert lengths == list(range(4, 496))
        assert r.requested_sum == Decimal("22.920676619264150")
        assert r.digits_processed == 1000
        assert len(r.levels) == 495
        assert r.levels[-1][1] == 0

    def test_a_step_carries_the_live_powers(self, capsys):
        # after the seed, each length's table holds exactly the powers up to
        # the previous table's top nonzero row: the previous length's live
        # count, or the seed's top, which may lie below the plan's last power.
        # Each level records its table's live count, every power through the
        # seed.
        for digits, counts, base, digit_limit in [
            ([9], [0], 10, 1000),
            ([9, 0], [3, 1], 10, 400),
            ([1, 2, 3, 4, 5], [1, 2, 3, 4, 5], 10, 60),
            ([0], [1], 2, 60),
            (list(range(10)), [1] * 10, 10, 10),
        ]:
            c = ConditionSet.of(digits, counts, base=base)
            plan = build_plan(c, 15)
            r = partial_sum(c, digit_limit, 15)
            walk = summation._walk(c, plan)
            previous = None
            for (i, table, live, _), (_, recorded) in zip(walk, r.levels):
                nonzero = [j for j, row in enumerate(table.rows, 1) if any(row)]
                top = max(nonzero, default=0)
                if i > plan.direct_sum_digits:
                    assert len(table.rows) == previous
                    assert live == top
                else:
                    assert live == plan.max_power
                assert recorded == live
                previous = top
        # no-9 carries power 1 alone at lengths 23..494, and none at 495, its
        # all-zero table
        r = partial_sum(ConditionSet.of([9], [0]), 1000, 15)
        assert [j for _, j in r.levels[21:]] == [2] + [1] * 472 + [0]
        # -v 4 prints at least 2
        main(["partial", "--digits", "9", "--counts", "0", "--power", "1000", "-v", "4"])
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.endswith(", active powers = 2")

    def test_record_is_bounded_by_the_walks_end(self):
        # one occurrence of every nonzero digit: nothing moves after length 37,
        # so a limit of 10**5 lengths records 37 levels
        r = partial_sum(ConditionSet.of(range(1, 10), [1] * 9), 10 ** 5, 15)
        assert len(r.levels) == 37
        assert r.digits_processed == 10 ** 5
        assert r.requested_sum == Decimal("0.002362347838619")

    @pytest.mark.parametrize(
        "digits,counts,base,decimals",
        [(list(range(10)), [2] * 10, 10, 24), ([0, 1, 2], [20, 20, 20], 3, 15)],
    )
    def test_finite_tables_hold_only_their_layer(self, digits, counts, base, decimals):
        # a finite table at length i is nonzero only where |k| = i: every
        # power's row holds that layer's cells, not all cell_count slots
        c = ConditionSet.of(digits, counts, base=base)
        sizes = Counter(
            sum(occurrence_vector(slot, c)) for slot in range(c.cell_count)
        )
        lengths = []
        for i, table, _, _ in summation._walk(c, build_plan(c, decimals)):
            assert [len(row) for row in table.rows] == [sizes[i]] * len(table.rows)
            lengths.append(i)
        assert lengths == list(range(1, sum(counts) + 1))

    def test_digit_limit_above_maxsize(self):
        # the walk ends by itself at length 495, so a limit past sys.maxsize
        # gives the value at 10**3 and still reports the limit
        c = ConditionSet.of([9], [0])
        r = partial_sum(c, 10 ** 20, 15)
        want = partial_sum(c, 10 ** 3, 15)
        assert r.requested_sum == want.requested_sum == Decimal("22.920676619264150")
        assert r.levels == want.levels
        assert r.digits_processed == 10 ** 20


class TestThresholdSearch:
    def test_one_nine_reaching_23(self, ulp):
        r = threshold_search(ConditionSet.of([9], [1]), "23", 15)
        assert (r.digits_low, r.digits_high) == (80, 81)
        ulp(r.sum_low, "22.995762680948152")
        ulp(r.sum_high, "23.000125707332644")

    def test_two_nines_one_zero_reaching_2(self, ulp):
        # quoted bracket carries 16 decimals, so search at 16
        r = threshold_search(ConditionSet.of([9, 0], [3, 1]), "2", 16)
        assert (r.digits_low, r.digits_high) == (27, 28)
        ulp(r.sum_low, "1.910422503190251")
        ulp(r.sum_high, "2.0043388417551473")

    def test_bracket_invariant(self):
        r = threshold_search(ConditionSet.of([9], [1]), "23", 15)
        threshold = Fraction(23)
        assert Fraction(str(r.sum_low)) < threshold <= Fraction(str(r.sum_high))
        assert r.digits_high == r.digits_low + 1

    @pytest.mark.parametrize(
        "digits,counts,threshold,decimals,threshold_decimals",
        [
            ([9], [1], "23", 15, None),
            ([9, 0], [3, 1], "2", 16, None),
            ([9], [1], "23.044287080747", 15, 25),
        ],
    )
    def test_bracket_equals_partial_sums(
        self, digits, counts, threshold, decimals, threshold_decimals
    ):
        c = ConditionSet.of(digits, counts)
        r = threshold_search(c, threshold, decimals, threshold_decimals)
        assert r.sum_low == partial_sum(c, r.digits_low, r.decimals).requested_sum
        assert r.sum_high == partial_sum(c, r.digits_high, r.decimals).requested_sum

    def test_short_threshold_text_is_refused(self):
        with pytest.raises(InsufficientAccuracy):
            threshold_search(ConditionSet.of([9], [1]), "23.044287080747", 15)

    def test_declared_precision_recovers(self, ulp):
        r = threshold_search(
            ConditionSet.of([9], [1]), "23.044287080747", 15, threshold_decimals=25
        )
        assert (r.digits_low, r.digits_high) == (327, 328)
        ulp(r.sum_low, "23.04428708074693636344610077")
        ulp(r.sum_high, "23.04428708074702511802366170")

    def test_above_total(self):
        with pytest.raises(ThresholdAboveTotal):
            threshold_search(ConditionSet.of([9], [0]), "23", 15)

    def test_float_threshold_is_refused(self):
        with pytest.raises(TypeError):
            threshold_search(ConditionSet.of([9], [1]), 23.0, 15)

    def test_decimal_threshold_brackets_like_its_text(self):
        c = ConditionSet.of([9], [1])
        r = threshold_search(c, Decimal("23"), 15)
        assert (r.digits_low, r.digits_high) == (80, 81)
        assert r == threshold_search(c, "23", 15)
        # a Decimal whose str has an exponent is read as its plain text
        assert threshold_search(c, Decimal("1E+1"), 15) == threshold_search(c, "10", 15)
        s100 = ConditionSet.of([0], [100])
        r = threshold_search(s100, Decimal("0.0000001"), 15)
        assert (r.digits_low, r.digits_high) == (558, 559)
        assert r == threshold_search(s100, "0.0000001", 15)
        with pytest.raises(ValueError):
            threshold_search(c, Decimal("NaN"), 15)

    @pytest.mark.parametrize("threshold", [Fraction(1, 3), True])
    def test_threshold_without_plain_decimal_text_is_refused(self, threshold):
        with pytest.raises(ValueError):
            threshold_search(ConditionSet.of([9], [1]), threshold, 15)

    def test_first_block_crossing_gives_zero_low_digits(self):
        r = threshold_search(ConditionSet.of([9], [0]), "0.5", 15)
        assert (r.digits_low, r.digits_high) == (0, 1)
        assert r.sum_low == 0
        assert r.sum_high == Decimal("2.717857142857143")  # 761/280

    def test_threshold_decimals_past_cap_are_refused(self):
        # the search works 5 decimals past those the threshold states
        with pytest.raises(RangeTooLarge):
            threshold_search(
                ConditionSet.of([9], [1]), "23", 15, threshold_decimals=996
            )

    def test_walk_stops_at_first_zero_table(self, monkeypatch):
        # a tail raised by 1.0 (10**23 at working scale 23) lifts the total
        # above a threshold the walk never reaches; the walk ends at the first
        # table of exact zeros, which advance gives at length 78
        solve_tail, advance = summation.solve_tail, summation.advance
        monkeypatch.setattr(
            summation, "solve_tail",
            lambda seed, c: [v + 10 ** 23 for v in solve_tail(seed, c)],
        )
        tables = []

        def counting(table, conditions, j_active):
            step = advance(table, conditions, j_active)
            tables.append(step[0])
            return step

        monkeypatch.setattr(summation, "advance", counting)
        with pytest.raises(InsufficientAccuracy, match="never reached"):
            threshold_search(ConditionSet.of([1], [1], base=2), "2.5")
        assert [t.digit_length for t in tables] == list(range(11, 79))
        assert [any(map(any, t.rows)) for t in tables] == [True] * 67 + [False]

    def test_crossing_after_thousands_of_lengths(self):
        # the partial sums cross 5 at 3860 digits; the walk's table reads
        # all zeros only at 5718
        c = ConditionSet.of([0], [400])
        r = threshold_search(c, "5", 5)
        assert (r.digits_low, r.digits_high) == (3859, 3860)
        assert (r.sum_low, r.sum_high) == (Decimal("4.97860"), Decimal("5.01517"))
        assert r.sum_high == partial_sum(c, 3860, 5).requested_sum

    def test_finite_series_crosses_at_its_last_length(self):
        # pandigital denominators all have 10 digits: every shorter sum is 0
        c = ConditionSet.of(list(range(10)), [1] * 10)
        r = threshold_search(c, "0.0005")
        assert (r.digits_low, r.digits_high) == (9, 10)
        assert r.sum_low == 0
        assert r.sum_high == partial_sum(c, 10, 15).requested_sum
        assert r.sum_high == Decimal("0.000825890347919")

    def test_base2_example(self):
        r = threshold_search(ConditionSet.of([1], [1], base=2), "1.99", 15)
        assert (r.digits_low, r.digits_high) == (7, 8)
        assert r.sum_low == Decimal("1.984375000000000")
        assert r.sum_high == Decimal("1.992187500000000")

    def test_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            threshold_search(ConditionSet.of([9], [1]), "0", 15)
        with pytest.raises(ValueError):
            threshold_search(ConditionSet.of([9], [1]), "-1.5", 15)
        with pytest.raises(ValueError, match="threshold_decimals must be >= 0"):
            threshold_search(ConditionSet.of([9], [1]), "23", 15, threshold_decimals=-1)

    @pytest.mark.parametrize(
        "digits,counts,threshold,bracket",
        [([9], [1], "23", (80, 81)), (list(range(10)), [1] * 10, "0.0005", (9, 10))],
    )
    def test_engine_starts_once(self, monkeypatch, digits, counts, threshold, bracket):
        # the total and the crossing share one walk: length 1 is enumerated once
        starts = []
        direct_sum = summation.direct_sum

        def counting(conditions, digit_length, *args):
            if digit_length == 1:
                starts.append(digit_length)
            return direct_sum(conditions, digit_length, *args)

        monkeypatch.setattr(summation, "direct_sum", counting)
        r = threshold_search(ConditionSet.of(digits, counts), threshold)
        assert (r.digits_low, r.digits_high) == bracket
        assert starts == [1]
