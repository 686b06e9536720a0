"""Condition-set validation, occurrence indexing, and precision plans."""

from __future__ import annotations

import itertools
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from irwinsums.model import (
    BaseOutOfRange,
    ConditionSet,
    DigitOutOfRange,
    MAX_REQUESTED_DECIMALS,
    DuplicateDigit,
    NegativeCount,
    NoConditions,
    OutOfBounds,
    PrecisionPlan,
    RangeTooLarge,
    TooManyConditions,
    ValidationError,
    clamp_decimals,
    direct_sum_digit_count,
    occurrence_index,
    occurrence_vector,
)


class TestValidation:
    def test_canonical_kempner_input(self):
        c = ConditionSet.of([9], [0])
        assert not c.is_finite_series()
        assert not c.is_empty_series()

    def test_base2_no_ones_is_empty(self):
        c = ConditionSet.of([1], [0], base=2)
        assert c.is_empty_series()

    def test_duplicate_digit(self):
        with pytest.raises(DuplicateDigit):
            ConditionSet.of([9, 9], [1, 2])

    @pytest.mark.parametrize("base", [1, 0, 11, 16, -3])
    def test_base_out_of_range(self, base):
        with pytest.raises(BaseOutOfRange):
            ConditionSet.of([0], [1], base=base)

    def test_digit_out_of_range(self):
        with pytest.raises(DigitOutOfRange):
            ConditionSet.of([2], [1], base=2)
        with pytest.raises(DigitOutOfRange):
            ConditionSet.of([-1], [1])

    def test_negative_count(self):
        with pytest.raises(NegativeCount):
            ConditionSet.of([9], [-1])

    def test_no_conditions(self):
        with pytest.raises(NoConditions):
            ConditionSet.of([], [])

    def test_too_many_conditions(self):
        with pytest.raises(TooManyConditions):
            ConditionSet.of([0, 1, 0], [1, 1, 1], base=2)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            ConditionSet.of([9, 3], [1])

    def test_non_integral_digits_and_counts_are_refused(self):
        # int() would truncate 9.7 to 9 and 1.9 to 1 without a word
        for digits, counts in (([9.7], [1]), ([9], [1.9]), ([Fraction(9)], [1])):
            with pytest.raises(TypeError):
                ConditionSet.of(digits, counts)
        assert ConditionSet.of([True], [False]) == ConditionSet.of([1], [0])
        assert ConditionSet.of([True], [False]).conditions == ((1, 0),)

    @pytest.mark.parametrize("base", [10.0, 9.5, Fraction(10)])
    def test_non_integral_base_is_refused(self, base):
        # 10.0 once built a set equal to base 10 that failed deep in a sum,
        # and 9.5 passed the range check
        with pytest.raises(TypeError):
            ConditionSet.of([9], [0], base=base)


class TestClassification:
    def test_all_digits_constrained_is_finite(self):
        c = ConditionSet.of(list(range(10)), [1] * 10)
        assert c.is_finite_series()
        assert c.finite_digit_limit() == 10

    def test_finite_limit_is_count_sum(self):
        c = ConditionSet.of([0, 1], [3, 2], base=2)
        assert c.is_finite_series()
        assert c.finite_digit_limit() == 5

    def test_every_nonzero_digit_forbidden_is_empty(self):
        c = ConditionSet.of(list(range(1, 10)), [0] * 9)
        assert c.is_empty_series()
        # zero digit unconstrained: still empty, any integer leads nonzero
        assert not c.is_finite_series()

    def test_empty_with_zero_digit_constrained(self):
        c = ConditionSet.of([1, 0], [0, 5], base=2)
        assert c.is_empty_series()

    def test_nonzero_count_is_not_empty(self):
        assert not ConditionSet.of([1], [1], base=2).is_empty_series()


class TestOccurrenceIndex:
    def test_zero_vector(self):
        c = ConditionSet.of([9, 3], [2, 1])
        assert occurrence_index((0, 0), c) == 0

    def test_maximal_vector_is_last_slot(self):
        c = ConditionSet.of([9, 3], [2, 1])
        assert occurrence_index((2, 1), c) == c.cell_count - 1 == 5

    def test_mixed_radix_order(self):
        # enumerate all six vectors in mixed-radix order (first index fastest)
        c = ConditionSet.of([9, 3], [2, 1])
        expected = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
        for slot, vector in enumerate(expected):
            assert occurrence_index(vector, c) == slot
            assert occurrence_vector(slot, c) == vector
        assert occurrence_index((1, 1), c) == 4

    def test_round_trip_three_conditions(self):
        c = ConditionSet.of([1, 2, 3], [3, 2, 1])
        assert c.cell_count == 24
        for slot in range(24):
            assert occurrence_index(occurrence_vector(slot, c), c) == slot
        for vector in itertools.product(range(4), range(3), range(2)):
            assert occurrence_vector(occurrence_index(vector, c), c) == vector

    def test_strides_are_unit_vector_slots(self):
        c = ConditionSet.of([1, 2, 3], [3, 2, 1])
        assert c.strides == (1, 4, 12)
        for pos, stride in enumerate(c.strides):
            unit = tuple(int(i == pos) for i in range(c.num_conditions))
            assert occurrence_index(unit, c) == stride

    def test_out_of_bounds(self):
        c = ConditionSet.of([9, 3], [2, 1])
        with pytest.raises(OutOfBounds):
            occurrence_index((3, 0), c)
        with pytest.raises(OutOfBounds):
            occurrence_index((0,), c)
        with pytest.raises(OutOfBounds):
            occurrence_vector(6, c)
        with pytest.raises(OutOfBounds):
            occurrence_vector(-1, c)

    def test_float_count_or_index_is_refused(self):
        # a float is not truncated, nor carried into the slot or the vector
        c = ConditionSet.of([9, 3], [2, 1])
        with pytest.raises(TypeError):
            occurrence_index([1.5, 0], c)
        with pytest.raises(TypeError):
            occurrence_index((1, 1.0), c)
        for index in (2.5, 2.0):
            with pytest.raises(TypeError):
                occurrence_vector(index, c)

    def test_derived_values_are_cached_and_read_only(self):
        # computed once into the instance dict; equality, hashing and
        # pickling (the oracle's process pool) still see the fields alone
        c = ConditionSet.of([1, 2, 3], [3, 2, 1])
        derived = (c.digits, c.counts, c.num_conditions, c.cell_count, c.strides)
        assert derived == ((1, 2, 3), (3, 2, 1), 3, 24, (1, 4, 12))
        assert c.strides is c.strides
        fresh = ConditionSet.of([1, 2, 3], [3, 2, 1])
        assert c == fresh and hash(c) == hash(fresh)
        copy = pickle.loads(pickle.dumps(c))
        assert copy == c and hash(copy) == hash(c)
        assert (copy.digits, copy.counts, copy.num_conditions, copy.cell_count,
                copy.strides) == derived
        for name in ("digits", "counts", "num_conditions", "cell_count", "strides"):
            with pytest.raises(FrozenInstanceError):
                setattr(c, name, None)
        assert c.counts == (3, 2, 1)


class TestPrecisionPlan:
    def plan(self, **kwargs):
        defaults = dict(
            requested_decimals=15,
            working_decimals=23,
            max_power=12,
            direct_sum_digits=3,
        )
        defaults.update(kwargs)
        return PrecisionPlan(**defaults)

    def test_guard_floor(self):
        with pytest.raises(ValueError):
            self.plan(working_decimals=16)

    def test_requested_minimum(self):
        with pytest.raises(ValueError):
            self.plan(requested_decimals=4)
        assert clamp_decimals(1) == 5
        assert clamp_decimals(15) == 15

    def test_requested_maximum(self):
        assert clamp_decimals(MAX_REQUESTED_DECIMALS) == MAX_REQUESTED_DECIMALS == 1000
        with pytest.raises(RangeTooLarge, match="cap of 1000"):
            clamp_decimals(1001)

    def test_non_integral_decimals_are_refused(self):
        with pytest.raises(TypeError):
            clamp_decimals(15.9)
        assert clamp_decimals(True) == 5

    @pytest.mark.parametrize(
        "field",
        ["requested_decimals", "working_decimals", "max_power", "direct_sum_digits"],
    )
    def test_float_fields_are_refused(self, field):
        # a float scale would reach direct_sum's integer rounding
        with pytest.raises(TypeError):
            self.plan(**{field: float(getattr(self.plan(), field))})

    def test_seed_length_floor(self):
        with pytest.raises(ValueError, match="direct_sum_digits"):
            self.plan(direct_sum_digits=0)
        with pytest.raises(ValueError, match="direct_sum_digits"):
            self.plan(direct_sum_digits=-2)

    def test_direct_sum_digits(self):
        assert direct_sum_digit_count(10) == 3
        assert direct_sum_digit_count(2) == 10
        assert direct_sum_digit_count(9) == 4
        assert direct_sum_digit_count(3) == 7
