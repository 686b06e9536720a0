"""Domain model: digit constraints, occurrence indexing, precision planning.

A condition set fixes the radix and, for a subset of its digits, how many
times each digit must occur in a qualifying denominator.  Occurrence vectors
(one count per constrained digit) are mapped to flat table slots through a
mixed-radix encoding with the first condition least significant; that order
is normative for every table in this package.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Iterable, Sequence


class IrwinSumError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(IrwinSumError):
    """A condition set violates its invariants."""


class BaseOutOfRange(ValidationError):
    pass


class NoConditions(ValidationError):
    pass


class TooManyConditions(ValidationError):
    pass


class DigitOutOfRange(ValidationError):
    pass


class DuplicateDigit(ValidationError):
    pass


class NegativeCount(ValidationError):
    pass


class OutOfBounds(IrwinSumError):
    """An occurrence vector or flat index is outside its table."""


class RangeTooLarge(IrwinSumError):
    """A direct enumeration or a power-sum table would exceed its budget."""


class LimitTooLarge(IrwinSumError):
    """A brute-force enumeration limit exceeds the oracle budget."""


class ThresholdAboveTotal(IrwinSumError):
    """The requested threshold exceeds the sum of the entire series."""


class InsufficientAccuracy(IrwinSumError):
    """The threshold cannot be separated from the series total at the
    precision it was given; supply more threshold digits."""


MIN_BASE = 2
MAX_BASE = 10


@dataclass(frozen=True)
class ConditionSet:
    """An ordered list of (digit, occurrence count) constraints in one base.

    Constructing a ConditionSet validates it; an invalid combination raises
    the matching :class:`ValidationError` subclass.  The derived values
    (``digits``, ``counts``, ``strides``, ...) are computed once per instance;
    like the fields, they cannot be assigned.
    """

    base: int
    conditions: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        index = operator.index  # refuses a float instead of truncating it
        object.__setattr__(self, "base", index(self.base))
        if not MIN_BASE <= self.base <= MAX_BASE:
            raise BaseOutOfRange(
                f"base {self.base} must be in the range {MIN_BASE} through {MAX_BASE}"
            )
        object.__setattr__(
            self, "conditions", tuple((index(d), index(n)) for d, n in self.conditions)
        )
        m = len(self.conditions)
        if m < 1:
            raise NoConditions("at least one digit condition is required")
        if m > self.base:
            raise TooManyConditions(
                f"{m} conditions exceed the {self.base} digits of base {self.base}"
            )
        seen = set()
        for digit, count in self.conditions:
            if not 0 <= digit < self.base:
                raise DigitOutOfRange(f"digit {digit} is not valid in base {self.base}")
            if digit in seen:
                raise DuplicateDigit(f"digit {digit} is duplicated")
            seen.add(digit)
            if count < 0:
                raise NegativeCount(f"count {count} for digit {digit} must be >= 0")

    @classmethod
    def of(
        cls, digits: Iterable[int], counts: Iterable[int], base: int = 10
    ) -> "ConditionSet":
        digits = tuple(digits)
        counts = tuple(counts)
        if len(digits) != len(counts):
            raise ValidationError(
                f"digit list and count list have different lengths "
                f"({len(digits)} and {len(counts)})"
            )
        return cls(base, tuple(zip(digits, counts)))

    @cached_property
    def digits(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.conditions)

    @cached_property
    def counts(self) -> tuple[int, ...]:
        return tuple(n for _, n in self.conditions)

    @cached_property
    def num_conditions(self) -> int:
        return len(self.conditions)

    @cached_property
    def cell_count(self) -> int:
        """Number of occurrence vectors: the product of (count + 1)."""
        return reduce(lambda acc, c: acc * (c[1] + 1), self.conditions, 1)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """Mixed-radix place value of each condition in the flat slot index."""
        strides = []
        stride = 1
        for n in self.counts:
            strides.append(stride)
            stride *= n + 1
        return tuple(strides)

    def is_finite_series(self) -> bool:
        """True when every digit is constrained; denominators then have at
        most sum(counts) digits."""
        return len(self.conditions) == self.base

    def is_empty_series(self) -> bool:
        """True when every nonzero digit is constrained to zero occurrences.

        A positive integer always leads with a nonzero digit, so no
        denominator can qualify and the series sums to zero.
        """
        forbidden = {d for d, n in self.conditions if n == 0}
        return all(d in forbidden for d in range(1, self.base))

    def finite_digit_limit(self) -> int:
        """Largest possible denominator length for a finite series."""
        if not self.is_finite_series():
            raise ValueError("series is not finite")
        return sum(self.counts)


def occurrence_index(vector: Sequence[int], conditions: ConditionSet) -> int:
    """Flat slot of an occurrence vector: k1 + (n1+1)*k2 + (n1+1)(n2+1)*k3 + ...
    (a float count raises ``TypeError``)."""
    counts = conditions.counts
    if len(vector) != len(counts):
        raise OutOfBounds(
            f"vector length {len(vector)} != {len(counts)} conditions"
        )
    index = 0
    for k, n, stride in zip(map(operator.index, vector), counts, conditions.strides):
        if not 0 <= k <= n:
            raise OutOfBounds(f"occurrence count {k} outside [0, {n}]")
        index += k * stride
    return index


def occurrence_vector(index: int, conditions: ConditionSet) -> tuple[int, ...]:
    """Inverse of :func:`occurrence_index`; a float index raises ``TypeError``."""
    index = operator.index(index)
    if not 0 <= index < conditions.cell_count:
        raise OutOfBounds(
            f"index {index} outside [0, {conditions.cell_count})"
        )
    vector = []
    remainder = index
    for n in conditions.counts:
        remainder, k = divmod(remainder, n + 1)
        vector.append(k)
    return tuple(vector)


def direct_sum_digit_count(base: int) -> int:
    """ceil(log_base(1000)): enumeration reaches roughly 1000 denominators."""
    t = 1
    power = base
    while power < 1000:
        power *= base
        t += 1
    return t


MIN_REQUESTED_DECIMALS = 5
# A plan's power count and the width of its integers both grow with the
# decimals, so a run's cost grows much faster than its decimals do.
MAX_REQUESTED_DECIMALS = 1000


@dataclass(frozen=True)
class PrecisionPlan:
    """Working precision, truncation order and seed length for one run.

    ``working_decimals`` is the scale of all fixed-point mantissas; results
    are rounded half-even to ``requested_decimals`` only at the output step.
    """

    requested_decimals: int
    working_decimals: int
    max_power: int
    direct_sum_digits: int
    scale: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # refuses a float instead of carrying it into the integer rounding
        for name in ("requested_decimals", "working_decimals", "max_power",
                     "direct_sum_digits"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.requested_decimals < MIN_REQUESTED_DECIMALS:
            raise ValueError(f"requested_decimals must be >= {MIN_REQUESTED_DECIMALS}")
        if self.working_decimals < self.requested_decimals + 2:
            raise ValueError("working precision needs at least 2 guard decimals")
        if self.max_power < 1:
            raise ValueError("max_power must be >= 1")
        if self.direct_sum_digits < 1:
            raise ValueError("direct_sum_digits must be >= 1")
        object.__setattr__(self, "scale", 10 ** self.working_decimals)


def clamp_decimals(requested_decimals: int) -> int:
    """Raise small requests to the minimum; refuse those above the cap."""
    decimals = operator.index(requested_decimals)
    if decimals > MAX_REQUESTED_DECIMALS:
        raise RangeTooLarge(
            f"{decimals} decimals exceed the cap of {MAX_REQUESTED_DECIMALS}"
        )
    return max(decimals, MIN_REQUESTED_DECIMALS)
