"""High-precision sums of Kempner/Irwin digit-constrained harmonic series.

The harmonic series diverges, but restricting denominators by how often
chosen digits may occur (no 9s; exactly one 9; at most two of every digit;
...) leaves slowly convergent series.  This package sums them to arbitrary
decimal precision with a power-sum recurrence over digit-length blocks,
cross-validated by a brute-force oracle.
"""

from .model import (
    BaseOutOfRange,
    ConditionSet,
    DigitOutOfRange,
    DuplicateDigit,
    InsufficientAccuracy,
    IrwinSumError,
    LimitTooLarge,
    NegativeCount,
    NoConditions,
    OutOfBounds,
    PrecisionPlan,
    RangeTooLarge,
    ThresholdAboveTotal,
    TooManyConditions,
    ValidationError,
    occurrence_index,
    occurrence_vector,
)
from .oracle import (
    brute_force_fraction,
    brute_force_sum,
    closed_form_base2,
    count_one_digit_numbers,
)
from .summation import (
    SumResult,
    Termination,
    ThresholdResult,
    at_most_sum,
    build_plan,
    irwin_sum,
    partial_sum,
    threshold_search,
)

__version__ = "0.1.0"

__all__ = [
    "BaseOutOfRange",
    "ConditionSet",
    "DigitOutOfRange",
    "DuplicateDigit",
    "InsufficientAccuracy",
    "IrwinSumError",
    "LimitTooLarge",
    "NegativeCount",
    "NoConditions",
    "OutOfBounds",
    "PrecisionPlan",
    "RangeTooLarge",
    "SumResult",
    "Termination",
    "ThresholdAboveTotal",
    "ThresholdResult",
    "TooManyConditions",
    "ValidationError",
    "at_most_sum",
    "brute_force_fraction",
    "brute_force_sum",
    "build_plan",
    "closed_form_base2",
    "count_one_digit_numbers",
    "irwin_sum",
    "occurrence_index",
    "occurrence_vector",
    "partial_sum",
    "threshold_search",
    "__version__",
]
