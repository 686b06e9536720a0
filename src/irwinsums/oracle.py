"""Independent brute-force verification of the summation engine.

Everything here recomputes sums by plain enumeration (or rapidly convergent
closed forms in base 2) and shares nothing with the engine beyond the
condition-set type: digit occurrences are counted through string conversion
rather than the engine's arithmetic digit walk, and terms are summed as
integers at ten spare decimals (as exact rationals by brute_force_fraction).

Enumeration counts digits once per chunk rather than once per integer.  With
W = base**t the smallest power of the base that is at least 1000, an integer
n = q*W + r has the digits of q followed by the digits of r zero-padded to t
places.  The padded residues r < W are counted once per call and grouped by
occurrence vector; each whole chunk then counts the digits of q once and adds
that prefix to every group's vector, which decides the whole group.  Integers
below W and the partial chunks at either end of a range are counted one by
one.  Only the per-integer term (one division or one ``Fraction``) remains.

A scaled term is div_nearest(scale, n), ties to even, with scale = 10**e.
Each group's terms are rounded half up in one C-level ``map`` chain, which
agrees with div_nearest except at a tie: 2*scale/n an odd integer, which
only a divisor of 2*scale can give.  A tie pass then takes 1 off for each
qualifying tie denominator that ties to even rounds down (see ``_ties``).
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from operator import add, floordiv, index, le, mul

from .fixedpoint import div_nearest, fixed_to_decimal
from .model import ConditionSet, LimitTooLarge

ENUMERATION_BUDGET = 10 ** 8
EXACT_RATIONAL_LIMIT = 10 ** 6
_MIN_CHUNK_WIDTH = 1000

_MODES = ("exact", "at-most")


def _digit_string(n: int, base: int) -> str:
    if base == 10:
        return str(n)
    if base == 2:
        return bin(n)[2:]
    chars = []
    while n:
        n, d = divmod(n, base)
        chars.append(chr(ord("0") + d))
    return "".join(reversed(chars))


def _chunk_places(base: int) -> tuple[int, int]:
    """The smallest t with base**t >= 1000, and that chunk width base**t."""
    places, width = 1, base
    while width < _MIN_CHUNK_WIDTH:
        places += 1
        width *= base
    return places, width


def _occurrence_runs(conditions: ConditionSet, start: int, stop: int):
    """Yield ``(vector, integers)`` pairs that cover every n in [start, stop)
    whose occurrence vector (the count of each condition digit in n) is within
    the bounds ``conditions.counts``; ``integers`` iterates the n with that
    vector in one chunk, or holds a single edge integer."""
    base = conditions.base
    bounds = conditions.counts
    chars = [chr(ord("0") + d) for d in conditions.digits]

    def occurrences(text: str) -> tuple[int, ...]:
        return tuple([text.count(ch) for ch in chars])

    def one_by_one(lo: int, hi: int):
        for n in range(lo, hi):
            vector = occurrences(_digit_string(n, base))
            if all(map(le, vector, bounds)):
                yield vector, (n,)

    places, width = _chunk_places(base)
    # whole chunks are q in [first, last); q = 0 never is one, because
    # integers below W have no padding zeros; a range that holds no whole
    # chunk gets last = first and is counted one by one
    first = max(-(-start // width), 1)
    last = max(stop // width, first)

    # a residue vector above a bound stays above it whatever the prefix;
    # a range without a whole chunk needs no residues
    groups: dict[tuple[int, ...], list[int]] = {}
    for r in range(width if last > first else 0):
        vector = occurrences(_digit_string(r, base).rjust(places, "0"))
        if all(map(le, vector, bounds)):
            groups.setdefault(vector, []).append(r)

    yield from one_by_one(start, min(first * width, stop))
    for q in range(first, last):
        prefix = occurrences(_digit_string(q, base))
        if not all(map(le, prefix, bounds)):
            continue
        offset = q * width
        for residue_vector, residues in groups.items():
            vector = tuple(map(add, prefix, residue_vector))
            if all(map(le, vector, bounds)):
                yield vector, map(offset.__add__, residues)
    yield from one_by_one(max(last * width, start), stop)


def _check_query(mode: str, limit: int) -> tuple[bool, int]:
    """Whether ``mode`` is exact, and ``limit`` as an integer of at least 1."""
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    limit = index(limit)
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    return mode == "exact", limit


def _tree_sum(parts: list[Fraction]) -> Fraction:
    """Pairwise reduction; keeps intermediate denominators balanced."""
    if not parts:
        return Fraction(0)
    while len(parts) > 1:
        merged = [a + b for a, b in zip(parts[::2], parts[1::2])]
        if len(parts) & 1:
            merged.append(parts[-1])
        parts = merged
    return parts[0]


def brute_force_fraction(conditions: ConditionSet, limit: int, mode: str = "exact") -> Fraction:
    """Exact rational sum of 1/n over qualifying n < limit."""
    exact, limit = _check_query(mode, limit)
    if limit > EXACT_RATIONAL_LIMIT:
        raise LimitTooLarge(
            f"limit {limit} exceeds the exact-rational budget {EXACT_RATIONAL_LIMIT}"
        )
    target = conditions.counts
    parts = [
        Fraction(1, n)
        for vector, integers in _occurrence_runs(conditions, 1, limit)
        if not exact or vector == target
        for n in integers
    ]
    return _tree_sum(parts)


def _half_up_sum(scale: int, integers) -> int:
    """Sum of scale/n rounded half up, (2*scale + n) // (2*n), over the n in
    ``integers``: div_nearest(scale, n) for every n that is not a tie."""
    ns = list(integers)
    return sum(map(floordiv, map((2 * scale).__add__, ns), map(add, ns, ns)))


def _ties(conditions: ConditionSet, start: int, stop: int, scale: int):
    """Yield the occurrence vector of each qualifying n in [start, stop) whose
    half-up term is one above div_nearest(scale, n).

    With scale = 10**e, scale/n is a tie only at n = 2**(e+1) * 5**b for
    0 <= b <= e; half up then gives scale // n + 1, which ties to even keep
    when scale // n is odd.  Below the enumeration budget of 10**8 that
    leaves a few n for decimals <= 15 (e <= 25) and none above.
    """
    twice = 2 * scale
    n = twice & -twice
    while n < stop and not twice % n:
        if n >= start and (scale // n) % 2 == 0:
            for vector, _ in _occurrence_runs(conditions, n, n + 1):
                yield vector
        n *= 5


def _chunk_mantissa_sum(
    conditions: ConditionSet, start: int, stop: int, exact: bool, scale: int
) -> int:
    target = conditions.counts
    total = sum(
        _half_up_sum(scale, integers)
        for vector, integers in _occurrence_runs(conditions, start, stop)
        if not exact or vector == target
    )
    return total - sum(
        not exact or vector == target
        for vector in _ties(conditions, start, stop, scale)
    )


def brute_force_sum(
    conditions: ConditionSet,
    limit: int,
    mode: str = "exact",
    decimals: int = 30,
    jobs: int = 1,
) -> Decimal:
    """Sum 1/n over qualifying n < limit by enumeration.

    Each term is rounded to an integer at ten spare decimals.  Digits are
    counted once per chunk of ``base**t >= 1000`` integers (see the module
    docstring).  The range splits into at most ``jobs`` spans of at least 10**6
    integers on chunk boundaries: one span (``jobs == 1`` or ``limit <= 10**6``)
    is summed in this process, more in one process each.  Integer partial sums
    make the result the same for every ``jobs``.  ``jobs < 1``, ``decimals < 0``
    or ``limit < 1`` raises ``ValueError``, and a float ``TypeError``.
    """
    exact, limit = _check_query(mode, limit)
    decimals, jobs = index(decimals), index(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if decimals < 0:
        raise ValueError("decimals must be >= 0")
    if limit > ENUMERATION_BUDGET:
        raise LimitTooLarge(
            f"limit {limit} exceeds the enumeration budget {ENUMERATION_BUDGET}"
        )

    scale = 10 ** (decimals + 10)
    _, width = _chunk_places(conditions.base)
    chunk = max(10 ** 6, (limit + jobs - 1) // jobs)
    chunk += -chunk % width
    edges = [1, *range(chunk, limit, chunk), limit]
    spans = list(zip(edges, edges[1:]))
    if len(spans) == 1:
        total = _chunk_mantissa_sum(conditions, 1, limit, exact, scale)
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(spans))) as pool:
            futures = [
                pool.submit(_chunk_mantissa_sum, conditions, a, b, exact, scale)
                for a, b in spans
            ]
            total = sum(f.result() for f in futures)
    return fixed_to_decimal(total, decimals + 10, decimals)


def block_cell_sums(
    conditions: ConditionSet, digit_length: int, decimals: int = 30
) -> list[Fraction]:
    """Per-occurrence-vector sums of 1/n over exactly ``digit_length``-digit
    denominators, for cross-checking one recurrence block cell by cell.

    One ``Fraction`` per cell: more cells than ``EXACT_RATIONAL_LIMIT`` raise
    ``LimitTooLarge`` before any is allocated."""
    digit_length, decimals = index(digit_length), index(decimals)
    if digit_length < 1:
        raise ValueError("digit_length must be >= 1")
    base = conditions.base
    start = base ** (digit_length - 1)
    stop = base ** digit_length
    if stop > ENUMERATION_BUDGET:
        raise LimitTooLarge(f"{base}**{digit_length} exceeds the enumeration budget")
    if conditions.cell_count > EXACT_RATIONAL_LIMIT:
        raise LimitTooLarge(
            f"{conditions.cell_count} cells exceed the exact-rational budget "
            f"{EXACT_RATIONAL_LIMIT}"
        )

    strides = conditions.strides
    scale = 10 ** (decimals + 10)
    cells = [0] * conditions.cell_count
    for vector, integers in _occurrence_runs(conditions, start, stop):
        cells[sum(map(mul, vector, strides))] += _half_up_sum(scale, integers)
    for vector in _ties(conditions, start, stop, scale):
        cells[sum(map(mul, vector, strides))] -= 1
    return [Fraction(v, scale) for v in cells]


def count_one_digit_numbers(digit: int, digit_length: int) -> int:
    """How many base-10 integers of the given length contain the digit
    exactly once: 9**(i-1) + 8*(i-1)*9**(i-2) for i >= 2, and 1 for i = 1.

    The closed form assumes a nonzero digit; leading-zero asymmetry breaks it
    for digit 0, so that case is rejected (enumerate instead).
    """
    digit, digit_length = index(digit), index(digit_length)
    if digit == 0:
        raise ValueError("closed-form count does not hold for digit 0")
    if not 1 <= digit <= 9:
        raise ValueError("digit must be 1..9")
    if digit_length < 1:
        raise ValueError("digit_length must be >= 1")
    if digit_length == 1:
        return 1
    i = digit_length
    return 9 ** (i - 1) + 8 * (i - 1) * 9 ** (i - 2)


def closed_form_base2(kind: str, decimals: int) -> Decimal:
    """Rapidly convergent base-2 series with a certified geometric tail.

    no-zero:     sum(1/(2**n - 1) for n >= 1)        (all-ones denominators)
    single-zero: sum over n >= 2, 0 <= k <= n-2 of 1/(2**n - 1 - 2**k)
    single-one:  powers of two, exactly 2

    Terms are accumulated at ten spare decimals and the loop stops once a
    term underflows that scale, so the dropped tail is far below the
    requested precision.  ``decimals < 0`` raises ``ValueError``.
    """
    decimals = index(decimals)
    if decimals < 0:
        raise ValueError("decimals must be >= 0")
    spare = 10
    scale = 10 ** (decimals + spare)
    if kind == "single-one":
        return fixed_to_decimal(2 * scale, decimals + spare, decimals)
    if kind == "no-zero":
        total = 0
        n = 1
        while True:
            term = div_nearest(scale, 2 ** n - 1)
            if term == 0:
                break
            total += term
            n += 1
        return fixed_to_decimal(total, decimals + spare, decimals)
    if kind == "single-zero":
        total = 0
        n = 2
        while True:
            largest = div_nearest(scale, 2 ** n - 1 - 2 ** (n - 2))
            if largest == 0:
                break
            for k in range(0, n - 1):
                total += div_nearest(scale, 2 ** n - 1 - 2 ** k)
            n += 1
        return fixed_to_decimal(total, decimals + spare, decimals)
    raise ValueError(f"unknown kind {kind!r}")
