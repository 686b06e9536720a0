"""Advance power-sum tables from digit length i to i + 1.

Appending a digit d to an i-digit integer x produces base*x + d, and

    1 / (base*x + d)**j = sum_{n>=0} (-1)**n * C(j+n-1, n) * d**n / (base*x)**(j+n)

since |d / (base*x)| < 1.  Summing this expansion over a whole table cell
turns reciprocal-power sums at digit length i into those at i + 1: each
target cell collects one contribution per constrained digit that still has
occurrences to spend (reading the cell with that count decremented) plus one
contribution for all unconstrained digits at once, weighted by their digit
power sums.

Coefficients are exact integers throughout; one fixed-point rounding happens
per cell per power.

The map from one digit length to the next does not depend on the length, so
the power sums of every block from a seed on are the fixed point of
z = s + T z, with s the seed table and T one step.  ``solve_tail`` finds it
by back-substitution instead of walking the lengths one by one.

One row kernel, ``_fill_row``, computes every cell of the solve and of an
infinite series' steps: ``advance`` fills the next length's rows from the
previous ones, and ``solve_tail`` fills the unknown rows from the seed and
the rows it has already solved.  The kernel skips terms that read only exact
zeros: the solve evaluates a cell's terms only up to its height, the top
power solved so far where the cell or a neighbour is nonzero, and a step's
coefficients and divisor belong to its input's top nonzero power (a higher
power would scale numerators and divisor alike).  An infinite series' step
whose rows above power 1 are 0, as in most of a long partial walk, has only
the term n = 0, a two-term stencil (the cell times base - m, plus its
neighbours, over base) that ``_power1_step`` applies to the whole row at
once.

A finite series constrains every digit, so its table at length i is nonzero
only on the layer |k| = i, which is all its rows hold, and its step
multiplies nothing per neighbour:
scaled by base**(top - p), a cell's powers p = 1..top are the coefficients of
a polynomial, and the expansion through digit d is that polynomial's Taylor
shift by -d.  ``_taylor_numerators`` walks the digits upward and shifts the
whole layer by -1 between them, one subtraction pass per step of the shift.

A step fills only the cells its length can reach: an i-digit integer has at
most i constrained digits, and exactly i when every digit is constrained.
The stencil computes the others too, as 0.

The neighbour with count c decremented lies ``stride_c`` below a cell, so the
slot layout keeps one ``(c, stride_c)`` pattern per support set, at most 2**m,
and grows the layout one condition at a time instead of decoding each slot.
A step reads its reach, a prefix or two layers, without a scan from
``_grades``: every slot in one array ordered by |k|, and where each |k| starts.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count, repeat
from operator import add, itemgetter, mul, sub
from typing import Callable, Iterable, Iterator, Sequence

from .fixedpoint import div_nearest, div_toward_zero
from .model import ConditionSet
from .powersums import PowerSumTable, _grades, digit_power_sum, row_slots


@lru_cache(maxsize=32)
def _slot_layout(conditions: ConditionSet) -> tuple[tuple, ...]:
    """Per flat slot, the (condition, stride) pairs of its counts > 0, in one
    tuple shared by every slot with the same support.

    Built one condition at a time: condition c is more significant than every
    earlier one, so the slots with count k of c are the earlier layout again,
    each pattern extended by ``(c, stride)`` when k > 0.
    """
    patterns: list[tuple] = [()]
    for c, (n, stride) in enumerate(zip(conditions.counts, conditions.strides)):
        shared: dict[tuple, tuple] = {}
        ext = [shared.setdefault(p, p + ((c, stride),)) for p in patterns]
        patterns += ext * n
    return tuple(patterns)


def expansion_terms(
    conditions: ConditionSet, top: int
) -> Iterator[tuple[int, list[tuple[int, tuple[int, ...]]]]]:
    """Integer expansion coefficients of one step, over the divisor base**top.

    Yields ``(j, coeffs)`` for target powers j = top down to 1, one at a time
    so that only one power's coefficients are alive.  ``coeffs[n]``
    (0 <= n <= top - j) is ``(w * X_n, (w * d**n for each constrained digit
    d))``, with X_n the unconstrained digits' n-th power sum and ``w =
    (-1)**n * C(j+n-1, n) * base**(top-j-n)``, so a whole cell divides once by
    base**top.  A count-0 digit is never a neighbour in ``_slot_layout``; its
    entry is 0 for every n.

    Row j is row j + 1 times ``base * j / (j + n)``, as C(j+n-1, n) / C(j+n, n)
    = j / (j + n); the division is exact because both rows hold integers.  Row
    j then adds one new term, n = top - j, of weight ``(-1)**n * C(top-1, n)``.
    """
    base, digits, counts = conditions.base, conditions.digits, conditions.counts
    coeffs: list[tuple[int, tuple[int, ...]]] = []
    binom = 1  # C(top-1, n) for the new term n = top - j
    for j in range(top, 0, -1):
        f = base * j
        coeffs = [
            (k0 * f // (j + n), tuple(kc * f // (j + n) for kc in kcs))
            for n, (k0, kcs) in enumerate(coeffs)
        ]
        n = top - j
        signed = -binom if n & 1 else binom
        coeffs.append((
            signed * digit_power_sum(base, n, conditions),
            tuple(signed * d ** n if count else 0 for d, count in zip(digits, counts)),
        ))
        binom = binom * (j - 1) // (n + 1)
        yield j, coeffs


def _fill_row(
    row: list[int],
    start: list[int],
    sources: list[list[int]],
    coeffs: list[tuple[int, tuple[int, ...]]],
    neighbors: tuple[tuple[tuple[int, int], ...], ...],
    slots: Iterable[int],
    reaches: Iterable[range],
    divisor: int,
    rounding: Callable[[int, int], int],
) -> None:
    """Write one power's row: for each slot, ``start[slot]`` plus the
    expansion terms n in its reach (zipped with ``slots``), read from
    ``sources[n]`` (power j + n) at the slot and at ``slot - stride`` for each
    ``(c, stride)`` in ``neighbors[slot]`` (the slot with count c
    decremented), rounded over ``divisor``.  A reach may leave out only terms
    whose sources are all exact 0, so it changes no integer.

    ``row`` may alias ``start`` (each slot is read before it is written) or
    ``sources[0]``: neighbours lie at lower slots, so their terms read values
    this call already wrote, as back-substitution needs.
    """
    for slot, reach in zip(slots, reaches):
        s = start[slot]
        nbr = neighbors[slot]
        for n in reach:
            src = sources[n]
            k0, kcs = coeffs[n]
            if k0:
                tv = src[slot]
                if tv:
                    s += k0 * tv
            for c, stride in nbr:
                tv2 = src[slot - stride]
                if tv2:
                    kc = kcs[c]
                    if kc:
                        s += kc * tv2
        row[slot] = rounding(s, divisor)


def _power1_step(row: list[int], conditions: ConditionSet) -> list[int]:
    """The next power-1 row of an infinite series from a table whose rows
    above power 1 are 0: ``trunc((u * v[x] + sum_c v[x - stride_c]) / base)``
    for every cell x, with u = base - m and c over the conditions with
    k_c(x) > 0.

    Each condition adds one shifted copy of ``row``: in every period of
    ``stride * (count + 1)`` slots, those with k_c > 0 read the slot
    ``stride`` below, and the first ``stride`` read 0.
    """
    base, cells = conditions.base, len(row)
    numerators = map(mul, row, repeat(base - conditions.num_conditions))
    for n, stride in zip(conditions.counts, conditions.strides):
        if n:
            period = stride * (n + 1)
            below = [0] * cells
            for low in range(0, cells, period):
                below[low + stride : low + period] = row[low : low + period - stride]
            numerators = map(add, numerators, below)
    return [s // base if s >= 0 else -(-s // base) for s in numerators]


def _taylor_numerators(
    rows: list[list[int]], conditions: ConditionSet, sources: Sequence[int],
    targets: Sequence[int], top: int,
) -> list[list[int]]:
    """Per power j = 1..top, the numerators of a finite series' step at each
    target slot, over the divisor base**top; ``rows`` hold the source layer,
    in the order of ``sources``.

    With u_p = base**(top - p) * v_p on the sources, the kernel's numerator
    for power j, read from a neighbour through digit d, is
    ``sum_n (-1)**n * C(j+n-1, n) * d**n * u_{j+n}``: the coefficient of
    t**(j-1) in ``sum_p u_p * (t - d)**(p-1)``, the Taylor shift of u by -d.
    Every digit is constrained, so walking the digits upward shifts u by -1
    between them, one subtraction pass over the sources per step of the
    shift; each target then adds, per condition c with k_c > 0, the shifted u
    at its neighbour ``slot - stride_c``.  These are the kernel's integers,
    regrouped.
    """
    if not targets:
        return [[] for _ in range(top)]
    base = conditions.base
    # u[p - 1] on the sources, then one 0 for the reads of a missing neighbour
    u = [
        [*map(mul, rows[p - 1], repeat(base ** (top - p))), 0]
        for p in range(1, top + 1)
    ]
    where = dict(zip(sources, count()))
    blank = len(sources)
    strides = {
        d: stride
        for d, n, stride in zip(conditions.digits, conditions.counts, conditions.strides)
        if n
    }
    nums = [[0] * len(targets) for _ in range(top)]
    for d in range(max(strides, default=0) + 1):
        if d:
            for low in range(top - 1):
                for k in range(top - 2, low - 1, -1):
                    u[k] = list(map(sub, u[k], u[k + 1]))
        if d in strides:
            # below a target with k_c = 0 lies a borrow from a higher count,
            # which raises |k| or leaves the table: never a source.  One more
            # read of the 0 makes even a single target's read a tuple.
            take = itemgetter(
                *map(where.get, map(sub, targets, repeat(strides[d])), repeat(blank)),
                blank,
            )
            for k, shifted in enumerate(u):
                nums[k] = list(map(add, nums[k], take(shifted)))
    return nums


def _top(rows: list[list[int]], j: int) -> int:
    """The highest power up to j whose row is not all 0, or 0 when none is."""
    return next((p for p in range(j, 0, -1) if any(rows[p - 1])), 0)


def advance(
    table: PowerSumTable, conditions: ConditionSet, j_active: int
) -> tuple[PowerSumTable, int]:
    """One recurrence step: build the table for the next digit length i + 1.

    Only slots with |k| <= i + 1 are computed, and for a finite series only
    those with |k| = i + 1 (no unconstrained digit, so a cell never reads
    itself), the layer its rows hold; every other slot would read exact
    zeros.  ``j_active`` bounds the powers read: rows past it, or past the
    table's end, read as 0.  The step's coefficients and divisor
    ``base**top`` belong to the top nonzero power ``top`` among them, and the
    new table holds powers 1..top, at least power 1.  Returns it and
    ``live``, its highest power whose row is not all 0 (0 when none is).
    Rows j..J read only rows j..J, so the rows above ``live`` stay exactly 0
    at every later digit length.

    At top 1 an infinite series steps by ``_power1_step``, over the whole
    row: the expansion then has only its n = 0 term, with coefficient
    u = base - m on the cell itself and d**0 = 1 on each neighbour, over the
    divisor ``base``, and a cell past |k| = i + 1 reads only zeros, so every
    integer equals the kernel's.  A finite series steps by
    ``_taylor_numerators`` at every top: its rows are the layer |k| = i
    (:func:`~irwinsums.powersums.row_slots`), and the new rows are the next
    layer's quotients, truncated as the kernel's are.  Rows of another
    length raise ``ValueError``.
    """
    length = table.digit_length + 1
    top = _top(table.rows, min(j_active, len(table.rows))) or 1
    if conditions.is_finite_series():
        sources = row_slots(conditions, length - 1)
        targets = row_slots(conditions, length)
        if any(len(row) != len(sources) for row in table.rows[:top]):
            raise ValueError(f"a finite table's rows hold its {len(sources)}-cell layer")
        nums = _taylor_numerators(table.rows, conditions, sources, targets, top)
        divisor = conditions.base ** top
        new_rows = [
            [s // divisor if s >= 0 else -(-s // divisor) for s in num] for num in nums
        ]
    elif top == 1:
        new_rows = [_power1_step(table.rows[0], conditions)]
    else:
        order, starts = _grades(conditions)
        targets = order[: starts[min(length + 1, len(starts) - 1)]]
        neighbors = _slot_layout(conditions)
        new_rows = [[0] * conditions.cell_count for _ in range(top)]
        for j, coeffs in expansion_terms(conditions, top):
            row = new_rows[j - 1]
            _fill_row(
                row, row, table.rows[j - 1 :], coeffs, neighbors, targets,
                repeat(range(len(coeffs))), conditions.base ** top, div_toward_zero,
            )
    return PowerSumTable(length, new_rows), _top(new_rows, top)


def solve_tail(seed: PowerSumTable, conditions: ConditionSet) -> list[int]:
    """Power-1 sums, per cell, of every block from the seed's digit length on.

    Solves (I - T) Z = seed over all the seed's powers, where T is one
    ``advance`` step without its rounding.  I - T is upper-triangular across
    powers (the term for n reads power j + n) and, within one power,
    lower-triangular in slot order (a decrement lowers the slot), so
    back-substitution through powers J..1 and ascending slots reaches every
    cell after the cells it reads.  The diagonal 1 - (base - m)/base**j,
    scaled by base**J, is one integer denominator, so each cell costs one
    rounding; none is carried from one digit length to the next, so rounding
    to nearest is safe.
    """
    j_max = len(seed.rows)
    cells = range(conditions.cell_count)
    neighbors = _slot_layout(conditions)
    strides = [s for s, n in zip(conditions.strides, conditions.counts) if n]
    scaled = conditions.base ** j_max
    z = [[0] * conditions.cell_count for _ in range(j_max)]
    # height[slot]: the top power solved so far where the slot, or a slot one
    # stride below it, is nonzero; every term for a higher power reads 0.
    height = [0] * conditions.cell_count
    for j, coeffs in expansion_terms(conditions, j_max):
        # coeffs[0][0] * z[j - 1][slot] is the diagonal term; the cell is still
        # 0 when its own sum reads it, and the diagonal moves into the divisor.
        _fill_row(
            z[j - 1], [scaled * v for v in seed.rows[j - 1]], z[j - 1 :], coeffs,
            neighbors, cells, (range(max(1, h - j + 1)) for h in height),
            scaled - coeffs[0][0], div_nearest,
        )
        nz = [j if v else 0 for v in z[j - 1]]
        height = list(map(max, height, nz, *([0] * s + nz[:-s] for s in strides)))
    return z[0]
