"""Brute-force oracle: enumeration sums, counting formula, closed forms."""

from __future__ import annotations

import ast
import concurrent.futures
import os
import subprocess
import sys
from concurrent.futures import Future
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from irwinsums import oracle
from irwinsums.fixedpoint import div_nearest, fixed_to_decimal
from irwinsums.model import ConditionSet, LimitTooLarge
from irwinsums.oracle import (
    block_cell_sums,
    brute_force_fraction,
    brute_force_sum,
    closed_form_base2,
    count_one_digit_numbers,
)
from irwinsums.summation import partial_sum


class TestBruteForce:
    def test_no_nine_below_ten(self):
        got = brute_force_fraction(ConditionSet.of([9], [0]), 10)
        assert got == Fraction(761, 280)

    def test_one_nine_below_hundred(self):
        # 9, 19, ..., 89 and 90..98: eighteen denominators
        members = [n for n in list(range(9, 90, 10)) + list(range(90, 99))]
        want = sum(Fraction(1, n) for n in members)
        got = brute_force_fraction(ConditionSet.of([9], [1]), 100)
        assert got == want
        assert len(members) == 18

    def test_no_zero_below_ten_counts_all(self):
        # no 1-digit number contains a zero
        got = brute_force_fraction(ConditionSet.of([0], [0]), 10)
        assert got == sum(Fraction(1, n) for n in range(1, 10))

    def test_at_most_partition(self):
        # exact-count sums over every dominated vector add up to the at-most sum
        c = ConditionSet.of([9, 3], [2, 1])
        limit = 10 ** 4
        at_most = brute_force_fraction(c, limit, mode="at-most")
        pieces = Fraction(0)
        for k9 in range(3):
            for k3 in range(2):
                pieces += brute_force_fraction(
                    ConditionSet.of([9, 3], [k9, k3]), limit, mode="exact"
                )
        assert pieces == at_most

    def test_base2_enumeration(self):
        # single 1 in base 2 below 2**6: the powers of two
        got = brute_force_fraction(ConditionSet.of([1], [1], base=2), 64)
        assert got == sum(Fraction(1, 2 ** k) for k in range(6))

    def test_decimal_wrapper_matches_fraction(self):
        c = ConditionSet.of([9], [0])
        want = brute_force_fraction(c, 10 ** 4)
        got = brute_force_sum(c, 10 ** 4, decimals=20)
        assert abs(Fraction(str(got)) - want) <= Fraction(1, 10 ** 20)

    def test_negative_decimals_rejected(self):
        # checked before the budget, so before anything is enumerated
        with pytest.raises(ValueError, match="decimals must be >= 0"):
            brute_force_sum(ConditionSet.of([9], [0]), 10 ** 8 + 1, decimals=-1)

    @pytest.mark.parametrize(
        "limit, error, message",
        [
            (0, ValueError, "limit must be at least 1, got 0"),
            (-5, ValueError, "limit must be at least 1, got -5"),
            (100.0, TypeError, "cannot be interpreted as an integer"),
        ],
    )
    def test_limit_is_a_positive_integer(self, limit, error, message):
        c = ConditionSet.of([9], [1])
        with pytest.raises(error, match=message):
            brute_force_sum(c, limit)
        with pytest.raises(error, match=message):
            brute_force_fraction(c, limit)

    @pytest.mark.parametrize(
        "arg", [{"decimals": 2.5}, {"decimals": 20.0}, {"jobs": 1.5}]
    )
    def test_decimals_and_jobs_are_integers(self, monkeypatch, arg):
        # refused before any enumeration, instead of failing in it (decimals)
        # or running with a fractional worker count (jobs)
        monkeypatch.setattr(oracle, "_occurrence_runs", None)
        c = ConditionSet.of([9], [1])
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            brute_force_sum(c, 1000, **arg)
        if "decimals" in arg:
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                block_cell_sums(c, 2, **arg)

    def test_limit_one_is_the_empty_range(self):
        c = ConditionSet.of([9], [0])
        assert brute_force_sum(c, 1) == 0
        assert brute_force_fraction(c, 1) == 0

    def test_block_digit_length_is_a_positive_integer(self, monkeypatch):
        # refused before any enumeration
        monkeypatch.setattr(oracle, "_occurrence_runs", None)
        c = ConditionSet.of([9], [1])
        for digit_length in (0, -2):
            with pytest.raises(ValueError, match="digit_length must be >= 1"):
                block_cell_sums(c, digit_length)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            block_cell_sums(c, 2.0)

    def test_budget_guard(self):
        with pytest.raises(LimitTooLarge):
            brute_force_sum(ConditionSet.of([9], [0]), 10 ** 8 + 1)
        with pytest.raises(LimitTooLarge):
            brute_force_fraction(ConditionSet.of([9], [0]), 10 ** 6 + 2)

    def test_block_cells_within_the_exact_rational_budget(self, monkeypatch):
        # refused before one slot per cell is allocated
        monkeypatch.setattr(oracle, "_occurrence_runs", None)
        with pytest.raises(LimitTooLarge, match="1000000001 cells"):
            block_cell_sums(ConditionSet.of([0], [10 ** 9]), 2)

    def test_matches_engine_partial(self):
        c = ConditionSet.of([9], [2])
        got = brute_force_sum(c, 10 ** 4, decimals=20)
        engine = partial_sum(c, 4, 15).requested_sum
        assert abs(Decimal(str(got)) - engine) < Decimal("1e-15")

    def test_parallel_reduction_is_deterministic(self):
        c = ConditionSet.of([9], [1])
        limit = 2 * 10 ** 6
        serial = brute_force_sum(c, limit, decimals=20)
        parallel = brute_force_sum(c, limit, decimals=20, jobs=2)
        assert serial == parallel

    def test_block_cells_partition_block(self):
        c = ConditionSet.of([9], [1])
        cells = block_cell_sums(c, 2, decimals=20)
        want_exact = brute_force_fraction(c, 100) - brute_force_fraction(c, 10)
        assert abs(cells[1] - want_exact) < Fraction(1, 10 ** 18)


def reference_digits(n: int, base: int) -> str:
    if base == 10:
        return str(n)
    if base == 2:
        return bin(n)[2:]
    digits = ""
    while n:
        n, d = divmod(n, base)
        digits = str(d) + digits
    return digits


def reference_vector(n: int, c: ConditionSet) -> tuple[int, ...]:
    text = reference_digits(n, c.base)
    return tuple([text.count(str(d)) for d in c.digits])


def reference_qualifying(c: ConditionSet, start: int, stop: int, mode: str):
    """Per-integer enumeration, one digit string per integer."""
    bounds = c.counts
    if mode == "exact":
        return [n for n in range(start, stop) if reference_vector(n, c) == bounds]
    return [
        n
        for n in range(start, stop)
        if all(k <= bound for k, bound in zip(reference_vector(n, c), bounds))
    ]


class TestChunkedCountingMatchesReference:
    """The chunked oracle against a plain per-integer reference: padding zeros,
    ranges shorter than one chunk and limits off a chunk boundary included."""

    CASES = [
        ConditionSet.of([0], [1], base=2),
        ConditionSet.of([0, 1], [3, 4], base=2),
        ConditionSet.of([0], [2], base=3),
        ConditionSet.of([0, 1, 2], [2, 2, 2], base=3),
        ConditionSet.of([0], [1], base=7),
        ConditionSet.of([3, 0], [2, 1], base=7),
        ConditionSet.of([0], [0]),
        ConditionSet.of([9], [1]),
        ConditionSet.of([9, 3], [2, 1]),
    ]

    @pytest.mark.parametrize("mode", ["exact", "at-most"])
    @pytest.mark.parametrize("c", CASES, ids=str)
    def test_fraction(self, c, mode):
        # limits below, on and off the chunk widths 10**3, 2**10, 3**7 and 7**4
        for limit in (1, 2, 40, 999, 2000, 5000, 12346):
            want = sum(
                (Fraction(1, n) for n in reference_qualifying(c, 1, limit, mode)),
                Fraction(0),
            )
            assert brute_force_fraction(c, limit, mode) == want, limit

    @pytest.mark.parametrize(
        "c, mode, limit",
        [
            (ConditionSet.of([9, 3], [2, 1]), "at-most", 12346),
            (ConditionSet.of([0], [1], base=3), "exact", 999_999),
            (ConditionSet.of([0], [1]), "exact", 1_000_999),
            (ConditionSet.of([0], [2], base=2), "at-most", 1_050_001),
        ],
        ids=str,
    )
    def test_scaled_sum_matches_reference(self, c, mode, limit):
        decimals = 20
        scale = 10 ** (decimals + 10)
        mantissa = sum(
            div_nearest(scale, n) for n in reference_qualifying(c, 1, limit, mode)
        )
        want = fixed_to_decimal(mantissa, decimals + 10, decimals)
        assert brute_force_sum(c, limit, mode, decimals) == want
        assert brute_force_sum(c, limit, mode, decimals, jobs=2) == want

    @pytest.mark.parametrize("mode", ["exact", "at-most"])
    @pytest.mark.parametrize("c", CASES, ids=str)
    def test_span_off_chunk_boundaries(self, c, mode):
        # spans a process pool would never get, starting mid-chunk
        scale = 10 ** 30
        for start, stop in ((5, 7), (999, 1001), (1500, 7777), (2500, 30001)):
            want = sum(
                div_nearest(scale, n) for n in reference_qualifying(c, start, stop, mode)
            )
            got = oracle._chunk_mantissa_sum(c, start, stop, mode == "exact", scale)
            assert got == want, (start, stop)

    @pytest.mark.parametrize("c", CASES, ids=str)
    def test_block_cells(self, c):
        decimals = 20
        scale = 10 ** (decimals + 10)
        for digit_length in range(1, 9):
            start, stop = c.base ** (digit_length - 1), c.base ** digit_length
            if stop > 10 ** 5:
                break
            want = [0] * c.cell_count
            for n in reference_qualifying(c, start, stop, "at-most"):
                slot, stride = 0, 1
                for k, bound in zip(reference_vector(n, c), c.counts):
                    slot += k * stride
                    stride *= bound + 1
                want[slot] += div_nearest(scale, n)
            got = block_cell_sums(c, digit_length, decimals)
            assert got == [Fraction(v, scale) for v in want], digit_length


class TestTies:
    """Terms at a tie, where 2*scale/n is an odd integer: n = 2048, 10240 and
    51200 at decimals 0, and 65536 and 1638400 at decimals 5.  Rounded half
    up they come out one above div_nearest, which rounds them to even."""

    CASES = [ConditionSet.of([9], [0]), ConditionSet.of([0], [1])]

    @pytest.mark.parametrize("decimals", [0, 5])
    @pytest.mark.parametrize("mode", ["exact", "at-most"])
    @pytest.mark.parametrize("c", CASES, ids=str)
    def test_sums_match_nearest_reference(self, monkeypatch, c, mode, decimals):
        scale = 10 ** (decimals + 10)
        exact = mode == "exact"
        want = {
            (start, stop): sum(
                div_nearest(scale, n) for n in reference_qualifying(c, start, stop, mode)
            )
            for start, stop in ((1, 100_000), (2048, 2049), (1_638_000, 1_639_000))
        }
        for (start, stop), mantissa in want.items():
            got = oracle._chunk_mantissa_sum(c, start, stop, exact, scale)
            assert got == mantissa, (start, stop)
        # the returned Decimal drops the ten spare decimals, so read the
        # integer total that brute_force_sum quantizes
        monkeypatch.setattr(oracle, "fixed_to_decimal", lambda total, *_: total)
        for jobs in (1, 2):
            got = brute_force_sum(c, 100_000, mode, decimals, jobs=jobs)
            assert got == want[1, 100_000], jobs

    @pytest.mark.parametrize("decimals", [0, 5])
    @pytest.mark.parametrize("c", CASES, ids=str)
    def test_block_cells_match_nearest_reference(self, c, decimals):
        scale = 10 ** (decimals + 10)
        for digit_length in (4, 5):
            start, stop = 10 ** (digit_length - 1), 10 ** digit_length
            want = [0] * c.cell_count
            for n in reference_qualifying(c, start, stop, "at-most"):
                # one condition: the slot is its count
                want[reference_vector(n, c)[0]] += div_nearest(scale, n)
            got = block_cell_sums(c, digit_length, decimals)
            assert got == [Fraction(v, scale) for v in want], digit_length


class TestProcessPool:
    @pytest.fixture
    def pools(self, monkeypatch):
        """Stands in for ProcessPoolExecutor: each pool records max_workers and
        the spans submitted, and runs every task in this process."""
        created = []

        class InlinePool:
            def __init__(self, max_workers):
                self.max_workers = max_workers
                self.spans = []
                created.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, conditions, start, stop, *rest):
                self.spans.append((start, stop))
                future = Future()
                future.set_result(fn(conditions, start, stop, *rest))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        return created

    @pytest.mark.parametrize("base, width", [(10, 1000), (2, 1024), (3, 2187)])
    def test_workers_bounded_by_spans_aligned_to_chunks(self, pools, base, width):
        c = ConditionSet.of([1, 0], [2, 1], base=base)
        limit = 2_999_999
        got = brute_force_sum(c, limit, decimals=20, jobs=64)
        (pool,) = pools
        assert pool.max_workers == len(pool.spans) == 3
        starts = [a for a, _ in pool.spans]
        stops = [b for _, b in pool.spans]
        assert starts == [1] + stops[:-1] and stops[-1] == limit
        assert all(b % width == 0 for b in stops[:-1])
        assert got == brute_force_sum(c, limit, decimals=20)

    def test_one_span_builds_no_pool(self, pools):
        c = ConditionSet.of([9], [1])
        got = brute_force_sum(c, 5000, decimals=20, jobs=4)
        assert pools == []
        assert got == brute_force_sum(c, 5000, decimals=20)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, pools, jobs):
        c = ConditionSet.of([9], [0])
        for limit in (100, 2 * 10 ** 6):
            with pytest.raises(ValueError):
                brute_force_sum(c, limit, jobs=jobs)
        assert pools == []


def test_importing_the_package_loads_no_process_pool():
    # only a brute_force_sum split over several spans needs the pool
    src = str(Path(oracle.__file__).parents[1])
    code = 'import sys, irwinsums, irwinsums.cli; print("multiprocessing" in sys.modules)'
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert out.stdout == "False\n"


def test_oracle_imports_only_fixedpoint_and_model():
    """The oracle stays independent of the engine: its package-relative
    imports are exactly .fixedpoint and .model, and it names no package
    module absolutely."""
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    relative = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            relative.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.ImportFrom):
            assert not node.module.startswith("irwinsums"), node.module
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("irwinsums") for a in node.names)
    assert relative == {".fixedpoint", ".model"}


class TestCountOneDigit:
    def test_single_digit(self):
        assert count_one_digit_numbers(9, 1) == 1

    def test_two_digits(self):
        # 19, 29, ..., 89 plus 90..98, plus 9 itself excluded (wrong length)
        assert count_one_digit_numbers(9, 2) == 17

    @pytest.mark.parametrize("digit", [9, 3])
    def test_formula_matches_enumeration(self, digit):
        ch = str(digit)
        for i in range(2, 8):
            want = sum(
                1
                for n in range(10 ** (i - 1), 10 ** i)
                if str(n).count(ch) == 1
            )
            assert count_one_digit_numbers(digit, i) == want

    def test_zero_is_rejected(self):
        with pytest.raises(ValueError):
            count_one_digit_numbers(0, 3)

    def test_zero_differs_from_formula(self):
        # leading-zero asymmetry: only 10, 20, ..., 90 among 2-digit numbers
        count = sum(1 for n in range(10, 100) if str(n).count("0") == 1)
        assert count == 9 != count_one_digit_numbers(9, 2)

    def test_non_integral_arguments_are_refused(self):
        # a float digit or length is refused, not carried into the count
        with pytest.raises(TypeError):
            count_one_digit_numbers(1, 2.5)
        with pytest.raises(TypeError):
            count_one_digit_numbers(1.0, 3)


class TestDistinctDigitCount:
    def test_count_below_9876543211(self):
        # integers with pairwise distinct digits; the largest is 9876543210,
        # so the combinatorial total counts all of them: 9 leading choices
        # times falling factorials of the remaining nine digits
        per_length = {}
        total = 0
        for length in range(1, 11):
            count = 9
            for k in range(length - 1):
                count *= 9 - k
            per_length[length] = count
            total += count
        assert total == 8877690
        # enumeration cross-check for the lengths short enough to scan
        for length in range(1, 7):
            seen = sum(
                1
                for n in range(10 ** (length - 1), 10 ** length)
                if len(set(str(n))) == length
            )
            assert seen == per_length[length]


class TestClosedFormsBase2:
    def test_no_zero(self, ulp):
        ulp(closed_form_base2("no-zero", 10), "1.6066951524")

    def test_no_zero_20_decimals(self, ulp):
        ulp(closed_form_base2("no-zero", 20), "1.60669515241529176378")

    def test_single_zero(self, ulp):
        ulp(closed_form_base2("single-zero", 25), "1.4625907350443646995461454")

    def test_single_one_is_exactly_two(self):
        assert closed_form_base2("single-one", 15) == Decimal("2.000000000000000")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            closed_form_base2("no-nine", 10)

    @pytest.mark.parametrize("kind", ["no-zero", "single-zero", "single-one"])
    def test_decimals_must_be_a_nonnegative_integer(self, kind):
        for decimals in (2.5, 20.0):
            with pytest.raises(TypeError):
                closed_form_base2(kind, decimals)
        with pytest.raises(ValueError, match="decimals must be >= 0"):
            closed_form_base2(kind, -3)
        assert closed_form_base2(kind, 0) == round(closed_form_base2(kind, 10))
