"""The benchmark's workloads: seeded query lists and their reference checks.

A query names a public function of ``irwinsums`` and its arguments.  The
worker builds each query's ``ConditionSet`` and calls the function; the
harness then checks the returned digits against the references the test
suite already pins (``tests/test_acceptance.py``), with the same tolerances.
This module imports nothing from ``irwinsums``, so the harness stays
independent of the code it measures.
"""

from __future__ import annotations

import decimal
import random
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Optional

# Paper Table 1: sums for exactly 0, 1 and 2 occurrences of each digit.
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

# Digits of a value kept in the run record: enough to show a silent change.
LEADING = 32


class Mismatch(Exception):
    """A query's result misses its reference."""


Check = Callable[[dict, Optional[list]], str]


@dataclass(frozen=True)
class Query:
    """One call of a public ``irwinsums`` function.

    ``check`` receives the serialised result (and the serialised results of
    ``reference``, engine runs that an oracle result is compared with); it
    returns the leading digits for the run record or raises ``Mismatch``.
    """

    name: str
    module: str
    function: str
    digits: tuple[int, ...]
    counts: tuple[int, ...]
    base: int
    args: tuple = ()
    kwargs: tuple[tuple[str, object], ...] = ()
    check: Check = lambda result, reference: ""
    reference: tuple["Query", ...] = ()


def near(value: str, expected: str, ulps: int = 1) -> str:
    """``value`` within ``ulps`` units in the last place quoted by ``expected``."""
    want = Decimal(expected)
    tolerance = Decimal(ulps).scaleb(want.as_tuple().exponent)
    if abs(Decimal(value) - want) > tolerance:
        raise Mismatch(f"{value} differs from {expected} by more than {ulps} ulp")
    return value[:LEADING]


def within(value: str, expected: str, tolerance: str) -> str:
    if abs(Decimal(value) - Decimal(expected)) > Decimal(tolerance):
        raise Mismatch(f"{value} differs from {expected} by more than {tolerance}")
    return value[:LEADING]


def quantized(value: str, exponent: str) -> str:
    return str(Decimal(value).quantize(Decimal(exponent)))


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def _sum(name, digits, counts, decimals, check):
    return Query(name, "summation", "irwin_sum", tuple(digits), tuple(counts), 10,
                 args=(decimals,), check=check)


def _partial(name, digits, counts, power, decimals, check):
    return Query(name, "summation", "partial_sum", tuple(digits), tuple(counts), 10,
                 args=(power, decimals), check=check)


def _threshold(name, digits, counts, value, decimals, check, **kwargs):
    return Query(
        name, "summation", "threshold_search", tuple(digits), tuple(counts), 10,
        args=(value, decimals), kwargs=tuple(kwargs.items()), check=check,
    )


def _s100_gap(result, _):
    with decimal.localcontext() as ctx:
        ctx.prec = 260
        gap = Decimal(result["requested"]) - Decimal(10) * Decimal(10).ln()
    return near(str(gap), "1.00745721706770421142E-197", ulps=10)


def _table_row(digit):
    def check(result, _):
        sums = result["per_count"]
        for k, want in enumerate(TABLE_1[digit]):
            near(sums[k], want)
        return sums[2][:LEADING]
    return check


def _mixed5(result, _):
    near(quantized(result["at_most"], "1e-20"), "27.56008294889636705754")
    return near(result["requested"], "0.0046539022540563815564")


def _finite(digit_lengths, at_most, requested):
    def check(result, _):
        expect(result["termination"] == "FiniteSeriesExhausted", result["termination"])
        expect(result["digits_processed"] == digit_lengths, "digits processed")
        if at_most is not None:
            near(quantized(result["at_most"], "1e-20"), at_most)
        return near(result["requested"], requested)
    return check


def _bracket(low, high, sum_low=None, sum_high=None):
    def check(result, _):
        got = (result["digits_low"], result["digits_high"])
        expect(got == (low, high), f"bracket {got} is not {(low, high)}")
        if sum_low is not None:
            near(result["sum_low"], sum_low)
            near(result["sum_high"], sum_high)
        return result["sum_high"][:LEADING]
    return check


def _total_vs_engine(result, reference):
    value = result["value"]
    engine = reference[0]["requested"]
    expect(abs(Decimal(value) - Decimal(engine)) < Decimal("1e-12"),
           f"brute force {value} differs from the engine's {engine}")
    return value[:LEADING]


def _cells_vs_engine(result, reference):
    through, before = reference[0]["per_cell"], reference[1]["per_cell"]
    cells = [Fraction(v) for v in result["cells"]]
    expect(len(cells) == len(through), "cell count")
    for slot, want in enumerate(cells):
        got = Fraction(Decimal(through[slot])) - Fraction(Decimal(before[slot]))
        expect(abs(got - want) < Fraction(1, 10 ** 12), f"cell {slot} differs")
    return str(Decimal(cells[-1].numerator) / Decimal(cells[-1].denominator))[:LEADING]


def _totals_deep(rng: random.Random) -> list[Query]:
    digit = rng.randrange(10)
    return [
        _sum("no9_d100", [9], [0], 100,
             lambda r, _: near(quantized(r["requested"], "1e-20"), TABLE_1[9][0])),
        _sum("one9_d20", [9], [1], 20,
             lambda r, _: near(r["requested"], TABLE_1[9][1])),
        _sum("zeros_atmost43_d20", [0], [43], 20,
             lambda r, _: near(r["at_most"], "1013.21593216968323658704")),
        _sum("mixed5_d22", [1, 2, 3, 4, 5], [1, 2, 3, 4, 5], 22, _mixed5),
        _sum("s100_d220", [0], [100], 220, _s100_gap),
        _sum(f"digit{digit}x2_d20", [digit], [2], 20, _table_row(digit)),
    ]


def _finite_wide(rng: random.Random) -> list[Query]:
    ten = list(range(10))
    return [
        _sum("all10x1_d23", ten, [1] * 10, 23,
             _finite(10, None, "0.00082589034791925293861")),
        _sum("all10x2_d24", ten, [2] * 10, 24,
             _finite(20, "20.58988677491808564961", "0.000054406219429099091465")),
    ]


def _partials_threshold(rng: random.Random) -> list[Query]:
    return [
        _partial("no9_p30", [9], [0], 30, 15,
                 lambda r, _: near(r["requested"], "21.971055078178619")),
        _partial("zeros10_p62", [0], [10], 62, 17,
                 lambda r, _: near(r["requested"], "0.99441822277757923")),
        _partial("zeros10_p63", [0], [10], 63, 17,
                 lambda r, _: near(quantized(r["requested"], "1e-16"), "1.0992951336073236")),
        _partial("zeros10_p209", [0], [10], 209, 15,
                 lambda r, _: near(r["requested"], "22.917796696018994")),
        _partial("zeros10_p210", [0], [10], 210, 15,
                 lambda r, _: near(r["requested"], "22.924073628793615")),
        _partial("zeros100_p852", [0], [100], 852, 15,
                 lambda r, _: within(r["requested"], "0.99153", "1e-5")),
        _partial("zeros100_p853", [0], [100], 853, 15,
                 lambda r, _: within(r["requested"], "1.01670", "1e-5")),
        _threshold("one9_reach23", [9], [1], "23", 15,
                   _bracket(80, 81, "22.995762680948152", "23.000125707332644")),
        _threshold("nine3zero1_reach2", [9, 0], [3, 1], "2", 16,
                   _bracket(27, 28, "1.910422503190251", "2.0043388417551473")),
        _threshold("one9_reach_total", [9], [1], "23.044287080747", 15,
                   _bracket(327, 328), threshold_decimals=25),
    ]


def _oracle_enum(rng: random.Random) -> list[Query]:
    # Every nonzero digit has the same count of qualifying integers, so the
    # seeded digit changes the cells but not the cost.
    digit = rng.randrange(1, 10)
    base2 = ((0,), (1,), 2)
    return [
        Query("brute_base2_zero1_2e20", "oracle", "brute_force_sum", *base2,
              args=(2 ** 20,), kwargs=(("mode", "exact"), ("decimals", 25), ("jobs", 1)),
              check=_total_vs_engine,
              reference=(Query("engine_p20", "summation", "partial_sum", *base2, args=(20, 20)),)),
        Query(f"cells_digit{digit}x1_len6", "oracle", "block_cell_sums", (digit,), (1,), 10,
              args=(6,), kwargs=(("decimals", 28),), check=_cells_vs_engine,
              reference=tuple(
                  Query(f"engine_p{p}", "summation", "partial_sum", (digit,), (1,), 10,
                        args=(p, 20))
                  for p in (6, 5)
              )),
    ]


_BUILDERS = {
    "totals_deep": _totals_deep,
    "finite_wide": _finite_wide,
    "partials_threshold": _partials_threshold,
    "oracle_enum": _oracle_enum,
}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int, pass_index: int) -> list[Query]:
    """The workload's queries for ``seed``, in the order of pass ``pass_index``.

    The seed picks the seeded inputs; seed and pass together pick the order.
    """
    queries = _BUILDERS[workload](random.Random(seed))
    random.Random(f"{seed}:{pass_index}").shuffle(queries)
    return queries
