"""A bit-identity pin: every result field of a fixed roster of runs, hashed.

Each query's result is hashed as the sha256 of the ``repr`` of its fields:
every ``ThresholdResult`` field, and every ``SumResult`` field with each level
reduced to its total (the second element of a level records the powers a
step carried, not a value).  A change that moves any digit, cell, plan or
per-length total of these runs changes its hash.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields

import pytest

from irwinsums.model import ConditionSet
from irwinsums.summation import SumResult, irwin_sum, partial_sum, threshold_search

ALL_TEN = list(range(10))
ONE_TO_FIVE = [1, 2, 3, 4, 5]

# name: (function, digits, counts, base, arguments after the ConditionSet)
ROSTER = {
    # the bench's engine queries, with its seeded digit fixed at 9
    "no9_d100": (irwin_sum, [9], [0], 10, (100,)),
    "one9_d20": (irwin_sum, [9], [1], 10, (20,)),
    "zeros_atmost43_d20": (irwin_sum, [0], [43], 10, (20,)),
    "mixed5_d22": (irwin_sum, ONE_TO_FIVE, ONE_TO_FIVE, 10, (22,)),
    "s100_d220": (irwin_sum, [0], [100], 10, (220,)),
    "digit9x2_d20": (irwin_sum, [9], [2], 10, (20,)),
    "all10x1_d23": (irwin_sum, ALL_TEN, [1] * 10, 10, (23,)),
    "all10x2_d24": (irwin_sum, ALL_TEN, [2] * 10, 10, (24,)),
    "no9_p30": (partial_sum, [9], [0], 10, (30, 15)),
    "zeros10_p62": (partial_sum, [0], [10], 10, (62, 17)),
    "zeros10_p63": (partial_sum, [0], [10], 10, (63, 17)),
    "zeros10_p209": (partial_sum, [0], [10], 10, (209, 15)),
    "zeros10_p210": (partial_sum, [0], [10], 10, (210, 15)),
    "zeros100_p852": (partial_sum, [0], [100], 10, (852, 15)),
    "zeros100_p853": (partial_sum, [0], [100], 10, (853, 15)),
    "one9_reach23": (threshold_search, [9], [1], 10, ("23", 15)),
    "nine3zero1_reach2": (threshold_search, [9, 0], [3, 1], 10, ("2", 16)),
    "one9_reach_total": (threshold_search, [9], [1], 10, ("23.044287080747", 15, 25)),
    "base2_zero1_p20": (partial_sum, [0], [1], 2, (20, 20)),
    "nine1_p6": (partial_sum, [9], [1], 10, (6, 20)),
    "nine1_p5": (partial_sum, [9], [1], 10, (5, 20)),
    # finite series over wide layers, in bases 2 and 3
    "base2_300x300_d20": (irwin_sum, [0, 1], [300, 300], 2, (20,)),
    "base3_20x20x20_d15": (irwin_sum, [0, 1, 2], [20, 20, 20], 3, (15,)),
    "base3_two2_d50": (irwin_sum, [2], [2], 3, (50,)),
    # long walks through the power-1 regime and past the walk's end
    "nine3zero1_p400": (partial_sum, [9, 0], [3, 1], 10, (400,)),
    "mixed5_p60": (partial_sum, ONE_TO_FIVE, ONE_TO_FIVE, 10, (60,)),
    "no9_p1000": (partial_sum, [9], [0], 10, (1000,)),
    "zeros400_reach5": (threshold_search, [0], [400], 10, ("5", 5)),
}

# name: the sha256 of its fingerprint
SHA256 = {
    "no9_d100":
        "f3b426c9921deed6e45898144699bab18519950152fae4f4c1093a04e4f13385",
    "one9_d20":
        "ab89b274423f7c5e3643a968637a3936f3ccfad217a76eba4f3bf7a040d853db",
    "zeros_atmost43_d20":
        "be52c1b57313cddf0b6056edc58b3348c8d729595ac214d153bdc594a6dbcc15",
    "mixed5_d22":
        "6d0178260b97ee3895be4e29e25fe29c42886757e5e15ce02f34654772202964",
    "s100_d220":
        "ef08c56e874ba1cfa7800f9573e3f8a53393090674c1c2080ccefb4c63efed58",
    "digit9x2_d20":
        "1900b286b2daf2839424eeb9626f2a4d2796c7b5447ef9a9827239133fdf586d",
    "all10x1_d23":
        "dcd7f48977790a5ca9a22f4606a44cb11f33511d3fa9e9ff298c542dba3e83a3",
    "all10x2_d24":
        "d8b011e78329dc4dd984ecc677544d6fbccef46f9eac7eda9f2ff65e37fbcc34",
    "no9_p30":
        "a9e9e03a3b9213849a45076082022fba2d7f1556c10cac86b98898d63ee677ec",
    "zeros10_p62":
        "16c4d792a8ab3d6689a0dc41ae2481049d5a6bc6f9d26a13fbd141d82ed4e756",
    "zeros10_p63":
        "17fa3dbc14ecad74baac4b4625f70557cf37feae63f3cf4b774b3e00fc1dc381",
    "zeros10_p209":
        "e4f5cf4ed6fc793103e5d2bd21a5729d3fd26a50a6575d1837a09959a3b83673",
    "zeros10_p210":
        "4187063adc4cc19d5158ebd23f8b7f0f345149fddc56c570ee5079757db7e5e5",
    "zeros100_p852":
        "b51ad60dc7092d3e1fb295e64255b24b1432a825f19f08f4f36289fa5c45b020",
    "zeros100_p853":
        "2c5c3cf31b67b71d0994ee38ae7bf8953843509151daef6f94880085f8c67f98",
    "one9_reach23":
        "39aef1df41b114c54726b8024427a8cffb3f68716cd31941c9d330ccfbbb9ae9",
    "nine3zero1_reach2":
        "d714dc426d16de9bbd50ae848366bc50310f8cb3e4e62ac523ffeab3474f9f24",
    "one9_reach_total":
        "9b78277a1707484d8eb066bcd026226cac2b5e5b63a1675e91f5c0d87b5050dc",
    "base2_zero1_p20":
        "98a41d43d6579e4204ff7c536386419d7e247cfafbfd3a307731d7237955f680",
    "nine1_p6":
        "602f5c8cf1ca47647788817c838e3270913f7d990446a4ca3ee6d2ca0621a854",
    "nine1_p5":
        "aed8f43f22e8626a1f653f21367941e741c4d3f0bfbdc085a402f29c08e48760",
    "base2_300x300_d20":
        "7fe85443cee82fa9ade4b25da14d7cf2f421ba69fcd63fbb76534c2c48cad9b8",
    "base3_20x20x20_d15":
        "43dc3a8192e2841cf7a1b7c666ec4251240d00d093efc33d0d9462949a2a22dd",
    "base3_two2_d50":
        "907111c46a64b199cdd49663f8748c1e12aaec80838223e71fce390869e7001a",
    "nine3zero1_p400":
        "b22b9a119c6f7ba09107cea91a4ab706c41819b611f75385c7de0a7b8bb93d0d",
    "mixed5_p60":
        "ff03a2546c7f6ce84b277cd6f761610dc8a5f622888df3828d2f6ddcd68c93d2",
    "no9_p1000":
        "109d96d4a572b7eb1931b503ec437068b314bd15730eff60521f46d9534d9f9d",
    "zeros400_reach5":
        "a2bc8a34c2f0b0b3cacf2a03f22e723d76a6ffc58c7b5321ecae0108e4ade4b9",
}


def fingerprint(result) -> str:
    """The sha256 of the ``repr`` of a result's fields; a ``SumResult``'s
    levels enter as their totals alone."""
    values = {f.name: getattr(result, f.name) for f in fields(result)}
    if isinstance(result, SumResult):
        values["levels"] = tuple(total for total, _ in result.levels)
    return hashlib.sha256(repr(values).encode()).hexdigest()


@pytest.mark.parametrize("name", ROSTER)
def test_result_is_bit_identical(name):
    function, digits, counts, base, args = ROSTER[name]
    result = function(ConditionSet.of(digits, counts, base=base), *args)
    assert fingerprint(result) == SHA256[name]
