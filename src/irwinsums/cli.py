"""Command-line interface.

Subcommands mirror the library drivers: ``sum`` (full series), ``partial``
(through base**p), ``threshold`` (bracket a target partial sum), ``table``
(the zero/one/two-occurrence grid for every digit), and ``oracle``
(brute-force spot checks).  Results go to stdout as plain text, 5-digit
grouped text, or JSON; diagnostics go to stderr.  Each command returns its
JSON report and its text lines; ``main`` alone prints and writes them.

Exit codes: 0 success, 2 invalid input or an ``--output`` file that cannot be
written, 3 insufficient accuracy or threshold above the total, 5 enumeration,
table or decimals budget exceeded.  Code 4 is not produced; it stays
unassigned so that the other codes keep their numbers.  A stdout closed by
its reader (``| head -1``) is not an error: the rest of the text is dropped
without a message, ``--output`` is still written, and the exit code is 0.
A closed stderr drops the rest of the diagnostics; stdout and the exit code stand.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from decimal import Decimal
from typing import Optional, Sequence, TextIO

from . import oracle as oracle_mod
from .fixedpoint import fixed_to_decimal, format_grouped, format_plain
from .model import (
    ConditionSet,
    InsufficientAccuracy,
    IrwinSumError,
    LimitTooLarge,
    RangeTooLarge,
    ThresholdAboveTotal,
    clamp_decimals,
    occurrence_vector,
)
from .summation import (
    SumResult,
    Termination,
    irwin_sum,
    partial_sum,
    threshold_search,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_ACCURACY = 3
EXIT_BUDGET = 5

# an error's exit code is that of the first entry it is an instance of
_EXIT_CODES = (
    (ValueError, EXIT_INVALID),
    (ThresholdAboveTotal, EXIT_ACCURACY),
    (InsufficientAccuracy, EXIT_ACCURACY),
    (LimitTooLarge, EXIT_BUDGET),
    (RangeTooLarge, EXIT_BUDGET),
    (IrwinSumError, EXIT_INVALID),
    (OSError, EXIT_INVALID),
)


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _add_common(parser: argparse.ArgumentParser, *, decimals_default: int = 15) -> None:
    parser.add_argument("--base", type=int, default=10, help="radix, 2..10 (default 10)")
    parser.add_argument(
        "--decimals", type=int, default=decimals_default,
        help=f"decimal places in the result (default {decimals_default}, minimum 5)",
    )
    parser.add_argument(
        "--format", choices=("plain", "grouped", "json"), default="plain",
        help="output format; grouped spaces the fraction into 5-digit blocks",
    )
    parser.add_argument(
        "--verbose", "-v", type=int, default=1, choices=range(0, 5),
        help="sum and partial: 0 bare value, 1 report, 2 plan info, 3 per-length progress, "
             "4 with active powers (stderr); threshold, table and oracle ignore it",
    )
    parser.add_argument("--output", help="also write the JSON report to this file")


def _add_conditions(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--digits", type=_parse_int_list, required=True,
        help="comma-separated constrained digits, e.g. 9 or 9,3",
    )
    parser.add_argument(
        "--counts", type=_parse_int_list, required=True,
        help="comma-separated occurrence counts, aligned with --digits",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irwinsums",
        description="Sums of harmonic subseries restricted by digit occurrence counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("sum", help="full series sum")
    _add_conditions(p_sum)
    p_sum.add_argument(
        "--mode", choices=("exact", "at-most"), default="exact",
        help="exact occurrence counts, or every count up to the bound",
    )
    _add_common(p_sum)

    p_partial = sub.add_parser("partial", help="partial sum through base**p")
    _add_conditions(p_partial)
    p_partial.add_argument("--power", type=int, required=True, help="digit-length cutoff p")
    _add_common(p_partial)

    p_thr = sub.add_parser("threshold", help="digit lengths bracketing a partial-sum target")
    _add_conditions(p_thr)
    p_thr.add_argument(
        "--threshold", required=True,
        help="target partial sum as a decimal string (parsed exactly)",
    )
    p_thr.add_argument(
        "--threshold-decimals", type=int, default=None,
        help="how many decimals of the threshold are meant (default: as written)",
    )
    _add_common(p_thr)

    p_table = sub.add_parser(
        "table", help="zero/one/two-occurrence sums for every digit of the base"
    )
    p_table.add_argument("--row", type=int, default=None, help="only this digit's row")
    _add_common(p_table, decimals_default=20)
    p_table.set_defaults(format="grouped")

    p_oracle = sub.add_parser("oracle", help="brute-force enumeration spot check")
    _add_conditions(p_oracle)
    p_oracle.add_argument("--limit", type=int, required=True, help="enumerate n < limit")
    p_oracle.add_argument("--mode", choices=("exact", "at-most"), default="exact")
    p_oracle.add_argument(
        "--compare", action="store_true",
        help="also run the engine partial sum (limit must be a power of the base)",
    )
    p_oracle.add_argument(
        "--threads", type=int, default=1,
        help="worker processes for the brute-force enumeration (at least 1; "
        "at most one per million integers enumerated)",
    )
    _add_common(p_oracle)
    return parser


def _conditions(args: argparse.Namespace) -> ConditionSet:
    return ConditionSet.of(args.digits, args.counts, base=args.base)


def _value_str(value: Decimal, fmt: str) -> str:
    return format_grouped(value) if fmt == "grouped" else format_plain(value)


def _print(stream: TextIO, text: str) -> None:
    """Print to stdout or stderr.  Once the stream's reader has gone, it points
    at os.devnull: the rest is dropped and no later flush fails."""
    try:
        print(text, file=stream)
        stream.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _run_engine(args: argparse.Namespace, digit_limit: Optional[int] = None) -> SumResult:
    conditions = _conditions(args)
    if digit_limit is None:
        result = irwin_sum(conditions, args.decimals)
    else:
        result = partial_sum(conditions, digit_limit, args.decimals)
    plan = result.plan
    if args.verbose >= 2:
        _print(
            sys.stderr,
            f"decimals = {plan.requested_decimals}, working = {plan.working_decimals}, "
            f"max power = {plan.max_power}, direct digits = {plan.direct_sum_digits}"
        )
    if args.verbose >= 3:
        # lengths past the walk's end repeat its last level with a zero block
        show, working = min(10, plan.requested_decimals), plan.working_decimals
        levels, previous = result.levels, 0
        for length in range(1, result.digits_processed + 1):
            total, active = levels[min(length, len(levels)) - 1]
            block_s = format_plain(fixed_to_decimal(total - previous, working, show))
            total_s = format_plain(fixed_to_decimal(total, working, show))
            line = f"partial sum for {length} digits = {block_s}, total = {total_s}"
            if args.verbose >= 4:
                # at least 2: console pins hold these lines byte for byte
                line += f", active powers = {max(active, 2)}"
            _print(sys.stderr, line)
            previous = total
    return result


def _sum_report(result: SumResult, mode: str, headline: Decimal) -> dict:
    return {
        "base": result.conditions.base,
        "digits": list(result.conditions.digits),
        "counts": list(result.conditions.counts),
        "mode": mode,
        "decimals": result.decimals,
        "sum": format_plain(headline),
        "at_most_sum": format_plain(result.at_most_sum),
        "per_count_sums": (
            [format_plain(v) for v in result.per_count_sums]
            if result.per_count_sums is not None
            else None
        ),
        "digits_processed": result.digits_processed,
        "termination": result.termination.value,
    }


def _cmd_sum(args: argparse.Namespace) -> tuple[dict, list[str]]:
    result = _run_engine(args)
    headline = result.at_most_sum if args.mode == "at-most" else result.requested_sum
    report = _sum_report(result, args.mode, headline)
    fmt = args.format
    if args.verbose == 0:
        return report, [_value_str(headline, fmt)]
    conditions = result.conditions
    lines = [f"sum = {_value_str(headline, fmt)}"]
    if not (conditions.num_conditions == 1 and conditions.counts[0] == 0):
        lines.append(
            f"sum for all {conditions.cell_count} 'at most' conditions = "
            f"{_value_str(result.at_most_sum, fmt)}"
        )
    if result.per_count_sums is not None:
        for k, value in enumerate(result.per_count_sums):
            lines.append(f"sum for {k} occurrences = {_value_str(value, fmt)}")
    elif args.verbose >= 4:
        for slot, value in enumerate(result.per_cell_sums):
            vector = occurrence_vector(slot, conditions)
            lines.append(f"sum for occurrences {vector} = {_value_str(value, fmt)}")
    if result.termination is Termination.FINITE_SERIES_EXHAUSTED and fmt != "json":
        _print(
            sys.stderr,
            f"this is a finite series that terminates after "
            f"{result.digits_processed} digits"
        )
    return report, lines


def _cmd_partial(args: argparse.Namespace) -> tuple[dict, list[str]]:
    if args.power < 1:
        raise ValueError("--power must be >= 1")
    result = _run_engine(args, digit_limit=args.power)
    report = _sum_report(result, "exact", result.requested_sum)
    report["power"] = args.power
    value = _value_str(result.requested_sum, args.format)
    if args.verbose == 0:
        return report, [value]
    suffix = "" if args.base == 10 else f" (base {args.base})"
    return report, [f"partial sum through {args.power}{suffix} digits = {value}"]


def _cmd_threshold(args: argparse.Namespace) -> tuple[dict, list[str]]:
    conditions = _conditions(args)
    result = threshold_search(
        conditions,
        args.threshold,
        requested_decimals=args.decimals,
        threshold_decimals=args.threshold_decimals,
    )
    report = {
        "base": conditions.base,
        "digits": list(conditions.digits),
        "counts": list(conditions.counts),
        "decimals": result.decimals,
        "threshold": args.threshold,
        "digits_low": result.digits_low,
        "sum_low": format_plain(result.sum_low),
        "digits_high": result.digits_high,
        "sum_high": format_plain(result.sum_high),
    }
    return report, [
        f"threshold {args.threshold} is first reached with "
        f"{result.digits_high}-digit denominators",
        f"partial sum through {result.digits_low} digits = "
        f"{_value_str(result.sum_low, args.format)}",
        f"partial sum through {result.digits_high} digits = "
        f"{_value_str(result.sum_high, args.format)}",
    ]


def _cmd_table(args: argparse.Namespace) -> tuple[dict, list[str]]:
    rows = []
    digits = [args.row] if args.row is not None else list(range(args.base))
    for d in digits:
        result = irwin_sum(ConditionSet.of([d], [2], base=args.base), args.decimals)
        rows.append((d, result.per_count_sums))
    report = {
        "base": args.base,
        "decimals": args.decimals,
        "rows": [
            {"digit": d, "sums": [format_plain(v) for v in sums]} for d, sums in rows
        ],
    }
    # the header is the grid's first row; only the values set the column width
    grid = [["d", "zero occurrences", "one occurrence", "two occurrences"]]
    grid += [[str(d)] + [_value_str(v, args.format) for v in sums] for d, sums in rows]
    width = max(len(cell) for row in grid[1:] for cell in row[1:])
    lines = [
        "  ".join([first] + [f"{cell:<{width}}" for cell in cells]).rstrip()
        for first, *cells in grid
    ]
    return report, lines


def _cmd_oracle(args: argparse.Namespace) -> tuple[dict, list[str]]:
    conditions = _conditions(args)
    if args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    decimals = clamp_decimals(args.decimals)
    if args.compare:
        # Checked before the oracle enumerates; the engine needs at least one
        # digit length, so --limit 1 is refused too.
        power, n = 1, conditions.base
        while n < args.limit:
            n *= conditions.base
            power += 1
        if n != args.limit:
            raise ValueError(
                f"--compare requires --limit to be a power of {conditions.base}"
            )
        if args.mode != "exact":
            raise ValueError("--compare uses exact mode")
    value = oracle_mod.brute_force_sum(
        conditions, args.limit, mode=args.mode, decimals=decimals, jobs=args.threads
    )
    report = {
        "base": conditions.base,
        "digits": list(conditions.digits),
        "counts": list(conditions.counts),
        "mode": args.mode,
        "decimals": decimals,
        "limit": args.limit,
        "oracle_sum": format_plain(value),
    }
    lines = [f"oracle sum (n < {args.limit}) = {_value_str(value, args.format)}"]
    if args.compare:
        engine = partial_sum(conditions, power, decimals)
        report["engine_sum"] = format_plain(engine.requested_sum)
        report["difference"] = f"{engine.requested_sum - value:E}"
        lines += [
            f"engine partial sum through {power} digits = "
            f"{_value_str(engine.requested_sum, args.format)}",
            f"difference = {report['difference']}",
        ]
    return report, lines


_COMMANDS = {
    "sum": _cmd_sum,
    "partial": _cmd_partial,
    "threshold": _cmd_threshold,
    "table": _cmd_table,
    "oracle": _cmd_oracle,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, lines = _COMMANDS[args.command](args)
        text = json.dumps(report, indent=2)
        _print(sys.stdout, text if args.format == "json" else "\n".join(lines))
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        _print(sys.stderr, f"error: {exc}")
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
