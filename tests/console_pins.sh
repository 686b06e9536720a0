#!/usr/bin/env bash
# The console pins: the command line's exact text, digests and exit codes.
# Tier-1 does not run them.  From the repository root, with the package
# installed or on the path:
#
#     PYTHONPATH=src bash tests/console_pins.sh
#
# Without an installed `irwinsums` script the pins run `python -m
# irwinsums.cli`; without RUNNER_TEMP they write to a fresh temporary folder.
set -eo pipefail
trap 'echo "console_pins.sh: the pin at line $LINENO failed" >&2' ERR

if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP=$(mktemp -d)
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi
if ! command -v irwinsums > /dev/null; then
  # a script on PATH, not a shell function, so that `timeout` can run it too
  mkdir -p "$RUNNER_TEMP/bin"
  printf '#!/bin/sh\nexec python -m irwinsums.cli "$@"\n' > "$RUNNER_TEMP/bin/irwinsums"
  chmod +x "$RUNNER_TEMP/bin/irwinsums"
  PATH="$RUNNER_TEMP/bin:$PATH"
fi

python -c 'import sys, irwinsums.cli; assert "multiprocessing" not in sys.modules'
test "$(irwinsums sum --digits 9 --counts 0 --decimals 20 -v 0)" = "22.92067661926415034816"
test "$(irwinsums sum --digits 9 --counts 0 --decimals 1000 -v 0 | cut -c 1-23)" = "22.92067661926415034816"
test "$(irwinsums sum --digits 9 --counts 1 --decimals 1000 -v 0 | cut -c 1-30)" = "23.044287080747848319675949309"
# every digit of both deep solves: any drift in the last places fails
test "$(irwinsums sum --digits 9 --counts 0 --decimals 1000 -v 0 | sha256sum | cut -d ' ' -f 1)" = "e0ee20eb46ad0028b7d973574967906d7772175814f20b7e390772ac5e209a4c"
test "$(irwinsums sum --digits 9 --counts 1 --decimals 1000 -v 0 | sha256sum | cut -d ' ' -f 1)" = "ed22a1476154b2abc63d0dd313553f786090211f658fc54fdf6e32c0dae7659f"
irwinsums threshold --digits 9 --counts 1 --threshold 23 --format json | grep -F '"digits_high": 81'
test "$(irwinsums threshold --digits 0 --counts 400 --threshold 5 --decimals 5 | head -1)" = "threshold 5 is first reached with 3860-digit denominators"
test "$(irwinsums partial --digits 9 --counts 0 --power 30)" = "partial sum through 30 digits = 21.971055078178619"
test "$(irwinsums sum --digits 0 --counts 100 --decimals 220 -v 0 | cut -c 1-44)" = "23.02585092994045684017991454684364207601101"
test "$(irwinsums partial --digits 0 --counts 100 --power 853)" = "partial sum through 853 digits = 1.016695244353383"
test "$(irwinsums partial --digits 0 --counts 100 --power 853 -v 4 2>&1 >/dev/null | tail -1)" = "partial sum for 853 digits = 0.0251633060, total = 1.0166952444, active powers = 2"
# every progress line, before and after the walk's all-zero table (at 2398 and 495)
test "$(irwinsums partial --digits 0 --counts 100 --power 853 -v 4 2>&1 >/dev/null | sha256sum | cut -d ' ' -f 1)" = "5e98bc6a6f871a2f4331900a4e82c45904164f46a9162a6191b9683374447115"
test "$(irwinsums partial --digits 9 --counts 0 --power 1000 -v 4 2>&1 >/dev/null | sha256sum | cut -d ' ' -f 1)" = "d653615bf09eb9a1b9325ab3288871a8b35a695277b301a823f3b4b1d11bff9f"
# several conditions through the power-1 regime, where a step is one whole-row stencil
test "$(irwinsums partial --digits 9,0 --counts 3,1 --power 400)" = "partial sum through 400 digits = 2.888545932755274"
test "$(irwinsums partial --digits 9,0 --counts 3,1 --power 400 -v 4 2>&1 >/dev/null | sha256sum | cut -d ' ' -f 1)" = "5a8fcb9deed55f920021ad465bab421ed9496b53fd845a1ea0d54d7735cdff98"
# five conditions: kernel steps at lengths 4-15 reach grades |k| <= i + 1, not a slot prefix
test "$(irwinsums partial --digits 1,2,3,4,5 --counts 1,2,3,4,5 --power 60)" = "partial sum through 60 digits = 0.004653747866713"
test "$(irwinsums partial --digits 1,2,3,4,5 --counts 1,2,3,4,5 --power 60 -v 4 2>&1 >/dev/null | sha256sum | cut -d ' ' -f 1)" = "3e4f2ae501ae755c1c4941841dec6dd1e69ed3422a9ad23ad12d8fce71a4cf70"
# a digit limit above sys.maxsize: the walk ends by itself at length 495
test "$(irwinsums partial --digits 9 --counts 0 --power 100000000000000000000 -v 0)" = "22.920676619264150"
# a walk ends at its first all-zero table (length 37 here), not at the limit
test "$(timeout 30 irwinsums partial --digits 1,2,3,4,5,6,7,8,9 --counts 1,1,1,1,1,1,1,1,1 --power 1000000 -v 0)" = "0.002362347838619"
# the truncation order J of the deepest base-10 plan and of a base-2 plan
test "$(irwinsums sum --digits 9 --counts 0 --decimals 1000 -v 2 2>&1 >/dev/null | head -1)" = "decimals = 1000, working = 1008, max power = 503, direct digits = 3"
test "$(irwinsums sum --digits 0 --counts 0 --base 2 --decimals 20 -v 2 2>&1 >/dev/null | head -1)" = "decimals = 20, working = 28, max power = 11, direct digits = 10"
test "$(irwinsums partial --digits 9 --counts 0 --power 30 -v 2 2>&1 >/dev/null | head -1)" = "decimals = 15, working = 23, max power = 11, direct digits = 3"
# every run plans itself: irwin_sum and partial_sum take no plan
python -c 'import inspect, irwinsums as i; assert not any("plan" in inspect.signature(f).parameters for f in (i.irwin_sum, i.partial_sum))'
# a result carries the plan it ran under; the CLI reads its plan line and scale from it
python -c 'import irwinsums as i; c = i.ConditionSet.of([9], [1]); r = i.partial_sum(c, 30, 20); assert r.plan == i.build_plan(c, 20) and len(r.levels) == 30'
test "$(irwinsums sum --digits 9 --counts 1 -v 3 2>&1 >/dev/null | sha256sum | cut -d ' ' -f 1)" = "112799843575cc8b26981e582ac388abcc4d3df3cd8486311c4fea9008b6ef19"
# a finite series crossing at its longest denominator
test "$(irwinsums threshold --digits 0,1,2,3,4,5,6,7,8,9 --counts 1,1,1,1,1,1,1,1,1,1 --threshold 0.00081 | head -1)" = "threshold 0.00081 is first reached with 10-digit denominators"
# every cell of two finite series, stepped by Taylor shifts over one layer
test "$(irwinsums sum --digits 0,1,2,3,4,5,6,7,8,9 --counts 1,1,1,1,1,1,1,1,1,1 --decimals 23 -v 4 | sha256sum | cut -d ' ' -f 1)" = "cb36c32fe459e277ea0b7b6914c84a1de2f02f09804bb1fd9c20382f26618972"
test "$(irwinsums sum --digits 0,1,2,3,4,5,6,7,8,9 --counts 2,2,2,2,2,2,2,2,2,2 --decimals 24 -v 4 | sha256sum | cut -d ' ' -f 1)" = "1b39806da72e1306abb7a4e7ec934cb7f687bf426f5ae8a23e0fc7fac0aec07a"
test "$(irwinsums sum --digits 0,1,2,3,4,5,6,7,8,9 --counts 2,2,2,2,2,2,2,2,2,2 --decimals 24 -v 0)" = "0.000054406219429099091465"
# an odd base whose step splits its digit walk: every cell of a base-7 series
test "$(irwinsums sum --digits 0,1,2,3,4,5,6 --counts 2,2,2,2,2,2,2 --base 7 --decimals 30 -v 0)" = "0.001941937342506596090276165191"
test "$(irwinsums sum --digits 0,1,2,3,4,5,6 --counts 2,2,2,2,2,2,2 --base 7 --decimals 30 -v 4 | sha256sum | cut -d ' ' -f 1)" = "916ef0f87f168dcef858699916c4987bc477b6893ca6356c42e07fdfc5e47762"
# 600 layers over 90 601 cells: each finite table holds only its layer
test "$(irwinsums sum --digits 0,1 --counts 300,300 --base 2 --decimals 20 -v 0)" = "0.02257890584915444214"
irwinsums table --row 9 --format json | grep -F '"23.04428708074784831968"'
irwinsums sum --digits 9 --counts 2 --format json --output "$RUNNER_TEMP/sum-file.json" > "$RUNNER_TEMP/sum-stdout.json"
cmp "$RUNNER_TEMP/sum-file.json" "$RUNNER_TEMP/sum-stdout.json"
irwinsums oracle --digits 9 --counts 1 --limit 2000000 --threads 2 --format json > "$RUNNER_TEMP/oracle2.json"
irwinsums oracle --digits 9 --counts 1 --limit 2000000 --threads 1 --format json > "$RUNNER_TEMP/oracle1.json"
grep -F '"oracle_sum"' "$RUNNER_TEMP/oracle1.json"
cmp "$RUNNER_TEMP/oracle1.json" "$RUNNER_TEMP/oracle2.json"
irwinsums oracle --digits 9 --counts 0 --limit 1000000 --threads 2 --format json > "$RUNNER_TEMP/readme2.json"
irwinsums oracle --digits 9 --counts 0 --limit 1000000 --threads 1 --format json > "$RUNNER_TEMP/readme1.json"
grep -F '"oracle_sum"' "$RUNNER_TEMP/readme1.json"
cmp "$RUNNER_TEMP/readme1.json" "$RUNNER_TEMP/readme2.json"
code=0
irwinsums oracle --digits 9 --counts 0 --limit 100 --compare --mode at-most > "$RUNNER_TEMP/refused.txt" || code=$?
test "$code" -eq 2
test ! -s "$RUNNER_TEMP/refused.txt"
