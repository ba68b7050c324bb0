#!/usr/bin/env python3
"""Paper-fidelity gate over the text output of bench_space,
bench_table2_runtime, bench_table3_rate, bench_table4_ab and
bench_fig4_speedup.

Run the five benches, save their stdout, and pass all five files:

  ./build/bench/bench_space > space.txt
  ./build/bench/bench_table2_runtime --sizes 16000 --queries 1210 \\
      --procs 8,64,128 > table2.txt
  ./build/bench/bench_table3_rate --procs 8,128 > table3.txt
  ./build/bench/bench_table4_ab --procs 1,16,64 > table4.txt
  ./build/bench/bench_fig4_speedup > fig4.txt
  python3 tools/check_paper_bench.py --space space.txt --table2 table2.txt \\
      --table3 table3.txt --table4 table4.txt --fig4 fig4.txt

Virtual-clock results are deterministic, so the bounds (the constants
below) are tight margins under the measured values, not noise tolerances:

  * bench_space must not print "unexpectedly exceeded" (Algorithm A runs
    the full database under the fixed per-rank budget).
  * Algorithm A's p=128 per-rank peak is >= MIN_SPACE_ADVANTAGE (40x)
    smaller than the replicated baseline's (measured 46.9x).
  * Table II's run-time falls >= MIN_SPEEDUP (9x) from the smallest to the
    largest p (measured 44.65 -> 4.24 s, 10.5x; the paper reports 12.6x).
  * The residual-communication/computation mean lies in
    [MIN_RESIDUAL, MAX_RESIDUAL] = [0.10, 0.50] (measured 0.26 +/- 0.12,
    paper 0.36 +/- 0.11).
  * Table III's candidate evaluation rate rises >= MIN_RATE_SCALING (7x)
    from the smallest to the largest p (measured 40,077 -> 314,558 cand/s,
    7.85x; the paper reports 12.6x).
  * Table IV's Algorithm A run-time is below Algorithm B's at every
    p >= 16 (measured 3.70 vs 7.65 s at p=16, 1.32 vs 3.27 s at p=64).
  * Table IV's Algorithm B speedup at the largest p is >= MIN_B_SPEEDUP
    (10x) (measured 13.59x at p=64; the paper reports 10.4x).
  * Fig. 4a's speedup on the 16,000-sequence row rises strictly from p=2
    to p=64, and its p=64 speedup is >= MIN_FIG4_SPEEDUP (28x) (measured
    1.84 -> 32.50x).

Exit code 0 = pass, 1 = regression, 2 = malformed input.
"""

import argparse
import re
import sys

MIN_SPACE_ADVANTAGE = 40.0
MIN_SPEEDUP = 9.0
MIN_RESIDUAL = 0.10
MAX_RESIDUAL = 0.50
MIN_RATE_SCALING = 7.0
MIN_B_SPEEDUP = 10.0
MIN_FIG4_SPEEDUP = 28.0


def fail(msg: str, code: int = 1) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(code)


def read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        fail(f"cannot read {path}: {err}", code=2)
    return ""


def table_rows(text: str) -> list:
    """Cells of every data row of the first ASCII table in `text`."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("|") and line.endswith("|"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
        elif rows and not line.startswith("+"):
            break
    return rows


def number(cell: str, path: str) -> float:
    try:
        return float(cell.rstrip("x").replace(",", ""))
    except ValueError:
        fail(f"{path}: not a number: {cell!r}", code=2)
    return 0.0


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--space", required=True, help="bench_space stdout")
    parser.add_argument("--table2", required=True,
                        help="bench_table2_runtime stdout")
    parser.add_argument("--table3", required=True,
                        help="bench_table3_rate stdout")
    parser.add_argument("--table4", required=True,
                        help="bench_table4_ab stdout")
    parser.add_argument("--fig4", required=True,
                        help="bench_fig4_speedup stdout")
    args = parser.parse_args()
    checked = []

    space = read(args.space)
    checked.append(("space: A fits the fixed budget",
                    "no 'unexpectedly exceeded'",
                    "unexpectedly exceeded" not in space))
    rows = table_rows(space)
    if len(rows) < 2 or rows[0][-1] != "A advantage":
        fail(f"{args.space}: no peak-memory table", code=2)
    by_p = {row[0]: row[-1] for row in rows[1:]}
    if "128" not in by_p:
        fail(f"{args.space}: no p=128 row", code=2)
    advantage = number(by_p["128"], args.space)
    checked.append(("space: A advantage at p=128",
                    f"{advantage:.1f}x >= {MIN_SPACE_ADVANTAGE:.1f}x",
                    advantage >= MIN_SPACE_ADVANTAGE))

    table2 = read(args.table2)
    rows = table_rows(table2)
    if len(rows) < 2 or len(rows[0]) < 3:
        fail(f"{args.table2}: no run-time table with two p columns", code=2)
    header, first_row = rows[0], rows[1]
    slow = number(first_row[1], args.table2)
    fast = number(first_row[-1], args.table2)
    if fast <= 0.0:
        fail(f"{args.table2}: non-positive run-time {fast}", code=2)
    speedup = slow / fast
    checked.append((f"Table II: {header[1]} -> {header[-1]} speedup",
                    f"{slow:.2f} s -> {fast:.2f} s = {speedup:.2f}x >= "
                    f"{MIN_SPEEDUP:.2f}x",
                    speedup >= MIN_SPEEDUP))
    match = re.search(r"ratio for p > 2: ([0-9.]+) \+/- ([0-9.]+)", table2)
    if match is None:
        fail(f"{args.table2}: no residual-communication line", code=2)
    residual = float(match.group(1))
    checked.append(("Table II: residual/compute mean",
                    f"{residual:.2f} +/- {match.group(2)} in "
                    f"[{MIN_RESIDUAL:.2f}, {MAX_RESIDUAL:.2f}]",
                    MIN_RESIDUAL <= residual <= MAX_RESIDUAL))

    rows = table_rows(read(args.table3))
    if (len(rows) < 3 or len(rows[0]) < 4
            or rows[0][3] != "candidates/sec"):
        fail(f"{args.table3}: no rate table with two p rows", code=2)
    low = number(rows[1][3], args.table3)
    high = number(rows[-1][3], args.table3)
    if low <= 0.0:
        fail(f"{args.table3}: non-positive rate {low}", code=2)
    scaling = high / low
    checked.append((f"Table III: p={rows[1][0]} -> {rows[-1][0]} rate scaling",
                    f"{low:,.0f} -> {high:,.0f} cand/s = {scaling:.2f}x >= "
                    f"{MIN_RATE_SCALING:.2f}x",
                    scaling >= MIN_RATE_SCALING))

    rows = table_rows(read(args.table4))
    if (len(rows) < 2 or len(rows[0]) < 5
            or rows[0][1] != "A run-time" or rows[0][3] != "B run-time"
            or rows[0][4] != "B speedup"):
        fail(f"{args.table4}: no A-vs-B run-time table", code=2)
    for row in rows[1:]:
        p = number(row[0], args.table4)
        if p < 16:
            continue
        a_seconds = number(row[1], args.table4)
        b_seconds = number(row[3], args.table4)
        checked.append((f"Table IV: A faster than B at p={row[0]}",
                        f"{a_seconds:.2f} s < {b_seconds:.2f} s",
                        a_seconds < b_seconds))
    b_speedup = number(rows[-1][4], args.table4)
    checked.append((f"Table IV: B speedup at p={rows[-1][0]}",
                    f"{b_speedup:.2f}x >= {MIN_B_SPEEDUP:.2f}x",
                    b_speedup >= MIN_B_SPEEDUP))

    rows = table_rows(read(args.fig4))
    if len(rows) < 2 or rows[0][0] != "DB size":
        fail(f"{args.fig4}: no Fig. 4a speedup table", code=2)
    header = rows[0]
    by_size = {row[0]: row for row in rows[1:]}
    if ("16,000" not in by_size or "p=2" not in header
            or "p=64" not in header):
        fail(f"{args.fig4}: no 16,000 row with p=2 .. p=64 columns", code=2)
    columns = range(header.index("p=2"), header.index("p=64") + 1)
    speedups = [number(by_size["16,000"][c], args.fig4) for c in columns]
    rising = all(a < b for a, b in zip(speedups, speedups[1:]))
    checked.append(("Fig. 4: 16,000 speedup rises from p=2 to p=64",
                    " -> ".join(f"{x:.2f}" for x in speedups), rising))
    checked.append(("Fig. 4: 16,000 speedup at p=64",
                    f"{speedups[-1]:.2f}x >= {MIN_FIG4_SPEEDUP:.2f}x",
                    speedups[-1] >= MIN_FIG4_SPEEDUP))

    ok = True
    for name, detail, passed in checked:
        print(f"{'PASS' if passed else 'FAIL'}: {name}: {detail}")
        ok &= passed
    if not ok:
        sys.exit(1)
    print("paper bench gate: all checks passed")


if __name__ == "__main__":
    main()
