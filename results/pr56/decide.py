#!/usr/bin/env python3
"""Applies ROADMAP item 29's rule, written before measuring, to a
BenchmarkColdStorm log: at the cold share where inline (upcall=0) warm p99
is highest, keep the offload only if upcall=1 halves warm p99 and keeps cold
completions at or above 0.8x inline. Medians over the log's runs.

usage: python3 results/pr56/decide.py results/pr56/coldstorm-parent.txt
"""
import re
import statistics
import sys
from collections import defaultdict

runs = defaultdict(lambda: defaultdict(list))  # (share, upcall) -> metric -> values
line = re.compile(r"^BenchmarkColdStorm/cold=(\d+)%/upcall=(\d)\S*\s+\d+\s+\d+ ns/op(.*)$")
for text in open(sys.argv[1]):
    m = line.match(text)
    if not m:
        continue
    cell = runs[(int(m[1]), int(m[2]))]
    for val, unit in re.findall(r"([\d.]+) (\S+)", m[3]):
        cell[unit].append(float(val))

med = lambda share, up, unit: statistics.median(runs[(share, up)][unit])
shares = sorted({share for share, _ in runs})
print("cold%  runs  warm-p50 ns (0 / 1)   warm-p99 ns (0 / 1)   cold/s (0 / 1)      p99 1/0  cold/s 1/0")
for share in shares:
    print("%4d%%  %4d  %8.0f / %8.0f  %8.0f / %8.0f  %8.0f / %8.0f  %7.2f  %10.2f" % (
        share, len(runs[(share, 0)]["warm-p99-ns"]),
        med(share, 0, "warm-p50-ns"), med(share, 1, "warm-p50-ns"),
        med(share, 0, "warm-p99-ns"), med(share, 1, "warm-p99-ns"),
        med(share, 0, "cold/s"), med(share, 1, "cold/s"),
        med(share, 1, "warm-p99-ns") / med(share, 0, "warm-p99-ns"),
        med(share, 1, "cold/s") / med(share, 0, "cold/s")))
worst = max(shares, key=lambda share: med(share, 0, "warm-p99-ns"))
halves = med(worst, 1, "warm-p99-ns") <= med(worst, 0, "warm-p99-ns") / 2
keeps = med(worst, 1, "cold/s") >= 0.8 * med(worst, 0, "cold/s")
print("\nrule at cold=%d%% (highest inline warm p99): p99 halved %s, cold/s >= 0.8x inline %s -> %s" % (
    worst, "yes" if halves else "no", "yes" if keeps else "no",
    "KEEP the offload" if halves and keeps else "DELETE the offload"))
