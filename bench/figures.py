"""Summarize finished benchmark runs as the README's reference figures.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    ...                                                  (one run per seed)
    python3 bench/figures.py certify 1-10 11-20

Reads ``bench/_out/summary-<workload>-<seed>-trace0.json`` for each seed
of each set and prints a markdown table with one column per set: the
median, the quartiles (``statistics.quantiles(n=4)``) and the quartile
spread as a share of the median, over the set's runs.
"""

import json
import os
import statistics
import sys

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_out")

ROWS = {
    "round_ms, scaled (ms)": lambda r: r["untraced"]["round_ms"],
    "round_ms, raw (ms)": lambda r: r["untraced"]["round_raw_ms"],
    "setup_s, raw (s)": lambda r: r["setup"]["setup_s"],
    "peak_rss_mb (MiB)": lambda r: r["peak_rss_mb"],
    "err_max": lambda r: r["err_max"],
    "kernel, raw median (ms)": lambda r: r["untraced"]["kernel_ms"],
    "rounds per run": lambda r: r["untraced"]["rounds"],
    "failed / attempted": lambda r: r["tally"].get("failed", 0) / sum(r["tally"].values()),
}


def seeds_of(text):
    """'1-10' or '1,2,5' -> list of ints."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def cell(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] ({spread:.3f})"


def main(workload, seed_sets):
    sets = []
    for text in seed_sets:
        runs = []
        for seed in seeds_of(text):
            path = os.path.join(OUT, f"summary-{workload}-{seed}-trace0.json")
            with open(path, encoding="utf-8") as fh:
                runs.append(json.load(fh))
        sets.append(runs)
    print(f"| {workload} | " + " | ".join(
        f"seeds {t}, {len(r)} runs" for t, r in zip(seed_sets, sets)) + " |")
    print("|---" * (len(sets) + 1) + "|")
    for name, value in ROWS.items():
        print(f"| {name} | " + " | ".join(
            cell([value(r) for r in runs]) for runs in sets) + " |")


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2:])
