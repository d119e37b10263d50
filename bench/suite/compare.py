#!/usr/bin/env python3
"""Compares two sets of benchmark results: a parent and a change.

    python3 bench/suite/compare.py --parent P1.json P2.json ... \\
        --change C1.json C2.json ... [--bench BENCHMARK.json]

Each file is a BENCH_<tag>.json written by `run.py --suite`; a directory
stands for every BENCH_*.json in it.  Run parent and change alternately,
the same number of times, and list the files in run order: the i-th parent
file is paired with the i-th change file.

For every (workload, end-to-end metric) of BENCHMARK.json it prints each
side's median and quartiles, the change in the median, the share of pairs
the change won, and a verdict:

  regressed   the change's median is worse than the parent's by more than
              the metric's bound (and the runs separate, or the spread is
              within the bound)
  improved    the change won at least 9 in 10 pairs and the medians differ
              by more than the parent's own interquartile range
  unresolved  a side's spread (IQR / median) is wider than the bound and
              the runs do not separate
  unchanged   otherwise

It exits 1 on any regression or on any rise in a workload's failed share,
2 on bad input, 0 otherwise.  Stdlib only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def expand(paths):
    files = []
    for raw in paths:
        path = Path(raw)
        files.extend(sorted(path.glob("BENCH_*.json")) if path.is_dir() else [path])
    return files


def load(files):
    documents = []
    for path in files:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    return documents


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(parent, change, bound, lower_is_better):
    """Verdict, relative change of the median (+ = worse) and win share."""
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    sign = 1.0 if lower_is_better else -1.0
    worse = sign * (c_med - p_med) / p_med if p_med else 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    win_share = wins / len(pairs) if pairs else 0.0
    spread = max((p3 - p1) / p_med if p_med else 0.0, (c3 - c1) / c_med if c_med else 0.0)
    separated = (max(change) < min(parent) or min(change) > max(parent))
    if worse > bound and (separated or spread <= bound):
        verdict = "regressed"
    elif win_share >= 0.9 and abs(c_med - p_med) > (p3 - p1):
        verdict = "improved"
    elif spread > bound and not separated:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return verdict, worse, win_share, (p1, p_med, p3), (c1, c_med, c3)


def values(documents, workload, name):
    """The metric's value in each document that measured it, in file order."""
    found = []
    for document in documents:
        metric = document["workloads"].get(workload, {}).get("end_to_end", {}).get(name)
        if metric is not None:
            found.append(metric["value"])
    return found


def failed_share(documents, workload):
    shares = [d["workloads"][workload]["failed_frac"] for d in documents
              if workload in d["workloads"]]
    return max(shares) if shares else 0.0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--bench", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    try:
        with open(args.bench, encoding="utf-8") as handle:
            bench = json.load(handle)
        parent = load(expand(args.parent))
        change = load(expand(args.change))
    except (OSError, json.JSONDecodeError) as error:
        print(f"compare.py: {error}", file=sys.stderr)
        return 2
    if not parent or not change:
        print("compare.py: no result files on one side", file=sys.stderr)
        return 2

    failing = []
    header = (f"{'workload':15s} {'metric':17s} {'parent median [q1, q3]':>32s} "
              f"{'change median [q1, q3]':>32s} {'worse':>7s} {'won':>5s}  verdict")
    print(header)
    for workload in (w["name"] for w in bench["workloads"]):
        for spec in bench["end_to_end"]:
            name = spec["name"]
            p_values = values(parent, workload, name)
            c_values = values(change, workload, name)
            if not p_values or not c_values:
                print(f"{workload:15s} {name:17s} missing on one side")
                continue
            verdict, worse, won, p, c = judge(p_values, c_values, spec["bound"],
                                              spec["better"] == "lower")
            print(f"{workload:15s} {name:17s} "
                  f"{p[1]:11.5g} [{p[0]:8.4g}, {p[2]:8.4g}] "
                  f"{c[1]:11.5g} [{c[0]:8.4g}, {c[2]:8.4g}] "
                  f"{worse * 100:+6.1f}% {won * 100:4.0f}%  {verdict}")
            if verdict == "regressed":
                failing.append(f"{workload} {name}: {worse * 100:+.1f}% "
                               f"(bound {spec['bound'] * 100:.0f}%)")
        p_failed = failed_share(parent, workload)
        c_failed = failed_share(change, workload)
        if c_failed > p_failed:
            failing.append(f"{workload}: failed share rose {p_failed:.3g} -> {c_failed:.3g}")
    print(f"\n{len(parent)} parent and {len(change)} change result files")
    for line in failing:
        print(f"REGRESSION {line}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
