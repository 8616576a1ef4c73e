#!/usr/bin/env python3
"""Compares two run sets of the end-to-end benchmark, metric by metric.

  python3 bench/e2e/compare.py BASE CHANGE [--benchmark BENCHMARK.json]

BASE and CHANGE are runs.jsonl / base.jsonl files written by
`run.py --set` (or a run-set directory, meaning its runs.jsonl). Every
end-to-end metric of BENCHMARK.json is judged per workload:

  count metrics   exact: per seed, every run of a side must agree, and the
                  two sides must be equal; any increase is a regression
  other metrics   direction-aware: the change's median may be worse than
                  the base's by at most the metric's bound. When either
                  side's spread (quartile distance over median) exceeds
                  the bound, the metric is "unresolved" unless every change
                  run is better than every base run.

Win rule: with at least 10 pairs that alternated in time, a metric is a
WIN when the change is better in at least nine tenths of the pairs (ties
count for neither) and the medians differ by more than the base's quartile
distance.

Exits 1 when any metric regressed, 0 otherwise.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    path = Path(path)
    if path.is_dir():
        path = path / "runs.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()
               if line.strip()]
    return [r for r in records if r["result"].get("correct")]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def alternating_pairs(base, change):
    """(base, change) value pairs when the runs alternated in time, else
    None."""
    runs = sorted([("base", r) for r in base] + [("change", r) for r in change],
                  key=lambda x: x[1].get("started", ""))
    if len(runs) % 2 or any("started" not in r for _, r in runs):
        return None
    pairs = []
    for i in range(0, len(runs), 2):
        sides = {runs[i][0]: runs[i][1], runs[i + 1][0]: runs[i + 1][1]}
        if set(sides) != {"base", "change"}:
            return None
        pairs.append((sides["base"], sides["change"]))
    return pairs


def judge_count(name, base, change):
    def by_seed(records):
        values = {}
        for r in records:
            values.setdefault(r["seed"], set()).add(
                r["result"]["metrics"][name]["value"])
        return values

    b, c = by_seed(base), by_seed(change)
    for side, values in (("base", b), ("change", c)):
        if any(len(v) > 1 for v in values.values()):
            return f"NOT EXACT on {side}", True
    seeds = sorted(b.keys() & c.keys())
    if not seeds:
        return "no shared seed", False
    worse = [s for s in seeds if next(iter(c[s])) > next(iter(b[s]))]
    lower = [s for s in seeds if next(iter(c[s])) < next(iter(b[s]))]
    if worse:
        return f"REGRESSION (higher on seeds {worse})", True
    if lower:
        return f"lower on seeds {lower} (a count, not a speed-up)", False
    return "identical", False


def judge(metric, base, change):
    name, direction, bound = metric["name"], metric["better"], metric["bound"]
    b = [r["result"]["metrics"][name]["value"] for r in base]
    c = [r["result"]["metrics"][name]["value"] for r in change]
    mb, mc = statistics.median(b), statistics.median(c)
    row = {"base": mb, "change": mc,
           "delta": (mc - mb) / mb if mb else 0.0,
           "spread": max(spread(b), spread(c))}
    if metric["unit"] == "count":
        row["verdict"], row["regressed"] = judge_count(name, base, change)
        return row
    worse = row["delta"] if direction == "lower" else -row["delta"]
    row["regressed"] = False
    if row["spread"] > bound:
        if all(better(x, y, direction) for x in c for y in b):
            row["verdict"] = "better (every run)"
        else:
            row["verdict"] = f"unresolved (spread {row['spread']:.1%} > bound)"
    elif worse > bound:
        row["verdict"], row["regressed"] = "REGRESSION", True
    else:
        row["verdict"] = "within bound"
    pairs = alternating_pairs(base, change)
    if pairs is not None and len(pairs) >= MIN_PAIRS:
        wins = sum(better(pc["result"]["metrics"][name]["value"],
                          pb["result"]["metrics"][name]["value"], direction)
                   for pb, pc in pairs)
        q1, _, q3 = quartiles(b)
        if (wins >= WIN_SHARE * len(pairs) and better(mc, mb, direction)
                and abs(mc - mb) > q3 - q1):
            row["verdict"] += f"; WIN ({wins}/{len(pairs)} pairs)"
        else:
            row["verdict"] += f"; no win ({wins}/{len(pairs)} pairs)"
    return row


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=str(
        Path(__file__).resolve().parents[2] / "BENCHMARK.json"))
    args = parser.parse_args()

    metrics = json.loads(Path(args.benchmark).read_text())["end_to_end"]
    base, change = load(args.base), load(args.change)
    workloads = sorted({r["workload"] for r in base} &
                       {r["workload"] for r in change})
    if not workloads:
        print("compare.py: the run sets share no workload", file=sys.stderr)
        return 2
    regressed = False
    for workload in workloads:
        b = [r for r in base if r["workload"] == workload]
        c = [r for r in change if r["workload"] == workload]
        print(f"\n{workload}: {len(b)} base runs, {len(c)} change runs")
        print(f"  {'metric':<28} {'base':>12} {'change':>12} {'delta':>8} "
              f"{'spread':>7} {'bound':>6}  verdict")
        for metric in metrics:
            row = judge(metric, b, c)
            regressed |= row["regressed"]
            print(f"  {metric['name']:<28} {row['base']:>12.6g} "
                  f"{row['change']:>12.6g} {row['delta']:>+8.1%} "
                  f"{row['spread']:>7.1%} {metric['bound']:>6.0%}  "
                  f"{row['verdict']}")
    print("\ncompare: " + ("REGRESSION" if regressed else "no regression"))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
