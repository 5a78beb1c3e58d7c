"""Summarise and compare benchmark results written by `run.py --out`.

    python3 perfbench/compare.py spread results.jsonl
    python3 perfbench/compare.py compare parent.jsonl change.jsonl

`spread` prints, per workload and end-to-end metric, the median, the
quartiles and their distance as a share of the median, next to a third of
the metric's bound. `compare` gives each metric on each workload a verdict
(gain, regression, unchanged, unresolved) by the rule in benchstats.py,
pairing runs in file order. Both refuse results whose environments differ,
and `compare` refuses runs of different lengths.
"""

import argparse
import json
import os
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchstats  # noqa: E402


class EnvironmentMismatch(Exception):
    pass


def load_results(paths) -> list:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            records.extend(json.loads(line) for line in f if line.strip())
    return records


def check_comparable(records) -> None:
    """Raise EnvironmentMismatch unless every record ran in the same
    environment with the same run length."""
    if not records:
        raise EnvironmentMismatch("no results")
    env = records[0]["info"]["environment"]
    seconds = records[0]["info"]["seconds"]
    for r in records[1:]:
        if r["info"]["environment"] != env:
            raise EnvironmentMismatch(
                f"environment {r['info']['environment']} differs from {env}")
        if r["info"]["seconds"] != seconds:
            raise EnvironmentMismatch(f"run length {r['info']['seconds']} s differs from {seconds} s")


def by_workload(records) -> dict:
    """workload -> metric -> values, untraced runs only, in file order."""
    out = defaultdict(lambda: defaultdict(list))
    for r in records:
        if r["info"]["trace"]:
            continue
        for name, m in r["result"]["metrics"].items():
            out[r["info"]["workload"]][name].append(m["value"])
    return out


def load_benchmark(path) -> dict:
    with open(path, encoding="utf-8") as f:
        return {m["name"]: m for m in json.load(f)["end_to_end"]}


def spread_table(records, metrics) -> list:
    rows = []
    for workload, values in sorted(by_workload(records).items()):
        for name, spec in metrics.items():
            v = values.get(name, [])
            if not v:
                continue
            q1, q2, q3 = benchstats.quartiles(v)
            rows.append({"workload": workload, "metric": name, "runs": len(v), "median": q2,
                         "q1": q1, "q3": q3, "spread": benchstats.relative_spread(v),
                         "bound": spec["bound"]})
    return rows


def compare_table(parent, change, metrics) -> list:
    p_all, c_all = by_workload(parent), by_workload(change)
    rows = []
    for workload in sorted(set(p_all) & set(c_all)):
        for name, spec in metrics.items():
            p, c = p_all[workload].get(name), c_all[workload].get(name)
            if p and c:
                row = benchstats.compare_metric(p, c, spec["better"], spec["bound"])
                rows.append({"workload": workload, "metric": name, **row})
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    sub = p.add_subparsers(dest="command", required=True)
    s = sub.add_parser("spread")
    s.add_argument("results", nargs="+")
    c = sub.add_parser("compare")
    c.add_argument("parent")
    c.add_argument("change")
    args = p.parse_args(argv)
    metrics = load_benchmark(args.benchmark)

    try:
        if args.command == "spread":
            records = load_results(args.results)
            check_comparable(records)
            for row in spread_table(records, metrics):
                flag = "" if row["metric"] == "setup_s" or row["spread"] < row["bound"] / 3 else "  WIDE"
                print(f"{row['workload']:18} {row['metric']:17} n={row['runs']:2} "
                      f"median {row['median']:.6g} q1 {row['q1']:.6g} q3 {row['q3']:.6g} "
                      f"spread {row['spread']:.4f} (bound/3 {row['bound'] / 3:.4f}){flag}")
        else:
            parent, change = load_results([args.parent]), load_results([args.change])
            check_comparable(parent + change)
            for row in compare_table(parent, change, metrics):
                print(f"{row['workload']:18} {row['metric']:17} {row['verdict']:10} "
                      f"parent {row['parent_median']:.6g} change {row['change_median']:.6g} "
                      f"worse by {row['worse_by']:+.2%} wins {row['wins']}/{row['pairs']}")
    except EnvironmentMismatch as e:
        print(f"compare: refusing to compare: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
