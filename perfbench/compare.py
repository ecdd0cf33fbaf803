#!/usr/bin/env python3
"""Compare two result sets of the benchmark, metric by metric and workload by workload.

    python3 perfbench/compare.py before.jsonl after.jsonl

A result set is a JSON-lines file of run records as ``run.py`` appends them
(``--results``).  For every end-to-end metric of ``BENCHMARK.json`` the
table shows, per workload, each side's median and quartiles over its
untraced runs.  Verdicts:

* ``REGRESSED``   the second median is worse than the first by more than the bound;
* ``improved``    it is better by more than the bound and by more than the
                  first side's quartile spread;
* ``within``      neither;
* ``unresolved``  a side's quartile spread (as a share of its median) exceeds
                  the bound, unless every run of one side beats every run of
                  the other.

Exit code 1 when any metric regressed, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict:
    """{(workload, metric): [values]} over the untraced runs of a result set."""
    out: dict = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record["trace"]:
            continue
        for name, metric in record["metrics"].items():
            out.setdefault((record["workload"], name), []).append(metric["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (bm - am) / am  # > 0 means the second side is worse
    a_spread, b_spread = (a3 - a1) / am, (b3 - b1) / bm
    separated = (max(b) < min(a) or min(b) > max(a))
    if max(a_spread, b_spread) > bound and not separated:
        return "unresolved", worse
    if worse > bound:
        return "REGRESSED", worse
    if -worse > bound and abs(bm - am) > (a3 - a1):
        return "improved", worse
    return "within", worse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)

    spec = json.loads(args.benchmark.read_text())
    before, after = load(args.before), load(args.after)
    workloads = [w["name"] for w in spec["workloads"]]
    regressed = False
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        print(f"{name} [{metric['unit']}], {metric['better']} is better, bound {bound:.0%}")
        print(f"  {'workload':<16} {'before q1 / median / q3':>36} {'n':>3}"
              f" {'after q1 / median / q3':>36} {'n':>3} {'change':>8}  verdict")
        for workload in workloads:
            a, b = before.get((workload, name)), after.get((workload, name))
            if not a or not b:
                side = "either side" if not a and not b else "one side"
                print(f"  {workload:<16} (no runs on {side})")
                continue
            status, worse = verdict(a, b, metric["better"], bound)
            regressed |= status == "REGRESSED"
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / qa[1]
            print(f"  {workload:<16} {' / '.join(f'{v:.4g}' for v in qa):>36} {len(a):>3}"
                  f" {' / '.join(f'{v:.4g}' for v in qb):>36} {len(b):>3} {change:>+8.1%}  {status}")
        print()
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
