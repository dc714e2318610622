#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    for seed in 1 2 3 4 5; do
        python3 perfbench/run.py --workload seq2seq --seed $seed --seconds 25 --out change.jsonl
    done
    python3 perfbench/compare.py parent.jsonl change.jsonl
    python3 perfbench/compare.py change.jsonl               # one set: medians and spreads

A set is the JSON-lines file that ``run.py --out`` appends to.  The report
shows, per workload and metric (the ungated ones from the info line too),
each set's median, quartiles and run-to-run spread (quartile distance over
the median).  With two sets it adds the change of the median against the
first (parent) set and flags it against the metric's bound from
BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT)]

from perfbench.stats import quartiles, spread  # noqa: E402


def load_set(path) -> dict:
    """``{workload: {metric: [values]}}`` and units, from a JSON-lines set."""
    values: dict = defaultdict(lambda: defaultdict(list))
    units = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, m in (rec["result"]["metrics"] | rec["info"].get("ungated", {})).items():
                values[rec["info"]["workload"]][name].append(m["value"])
                units[name] = m["unit"]
    return values, units


def bounds() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def verdict(metric: dict | None, parent: list, change: list) -> str:
    """Change of the median against the parent, judged by the metric's bound."""
    if metric is None or "bound" not in metric:
        return ""
    _, p_med, _ = quartiles(parent)
    _, c_med, _ = quartiles(change)
    worse = (c_med - p_med) / abs(p_med) if p_med else 0.0
    if metric["better"] == "higher":
        worse = -worse
    if worse > metric["bound"]:
        return "WORSE"
    if max(spread(parent), spread(change)) > metric["bound"]:
        return "unresolved"
    return "ok"


def report(paths) -> list:
    sets = [load_set(p) for p in paths]
    spec = bounds()
    lines = []
    for workload in sorted(set().union(*(s[0].keys() for s in sets))):
        lines.append(f"== {workload}")
        head = f"{'metric':34} {'unit':9}"
        for i, _ in enumerate(sets):
            tag = "parent" if i == 0 and len(sets) > 1 else ("change" if i else "set")
            head += f" | {tag + ' median':>14} {'q1':>10} {'q3':>10} {'spread':>7} {'n':>3}"
        if len(sets) > 1:
            head += f" | {'delta':>7} verdict"
        lines.append(head)
        names = sorted(set().union(*(s[0].get(workload, {}).keys() for s in sets)))
        for name in names:
            cols = [s[0].get(workload, {}).get(name, []) for s in sets]
            if not all(cols):
                continue
            row = f"{name:34} {sets[0][1].get(name, ''):9}"
            for vals in cols:
                q1, med, q3 = quartiles(vals)
                row += f" | {_fmt(med):>14} {_fmt(q1):>10} {_fmt(q3):>10} {spread(vals):7.3f} {len(vals):3d}"
            if len(sets) > 1:
                p_med, c_med = quartiles(cols[0])[1], quartiles(cols[1])[1]
                delta = (c_med - p_med) / abs(p_med) if p_med else 0.0
                row += f" | {delta:+7.3f} {verdict(spec.get(name), cols[0], cols[1])}"
            lines.append(row)
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("sets", nargs="+", type=Path, help="one set, or the parent set and the change set")
    args = p.parse_args(argv)
    if len(args.sets) > 2:
        p.error("give one or two sets")
    print("\n".join(report(args.sets)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
