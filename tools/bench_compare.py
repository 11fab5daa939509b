#!/usr/bin/env python3
"""Compare two BENCH_<n>.json records and flag moves beyond the benchmark's bounds.

    python3 tools/bench_compare.py                      # the two newest records
    python3 tools/bench_compare.py BENCH_14.json BENCH_15.json

For each workload it prints every end-to-end metric of BENCHMARK.json
with its relative change, signed so that a positive change is an
improvement in the metric's direction, and flags a change whose size
exceeds the metric's bound: WORSE or better. Then it prints each traced
layer's self time and call count on both sides; layers have no bounds, so
only a change of call count is flagged. One record is one run per side,
so a flag is a lead to check with repeated runs, not a verdict. The
script only reports: it always exits 0 once both records are read.
"""

import argparse
import json
import math
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def newest_records(root):
    """The two BENCH_<n>.json under root with the largest n, oldest first."""
    found = sorted(
        (int(m.group(1)), p) for p in root.glob("BENCH_*.json")
        if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))
    )
    if len(found) < 2:
        sys.exit(f"bench_compare: need two BENCH_<n>.json records under {root}, found {len(found)}")
    return found[-2][1], found[-1][1]


def end_to_end_rows(old, new, metrics):
    """(workload, metric, old, new, gain, flag) per workload and bounded metric.

    gain is the relative change, positive when the new value is better,
    and infinite when the old value is 0 and the new one is not; flag is
    "WORSE" or "better" when |gain| exceeds the metric's bound.
    """
    rows = []
    for workload, new_w in new["workloads"].items():
        old_w = old["workloads"].get(workload)
        if old_w is None:
            continue
        for m in metrics:
            a, b = old_w["end_to_end"].get(m["name"]), new_w["end_to_end"].get(m["name"])
            if a is None or b is None:
                continue
            sign = -1.0 if m["better"] == "lower" else 1.0
            if a:
                gain = sign * (b - a) / abs(a)
            else:  # a move off zero has no relative size: it is beyond any bound
                gain = sign * math.copysign(math.inf, b) if b else 0.0
            flag = ""
            if abs(gain) > m["bound"]:
                flag = "better" if gain > 0 else "WORSE"
            rows.append((workload, m["name"], a, b, gain, flag))
    return rows


def layer_rows(old, new):
    """(workload, layer, old self_s, new self_s, old calls, new calls) for
    every layer called on either side."""
    rows = []
    for workload, new_w in new["workloads"].items():
        old_layers = old["workloads"].get(workload, {}).get("layers", {})
        for layer, b in sorted(new_w["layers"].items()):
            a = old_layers.get(layer, {"self_s": 0.0, "calls": 0})
            if a["calls"] or b["calls"]:
                rows.append((workload, layer, a["self_s"], b["self_s"], a["calls"], b["calls"]))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("records", nargs="*", type=Path, help="old and new record (default: the two newest)")
    args = ap.parse_args(argv)
    if len(args.records) not in (0, 2):
        ap.error("give two records, old then new, or none")
    old_path, new_path = args.records or newest_records(ROOT)
    old, new = (json.loads(p.read_text()) for p in (old_path, new_path))
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    bounds = {m["name"]: m["bound"] for m in metrics}
    print(f"{old_path.name} (git {str(old.get('git_sha'))[:10]}) -> "
          f"{new_path.name} (git {str(new.get('git_sha'))[:10]})")
    workload = None
    for w, name, a, b, gain, flag in end_to_end_rows(old, new, metrics):
        if w != workload:
            workload = w
            print(f"\n{w}: end to end (gain > 0 is better; bound in brackets)")
        print(f"  {name:22s} {a:12.6g} -> {b:12.6g}  {100 * gain:+7.1f}%  "
              f"[{100 * bounds[name]:.0f}%] {flag}")
    workload = None
    for w, layer, a_s, b_s, a_c, b_c in layer_rows(old, new):
        if w != workload:
            workload = w
            print(f"\n{w}: layers, self time per traced pass and calls")
        flag = "calls changed" if a_c != b_c else ""
        print(f"  {layer:38s} {a_s:8.4f} -> {b_s:8.4f} s  {a_c:5g} -> {b_c:5g} calls  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
