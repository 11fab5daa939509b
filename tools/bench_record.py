#!/usr/bin/env python3
"""Collect one perfbench run per workload and trace mode into BENCH_<n>.json.

Run each workload of BENCHMARK.json once with --trace 0 and once with
--trace 1 at seed 0, then record them, from the repository root:

    for w in sweep-paper bounds-desk select-cli; do
        for t in 0 1; do
            python3 perfbench/run.py --workload $w --seed 0 --seconds 30 --trace $t
        done
    done
    python3 tools/bench_record.py 15

The result file holds, per workload, the end-to-end metrics of the
--trace 0 run, its operation counts, the calls and self time of every
traced layer from the --trace 1 run, and the remaining per-layer metrics
(group shares, useful ratios, tracing overhead); plus the environment,
the git SHA and the source digest the runs report. All runs must report
the same source digest: a record mixes no two versions of the library.
Compare two records with tools/bench_compare.py.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0  # the workload seed of every record


def _load(bench_out, workload, trace):
    path = bench_out / f"{workload}-seed{SEED}-trace{trace}.json"
    if not path.is_file():
        sys.exit(f"bench_record: missing {path}; run perfbench/run.py --workload {workload} "
                 f"--seed {SEED} --trace {trace} first")
    return json.loads(path.read_text())


def _layers(metrics):
    """Split per-layer metrics into {layer: {calls, self_s}} and the rest."""
    layers, other = {}, {}
    for name, value in metrics.items():
        layer, _, kind = name.rpartition(".")
        if kind in ("calls", "self_s"):
            layers.setdefault(layer, {})[kind] = value
        else:
            other[name] = value
    return layers, other


def record(bench_out, workloads):
    """The BENCH record of the runs under bench_out, as a dict."""
    out = {"seed": SEED, "workloads": {}}
    digests = set()
    for workload in workloads:
        plain = _load(bench_out, workload, 0)
        traced = _load(bench_out, workload, 1)
        layers, other = _layers(traced["metrics"])
        out["workloads"][workload] = {
            "seconds": plain["seconds"],
            "passes": {"trace0": plain["passes"], "trace1": traced["passes"]},
            "ops": {"attempted": len(plain["op_seconds"]), "failed": len(plain["failures"])},
            "end_to_end": plain["metrics"],
            "layers": layers,
            "trace": other,
        }
        for run in (plain, traced):
            env = dict(run["environment"])
            digests.add((env.pop("git_sha"), env.pop("src_sha256")))
            out.setdefault("environment", env)
    if len(digests) != 1:
        sys.exit(f"bench_record: the runs measured different sources: {sorted(digests, key=str)}")
    (out["git_sha"], out["src_sha256"]), = digests
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("index", type=int, help="n of the BENCH_<n>.json to write")
    ap.add_argument("--bench-out", type=Path, default=ROOT / ".bench_out",
                    help="directory of the perfbench result files (default .bench_out)")
    ap.add_argument("--out-dir", type=Path, default=ROOT,
                    help="directory to write BENCH_<n>.json in (default the repository root)")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    result = {"bench": args.index, **record(args.bench_out, workloads)}
    path = args.out_dir / f"BENCH_{args.index}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
