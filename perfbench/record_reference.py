#!/usr/bin/env python3
"""Record the reference summaries checked at the reference seed, run from
the repository root:

    python3 perfbench/record_reference.py

Runs one pass of every workload at run.REFERENCE_SEED and writes each
operation's summary to perfbench/reference.json. A run at that seed then
fails every operation whose summary differs by more than
checks.REFERENCE_RTOL. Record only from a commit whose results are trusted.
"""

import json
import shutil
import sys

import run  # pins BLAS threads before numpy is imported
import workloads

# the summary entries compared; roundoff-level ones such as a zero angle are left out
KEYS = ("columns_total", "basis_rank", "points", "rel_error_mean", "rel_error_max", "error_constant")


def main():
    run._import_library()
    workdir = run.OUT / "reference"
    out = {}
    try:
        for name, make in workloads.WORKLOADS.items():
            wl = make(run.REFERENCE_SEED)
            workloads.write_inputs(wl, workdir)
            runner, _, _ = run.measure(wl, workdir, 1, 0)
            failed = [r.error for r in runner.records if r.error]
            if failed:
                raise SystemExit(f"{name}: {failed[0]}")
            out[name] = {
                wl.ops[r.op].name: {k: r.summary[k] for k in KEYS if k in r.summary}
                for r in runner.records
            }
            print(f"recorded {len(out[name])} operations of {name}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
