#!/usr/bin/env python3
"""Quick self-check of the benchmark at tiny sizes, run from the repository root:

    python3 perfbench/selfcheck.py

It runs every workload's operation list on tiny inputs, one untraced and
one traced pass, and checks that every metric named in BENCHMARK.json is
emitted with its unit. It then runs operations that raise, exit nonzero
or fail their check, and checks that each is counted as failed. Exits
nonzero, naming the failed expectation, otherwise.
"""

import dataclasses
import json
import math
import shutil
import sys

import run  # pins BLAS threads before numpy is imported
import tracing
import workloads
from workloads import Op

# shrink the grids so a pass takes well under a second; the adaptive range
# finder still needs n >= block * max_blocks = 400
TINY = {
    "osc": {"n_t": 400, "n_mu": 40},
    "corner": {"grid": 20, "param_grid": 8},
    "source": {"n_grid": 20, "n_train": 60},
}
SEED = 3


def tiny_workloads(seed):
    out = []
    for make in (workloads.sweep_paper, workloads.bounds_desk):
        wl = make(seed)
        ops = tuple(
            dataclasses.replace(op, params={**op.params, "scale": "desk",
                                            "overrides": TINY[op.params["example"]]})
            for op in wl.ops
        )
        out.append(dataclasses.replace(wl, ops=ops))
    inputs = (workloads.BasisInput("osc-r10", "osc", 10, "desk", seed, TINY["osc"]),
              workloads.BasisInput("corner-r24", "corner", 24, "desk", seed + 1, TINY["corner"]))
    out.append(workloads.Workload("select-cli", seed, workloads.select_ops(inputs), inputs))
    return out


def expect(cond, message):
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {message}")


def check_metrics(line, declared, what):
    got = line["metrics"]
    expect(set(got) == set(declared), f"{what}: metrics {sorted(set(got) ^ set(declared))} differ")
    for name, unit in declared.items():
        value = got[name]["value"]
        expect(got[name]["unit"] == unit, f"{what}: {name} has unit {got[name]['unit']!r}, not {unit!r}")
        expect(isinstance(value, (int, float)) and math.isfinite(value), f"{what}: {name} = {value!r}")
    json.loads(json.dumps(line, allow_nan=False))


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(end_to_end == dict(run.END_TO_END), "BENCHMARK.json end_to_end differs from run.py")
    expect(per_layer == {n: u for n, u, _ in tracing.per_layer_names()},
           "BENCHMARK.json per_layer differs from tracing.py")
    expect({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.py")
    predictions = json.loads((run.HERE / "predictions.json").read_text())["predictions"]
    for entry in predictions:
        for layer in entry["layers"]:
            expect(layer in per_layer or f"{layer}.calls" in per_layer, f"predicted layer {layer}")
        for key in ("moves", "no_change", "must_not_worsen", "watch"):
            for wl, names in entry.get(key, {}).items():
                expect(wl in workloads.WORKLOADS and set(names) <= set(end_to_end), f"{key} {wl} {names}")

    run._import_library()
    workdir = run.OUT / "selfcheck"
    try:
        for wl in tiny_workloads(SEED):
            workloads.write_inputs(wl, workdir)
            for trace, declared in ((0, end_to_end), (1, per_layer)):
                runner, tracer, bounds = run.measure(wl, workdir, 2, trace)
                failures = [r.error for r in runner.records if r.error]
                expect(not failures, f"{wl.name}: {failures[:1]}")
                metrics, units, _ = run.metrics_of(runner.records, tracer, bounds, len(wl.ops), 0.5)
                line = run.result_line(runner.records, metrics, units)
                expect(line["correct"] and line["attempted"] == 2 * len(wl.ops), line)
                check_metrics(line, declared, f"{wl.name} trace {trace}")
            print(f"selfcheck {wl.name}: {len(wl.ops)} ops, every metric emitted with its unit")

        sweep, _, select = tiny_workloads(SEED)
        broken = workloads.Workload("broken", SEED, (
            sweep.ops[0],
            # raises inside the library: rank 0 is rejected
            Op("raises", "experiment", {**sweep.ops[0].params, "rank": 0}),
            # the CLI exits nonzero: the basis file does not exist
            Op("exits", "select", {**select.ops[0].params, "basis": "missing"}),
            # runs fine but its summary disagrees with the recorded one
            dataclasses.replace(sweep.ops[1], name="mismatch"),
        ), select.inputs)
        reference = {"mismatch": {"error_constant": 1e9}}
        runner, _, _ = run.measure(broken, workdir, 1, 0, reference)
        metrics, units, _ = run.metrics_of(runner.records, None, [], len(broken.ops), 0.5)
        line = run.result_line(runner.records, metrics, units)
        failed = [broken.ops[r.op].name for r in runner.records if r.error]
        expect(failed == ["raises", "exits", "mismatch"], failed)
        expect(line["failed"] == 3 and line["attempted"] == 4 and not line["correct"], line)
        expect(metrics["ok_frac"] == 0.25, metrics["ok_frac"])
        print("selfcheck failures: an exception, a nonzero exit and a failed check each count as failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
