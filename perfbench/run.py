#!/usr/bin/env python3
"""Benchmark of the rdeim library, run from the repository root:

    python3 perfbench/run.py --workload sweep-paper --seed 0 --seconds 30 --trace 0

Each workload is a fixed list of operations sent in a closed loop by one
client: the next operation starts only after the previous one returned.
A run repeats the list for a number of passes sized to --seconds, checks
every operation's output, and prints one human-readable line per metric
followed, as the last line, by one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics;
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones. Every end-to-end time is at a reference
host speed, measured by the probe in speed.py. BLAS runs on one thread.
Results, the environment and the traced spans are written under
.bench_out/.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# must precede the first numpy import, here and in the set-up children
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
# set-ups per run; setup_s is their median. An import-only set-up takes
# about half a second and swings by a third between runs, so those get more
SETUPS = {"sweep-paper": 7, "bounds-desk": 7, "select-cli": 3}
# an operation's time is normalized by the speed probes of the operations
# up to WINDOW positions before and after it
WINDOW = 3
# about one pass of each workload, speed probes included, on a busy 2-core
# x86-64 box at one BLAS thread; a run makes round(--seconds / PASS_SECONDS)
# passes, so every run of a workload times the same operations
PASS_SECONDS = {"sweep-paper": 10.0, "bounds-desk": 5.0, "select-cli": 3.0}


# every end-to-end metric with its unit
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_s_p50", "s"), ("op_s_tail", "s"),
              ("peak_rss_mb", "MB"), ("ok_frac", "frac"), ("rel_error_gmean", "ratio"),
              ("error_constant_gmean", "ratio"), ("bound_ratio_gmean", "ratio"))


@dataclass
class Record:
    op: int
    pass_index: int
    traced: bool
    seconds: float
    seed: int = None
    # the speed probe taken right before the timed call
    probe: float = None
    # the time at the reference host speed, set by normalize()
    normalized: float = None
    summary: dict = None
    quality: dict = None
    error: str = None


def _import_library():
    sys.path.insert(0, str(SRC))
    # the tracer rebinds names only in modules already imported
    import rdeim.cli  # noqa: F401
    import rdeim.experiments  # noqa: F401


class Runner:
    """Runs the operations of one workload and checks each result."""

    def __init__(self, workload, workdir, reference=None, tracer=None):
        import rdeim.matio

        self.workload = workload
        self.workdir = workdir
        self.reference = reference or {}
        self.tracer = tracer
        self.records = []
        self.inputs = {}
        for inp in workload.inputs:
            W = rdeim.matio.read_matrix(workloads.basis_path(workdir, inp.name))
            T = rdeim.matio.read_matrix(workloads.test_path(workdir, inp.name))
            self.inputs[inp.name] = (np.ascontiguousarray(W), T)

    def run_pass(self, pass_index, traced):
        for k, op in enumerate(self.workload.ops):
            rec = Record(op=k, pass_index=pass_index, traced=traced, seconds=0.0)
            if self.tracer is not None:
                self.tracer.op = len(self.records)
            try:
                params = self.workload.params(pass_index, k)
                rec.seed = params["seed"]
                if op.kind == "experiment":
                    self._experiment(params, rec)
                else:
                    self._select(op.name, params, rec)
                recorded = self.reference.get(op.name)
                if recorded is not None and pass_index == 0:
                    checks.check_reference(rec.summary, recorded)
            except Exception as err:  # any failure of one operation is counted, not fatal
                rec.error = f"{type(err).__name__}: {err}"
                if not isinstance(err, checks.CheckError):
                    rec.error += "\n" + traceback.format_exc(limit=4)
            self.records.append(rec)

    def _experiment(self, p, rec):
        from rdeim import experiments

        spec = experiments.ExperimentSpec(**p)
        real = experiments.error_sweep
        seen = {}

        def capture(P, snaps, *args, **kwargs):
            seen["P"], seen["snaps"] = P, snaps
            return real(P, snaps, *args, **kwargs)

        experiments.error_sweep = capture
        try:
            table = _timed(rec, experiments.run_experiment, spec)
        finally:
            experiments.error_sweep = real
        rec.summary, rec.quality = checks.check_experiment(p, table, seen["P"], seen["snaps"])

    def _select(self, name, p, rec):
        import rdeim.cli

        points = self.workdir / f"points-{name}.csv"
        points.unlink(missing_ok=True)
        argv = ["select", "--basis-file", str(workloads.basis_path(self.workdir, p["basis"])),
                "--select", p["select"], "--eta", repr(p["eta"]), "--beta", repr(p["beta"]),
                "--seed", str(p["seed"]), "--out", str(points)]
        if "samples" in p:
            argv += ["--samples", str(p["samples"])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = _timed(rec, rdeim.cli.main, argv)
            except SystemExit as stop:  # argparse rejects the arguments
                code = stop.code
        if code != 0:
            raise checks.CheckError(f"exit code {code}: {err.getvalue().strip()}")
        W, T = self.inputs[p["basis"]]
        rec.summary, rec.quality = checks.check_select(p, points, W, T)


def _timed(rec, fn, *args):
    """Call fn, timing it into rec, right after a speed probe."""
    rec.probe = speed.probe()
    start = time.perf_counter()
    try:
        return fn(*args)
    finally:
        rec.seconds = time.perf_counter() - start


def normalize(records):
    """Set each record's time at the reference host speed (see speed.py).

    Records are in the order they ran. Each time is divided by the median
    of the probes of the operations within WINDOW positions of it: that
    follows the host's drift over seconds, while one probe slowed by a
    passing hiccup barely moves it.
    """
    for i, rec in enumerate(records):
        near = [r.probe for r in records[max(0, i - WINDOW):i + WINDOW + 1] if r.probe]
        rec.normalized = rec.seconds
        if near:
            rec.normalized *= speed.REFERENCE_S / statistics.median(near)


def _gmean(values):
    values = [v for v in values if v > 0.0 and math.isfinite(v)]
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def _median_pass_wall(records):
    """The median over passes of the raw time of a whole pass."""
    walls = {}
    for r in records:
        walls[r.pass_index] = walls.get(r.pass_index, 0.0) + r.seconds
    return statistics.median(walls.values()) if walls else 0.0


def _per_op_medians(records):
    """Each operation's median normalized time over the passes.

    Taking the median of these, rather than of all samples, keeps an even
    operation count from putting the median on the gap between two
    operations' clusters of times.
    """
    times = {}
    for r in records:
        times.setdefault(r.op, []).append(r.normalized)
    return [statistics.median(t) for t in times.values()]


def tail(times):
    """The highest time with at least 10 samples beyond it (the maximum if
    there are fewer), its percentile, the sample count and the count beyond."""
    ordered = sorted(times)
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n, n - 1 - k


def end_to_end(records, setup_s):
    timed = [r for r in records if not r.traced]
    good = [r for r in timed if r.error is None]
    value, pct, n, beyond = tail([r.normalized for r in timed])
    op_medians = _per_op_medians(timed)
    ratio_logs = sum(r.quality["log_ratio_sum"] for r in good)
    ratio_count = sum(r.quality["ratio_count"] for r in good)
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(op_medians),
        "op_s_p50": statistics.median(op_medians),
        "op_s_tail": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": len(good) / len(timed),
        "rel_error_gmean": _gmean([r.quality["rel_error"] for r in good]),
        "error_constant_gmean": _gmean([r.quality["error_constant"] for r in good]),
        "bound_ratio_gmean": math.exp(ratio_logs / ratio_count) if ratio_count else 0.0,
    }
    notes = {"wall_s": f"raw: median pass {_median_pass_wall(timed)!r} s",
             "op_s_tail": f"p{pct:.1f} of {n} ops, {beyond} beyond"}
    return metrics, notes


def per_layer(records, spans, bounds, n_ops):
    """Per-layer metrics: the median over traced passes, plus the tracing overhead."""
    per_pass = [tracing.layer_metrics(spans, first, last, n_ops) for first, last in bounds]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    traced = sum(_per_op_medians([r for r in records if r.traced]))
    metrics["trace.overhead_s"] = traced - sum(_per_op_medians([r for r in records if not r.traced]))
    return metrics


def metrics_of(records, tracer, bounds, n_ops, setup_s):
    """The metrics of a run with their units and notes: per-layer if traced."""
    if tracer is not None:
        units = {name: unit for name, unit, _ in tracing.per_layer_names()}
        return per_layer(records, tracer.spans, bounds, n_ops), units, {}
    metrics, notes = end_to_end(records, setup_s)
    return metrics, dict(END_TO_END), notes


def result_line(records, metrics, units):
    """The JSON object printed as the last line of a run."""
    failed = sum(r.error is not None for r in records)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def _openblas_threads():
    import scipy

    found = {}
    for pkg in (np, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[Path(path).name] = fn()
                    break
    return found


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment():
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _openblas_threads(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
    }


def _probe_median():
    return statistics.median(speed.probe() for _ in range(3))


def timed_setups(args, workdir):
    """Run the workload's set-up SETUPS times in fresh processes.

    One set-up is a process that starts, imports the library and writes
    the workload's input files; the last one's files are used. It is
    timed from its spawn to the monotonic-clock reading it prints when
    ready, which leaves out interpreter teardown. Returns each raw
    duration and each one normalized by the speed probes taken right
    before and after it.
    """
    speed.warm_up()
    times, normed = [], []
    for _ in range(SETUPS[args.workload]):
        before = _probe_median()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only", str(workdir)],
            stdout=subprocess.PIPE, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up exited with code {proc.returncode}")
        times.append(float(proc.stdout.split()[-1]) - start)
        normed.append(times[-1] * speed.REFERENCE_S / (0.5 * (before + _probe_median())))
    return times, normed


def setup_only(args):
    _import_library()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workloads.write_inputs(workload, Path(args.setup_only))
    # perf_counter is the system-wide monotonic clock, comparable across processes
    print(time.perf_counter())
    return 0


def passes_for(workload, seconds):
    return max(1, round(seconds / PASS_SECONDS[workload]))


def load_reference(workload, seed):
    if seed != REFERENCE_SEED or not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text()).get(workload, {})


def measure(workload, workdir, passes, trace, reference=None):
    """Run the passes; with trace, odd passes are traced.

    Returns the runner, the tracer (None without trace) and the span
    range [first, last) of each traced pass.
    """
    tracer = tracing.Tracer() if trace else None
    runner = Runner(workload, workdir, reference, tracer)
    speed.warm_up()
    bounds = []
    for p in range(passes):
        if trace and p % 2 == 1:
            first = len(tracer.spans)
            with tracer:
                runner.run_pass(p, traced=True)
            bounds.append((first, len(tracer.spans)))
        else:
            runner.run_pass(p, traced=False)
    normalize(runner.records)
    return runner, tracer, bounds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PASS_SECONDS))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "rdeim" / "__init__.py").is_file():
        print(f"perfbench: no rdeim sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_only(args)

    workdir = OUT / f"work-{os.getpid()}"
    try:
        setups, setups_normalized = timed_setups(args, workdir)
        _import_library()
        workload = workloads.WORKLOADS[args.workload](args.seed)
        passes = passes_for(args.workload, args.seconds)
        if args.trace:
            passes = max(2, passes)
        reference = load_reference(args.workload, args.seed)
        runner, tracer, bounds = measure(workload, workdir, passes, args.trace, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = runner.records
    failed = [r for r in records if r.error is not None]
    metrics, units, notes = metrics_of(records, tracer, bounds, len(workload.ops),
                                       statistics.median(setups_normalized))

    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "passes": passes, "setups_s": setups, "setups_normalized_s": setups_normalized,
        "speed_reference_s": speed.REFERENCE_S, "environment": env,
        "ops": [{"name": op.name, "kind": op.kind, "params": op.params} for op in workload.ops],
        "summaries": {workload.ops[r.op].name: r.summary for r in records if r.pass_index == 0},
        "op_seconds": [[workload.ops[r.op].name, r.pass_index, r.traced, r.seed, r.seconds,
                        r.probe, r.normalized] for r in records],
        "failures": [[workload.ops[r.op].name, r.pass_index, r.error] for r in failed],
        "metrics": metrics,
        "notes": notes,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1))
    if tracer is not None:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(
            {"names": list(tracing.NAMES), "ops": [workload.ops[r.op].name for r in records],
             "spans": tracer.spans}))

    for r in failed:
        print(f"FAILED {workload.ops[r.op].name} pass {r.pass_index}: {r.error}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {passes} passes x {len(workload.ops)} ops, "
          f"closed loop, 1 client; {env['blas']} threads {sorted(set(env['blas_threads'].values()))}, "
          f"nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, git {env['git_sha']}")
    print(f"failed_frac {len(failed) / len(records)!r} ({len(failed)} of {len(records)} ops)")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value!r} {units[name]}{note}")
    print(f"results in {OUT.relative_to(ROOT) / (tag + '.json')}")
    print(json.dumps(result_line(records, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
