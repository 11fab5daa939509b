"""Spans recorded around the library's public functions, from outside it.

Installing a Tracer rebinds each traced function in every rdeim module
that looks it up by name (``rdeim.experiments.svd_basis``,
``rdeim.selection.srrqr``, ``rdeim.bounds.canonical_angles``, ...) and
replaces the traced DeimProjector methods on the class, so calls made
inside the library are recorded too. Uninstalling restores the originals.
Spans stay in memory as (name, start, end, parent, operation) tuples and
are written out when the run ends.
"""

import functools
import importlib
import sys
import time

# <module>.<function>, named after the module that defines the function
FUNCTIONS = (
    "experiments.run_experiment",
    "experiments.generate",
    "experiments.build_basis",
    "experiments.select_points",
    "experiments.error_sweep",
    "experiments.source_test_points",
    "rangefinder.basic_range_finder",
    "rangefinder.subspace_range_finder",
    "rangefinder.adaptive_range_finder",
    "rangefinder.truncate_basis",
    "rangefinder.svd_basis",
    "linalg.thin_svd",
    "linalg.pivoted_qr",
    "linalg.srrqr",
    "linalg.canonical_angles",
    "linalg.spectral_norm",
    "selection.deim_greedy_select",
    "selection.pqr_select",
    "selection.srrqr_select",
    "selection.leverage_select",
    "selection.hybrid_select",
    "selection.leverage_scores",
    "projector.build_projector",
    "bounds.interpolation_error_bound",
    "bounds.perturbed_basis_bound",
    "matio.read_matrix",
    "matio.emit_csv",
    "cli.main",
)
# <module>.<method> of DeimProjector
METHODS = ("projector.apply", "projector.error_constant")
NAMES = FUNCTIONS + METHODS

# layer groups whose share of the traced wall time justifies a workload
SHARES = {
    "share.error_constant_canonical_angles": ("projector.error_constant", "linalg.canonical_angles"),
    "share.pivoted_qr_srrqr": ("linalg.pivoted_qr", "linalg.srrqr"),
    "share.selection": tuple(n for n in NAMES if n.startswith("selection."))
    + ("experiments.select_points", "linalg.pivoted_qr", "linalg.srrqr"),
}


def per_layer_names():
    """Every per-layer metric name with its unit and direction."""
    out = []
    for name in NAMES:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out.append(("projector.error_constant.useful_ratio", "ratio", "higher"))
    out.append(("linalg.canonical_angles.useful_ratio", "ratio", "higher"))
    out.extend((name, "ratio", "lower") for name in SHARES)
    out.append(("trace.overhead_s", "s", "lower"))
    return out


class Tracer:
    """Records spans while installed; a context manager installs it."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._restore = []

    def _wrap(self, name_id, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name_id, start, end, parent, self.op)

        return traced

    def install(self):
        modules = [m for k, m in list(sys.modules.items()) if k == "rdeim" or k.startswith("rdeim.")]
        # a function the library no longer has is skipped and reports no calls
        for name_id, name in enumerate(FUNCTIONS):
            mod, attr = name.split(".")
            fn = getattr(importlib.import_module(f"rdeim.{mod}"), attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(name_id, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._restore.append((m, key, fn))
                        setattr(m, key, wrapper)
        cls = importlib.import_module("rdeim.projector").DeimProjector
        for k, name in enumerate(METHODS):
            attr = name.split(".")[1]
            fn = cls.__dict__.get(attr)
            if fn is None:
                continue
            self._restore.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(len(FUNCTIONS) + k, fn))

    def uninstall(self):
        while self._restore:
            owner, key, fn = self._restore.pop()
            setattr(owner, key, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def layer_metrics(spans, first, last, n_ops):
    """Calls, self time and group shares of the spans spans[first:last].

    Self time is a span's duration minus its children's; a group's share
    counts only its outermost spans, so nested members are not counted
    twice, over the summed duration of the root spans.
    """
    calls = [0] * len(NAMES)
    self_s = [0.0] * len(NAMES)
    for sid in range(first, last):
        name_id, start, end, parent, _ = spans[sid]
        dur = end - start
        calls[name_id] += 1
        self_s[name_id] += dur
        if parent >= first:
            self_s[spans[parent][0]] -= dur
    roots = sum(e - s for _, s, e, p, _ in spans[first:last] if p < first)
    out = {}
    for k, name in enumerate(NAMES):
        out[f"{name}.calls"] = calls[k]
        out[f"{name}.self_s"] = self_s[k]
    index = {name: k for k, name in enumerate(NAMES)}
    builds = calls[index["projector.build_projector"]]
    constants = calls[index["projector.error_constant"]]
    angles = calls[index["linalg.canonical_angles"]]
    # no call at all wastes nothing
    out["projector.error_constant.useful_ratio"] = builds / constants if constants else 1.0
    out["linalg.canonical_angles.useful_ratio"] = n_ops / angles if angles else 1.0
    for share, members in SHARES.items():
        ids = {index[m] for m in members}
        covered = 0.0
        for sid in range(first, last):
            name_id, start, end, parent, _ = spans[sid]
            if name_id in ids and not _inside(spans, parent, first, ids):
                covered += end - start
        out[share] = covered / roots if roots > 0 else 0.0
    return out


def _inside(spans, sid, first, ids):
    while sid >= first:
        if spans[sid][0] in ids:
            return True
        sid = spans[sid][3]
    return False
