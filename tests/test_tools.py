"""The BENCH record collector and comparer under tools/, on made-up runs,
and the reach report, on a made-up package."""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_compare  # noqa: E402
import bench_record  # noqa: E402
import reach  # noqa: E402

ENV = {"python": "3.11", "numpy": "2.0", "git_sha": "abc123", "src_sha256": "f00d"}


def _write_run(bench_out, workload, trace, metrics, **env):
    run = {
        "seconds": 30.0, "passes": 3 if trace == 0 else 2, "environment": dict(ENV, **env),
        "op_seconds": [["00-op", 0, False, 1, 0.1, 0.02, 0.1]] * 4,
        "failures": [["00-op", 1, "boom"]] if trace == 0 else [], "metrics": metrics,
    }
    (bench_out / f"{workload}-seed0-trace{trace}.json").write_text(json.dumps(run))


def test_record_splits_layers_and_keeps_the_end_to_end_run(tmp_path):
    _write_run(tmp_path, "w", 0, {"wall_s": 2.0, "ok_frac": 0.75})
    _write_run(tmp_path, "w", 1, {
        "linalg.thin_qr.calls": 7, "linalg.thin_qr.self_s": 0.5, "share.selection": 0.1,
        "trace.overhead_s": 0.01,
    })
    rec = bench_record.record(tmp_path, ["w"])
    assert rec["git_sha"] == "abc123" and rec["src_sha256"] == "f00d"
    assert "git_sha" not in rec["environment"] and rec["environment"]["numpy"] == "2.0"
    w = rec["workloads"]["w"]
    assert w["end_to_end"] == {"wall_s": 2.0, "ok_frac": 0.75}
    assert w["ops"] == {"attempted": 4, "failed": 1}
    assert w["layers"] == {"linalg.thin_qr": {"calls": 7, "self_s": 0.5}}
    assert w["trace"] == {"share.selection": 0.1, "trace.overhead_s": 0.01}


def test_record_refuses_runs_of_different_sources(tmp_path):
    _write_run(tmp_path, "w", 0, {"wall_s": 2.0})
    _write_run(tmp_path, "w", 1, {}, src_sha256="beef")
    with pytest.raises(SystemExit, match="different sources"):
        bench_record.record(tmp_path, ["w"])


def _bench(wall, rss, calls, ok_frac=1.0):
    return {"git_sha": "x", "workloads": {"w": {
        "end_to_end": {"wall_s": wall, "peak_rss_mb": rss, "ok_frac": ok_frac},
        "layers": {"a.f": {"calls": calls, "self_s": 0.2}, "a.unused": {"calls": 0, "self_s": 0.0}},
    }}}


def test_compare_flags_moves_beyond_the_bounds_only(tmp_path, capsys):
    metrics = json.loads((bench_compare.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    old, new = _bench(2.0, 100.0, 3), _bench(1.0, 106.0, 4)
    rows = {r[1]: r for r in bench_compare.end_to_end_rows(old, new, metrics)}
    # wall_s halves (bound 25%), peak_rss_mb grows 6% (bound 5%), ok_frac holds
    assert rows["wall_s"][4:] == (0.5, "better")
    assert rows["peak_rss_mb"][4] == pytest.approx(-0.06) and rows["peak_rss_mb"][5] == "WORSE"
    assert rows["ok_frac"][4:] == (0.0, "")
    # a move off zero is beyond any bound, flagged by the metric's direction
    rows = {r[1]: r for r in bench_compare.end_to_end_rows(
        _bench(0.0, 0.0, 3, ok_frac=0.0), _bench(1.0, 0.0, 3, ok_frac=1.0), metrics)}
    assert rows["wall_s"][4:] == (-math.inf, "WORSE")
    assert rows["ok_frac"][4:] == (math.inf, "better")
    assert rows["peak_rss_mb"][4:] == (0.0, "")
    assert bench_compare.layer_rows(old, new) == [("w", "a.f", 0.2, 0.2, 3, 4)]
    paths = []
    for n, rec in ((14, old), (15, new)):
        paths.append(tmp_path / f"BENCH_{n}.json")
        paths[-1].write_text(json.dumps(rec))
    # it reports and never gates
    assert bench_compare.main([str(p) for p in paths]) == 0
    out = capsys.readouterr().out
    assert "WORSE" in out and "calls changed" in out


def test_compare_defaults_to_the_two_newest_records_by_number(tmp_path):
    for name in ("BENCH_9.json", "BENCH_10.json", "BENCH_2.json", "BENCH_x.json"):
        (tmp_path / name).write_text("{}")
    assert bench_compare.newest_records(tmp_path) == (tmp_path / "BENCH_9.json", tmp_path / "BENCH_10.json")


_MADE_UP = {
    "__init__.py": '''"""A made-up package.

Its docstring spans three lines."""

# the one name a run calls
from .core import used  # noqa: F401


class Marker:
    """A class docstring."""
''',
    "core.py": """import functools


def used():
    def inner():
        return 1

    return inner() + Box().size


def unused(x):
    if x:
        def nested():
            return x
        return nested
    return None


class Box:
    @property
    def size(self):
        return 1

    @functools.cache
    def never(self):
        return 2
""",
}


def test_reach_lists_the_functions_that_never_ran(tmp_path, monkeypatch):
    pkg = tmp_path / "madeup"
    pkg.mkdir()
    for name, text in _MADE_UP.items():
        (pkg / name).write_text(text)
    monkeypatch.syspath_prepend(str(tmp_path))
    import madeup

    missed = reach.unreached(pkg, madeup.used)
    # a decorated method counts from its decorator, a nested def is found
    # at any depth, and a run def is not listed
    assert [(p.name, name, first, last) for p, name, first, last in missed] == [
        ("core.py", "unused", 11, 16),
        ("core.py", "unused.nested", 13, 14),
        ("core.py", "Box.never", 24, 26),
    ]
    assert reach.report(pkg, missed).splitlines() == [
        "core.py:11 unused 6",
        "core.py:13 unused.nested 2",
        "core.py:24 Box.never 3",
        # __init__.py's docstring lines, the blank one inside included, and its
        # comment lines, one after code; core.py has 18 code and 8 blank lines
        "36 lines: 19 code, 4 docstring, 2 comment",
        "3 functions never ran, 11 lines",
    ]

