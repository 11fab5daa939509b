import argparse
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import rdeim.cli
import rdeim.experiments
from rdeim.bounds import deviation_constant, hybrid_constant, leverage_constant, srrqr_constant
from rdeim.cli import main
from rdeim.experiments import AlgorithmSpec, ExperimentSpec, bench_basis
from rdeim.matio import read_matrix, write_matrix

from conftest import patch_cpus, random_matrix, random_orthonormal


def test_gen_writes_matrix(tmp_path, capsys):
    out = tmp_path / "osc.rdmx"
    rc = main(["gen", "--example", "osc", "--out", str(out)])
    assert rc == 0
    A = read_matrix(out)
    assert A.shape == (2000, 100)
    assert "2000 x 100" in capsys.readouterr().out


def test_gen_basis_select_round_trip(tmp_path, capsys):
    mat = tmp_path / "osc.rdmx"
    assert main(["gen", "--example", "osc", "--out", str(mat)]) == 0

    basis = tmp_path / "basis.rdmx"
    rc = main(
        ["basis", "--matrix", str(mat), "--rank", "8", "--basis", "subspace",
         "--oversample", "6", "--power", "1", "--out", str(basis)]
    )
    assert rc == 0
    W = read_matrix(basis)
    assert W.shape == (2000, 8)
    assert np.max(np.abs(W.T @ W - np.eye(8))) < 1e-10

    points = tmp_path / "points.csv"
    rc = main(["select", "--basis-file", str(basis), "--select", "pqr", "--out", str(points)])
    assert rc == 0
    lines = points.read_text().strip().split("\n")
    assert lines[0] == "position,index,weight"
    assert len(lines) == 9
    for k, line in enumerate(lines[1:]):
        pos, idx, w = line.split(",")
        assert int(pos) == k
        assert 0 <= int(idx) < 2000
        assert float(w) == 1.0


@pytest.mark.parametrize(
    "options", [["--basis", "subspace"], ["--basis", "adaptive", "--block", "2", "--max-blocks", "10"]]
)
def test_basis_of_a_finite_matrix_whose_products_overflow(tmp_path, options):
    # the finders rescale such a matrix by a power of two, not fail on it
    mat = tmp_path / "huge.rdmx"
    write_matrix(mat, random_matrix(40, 20, seed=0) * 1e307)
    out = tmp_path / "basis.rdmx"
    assert main(["basis", "--matrix", str(mat), "--rank", "4", *options, "--out", str(out)]) == 0
    W = read_matrix(out)
    assert W.shape == (40, 4)
    assert np.max(np.abs(W.T @ W - np.eye(4))) < 1e-12


@pytest.mark.parametrize("basis", ["subspace", "adaptive"])
def test_basis_bytes_do_not_depend_on_the_cpus(tmp_path, monkeypatch, one_blas_thread, basis):
    # on one BLAS thread the products with a matrix of 2^21 entries or more
    # are formed in one part per usable CPU, and one part writes the same file
    mat = tmp_path / "wide.rdmx"
    write_matrix(mat, random_matrix(2500, 30, seed=3) @ random_matrix(30, 841, seed=4))
    files = []
    for cpus in (2, 1):
        patch_cpus(monkeypatch, cpus)
        files.append(tmp_path / f"basis-{cpus}.rdmx")
        assert main(["basis", "--matrix", str(mat), "--rank", "12", "--basis", basis,
                     "--out", str(files[-1])]) == 0
    assert files[0].read_bytes() == files[1].read_bytes()


def test_select_rejects_skew_basis(tmp_path, capsys):
    bad = tmp_path / "skew.rdmx"
    write_matrix(bad, random_matrix(30, 4, seed=0))
    rc = main(["select", "--basis-file", str(bad), "--select", "greedy", "--out", str(tmp_path / "p.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "rdeim select" in err and "orthonormal" in err


def test_select_rank_deficient_writes_nothing(tmp_path, capsys):
    # all leverage sits on rows 0..3, and the four draws at seed 0 miss one
    basis = tmp_path / "e.rdmx"
    write_matrix(basis, np.eye(60)[:, :4])
    points = tmp_path / "pts.csv"
    rc = main(
        ["select", "--basis-file", str(basis), "--select", "leverage",
         "--samples", "4", "--seed", "0", "--out", str(points)]
    )
    assert rc == 1
    assert "rank deficient" in capsys.readouterr().err
    assert not points.exists()


@pytest.mark.parametrize("selector", ["greedy", "pqr", "srrqr", "leverage", "hybrid"])
def test_select_checks_rank_from_singular_values_alone(tmp_path, monkeypatch, selector):
    # the rank check reads sigma_min / sigma_1 only, so the one SVD a
    # select makes forms no singular vectors
    basis = tmp_path / "w.rdmx"
    write_matrix(basis, np.linalg.qr(random_matrix(60, 5, seed=2))[0])
    calls = []
    real_svd = np.linalg.svd

    def svd(M, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return real_svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    points = tmp_path / "pts.csv"
    rc = main(["select", "--basis-file", str(basis), "--select", selector, "--out", str(points)])
    assert rc == 0 and points.exists()
    assert calls == [False]


def test_basis_out_of_blocks_writes_nothing(tmp_path, capsys):
    # one block of 10 columns leaves a random 60 x 40 matrix far above 1e-9
    mat = tmp_path / "m.rdmx"
    write_matrix(mat, random_matrix(60, 40, seed=0))
    out = tmp_path / "b.rdmx"
    argv = ["basis", "--matrix", str(mat), "--basis", "adaptive", "--max-blocks", "1",
            "--tol", "1e-9", "--out", str(out)]
    assert main(argv) == 1
    assert "rdeim basis: tolerance 1e-09 not reached after 1 blocks" in capsys.readouterr().err
    assert not out.exists()


def test_select_on_a_file_8_bytes_short_writes_nothing(tmp_path, capsys):
    basis = tmp_path / "w.rdmx"
    write_matrix(basis, random_orthonormal(60, 5, seed=0))
    basis.write_bytes(basis.read_bytes()[:-8])
    points = tmp_path / "pts.csv"
    assert main(["select", "--basis-file", str(basis), "--out", str(points)]) == 1
    assert "payload holds 2392 bytes, expected 2400" in capsys.readouterr().err
    assert not points.exists()


@pytest.mark.parametrize("selector", ["leverage", "hybrid"])
def test_select_rejects_fewer_samples_than_the_rank(tmp_path, capsys, selector):
    # checked by the spec, before any point is drawn
    basis = tmp_path / "w.rdmx"
    write_matrix(basis, random_orthonormal(60, 8, seed=0))
    points = tmp_path / "pts.csv"
    argv = ["select", "--basis-file", str(basis), "--select", selector, "--samples", "5",
            "--out", str(points)]
    assert main(argv) == 1
    assert "rdeim select: samples must be >= 8, got 5" in capsys.readouterr().err
    assert not points.exists()


def test_select_leverage_weights(tmp_path):
    basis = tmp_path / "w.rdmx"
    W, _ = np.linalg.qr(random_matrix(60, 5, seed=1))
    write_matrix(basis, W)
    points = tmp_path / "pts.csv"
    rc = main(
        ["select", "--basis-file", str(basis), "--select", "leverage",
         "--samples", "12", "--seed", "3", "--out", str(points)]
    )
    assert rc == 0
    lines = points.read_text().strip().split("\n")[1:]
    assert len(lines) == 12
    assert any(float(l.split(",")[2]) != 1.0 for l in lines)


def test_approx_end_to_end(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(
        ["approx", "--example", "osc", "--rank", "10", "--basis", "svd",
         "--select", "greedy", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "column,norm,abs_error,rel_error"
    assert len(lines) == 101
    assert "mean rel error" in capsys.readouterr().out


def test_approx_with_bounds_header(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(
        ["approx", "--example", "osc", "--rank", "8", "--basis", "basic",
         "--select", "pqr", "--with-bounds", "--out", str(out)]
    )
    assert rc == 0
    header = out.read_text().split("\n", 1)[0]
    assert header == "column,norm,abs_error,rel_error,bound_plain,bound_perturbed,sin_theta_max"


def test_approx_reports_a_projector_svd_failure_on_one_line(monkeypatch, tmp_path, capsys):
    real = rdeim.experiments.build_projector

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    def build_projector(W, S):  # the SVD of S'W is the first one it takes
        monkeypatch.setattr(np.linalg, "svd", fail)
        return real(W, S)

    monkeypatch.setattr(rdeim.experiments, "build_projector", build_projector)
    out = tmp_path / "sweep.csv"
    rc = main(["approx", "--example", "osc", "--rank", "8", "--basis", "basic", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and not out.exists()
    assert err.startswith("rdeim approx: SVD of the cross matrix S'W (8, 8)")
    assert err.count("\n") == 1 and "Traceback" not in err


# each kind's options, and its value at the option defaults --eta 2,
# --beta 0.5, --eps 0.9 and --delta 0.1
_CONSTANT_RUNS = {
    "srrqr": (["--rank", "5", "--n", "50"], lambda: srrqr_constant(2.0, 5, 50)),
    "leverage": (["--n", "2500", "--samples", "284"], lambda: leverage_constant(2500, 284, 0.5, 0.9)),
    "hybrid": (
        ["--n", "2500", "--samples", "284", "--rank", "12"],
        lambda: hybrid_constant(2500, 284, 0.5, 0.9, 2.0, 12),
    ),
    "deviation": (
        ["--rank", "5", "--oversample", "10", "--n-snapshots", "60"],
        lambda: deviation_constant(5, 10, 0.1, 60),
    ),
}


@pytest.mark.parametrize("kind", list(_CONSTANT_RUNS))
def test_bounds_prints_library_value(capsys, kind):
    options, value = _CONSTANT_RUNS[kind]
    rc = main(["bounds", "--kind", kind] + options)
    assert rc == 0
    assert capsys.readouterr().out == f"{kind} {value()!r}\n"


def test_bounds_rejects_an_unknown_kind(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["bounds", "--kind", "gap", "--rank", "5"])
    assert exit_.value.code == 2
    assert "invalid choice: 'gap'" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--basis", "subspace"]])
def test_approx_rejects_a_negative_seed(tmp_path, capsys, extra):
    out = tmp_path / "s.csv"
    argv = ["approx", "--example", "osc", "--rank", "8", "--seed", "-1", "--out", str(out)]
    assert main(argv + extra) == 1
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "options, message",
    [
        (["--select", "pqr", "--beta", "2"], "beta must lie in (0, 1)"),
        (["--basis", "svd", "--oversample", "0"], "oversample must be >= 1"),
        (["--basis", "svd", "--tol", "5"], "tol must lie in (0, 1)"),
        (["--select", "greedy", "--eta", "0.5"], "eta must be >= 1"),
        (["--select", "pqr", "--samples", "-3"], "samples must be >= 1"),
        (["--select", "leverage", "--beta", "2"], "beta must lie in (0, 1)"),
        (["--n-test", "5"], "n_test is the held-out count of a 'source' run; osc sweeps"),
    ],
)
def test_approx_rejects_an_option_the_choice_does_not_read(tmp_path, capsys, options, message):
    out = tmp_path / "s.csv"
    argv = ["approx", "--example", "osc", "--rank", "8", "--out", str(out)]
    assert main(argv + options) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "options, message",
    [
        (["--beta", "7", "--delta", "3"], "--beta must lie in (0, 1)"),
        (["--eps", "0"], "--eps must lie in (0, 1)"),
        (["--delta", "1"], "--delta must lie in (0, 1)"),
        (["--eta", "0.5"], "--eta must be >= 1"),
    ],
)
def test_bounds_rejects_an_option_the_kind_does_not_read(capsys, options, message):
    # srrqr reads only --eta, --rank and --n; every other option is checked too
    rc = main(["bounds", "--kind", "srrqr", "--rank", "5", "--n", "50"] + options)
    assert rc == 1
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_bounds_missing_parameter(capsys):
    rc = main(["bounds", "--kind", "deviation", "--rank", "5"])
    assert rc == 1
    assert "--oversample" in capsys.readouterr().err


def test_bench_command(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = main(
        ["bench", "--example", "osc", "--rank", "5", "--oversample", "5",
         "--trials", "1", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "method,n,n_s,rank,seconds,rel_residual"
    assert len(lines) == 3
    assert "speedup" in capsys.readouterr().out


def test_unknown_example_is_an_argparse_error():
    with pytest.raises(SystemExit):
        main(["gen", "--example", "wave", "--out", "x.rdmx"])


def test_missing_matrix_file_exits_nonzero(tmp_path, capsys):
    rc = main(["basis", "--matrix", str(tmp_path / "absent.rdmx"), "--out", str(tmp_path / "b.rdmx")])
    assert rc == 1
    assert "rdeim basis" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    out = tmp_path / "m.rdmx"
    proc = subprocess.run(
        [sys.executable, "-m", "rdeim.cli", "gen", "--example", "corner", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert read_matrix(out).shape == (2500, 225)


def test_main_builds_its_parser_once_and_writes_what_fresh_processes_write(
    tmp_path, monkeypatch, capsys
):
    # two commands in one process build the parser once, and print and
    # write what two fresh processes do
    built = []
    real = rdeim.cli.build_parser

    def counted():
        built.append(1)
        return real()

    write_matrix(tmp_path / "basis.rdmx", random_orthonormal(300, 6, seed=2))
    commands = [
        ["gen", "--example", "osc", "--out", "osc.rdmx"],
        ["select", "--basis-file", str(tmp_path / "basis.rdmx"), "--out", "points.csv"],
    ]
    for run in ("fresh", "warm"):
        (tmp_path / run).mkdir()
    monkeypatch.setattr(rdeim.cli, "build_parser", counted)
    rdeim.cli._parser.cache_clear()
    monkeypatch.chdir(tmp_path / "warm")
    try:
        warm = []
        for argv in commands:
            assert main(argv) == 0
            warm.append(capsys.readouterr().out)
        assert len(built) == 1
    finally:
        rdeim.cli._parser.cache_clear()
    # the fresh processes run in their own directory, so they import rdeim
    # from where this one did
    src = str(Path(rdeim.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for argv, out in zip(commands, warm):
        proc = subprocess.run([sys.executable, "-m", "rdeim.cli", *argv], cwd=tmp_path / "fresh",
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout == out
    for name in ("osc.rdmx", "points.csv"):
        assert (tmp_path / "fresh" / name).read_bytes() == (tmp_path / "warm" / name).read_bytes()


def test_select_pqr_on_a_large_basis_file_keeps_the_geqp3_pivots(tmp_path):
    # read_matrix returns W in Fortran order, so the pivot search reads a
    # C-ordered W' of 600000 entries as stored, and its pool of 436 columns
    # leads for some steps before every residual is brought up to date. The
    # points are the first pivots of geqp3
    W = random_orthonormal(4000, 150, seed=3)
    write_matrix(tmp_path / "basis.rdmx", W)
    points = tmp_path / "points.csv"
    argv = ["select", "--basis-file", str(tmp_path / "basis.rdmx"), "--select", "pqr"]
    assert main(argv + ["--out", str(points)]) == 0
    rows = points.read_text().splitlines()[1:]
    expected = scipy.linalg.qr(W.T, pivoting=True, mode="r")[1][:150]
    assert [int(row.split(",")[1]) for row in rows] == list(expected)


def _skewed_basis(path, deviation):
    # scaling one column by sqrt(1 + d) moves that Gram diagonal entry by d
    W, _ = np.linalg.qr(random_matrix(60, 5, seed=1))
    W[:, 0] *= np.sqrt(1.0 + deviation)
    write_matrix(path, W)
    return W


@pytest.mark.parametrize("kind", ["greedy", "pqr", "srrqr", "leverage", "hybrid"])
def test_select_accepts_deviation_within_tolerance(tmp_path, kind):
    basis = tmp_path / "w.rdmx"
    W = _skewed_basis(basis, 2e-9)
    assert 1e-9 < np.max(np.abs(W.T @ W - np.eye(5))) < 1e-8
    points = tmp_path / "pts.csv"
    rc = main(["select", "--basis-file", str(basis), "--select", kind, "--out", str(points)])
    assert rc == 0
    assert points.exists()


def test_select_rejects_deviation_naming_the_file(tmp_path, capsys):
    basis = tmp_path / "skewed-basis.rdmx"
    _skewed_basis(basis, 2e-6)
    points = tmp_path / "pts.csv"
    rc = main(["select", "--basis-file", str(basis), "--select", "srrqr", "--out", str(points)])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(basis) in err and "orthonormal" in err
    assert not points.exists()


def test_select_rejects_an_empty_basis_naming_the_file(tmp_path, capsys):
    basis = tmp_path / "empty-basis.rdmx"
    write_matrix(basis, np.zeros((60, 0)))
    points = tmp_path / "pts.csv"
    rc = main(["select", "--basis-file", str(basis), "--select", "pqr", "--out", str(points)])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(basis) in err and "no columns" in err
    assert not points.exists()


@pytest.mark.parametrize("selector", ["leverage", "hybrid"])
def test_select_sampled_rank_one_asks_for_samples(tmp_path, capsys, selector):
    basis = tmp_path / "rank1.rdmx"
    write_matrix(basis, np.full((60, 1), 1.0 / np.sqrt(60.0)))
    points = tmp_path / "pts.csv"
    argv = ["select", "--basis-file", str(basis), "--select", selector, "--out", str(points)]
    assert main(argv) == 1
    assert "--samples" in capsys.readouterr().err
    assert not points.exists()
    assert main(argv + ["--samples", "5"]) == 0
    assert points.read_text().startswith("position,index,weight")


# the options each command requires, so that only the option under test is wrong
_REQUIRED = {
    "approx": ["--example", "osc"],
    "basis": ["--matrix", "absent.rdmx"],
    "select": ["--basis-file", "absent.rdmx"],
}


# select takes its basis from the file, and basis picks no points
_REMOVED = (
    [(option, command) for option in ("--eps", "--delta") for command in _REQUIRED]
    + [(opt, "select") for opt in ("--rank", "--oversample", "--power", "--tol", "--block")]
    + [("--max-blocks", "select")]
    + [(opt, "basis") for opt in ("--eta", "--beta", "--samples")]
)


@pytest.mark.parametrize("option, command", _REMOVED)
def test_removed_sampling_options_are_rejected(option, command, capsys):
    with pytest.raises(SystemExit):
        main([command, *_REQUIRED[command], option, "1", "--out", "x"])
    assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err


@pytest.mark.parametrize("extra, rows", [([], 50), (["--n-test", "0"], 200), (["--n-test", "7"], 7)])
def test_approx_source_sweeps_held_out_parameters(tmp_path, extra, rows):
    out = tmp_path / "sweep.csv"
    rc = main(
        ["approx", "--example", "source", "--rank", "8", "--basis", "basic",
         "--select", "pqr", "--out", str(out)] + extra
    )
    assert rc == 0
    assert len(out.read_text().strip().split("\n")) == rows + 1


# the spec or function each command passes its parsed options to
_CALLEES = {
    "gen": (ExperimentSpec,),
    "basis": (AlgorithmSpec,),
    "select": (AlgorithmSpec,),
    "approx": (ExperimentSpec,),
    "bench": (ExperimentSpec, bench_basis),
}


def _subparsers():
    (sub,) = [a for a in rdeim.cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_an_option_not_given_takes_its_callees_own_default():
    commands = _subparsers()
    for command, callees in _CALLEES.items():
        for callee in callees:
            params = inspect.signature(callee).parameters
            for action in commands[command]._actions:
                param = params.get(action.dest)
                if param is not None and param.default is not param.empty:
                    assert action.default is argparse.SUPPRESS, (command, action.dest)
    # the only defaults of the CLI belong to no library call: the rank no
    # spec defaults, and bounds' four, which it checks whatever the kind
    own = {
        (command, action.dest): action.default
        for command, parser in commands.items()
        for action in parser._actions
        if action.default is not argparse.SUPPRESS
    }
    assert own == {
        ("basis", "rank"): 10, ("approx", "rank"): 10, ("bench", "rank"): 10,
        ("bounds", "eta"): 2.0, ("bounds", "beta"): 0.5, ("bounds", "eps"): 0.9,
        ("bounds", "delta"): 0.1,
    }


def test_defaults_spelled_out_write_what_the_defaults_write(tmp_path, capsys):
    spelled = {
        "approx": ["--scale", "desk", "--seed", "0", "--basis", "svd", "--oversample", "10",
                   "--power", "1", "--tol", "1e-4", "--block", "10", "--max-blocks", "40",
                   "--select", "pqr", "--eta", "2.0", "--beta", "0.5"],
        "select": ["--select", "pqr", "--eta", "2.0", "--beta", "0.5", "--seed", "0"],
    }
    basis = tmp_path / "basis.rdmx"
    write_matrix(basis, random_orthonormal(60, 6, seed=2))
    given = {
        "approx": ["approx", "--example", "osc", "--rank", "8", "--with-bounds"],
        "select": ["select", "--basis-file", str(basis)],
    }
    for command, argv in given.items():
        outputs = []
        for extra in ([], spelled[command]):
            out = tmp_path / f"{command}-{len(extra)}.csv"
            assert main(argv + extra + ["--out", str(out)]) == 0
            printed = capsys.readouterr().out.replace(str(out), "OUT")
            outputs.append((out.read_bytes(), printed))
        assert outputs[0] == outputs[1]
    assert outputs[0][1] == "wrote 6 points (pqr) to OUT\n"
