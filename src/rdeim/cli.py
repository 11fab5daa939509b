"""Command-line front end.

Subcommands: gen (write snapshot matrices), basis (build a reduced basis),
select (choose interpolation points), approx (end-to-end error sweep),
bounds (evaluate closed-form constants), bench (timing comparison). All
commands exit 0 on success and nonzero with a message on stderr otherwise.
"""

import argparse
import functools
import inspect
import sys

from ._util import check_at_least, check_open_unit
from .bounds import deviation_constant, hybrid_constant, leverage_constant, srrqr_constant
from .exceptions import RdeimError
from .experiments import (
    BASES,
    EXAMPLES,
    SCALE_NAMES,
    SELECTORS,
    AlgorithmSpec,
    ExperimentSpec,
    bench_basis,
    build_basis,
    generate,
    run_experiment,
    select_points,
)
from .matio import ResultTable, emit_csv, read_matrix, write_matrix
from .projector import check_full_rank
from .rangefinder import OrthonormalBasis


# the constants `rdeim bounds` evaluates; each takes its parameters from
# the options of the same names
_CONSTANTS = {
    "srrqr": srrqr_constant,
    "leverage": leverage_constant,
    "hybrid": hybrid_constant,
    "deviation": deviation_constant,
}


def _add_common(p):
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output file path")


def _example_args(p):
    p.add_argument("--example", choices=EXAMPLES, required=True)
    p.add_argument("--scale", choices=SCALE_NAMES)


def _basis_args(p):
    p.add_argument("--rank", type=int, default=10)
    p.add_argument("--oversample", type=int)
    p.add_argument("--power", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--block", type=int)
    p.add_argument("--max-blocks", type=int)
    p.add_argument("--basis", choices=BASES)


def _selector_args(p):
    p.add_argument("--eta", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--select", dest="selector", choices=SELECTORS)


# a callee's signature, read once per process
_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def _call(fn, args, **fixed):
    """fn called with fixed plus every parsed option named like one of its
    parameters. An option not given is not in args, so fn's own default
    holds; a parameter with no default that no option gave is an error
    naming that option."""
    params = _signature(fn).parameters
    kwargs = {name: value for name, value in vars(args).items() if name in params}
    kwargs.update(fixed)
    for name, param in params.items():
        if name not in kwargs and param.default is param.empty:
            # only bounds can get here, where --kind picks fn
            who = f"--kind {args.kind}" if args.command == "bounds" else fn.__name__
            raise ValueError(f"{who} requires --{name.replace('_', '-')}")
    return fn(**kwargs)


def build_parser():
    ap = argparse.ArgumentParser(prog="rdeim", description=__doc__)
    # an option not given stays out of the namespace, so the spec or the
    # function it is passed to states its default, once
    quiet = functools.partial(argparse.ArgumentParser, argument_default=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True, parser_class=quiet)

    p = sub.add_parser("gen", help="generate a snapshot matrix")
    _example_args(p)
    _add_common(p)

    p = sub.add_parser("basis", help="build a reduced basis from a matrix file")
    p.add_argument("--matrix", required=True, help="input RDMXMAT1 file")
    _basis_args(p)
    _add_common(p)

    p = sub.add_parser("select", help="select interpolation points for a basis file")
    p.add_argument("--basis-file", required=True, help="orthonormal basis, RDMXMAT1")
    _selector_args(p)
    _add_common(p)

    p = sub.add_parser("approx", help="end-to-end error sweep on a generated example")
    _example_args(p)
    p.add_argument(
        "--n-test",
        type=int,
        help="held-out source parameters to sweep (default: the scale's count; "
        "0 sweeps the training columns)",
    )
    p.add_argument("--with-bounds", action="store_true")
    _basis_args(p)
    _selector_args(p)
    _add_common(p)

    p = sub.add_parser("bounds", help="evaluate a closed-form constant")
    p.add_argument("--kind", choices=tuple(_CONSTANTS), required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--n-snapshots", type=int)
    p.add_argument("--rank", type=int)
    p.add_argument("--oversample", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--eta", type=float, default=2.0)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--eps", type=float, default=0.9)
    p.add_argument("--delta", type=float, default=0.1)

    p = sub.add_parser("bench", help="time exact vs randomized basis construction")
    _example_args(p)
    p.add_argument("--rank", type=int, default=10)
    p.add_argument("--oversample", type=int)
    p.add_argument("--power", type=int)
    p.add_argument("--trials", type=int)
    _add_common(p)

    return ap


def _cmd_gen(args):
    snaps = generate(_call(ExperimentSpec, args, rank=1))
    write_matrix(args.out, snaps.matrix)
    print(f"wrote {snaps.matrix.shape[0]} x {snaps.matrix.shape[1]} matrix to {args.out}")
    return 0


def _cmd_basis(args):
    basis = build_basis(read_matrix(args.matrix), _call(AlgorithmSpec, args))
    write_matrix(args.out, basis.matrix)
    print(f"wrote {basis.provenance} basis of rank {basis.rank} to {args.out}")
    return 0


def _cmd_select(args):
    # the one orthonormality check, naming the file; the selectors and the
    # projector trust the OrthonormalBasis it yields
    basis = OrthonormalBasis(read_matrix(args.basis_file), args.basis_file)
    spec = _call(AlgorithmSpec, args, rank=basis.rank)
    S = select_points(basis, spec)
    # a degenerate selection fails here, before anything is written
    check_full_rank(basis, S)
    table = ResultTable(
        columns=("position", "index", "weight"),
        rows=[(k, int(S.indices[k]), float(S.weights[k])) for k in range(S.s)],
        summary={},
    )
    emit_csv(table, args.out)
    print(f"wrote {S.s} points ({spec.selector}) to {args.out}")
    return 0


def _cmd_approx(args):
    table = run_experiment(_call(ExperimentSpec, args))
    emit_csv(table, args.out)
    mean = table.summary["rel_error_mean"]
    print(
        f"swept {int(table.summary['columns_total'])} columns: "
        f"mean rel error {mean:.3e}, error constant {table.summary['error_constant']:.3e}; "
        f"wrote {args.out}"
    )
    return 0


def _cmd_bounds(args):
    # every option is checked, also one the chosen constant does not read
    for name in ("beta", "eps", "delta"):
        check_open_unit(getattr(args, name), f"--{name}")
    check_at_least(args.eta, 1, "--eta")
    print(f"{args.kind} {_call(_CONSTANTS[args.kind], args)!r}")
    return 0


def _cmd_bench(args):
    snaps = generate(_call(ExperimentSpec, args))
    table = _call(bench_basis, args, A=snaps.matrix)
    emit_csv(table, args.out)
    for row in table.rows:
        print(f"{row[0]}: {row[4]:.4f} s (rel residual {row[5]:.3e})")
    print(f"speedup {table.summary['speedup']:.2f}x; wrote {args.out}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "basis": _cmd_basis,
    "select": _cmd_select,
    "approx": _cmd_approx,
    "bounds": _cmd_bounds,
    "bench": _cmd_bench,
}


@functools.lru_cache(maxsize=None)
def _parser():
    """The parser main reads arguments with, built once per process:
    building all six subcommands costs more than parsing, and parse_args
    leaves the parser as it was."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (RdeimError, ValueError, OSError) as err:
        print(f"rdeim {args.command}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
