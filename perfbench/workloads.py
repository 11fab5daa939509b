"""Operation lists of the benchmark workloads and the inputs they read.

An operation is one call into the public library: an in-process
``run_experiment`` on an ``ExperimentSpec``, or an in-process
``rdeim.cli.main(["select", ...])`` on a basis file written during set-up.
Everything an operation does follows from the workload seed; the library
only sees the specs and files generated from it.

Every knob whose library default is planned to change is passed
explicitly, so a later fix of that default cannot silently change the
work measured: ``n_test`` on every ``source`` operation and ``samples`` on
every ``leverage``/``hybrid`` operation.
"""

from dataclasses import dataclass, field

import numpy as np

EXAMPLES = ("osc", "corner", "source")
BASES = ("basic", "subspace", "adaptive")
SELECTORS = ("greedy", "pqr", "srrqr", "leverage", "hybrid")
SAMPLED = ("leverage", "hybrid")

# ceil(3 r ln r), the library's practical sample count at the time the
# benchmark was defined, pinned per rank
SAMPLES = {10: 70, 24: 229, 96: 1315, 128: 1864}

# paper-scale bases of the select-cli workload: (name, example, rank)
SELECT_BASES = (("source-r96", "source", 96), ("corner-r128", "corner", 128))
# every TEST_STRIDE-th snapshot column is kept to score a selection
TEST_STRIDE = 10


@dataclass(frozen=True)
class Op:
    """One operation: a stable name, its kind and its parameters.

    kind is "experiment" (params are ExperimentSpec keyword arguments) or
    "select" (params name a basis input and the selector options). The
    seed is not among the params: each pass runs the operation with its
    own seed, from derive_seed(workload seed, pass, position).
    """

    name: str
    kind: str
    params: dict


@dataclass(frozen=True)
class BasisInput:
    """A basis built during set-up for the select operations."""

    name: str
    example: str
    rank: int
    scale: str
    seed: int
    overrides: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    ops: tuple
    inputs: tuple = ()

    def params(self, pass_index, k):
        """Parameters of operation k in a pass, its seed included."""
        return {**self.ops[k].params, "seed": derive_seed(self.seed, pass_index, k)}


def derive_seed(*key):
    """A 32-bit seed for one use, derived from the workload seed.

    Every operation of every pass draws independently, so the accuracy
    figures of a run average over many draws.
    """
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def _rank(example):
    return 10 if example == "osc" else 24


def _experiment(i, example, basis, selector, scale, n_test, with_bounds):
    rank = _rank(example)
    params = dict(
        example=example,
        rank=rank,
        scale=scale,
        basis=basis,
        selector=selector,
        power=1,
        with_bounds=with_bounds,
    )
    if example == "source":
        params["n_test"] = n_test
    if selector in SAMPLED:
        params["samples"] = SAMPLES[rank]
    name = f"{i:02d}-{example}-{basis}-{selector}"
    return Op(name=name, kind="experiment", params=params)


def sweep_paper(seed):
    """18 paper-scale runs, bounds off: every example x basis twice,
    selectors rotated."""
    ops = []
    for i in range(18):
        example = EXAMPLES[i // 6]
        basis = BASES[(i // 2) % 3]
        ops.append(
            _experiment(i, example, basis, SELECTORS[i % 5], "paper", 100, False)
        )
    return Workload("sweep-paper", seed, tuple(ops))


def bounds_desk(seed):
    """9 desk-scale bounded runs over the example x basis grid."""
    ops = []
    for i in range(9):
        example = EXAMPLES[i // 3]
        ops.append(
            _experiment(i, example, BASES[i % 3], SELECTORS[i % 5], "desk", 50, True)
        )
    return Workload("bounds-desk", seed, tuple(ops))


def select_ops(inputs):
    """Every selector on every prebuilt basis."""
    ops = []
    for basis in inputs:
        for selector in SELECTORS:
            i = len(ops)
            params = dict(basis=basis.name, rank=basis.rank, select=selector, eta=2.0, beta=0.5)
            if selector in SAMPLED:
                params["samples"] = SAMPLES[basis.rank]
            ops.append(Op(name=f"{i:02d}-{basis.name}-{selector}", kind="select", params=params))
    return tuple(ops)


def select_cli(seed):
    """10 CLI select runs: five selectors on two paper-scale bases.

    The bases do not depend on the workload seed, so every run selects on
    the same two bases and error_constant_gmean compares like with like;
    the seed drives the sampled selectors.
    """
    # operation positions stay below 100, so these keys are never an operation's
    inputs = tuple(
        BasisInput(name, example, rank, "paper", derive_seed(0, 0, 100 + k))
        for k, (name, example, rank) in enumerate(SELECT_BASES)
    )
    return Workload("select-cli", seed, select_ops(inputs), inputs)


WORKLOADS = {"sweep-paper": sweep_paper, "bounds-desk": bounds_desk, "select-cli": select_cli}


def basis_path(workdir, name):
    return workdir / f"{name}.rdmx"


def test_path(workdir, name):
    return workdir / f"{name}-test.rdmx"


def write_inputs(workload, workdir):
    """Build each select-cli basis and its scoring columns as RDMXMAT1 files.

    The basis is a subspace-iteration basis (q = 1) of the example's
    snapshot matrix; the scoring columns are every TEST_STRIDE-th snapshot.
    """
    from rdeim.experiments import ExperimentSpec, build_basis, generate
    from rdeim.matio import write_matrix

    workdir.mkdir(parents=True, exist_ok=True)
    for inp in workload.inputs:
        spec = ExperimentSpec(
            example=inp.example, rank=inp.rank, scale=inp.scale, basis="subspace",
            power=1, seed=inp.seed, overrides=dict(inp.overrides),
        )
        A = generate(spec).matrix
        write_matrix(basis_path(workdir, inp.name), build_basis(A, spec).matrix)
        write_matrix(test_path(workdir, inp.name), A[:, ::TEST_STRIDE])
