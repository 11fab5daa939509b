"""Oblique interpolation projector D = W (S' W)^+ S'.

The projector is stored in factored form: the basis W, the selection S,
and the SVD of the small cross matrix S' W, which applies the
pseudoinverse stably. D reproduces any vector in span(W) and, for
unit-weight selections with s = r points, interpolates exactly at the
selected indices.
"""

from dataclasses import dataclass

import numpy as np

from ._util import OrthonormalBasis, orthonormal_basis
from .exceptions import DegenerateSelectionError
from .linalg import _svd, spectral_norm
from .selection import SelectionOperator

# the operand a ConvergenceError of either SVD of S'W names
_CROSS = "the cross matrix S'W"


@dataclass(frozen=True)
class DeimProjector:
    """Factored oblique projector onto span(W) along the selection S.

    orthonormal is the OrthonormalBasis W the projector was built on, so
    a consumer that needs W checked (canonical_angles) does not check it
    again; basis is its matrix.
    """

    orthonormal: OrthonormalBasis
    selection: SelectionOperator
    cross_u: np.ndarray
    cross_s: np.ndarray
    cross_v: np.ndarray
    rank: int

    @property
    def basis(self):
        """W as an (n, r) array."""
        return self.orthonormal.matrix

    def coefficients(self, f):
        """The coordinates (S' W)^+ S' f of D f in the basis W, so that
        D f = W @ coefficients(f).

        f may be a length-n vector, an (n, k) block whose columns are
        handled together (the result is then (r, k)), or a callable
        mapping an index array to the corresponding components. Only the
        s selected rows of f are ever read, and the pseudoinverse is
        applied through the stored SVD of S' W.
        """
        idx = self.selection.indices
        n = self.selection.n
        if callable(f):
            vals = np.asarray(f(idx), dtype=np.float64)
            if vals.shape != idx.shape:
                raise ValueError(f"callable returned shape {vals.shape}, expected {idx.shape}")
            y = self.selection.weights * vals
        else:
            f = np.asarray(f, dtype=np.float64)
            if f.ndim not in (1, 2) or f.shape[0] != n:
                raise ValueError(f"f must have shape ({n},) or ({n}, k), got {f.shape}")
            y = self.selection.restrict(f)
        sigma = self.cross_s if y.ndim == 1 else self.cross_s[:, None]
        return self.cross_v @ ((self.cross_u.T @ y) / sigma)

    def apply(self, f):
        """Evaluate D f = W @ coefficients(f), for any f that coefficients
        takes: a vector, an (n, k) block, or a callable over indices."""
        return self.basis @ self.coefficients(f)

    def error_constant(self):
        """Exact ||D||_2, computed as the spectral norm of (S' W)^+ S'.

        Left-multiplying by the orthonormal W does not change the norm, so
        the n-by-n operator never has to be formed. The nonzero columns of
        (S' W)^+ S' sit at the distinct selected rows, each the sum of the
        weighted columns of (S' W)^+ drawn at that row, so the norm is that
        of an r-by-u matrix with u <= s distinct rows.
        """
        G = self.cross_v @ (self.cross_u.T / self.cross_s[:, None])  # (S'W)^+, r x s
        scaled = G * self.selection.weights[None, :]
        rows, where = np.unique(self.selection.indices, return_inverse=True)
        merged = np.zeros((rows.size, self.rank))
        np.add.at(merged, where, scaled.T)  # repeated draws of one row add up
        return spectral_norm(merged)

    def error_constant_product(self):
        """Upper bound ||(S' W)^+||_2 * ||S||_2 on the error constant."""
        return float(1.0 / self.cross_s.min()) * self.selection.two_norm()


def build_projector(W, S):
    """Assemble the oblique projector from a basis and a selection.

    Parameters
    ----------
    W : OrthonormalBasis or ndarray, shape (n, r)
    S : SelectionOperator with s >= r points over the same n; the cross
        matrix S' W must have full rank r (see check_full_rank).

    Raises
    ------
    DegenerateSelectionError
        If S' W is rank deficient, i.e. the points do not see the whole
        basis.
    """
    W = orthonormal_basis(W, "W")
    r = W.rank
    U, s, Vt = _svd(_cross_matrix(W, S), _CROSS, full_matrices=False)
    _require_full_rank(s)
    return DeimProjector(orthonormal=W, selection=S, cross_u=U, cross_s=s, cross_v=Vt.T, rank=r)


def check_full_rank(W, S):
    """Require the cross matrix S' W to have full rank r: sigma_min above
    1e-12 sigma_1, the test build_projector applies, decided from the
    singular values alone (no singular vectors are formed).

    Raises
    ------
    DegenerateSelectionError
        If S' W is rank deficient.
    """
    _require_full_rank(_svd(_cross_matrix(orthonormal_basis(W, "W"), S), _CROSS, compute_uv=False))


def _cross_matrix(W, S):
    """S' W for an OrthonormalBasis W and a selection of at least r points
    over its n rows."""
    Wm = W.matrix
    n, r = Wm.shape
    if S.n != n:
        raise ValueError(f"selection is over {S.n} rows but the basis has {n}")
    if S.s < r:
        raise ValueError(f"selection has {S.s} points, fewer than the basis rank {r}")
    return S.restrict(Wm)


def _require_full_rank(s):
    """The one rank test of a selection, on the nonincreasing singular
    values s of S' W: sigma_min above 1e-12 sigma_1."""
    if s[0] == 0.0 or s[-1] <= 1e-12 * s[0]:
        raise DegenerateSelectionError(
            f"cross matrix S' W is rank deficient "
            f"(sigma_min/sigma_1 = {0.0 if s[0] == 0.0 else s[-1] / s[0]:.3e})"
        )
