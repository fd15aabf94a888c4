"""Sparse direct solves: every LU factorization, its residual guard, and
the constrained saddle system.

Every time step reduces to one (or, inside a Picard loop, a few) solves
with a block matrix coupling velocity, pressure, optionally a projected
dynamic-pressure variable, and the scalar mean multipliers; the
divergence-free projection solves the same layout.  `SaddleSystem` is
the only owner of that layout: it builds the matrix, packs right-hand
sides and keeps its factorization.  Systems are factorized
monolithically: the identities the test-suite checks live at the 1e-10
level and would be polluted by iterative-solver tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

RESIDUAL_REL_TOL = 1e-11


class LinearSolveError(RuntimeError):
    pass


def _column_norms(a):
    """Euclidean norm of a vector, or of each column of a stack."""
    a = np.ascontiguousarray(np.asarray(a).T)
    return np.sqrt(np.vecdot(a, a))


class Factorization:
    """LU factor of a sparse matrix, reusable across right-hand sides."""

    def __init__(self, matrix):
        self.matrix = matrix.tocsc()
        try:
            self._lu = spla.splu(self.matrix)
        except RuntimeError as exc:  # singular factorization
            raise LinearSolveError(f"factorization failed: {exc}") from exc

    def solve(self, rhs):
        """Solve for one right-hand side or a column stack of them.

        Guarded: the solution must be finite and each column's residual
        |Ax - b| must not exceed RESIDUAL_REL_TOL * |b|; a violation
        signals a (numerically) singular matrix and raises
        LinearSolveError.  Columns whose right-hand side is not finite
        are passed through.  The residual norms are kept in `residual`.
        """
        rhs = np.asarray(rhs, dtype=float)
        x = self._lu.solve(rhs)
        resid = _column_norms(self.matrix @ x - rhs)
        norm_rhs = _column_norms(rhs)
        if np.any(~np.all(np.isfinite(x), axis=0)
                  & np.all(np.isfinite(rhs), axis=0)):
            raise LinearSolveError("solution is not finite")
        bad = np.isfinite(norm_rhs) & (
            resid > RESIDUAL_REL_TOL * np.maximum(norm_rhs, 1e-300))
        if np.any(bad):
            raise LinearSolveError(f"residual {np.max(resid[bad]):.3e} "
                                   f"exceeds {RESIDUAL_REL_TOL:.0e} * |rhs|")
        self.residual = resid
        return x


@dataclass
class SaddleSolution:
    x: np.ndarray
    residual: float     # |Ax - b| / max(1, |b|)
    slices: dict

    def __getitem__(self, name):
        return self.x[self.slices[name]]


class SaddleSystem:
    """Velocity block F constrained to the discretely divergence-free,
    componentwise mean-free fields; blocks [u, p, (kappa), alpha, beta].

    alpha are the velocity-mean multipliers and beta the pressure-mean
    multiplier, which removes the constant pressure (B annihilates it)
    from the kernel.  Passing R adds the projected dynamic pressure
    kappa of the case-3 form: Mp kappa = 0.5 R u + rhs_kappa, entering
    the momentum rows as -0.5 B^T kappa.  The matrix is factorized on
    the first solve and the factor is reused by every later one.
    """

    def __init__(self, spaces, F, R=None):
        ops = spaces.ops
        Cu = sp.csr_matrix((np.tile(ops.int_s, 3),
                            np.arange(3 * ops.int_s.size),
                            ops.int_s.size * np.arange(4)))  # means of u_c
        mp_col = sp.csc_matrix(ops.int_p[:, None])
        with_kappa = R is not None
        kappa_gap = [None] if with_kappa else []
        rows = [[F, -ops.B.T] + ([-0.5 * ops.B.T] if with_kappa else [])
                + [Cu.T, None],
                [ops.B, None] + kappa_gap + [None, mp_col]]
        if with_kappa:
            rows.append([-0.5 * R, None, ops.Mp, None, None])
        rows.append([Cu, None] + kappa_gap + [None, None])
        rows.append([None, mp_col.T] + kappa_gap + [None, None])
        self.matrix = sp.bmat(rows, format="csc")
        n_u, n_p = F.shape[0], spaces.pressure.dim
        self.slices = {"u": slice(0, n_u), "p": slice(n_u, n_u + n_p)}
        off = n_u + n_p
        if with_kappa:
            self.slices["kappa"] = slice(off, off + n_p)
            off += n_p
        self.slices["alpha"] = slice(off, off + 3)
        self.slices["beta"] = slice(off + 3, off + 4)
        self._factor = None

    def rhs(self, rhs_u, rhs_kappa=None) -> np.ndarray:
        """The full right-hand side: rhs_u on the momentum rows,
        rhs_kappa on the kappa rows, zero on the constraint rows."""
        rhs = np.zeros(self.matrix.shape[0])
        rhs[self.slices["u"]] = rhs_u
        if rhs_kappa is not None:
            rhs[self.slices["kappa"]] = rhs_kappa
        return rhs

    def solve(self, rhs) -> SaddleSolution:
        """Guarded direct solve (see `Factorization.solve`) for a full
        right-hand side built by `rhs`."""
        if self._factor is None:
            self._factor = Factorization(self.matrix)
        x = self._factor.solve(rhs)
        return SaddleSolution(
            x=x, slices=self.slices,
            residual=float(self._factor.residual)
            / max(1.0, float(np.linalg.norm(rhs))))
