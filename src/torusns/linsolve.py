"""Sparse direct solves: every LU factorization, its two solve guards,
and the constrained saddle system.

Every time step reduces to one (or, inside a Picard loop, a few) solves
with a block matrix coupling velocity, pressure and the scalar mean
multipliers; the divergence-free projection and the inf-sup constant
solve the same layout.  `SaddleSystem` is the only owner of that
layout: it builds the matrix, packs right-hand sides and keeps its
factorization.  Systems are factorized monolithically: the identities
the test-suite checks live at the 1e-10 level and would be polluted by
iterative-solver tolerances.

Every matrix factorized here has a (nearly) symmetric sparsity pattern
(the saddle systems, the two mass matrices and the H1 Gram matrix
M_s + A_s of the velocity commutator constant), so `Factorization`
orders it by minimum degree on the pattern of A^T + A and prefers
diagonal pivots, accepting one down to 0.1 of its column's largest
entry: the symmetric-mode settings of the SuperLU Users' Guide (Li,
Demmel et al.).
SuperLU's default, COLAMD on A^T A with partial pivoting, gives the
largest factor of an n=5 case-3 run 3.56 M nonzeros in L + U, against
0.38 M; at n=8 the case-3 step factorizes in 12.4 s against 0.73 s, and
the divergence-free projection in 38.6 s against 0.33 s (1 BLAS
thread).  Threshold 0 is barely faster (0.61 s) but lets the smallest
pivot ratio min|U_ii|/max|U_ii| fall 28 times lower (8.6e-7 against
2.4e-5); threshold 1 loses the ordering's gain (the n=8 projection
takes 11.9 s against 0.33 s).

Diagonal pivoting can leave a tiny pivot in a nearly singular matrix,
and a right-hand side off its range then gets a huge solution whose
floating-point residual is exactly 0.  `Factorization.solve` therefore
checks each column twice: its residual, and its amplification
|A|_1 |x|_1 / |b|_1, a lower bound on the condition number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

RESIDUAL_REL_TOL = 1e-11
#: fill-reducing ordering and diagonal-pivot threshold of every LU
ORDERING = "MMD_AT_PLUS_A"
PIVOT_THRESHOLD = 0.1
#: largest accepted |A|_1 |x|_1 / |b|_1 of a solve; the step, projection
#: and mass solves stay below 3e4 up to n=8
AMPLIFICATION_LIMIT = 1e12


class LinearSolveError(RuntimeError):
    pass


def _column_norms(a):
    """Euclidean norm of a vector, or of each column of a stack."""
    a = np.ascontiguousarray(np.asarray(a).T)
    return np.sqrt(np.vecdot(a, a))


class Factorization:
    """LU factor of a sparse matrix, reusable across right-hand sides.

    Ordered by minimum degree on A^T + A with diagonal pivots preferred
    down to PIVOT_THRESHOLD (see the module docstring).
    """

    def __init__(self, matrix):
        self.matrix = matrix.tocsc()
        self._norm1 = spla.norm(self.matrix, 1)
        try:
            self._lu = spla.splu(self.matrix, permc_spec=ORDERING,
                                 diag_pivot_thresh=PIVOT_THRESHOLD)
        except RuntimeError as exc:  # singular factorization
            raise LinearSolveError(f"factorization failed: {exc}") from exc

    def solve(self, rhs):
        """Solve for one right-hand side or a column stack of them.

        Guarded, column by column: the solution must be finite, its
        residual |Ax - b| must not exceed RESIDUAL_REL_TOL * |b|, and
        its amplification |A|_1 |x|_1 must not exceed
        AMPLIFICATION_LIMIT * |b|_1.  The last is a lower bound on the
        1-norm condition number, so it cannot fire on a matrix whose
        condition number is below the limit; it catches the tiny pivot
        whose huge solution has a zero residual.  A violation signals a
        (numerically) singular matrix and raises LinearSolveError.
        Columns whose right-hand side is not finite are passed through.
        The residual norms are kept in `residual`.
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
        amplification = (self._norm1 * np.abs(x).sum(axis=0)
                         / np.maximum(np.abs(rhs).sum(axis=0), 1e-300))
        bad = np.isfinite(norm_rhs) & (amplification > AMPLIFICATION_LIMIT)
        if np.any(bad):
            raise LinearSolveError(
                f"residual guard: |A||x| = {np.max(amplification[bad]):.1e}"
                f" |b| exceeds {AMPLIFICATION_LIMIT:.0e} |b|")
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
    componentwise mean-free fields; blocks [u, p, alpha, beta].

    alpha are the velocity-mean multipliers and beta the pressure-mean
    multiplier, which removes the constant pressure (B annihilates it)
    from the kernel.  The matrix is factorized on the first solve and
    the factor is reused by every later one.
    """

    def __init__(self, spaces, F):
        ops = spaces.ops
        Cu = sp.csr_matrix((np.tile(ops.int_s, 3),
                            np.arange(3 * ops.int_s.size),
                            ops.int_s.size * np.arange(4)))  # means of u_c
        mp_col = sp.csc_matrix(ops.int_p[:, None])
        self.matrix = sp.bmat([[F, -ops.B.T, Cu.T, None],
                               [ops.B, None, None, mp_col],
                               [Cu, None, None, None],
                               [None, mp_col.T, None, None]], format="csc")
        n_u, n_p = F.shape[0], spaces.pressure.dim
        off = n_u + n_p
        self.slices = {"u": slice(0, n_u), "p": slice(n_u, off),
                       "alpha": slice(off, off + 3),
                       "beta": slice(off + 3, off + 4)}
        self._factor = None

    def rhs(self, rhs_u) -> np.ndarray:
        """The full right-hand side: rhs_u on the momentum rows, zero on
        the constraint rows."""
        rhs = np.zeros(self.matrix.shape[0])
        rhs[self.slices["u"]] = rhs_u
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
