"""Sparse solves: every LU factorization, its two solve guards, the
Krylov solve on a reused factor, and the constrained saddle system.

Every time step reduces to one (or, inside a Picard loop, a few) solves
with a block matrix coupling velocity, pressure and the scalar mean
multipliers; the divergence-free projection and the inf-sup constant
solve the same layout.  `SaddleConstraints` owns that layout and its
one block list; a `SaddleSystem` is a velocity block over it, applied
and normed block by block and assembled only as the input of its own
LU, which it keeps.

A frozen-advection step system (every CN Picard iterate, every CNLE
step) differs from the zero-advection system M/dt + nu A/2 of its
trajectory only by half a convection matrix in its velocity block.  It
is solved by GMRES on A M^-1, with M the trajectory's one LU of the
zero-advection system (right preconditioning, Saad, Iterative Methods
for Sparse Linear Systems, 2003; the Oseen preconditioning of Elman,
Silvester and Wathen, Finite Elements and Fast Iterative Solvers,
2014), so the stopping test applies to the true residual, and A is
only applied, never assembled.  At rtol 1e-14 the Krylov answers pass
the same guards as a direct solve, so iterative-solver tolerances do
not pollute the identities the test-suite checks: on 39 CN (cases 1
and 3, nu down to 0.01 at dt = 1/8), CNLE and CNAB runs at n=4-5, no
solve fell back, GMRES took 9-23 iterations (counted on 15 runs), the
trajectories agreed with the direct ones within 8.4e-13 (velocity) and
6.6e-13 (pressure) relative to their maxima, Picard counts were
identical, and the CN and CNLE energy residuals stayed below 1.0e-15
relative.  A solve whose GMRES does not converge, or whose answer a
guard rejects, falls back to a fresh LU of its own assembled matrix.
A run's projection of its initial datum is solved the same way, on the
step factor, in dt-scaled variables (`steppers._project_start`).  The
CNAB steps, `forms.project_div_free`, the mass solves and the measured
constants factorize and solve directly.

At `KRYLOV_RTOL` the residual estimate of a solve ends near the
tolerance edge, so a roundoff-level change to the operator (a reordered
sum in its assembly, say) can end a solve an iteration or two earlier
or later: on CN case 3 at n=5 (seed 3), one Picard iterate took 12
iterations against 10, which moved u by 2.6e-13 and p by 6.1e-13 of
their maxima while other runs moved by 5e-15.  Any comparison of
trajectories that is meant to see roundoff only must allow for this.

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
floating-point residual is exactly 0.  Every solution, direct or
Krylov, is therefore checked twice (`_guard`): its residual, and its
amplification |A|_1 |x|_1 / |b|_1, a lower bound on the condition
number.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
#: GMRES on a reused factor: relative tolerance on the true residual,
#: Krylov dimension per cycle and number of cycles; the step systems
#: converge in 9-23 iterations, within one cycle
KRYLOV_RTOL = 1e-14
KRYLOV_RESTART = 60
KRYLOV_MAX_CYCLES = 3


class LinearSolveError(RuntimeError):
    pass


def _column_norms(a):
    """Euclidean norm of a vector, or of each column of a stack."""
    a = np.ascontiguousarray(np.asarray(a).T)
    return np.sqrt(np.vecdot(a, a))


def _column_sums(matrix) -> np.ndarray:
    """The column sums of |A|, whose largest is |A|_1, straight from the
    arrays of a CSC matrix (one `np.add.reduceat` over the non-empty
    columns, which `spla.norm` gets only after forming abs(A) and a
    sparse sum).  Duplicate entries, which no matrix here holds, add."""
    indptr, sums = matrix.indptr, np.zeros(matrix.shape[1])
    full = np.diff(indptr) > 0
    sums[full] = np.add.reduceat(np.abs(matrix.data), indptr[:-1][full])
    return sums


def _guard(matrix, norm1, x, rhs):
    """Check a solution of matrix x = rhs, column by column, and return
    its residual norms |Ax - b|.

    The solution must be finite, its residual must not exceed
    RESIDUAL_REL_TOL * |b|, and its amplification |A|_1 |x|_1 must not
    exceed AMPLIFICATION_LIMIT * |b|_1 (`norm1` is |A|_1).  The last is
    a lower bound on the 1-norm condition number, so it cannot fire on
    a matrix whose condition number is below the limit; it catches the
    tiny pivot whose huge solution has a zero residual.  A violation
    signals a (numerically) singular matrix and raises LinearSolveError.
    Columns whose right-hand side is not finite are passed through.
    """
    resid = _column_norms(matrix @ x - rhs)
    norm_rhs = _column_norms(rhs)
    if np.any(~np.all(np.isfinite(x), axis=0)
              & np.all(np.isfinite(rhs), axis=0)):
        raise LinearSolveError("solution is not finite")
    bad = np.isfinite(norm_rhs) & (
        resid > RESIDUAL_REL_TOL * np.maximum(norm_rhs, 1e-300))
    if np.any(bad):
        raise LinearSolveError(f"residual {np.max(resid[bad]):.3e} "
                               f"exceeds {RESIDUAL_REL_TOL:.0e} * |rhs|")
    amplification = (norm1 * np.abs(x).sum(axis=0)
                     / np.maximum(np.abs(rhs).sum(axis=0), 1e-300))
    bad = np.isfinite(norm_rhs) & (amplification > AMPLIFICATION_LIMIT)
    if np.any(bad):
        raise LinearSolveError(
            f"residual guard: |A||x| = {np.max(amplification[bad]):.1e}"
            f" |b| exceeds {AMPLIFICATION_LIMIT:.0e} |b|")
    return resid


class Factorization:
    """LU factor of a sparse matrix, reusable across right-hand sides.

    Ordered by minimum degree on A^T + A with diagonal pivots preferred
    down to PIVOT_THRESHOLD (see the module docstring).
    """

    def __init__(self, matrix):
        self.matrix = matrix.tocsc()
        self._norm1 = float(_column_sums(self.matrix).max())
        try:
            self._lu = spla.splu(self.matrix, permc_spec=ORDERING,
                                 diag_pivot_thresh=PIVOT_THRESHOLD)
        except RuntimeError as exc:  # singular factorization
            raise LinearSolveError(f"factorization failed: {exc}") from exc

    def solve(self, rhs):
        """Solve for one right-hand side or a column stack of them.

        Guarded column by column (see `_guard`); the residual norms are
        kept in `residual`.
        """
        rhs = np.asarray(rhs, dtype=float)
        x = self._lu.solve(rhs)
        self.residual = _guard(self.matrix, self._norm1, x, rhs)
        return x

    def krylov_solve(self, system, rhs):
        """Solve system x = rhs for one right-hand side by GMRES on
        system M^-1, with M this factor's matrix, and return x and its
        residual norm |Ax - b|.

        `system` is a `SaddleSystem`, used only through its `@` and its
        |A|_1.  The answer passes the same guards as `solve`, against
        `system`.  Raises LinearSolveError if GMRES does not converge
        within KRYLOV_MAX_CYCLES cycles or a guard rejects its answer.
        """
        rhs = np.asarray(rhs, dtype=float)
        lu = self._lu
        operator = spla.LinearOperator(
            system.shape, matvec=lambda y: system @ lu.solve(y), dtype=float)
        y, info = spla.gmres(operator, rhs, rtol=KRYLOV_RTOL, atol=0.0,
                             restart=KRYLOV_RESTART,
                             maxiter=KRYLOV_MAX_CYCLES)
        if info != 0:
            raise LinearSolveError(f"GMRES did not converge (info {info})")
        x = lu.solve(y)
        return x, float(_guard(system, system.norm1, x, rhs))


@dataclass
class SaddleSolution:
    x: np.ndarray
    residual: float     # |Ax - b| / max(1, |b|)
    slices: dict

    def __getitem__(self, name):
        return self.x[self.slices[name]]


class SaddleConstraints:
    """The constraint blocks of the saddle layout [u, p, alpha, beta]: B
    makes the velocity discretely divergence-free, alpha (the velocity-
    mean multipliers) componentwise mean-free, and beta, the pressure-
    mean multiplier, removes the constant pressure (B annihilates it).
    `matrix` (CSC), the saddle matrix with a zero velocity block, and its
    |.| `column_sums` are shared by the systems of one trajectory."""

    def __init__(self, spaces):
        ops = spaces.ops
        n_p, n_u = ops.B.shape
        Cu = sp.csr_matrix((np.tile(ops.int_s, 3), np.arange(n_u),
                            ops.int_s.size * np.arange(4)))  # means of u_c
        self._blocks = ops.B, Cu, sp.csc_matrix(ops.int_p[:, None])
        off = n_u + n_p
        self.slices = {"u": slice(0, n_u), "p": slice(n_u, off),
                       "alpha": slice(off, off + 3),
                       "beta": slice(off + 3, off + 4)}
        self.shape = (off + 4, off + 4)

    def assemble(self, F) -> sp.csc_matrix:
        """The saddle matrix with velocity block F (None: zero)."""
        B, Cu, mp_col = self._blocks
        return sp.bmat([[F, -B.T, Cu.T, None],
                        [B, None, None, mp_col],
                        [Cu, None, None, None],
                        [None, mp_col.T, None, None]], format="csc")

    @cached_property
    def matrix(self) -> sp.csc_matrix:
        """Made on first use (a system only factorized never applies it)."""
        return self.assemble(None)

    @cached_property
    def column_sums(self) -> np.ndarray:
        return _column_sums(self.matrix)


class SaddleSystem:
    """The saddle system with velocity block F (CSR) over `constraints`.

    It is applied (`@`), and its |A|_1 taken, block by block; the
    assembled matrix is made only as the input of its own LU, on first
    use of `factor`, and that factor is reused by every later solve."""

    def __init__(self, constraints: SaddleConstraints, F):
        self.constraints, self.F = constraints, F
        self.slices, self.shape = constraints.slices, constraints.shape

    def __matmul__(self, x):
        u = self.slices["u"]
        y = self.constraints.matrix @ x
        y[u] += self.F @ x[u]
        return y

    @property
    def norm1(self) -> float:
        """|A|_1, the largest column sum of |A|."""
        F = self.F
        return float((self.constraints.column_sums
                      + np.bincount(F.indices, np.abs(F.data),
                                    minlength=self.shape[1])).max())

    def rhs(self, rhs_u) -> np.ndarray:
        """The full right-hand side: rhs_u on the momentum rows, zero on
        the constraint rows."""
        rhs = np.zeros(self.shape[0])
        rhs[self.slices["u"]] = rhs_u
        return rhs

    def residual(self, x, rhs) -> float:
        """|Ax - b| / max(1, |b|)."""
        return float(np.linalg.norm(self @ x - rhs)
                     / max(1.0, float(np.linalg.norm(rhs))))

    @cached_property
    def factor(self) -> Factorization:
        """The LU factor of the assembled matrix, made on first use."""
        return Factorization(self.constraints.assemble(self.F))

    def solve(self, rhs, preconditioner=None) -> SaddleSolution:
        """Guarded solve (see `_guard`) for a full right-hand side built
        by `rhs`.

        With a `preconditioner` (the Factorization of a nearby matrix of
        the same layout) the system is solved by
        `preconditioner.krylov_solve`; if that fails, or without one,
        by this system's own `factor`.
        """
        x = None
        if preconditioner is not None:
            try:
                x, resid = preconditioner.krylov_solve(self, rhs)
            except LinearSolveError:
                pass
        if x is None:
            x = self.factor.solve(rhs)
            resid = float(self.factor.residual)
        return SaddleSolution(x=x, slices=self.slices,
                              residual=resid
                              / max(1.0, float(np.linalg.norm(rhs))))
