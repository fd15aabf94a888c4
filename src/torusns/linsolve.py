"""Sparse solves: the lattice Fourier block solver, its two solve
guards, the Krylov solve preconditioned by a block solver, and the
constrained saddle system.

Every time step reduces to one (or, inside a Picard loop, a few) solves
with a block matrix coupling velocity, pressure and the scalar mean
multipliers; the divergence-free projection solves the same layout.
`SaddleConstraints` owns that layout and its one block list; a
`SaddleSystem` is a velocity block over it, applied and normed block by
block, and never assembled.

The mesh is invariant under shifts by whole cells, and every cell owns
the same dofs: its vertex and the bubbles of its six elements, 7 scalar
velocity dofs (21 vector ones) and 1 pressure dof (`fespace`'s
`cell_dofs`).  So the two mass matrices, and the saddle systems whose
velocity block is a combination of M and A (the zero-advection step
system M/dt + nu A/2 and the projection system M), are block-circulant
over the n^3 cells, and the discrete Fourier transform over cells splits
each exactly into one small block per lattice wave vector k (Strang and
Fix, An Analysis of the Finite Element Method, 1973, ch. 4; Rodrigo,
Gaspar and Lisbona, Numer. Linear Algebra Appl., 2016).  `cell_symbols`
reads the stencil of an operator off the rows of cell 0, once, and
evaluates its blocks at any wave vectors: `LatticeSolver` keeps their
inverses on the whole rfft half of the lattice and solves by one real
FFT per local dof, one stacked matmul and the inverse FFT, and
`fespace`'s measured constants take them one row of waves at a time.
The mean constraints weigh every cell alike, so they touch only k = 0,
whose saddle block is bordered by the 4 mean multipliers (26 x 26).  At
n = 2-6 and 8 the block solves agree with SuperLU's within 1.2e-14 of
the answers' maxima.  At n = 12 the step operator, blocks included, is
made in 0.08 s where the LU of its system takes 4.2 s, and a solve takes
6.4 ms against 21 ms (1 BLAS thread).

A frozen-advection step system (every CN Picard iterate, every CNLE
step) differs from the zero-advection system M/dt + nu A/2 of its
trajectory only by half a convection matrix in its velocity block.  It
is solved by GMRES on A M^-1, with M^-1 the trajectory's block solve of
the zero-advection system (right preconditioning, Saad, Iterative
Methods for Sparse Linear Systems, 2003; the Oseen preconditioning of
Elman, Silvester and Wathen, Finite Elements and Fast Iterative Solvers,
2014), so the residual GMRES minimizes is the true one, and A is only
applied, never assembled.  The GMRES is `_gmres`, one cycle of GMRES(m)
in numpy (Saad and Schultz, SIAM J. Sci. Stat. Comput. 7, 1986):
modified Gram-Schmidt Arnoldi, the small least-squares problem by Givens
rotations, every norm scaled as in `_column_norms`.  The cycle ends when
the rotations' residual estimate reaches KRYLOV_RTOL |b| (atol 0), when
the Arnoldi vector vanishes below eps, or on its KRYLOV_MAX_ITERATIONS-th
vector.  Its answer is then judged only by the guards that judge every
block answer (`_guard`, against the system's own product), and an answer
they reject, Krylov or block, raises LinearSolveError: nothing is
factorized, and the run fails (exit code 2 at the command line) with one
line that names the solve.  Each GMRES starts from the previous solve of
its trajectory (`x0`): over seeds 0-9 of CN case 3 at n=5, 3 steps of
dt = 1/128, a run's iterations fell from 189-210 to 106-127, with
identical Picard counts.  At rtol 1e-14 the Krylov answers pass the same
guards as a direct solve, so iterative-solver tolerances do not pollute
the identities the test-suite checks: on 39 CN (cases 1 and 3, nu down
to 0.01 at dt = 1/8), CNLE and CNAB runs at n=4-5, the guards rejected
no answer, GMRES took 9-23 iterations (counted on 15 runs), the
trajectories agreed with the direct ones within 8.4e-13 (velocity) and
6.6e-13 (pressure) relative to their maxima, Picard counts were
identical, and the CN and CNLE energy residuals stayed below 1.0e-15
relative.

KRYLOV_RTOL sits at the edge of what the arithmetic reaches, so one
cycle is judged by the guards (RESIDUAL_REL_TOL = 1e-11) instead of
being restarted until its true residual reaches KRYLOV_RTOL |b|.  With
such restarts, over seeds 0-31 of CN case 3 at n=5 (3 steps of dt =
1/128), 669 of 672 solves ended in one cycle and 3 restarted, their true
residual after it at most 1.006e-14 |b|, and 1 of 234 solves of CNAB at
n=5 (64 steps) restarted; one cycle moves those four runs by at most
1.4e-13 (u) and 6.5e-13 (p) of their maxima and leaves the other 60
byte-identical.  At n = 24 (CN case 1, 34 steps) one solve's estimate
never reached KRYLOV_RTOL; its one-cycle answer, at 3.2e-14 |b|, passes
the guards.  Ending near that edge, a solve can also take an iteration or
two more or fewer after a roundoff-level change to the operator (a
reordered sum in its assembly, say): on CN case 3 at n=5 (seed 3), one
Picard iterate took 12 iterations against 10, which moved u by 2.6e-13
and p by 6.1e-13 of their maxima while other runs moved by 5e-15.  Any
comparison of trajectories that is meant to see roundoff only must allow
for this.

Every product here is the package's own (`fespace._CSR`, and the saddle
blocks applied one by one, `SaddleConstraints.apply`), and nothing is
factorized, so no module of the package imports scipy.

A nearly singular system can have a huge solution whose floating-point
residual is exactly 0: a tiny pivot of a block inverse does that to a
right-hand side off its range.  Every solution, by blocks or Krylov, is
therefore checked twice (`_guard`): its residual, and its amplification
|A|_1 (|x|_1 / |b|_1), a lower bound on the condition number, with both
1-norms scaled by their column's largest entry so that data near the
float maximum do not overflow them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RESIDUAL_REL_TOL = 1e-11
#: largest accepted |A|_1 |x|_1 / |b|_1 of a solve; the step, projection
#: and mass solves stay below 3e4 up to n=8
AMPLIFICATION_LIMIT = 1e12
#: GMRES preconditioned by a block solver: relative tolerance on the
#: rotations' residual estimate, and the most Arnoldi vectors of its one
#: cycle; the step systems converge in 9-23 iterations
KRYLOV_RTOL = 1e-14
KRYLOV_MAX_ITERATIONS = 60


class LinearSolveError(RuntimeError):
    pass


def _scaled(a):
    """|a| divided by its largest entry, per column of a stack, and those
    largest entries (1 where a column is zero)."""
    a = np.abs(a)
    scale = a.max(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    return a / scale, scale


def _column_norms(a):
    """Euclidean norm of a vector, or of each column of a stack, scaled by
    the column's largest entry so that no square overflows."""
    a, scale = _scaled(a)
    a = np.ascontiguousarray(a.T)
    return scale * np.sqrt(np.vecdot(a, a))


def _column_sums(matrix) -> np.ndarray:
    """The column sums of |A|, whose largest is |A|_1, of a CSR matrix
    (`fespace._CSR`): one `np.bincount` over its column indices.
    Duplicate entries, which no matrix here holds, add."""
    return np.bincount(matrix.indices, np.abs(matrix.data),
                       minlength=matrix.shape[1])


def _ordered_sum(a):
    """Sum over the last axis, one entry at a time from zero, as a row of
    a compiled CSR product is summed (`np.cumsum` is sequential, and
    + 0.0 turns the -0.0 of all-(-0.0) terms into that sum's +0.0)."""
    return np.cumsum(a, axis=-1)[..., -1] + 0.0


def _guard(matrix, norm1, x, rhs):
    """Check a solution of matrix x = rhs, column by column, and return
    its residual norms |Ax - b|.

    The solution must be finite, its residual must not exceed
    RESIDUAL_REL_TOL * |b|, and its amplification |A|_1 (|x|_1 / |b|_1)
    must not exceed AMPLIFICATION_LIMIT (`norm1` is |A|_1; the 1-norms
    are summed over each column's largest entry, so only an
    amplification beyond the float maximum overflows).  The last is
    a lower bound on the 1-norm condition number, so it cannot fire on
    a matrix whose condition number is below the limit; it catches the
    tiny pivot whose huge solution has a zero residual.  A violation, or
    a NaN residual or amplification, signals a (numerically) singular
    matrix and raises LinearSolveError.  Columns whose right-hand side
    has an entry that is not finite are passed through.
    """
    finite = np.all(np.isfinite(rhs), axis=0)
    if np.any(finite & ~np.all(np.isfinite(x), axis=0)):
        raise LinearSolveError("solution is not finite")
    resid = _column_norms(matrix @ x - rhs)
    bad = finite & ~(resid <= RESIDUAL_REL_TOL
                     * np.maximum(_column_norms(rhs), 1e-300))
    if np.any(bad):
        raise LinearSolveError(f"residual {np.max(resid[bad]):.3e} "
                               f"exceeds {RESIDUAL_REL_TOL:.0e} * |rhs|")
    (x, x_scale), (rhs, rhs_scale) = _scaled(x), _scaled(rhs)
    with np.errstate(over="ignore"):   # inf exceeds the limit
        amplification = norm1 * (x_scale / rhs_scale) * (
            x.sum(axis=0) / np.maximum(rhs.sum(axis=0), 1e-300))
    bad = finite & ~(amplification <= AMPLIFICATION_LIMIT)
    if np.any(bad):
        raise LinearSolveError(
            f"residual guard: |A||x| = {np.max(amplification[bad]):.1e}"
            f" |b| exceeds {AMPLIFICATION_LIMIT:.0e} |b|")
    return resid


def cell_symbols(matrices, cells, axes=(0, 1, 2), by_row=True):
    """The lattice Fourier blocks of matrices invariant under the cell
    shifts along `axes`: pairs of wave vectors k (K, d) on the rfft half
    of the n^d lattice (last axis 0..n//2, as `np.fft.rfftn`; d = 0 has
    one empty wave), one first index at a time (all at once without
    `by_row`), and each matrix's blocks out[k, a, b] = sum_o A[R[0, a],
    C[o, b]] e^(2 pi i k.o / n), (K, La, Lb).  `cells` pairs with each
    matrix its row and column dofs (n^3, L) per mesh cell (i n + j) n + l;
    a lattice cell, R or C, holds those of the mesh cells along the other
    axes.  The rows of cell 0 are read once, into a stencil S[o] at the
    (at most 3^d) cell offsets o where they have entries; `map` then drops
    the matrix.  A shift-invariant A maps X_b[c] = x[C[c, b]] to sum_o
    S_ab[o] X_b[c + o], so the DFT X^[k] = sum_c X[c] e^(-2 pi i k.c / n)
    takes it to out[k] X^[k]."""
    n, d = round(len(cells[0][0]) ** (1 / 3)), len(axes)
    order = (*axes, *(a for a in range(3) if a not in axes), 3)

    def stencil(matrix, row_col):
        R, C = (c.reshape(n, n, n, -1).transpose(order).reshape(n ** d, -1)
                for c in row_col)
        # the entries of the rows of cell 0, at their columns' place in C
        where = np.full(matrix.shape[1], -1)
        where[C.ravel()] = np.arange(C.size)
        entries = np.concatenate([np.arange(matrix.indptr[r],
                                            matrix.indptr[r + 1])
                                  for r in R[0]])
        row = np.repeat(np.arange(R.shape[1]), np.diff(matrix.indptr)[R[0]])
        col = where[matrix.indices[entries]]
        kept = col >= 0
        offsets, cell = np.unique(col[kept] // C.shape[1],
                                  return_inverse=True)
        S = np.zeros((len(offsets), R.shape[1], C.shape[1]))
        S[cell, row[kept], col[kept] % C.shape[1]] = matrix.data[
            entries[kept]]
        return offsets // n ** np.arange(d - 1, -1, -1)[:, None] % n, S

    stencils = list(map(stencil, matrices, cells))
    shape = (n,) * (d - 1) + (n // 2 + 1,) if d else ()
    waves = np.indices(shape).reshape(d, int(np.prod(shape))).T
    for row in np.split(waves, shape[0] if d and by_row else 1):
        yield row, [(np.exp(2j * np.pi / n * ((row @ o) % n))
                     @ S.reshape(len(S), -1)).reshape((len(row),) + S.shape[1:])
                    for o, S in stencils]


def _half_symbols(matrix, row_cells, col_cells) -> np.ndarray:
    """`cell_symbols` on the whole rfft half: (n, n, n//2 + 1, La, Lb)."""
    n = round(len(row_cells) ** (1 / 3))
    _, (out,) = next(cell_symbols([matrix], [(row_cells, col_cells)],
                                  by_row=False))
    return out.reshape((n, n, n // 2 + 1) + out.shape[1:])


class LatticeSolver:
    """Inverse of an operator invariant under cell shifts, by its lattice
    Fourier blocks (see the module docstring): `solve`, with the
    `residual` of its last answer, and `krylov_solve`.

    `matrix` is the operator inverted, a sparse matrix or a
    `SaddleSystem`; only the guards apply it.  `cells` (n^3, L) are its
    dofs per cell, and `symbol` its blocks on the rfft half, inverted
    here; a 1 x 1 symbol, the pressure mass's, is real and is inverted
    and applied in real arithmetic.  A `border` (dofs, block) holds the
    dofs outside the cells, the mean multipliers, which act on k = 0
    only, and the real k = 0 block bordered by their rows and columns,
    which replaces the plain one; the multipliers are scaled by n^3 in
    it, the DFT's factor on a field that is the same on every cell.
    Whoever solves with it holds it (see `SaddleSystem`).
    """

    def __init__(self, matrix, norm1, cells, symbol, border=None):
        self.matrix, self._norm1, self.cells = matrix, norm1, cells
        self._border = None
        if border is not None:
            dofs, block = border
            self._border = dofs, np.linalg.inv(block)
            # the bordered block replaces it; eye keeps the batch regular
            symbol[0, 0, 0] = np.eye(symbol.shape[-1])
        self._inverse = (1.0 / symbol.real if symbol.shape[-1] == 1
                         else np.linalg.inv(symbol))

    @classmethod
    def of_matrix(cls, matrix, cells):
        """The solver of a sparse shift-invariant matrix on the dofs
        `cells`, every one of its dofs."""
        return cls(matrix, float(_column_sums(matrix).max()), cells,
                   _half_symbols(matrix, cells, cells))

    def _apply(self, rhs):
        """The block solve, unguarded, of one right-hand side or a stack.
        Like a compiled solve it warns of no overflow or invalid value: a
        right-hand side that is not finite gives an answer that is not,
        which the guards judge."""
        cells, N, L = self.cells, *self.cells.shape
        n = round(N ** (1 / 3))
        b = rhs.reshape(len(rhs), -1)
        x = np.empty_like(b)
        with np.errstate(over="ignore", invalid="ignore"):
            X = np.fft.rfftn(b[cells].reshape((n, n, n, L, -1)),
                             axes=(0, 1, 2))
            Y = self._inverse * X if L == 1 else self._inverse @ X
            if self._border is not None:
                dofs, inverse = self._border
                z = inverse @ np.concatenate([X[0, 0, 0].real, b[dofs]])
                Y[0, 0, 0] = z[:L]
                x[dofs] = z[L:] / N
            x[cells] = np.fft.irfftn(Y, s=(n, n, n), axes=(0, 1, 2)).reshape(
                N, L, -1)
        return x.reshape(rhs.shape)

    def solve(self, rhs):
        """Solve for one right-hand side or a column stack of them by the
        blocks, guarded column by column against `matrix` (see `_guard`,
        which raises LinearSolveError if it rejects the answer).  The
        residual norms are kept in `residual`."""
        rhs = np.asarray(rhs, dtype=float)
        x = self._apply(rhs)
        self.residual = _guard(self.matrix, self._norm1, x, rhs)
        return x

    def krylov_solve(self, system, rhs, x0=None):
        """Solve system x = rhs for one right-hand side by one GMRES cycle
        on system M^-1, with M this solver's operator, from the guess `x0`
        (zero if None), and return x and its residual norm |Ax - b|.

        `system` is a `SaddleSystem`, used only through its `@` and its
        |A|_1.  GMRES runs on y = M x, so it starts from M x0.  Its answer
        is judged only by the guards of `solve`, against `system`; if they
        reject it, the LinearSolveError names the Arnoldi vectors used.
        """
        rhs = np.asarray(rhs, dtype=float)
        y, used = _gmres(lambda v: system @ self._apply(v), rhs,
                         None if x0 is None else self.matrix @ x0)
        x = self._apply(y)
        try:
            return x, float(_guard(system, system.norm1, x, rhs))
        except LinearSolveError as exc:
            raise LinearSolveError(f"GMRES, {used} of "
                                   f"{KRYLOV_MAX_ITERATIONS} vectors: "
                                   f"{exc}") from exc


def _gmres(apply, b, y):
    """One GMRES cycle for apply(y) = b from the guess y (zero if None):
    Arnoldi by modified Gram-Schmidt, the least-squares problem by Givens
    rotations (Saad and Schultz, SIAM J. Sci. Stat. Comput. 7, 1986).

    The cycle ends when the rotations' residual estimate reaches
    KRYLOV_RTOL |b|, when the Arnoldi vector vanishes (the Krylov space
    holds the answer), or on its KRYLOV_MAX_ITERATIONS-th vector, and its
    iterate is returned with the number of Arnoldi vectors used (0 if
    the guess is accepted at once): the caller's guards judge it."""
    tol = KRYLOV_RTOL * _column_norms(b)
    if y is None:
        y, r = np.zeros_like(b), b
    else:
        r = b - apply(y)
    beta = _column_norms(r)
    if beta <= tol:
        return y, 0
    eps, m = np.finfo(float).eps, KRYLOV_MAX_ITERATIONS
    V, H = np.empty((m + 1, b.size)), np.zeros((m + 1, m))
    rotations = np.zeros((m, 2))
    g = np.zeros(m + 1)
    V[0], g[0] = r / beta, beta
    for j in range(m):
        w = apply(V[j])
        h0 = _column_norms(w)
        for k in range(j + 1):
            H[k, j] = V[k] @ w
            w -= H[k, j] * V[k]
        H[j + 1, j] = _column_norms(w)
        breakdown = not H[j + 1, j] > eps * h0
        if not breakdown:
            V[j + 1] = w / H[j + 1, j]
        for k, (c, s) in enumerate(rotations[:j]):
            H[k:k + 2, j] = (c * H[k, j] + s * H[k + 1, j],
                             c * H[k + 1, j] - s * H[k, j])
        f, h = H[j:j + 2, j]
        rho = np.hypot(f, h)
        c, s = rotations[j] = (f / rho, h / rho) if rho else (1.0, 0.0)
        H[j:j + 2, j] = rho, 0.0
        g[j:j + 2] = c * g[j], -s * g[j]
        if breakdown or not abs(g[j + 1]) > tol:
            break
    # an exactly singular last column (rho = 0) is left out
    k = j + 1 if H[j, j] else j
    return y + np.linalg.solve(H[:k, :k], g[:k]) @ V[:k], j + 1


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
    The blocks (B, its transpose, and the mean weights int_s of each
    velocity component and int_p of the pressure) are applied directly
    (`apply`), and the saddle matrix is never assembled.  They, the |.|
    `column_sums` of the saddle matrix with a zero velocity block, and
    the per-cell dofs of the layout, velocity components first, are
    shared by the systems of one trajectory."""

    def __init__(self, spaces):
        ops = spaces.ops
        n_p, n_u = ops.B.shape
        self._blocks = ops.B, ops.B.T, ops.int_s, ops.int_p
        self._cells = (spaces.velocity.vector_cell_dofs,
                       spaces.pressure.cell_dofs)
        off = n_u + n_p
        self.slices = {"u": slice(0, n_u), "p": slice(n_u, off),
                       "alpha": slice(off, off + 3),
                       "beta": slice(off + 3, off + 4)}
        self.shape = (off + 4, off + 4)
        w_s, w_p = np.abs(ops.int_s), np.abs(ops.int_p)
        self.column_sums = np.concatenate([
            _column_sums(ops.B) + np.tile(w_s, 3),
            _column_sums(self._blocks[1]) + w_p,
            np.full(3, w_s.sum()), [w_p.sum()]])

    def apply(self, F, x) -> np.ndarray:
        """The saddle matrix with velocity block F applied to a vector x,
        or to each column of a stack, block by block; F's part is added
        last to each momentum row."""
        B, BT, int_s, int_p = self._blocks
        s = self.slices
        rows = x.T                               # (n,), or (k, n)
        u, p, alpha, beta = (rows[..., s[k]]
                             for k in ("u", "p", "alpha", "beta"))
        y = np.empty_like(rows)
        with np.errstate(over="ignore", invalid="ignore"):
            y[..., s["u"]] = ((int_s * alpha[..., None]).reshape(u.shape)
                              - (BT @ p.T).T + (F @ u.T).T)
            y[..., s["p"]] = (B @ u.T).T + int_p * beta
            y[..., s["alpha"]] = _ordered_sum(
                int_s * u.reshape(u.shape[:-1] + (3, -1)))
            y[..., s["beta"]] = _ordered_sum(int_p * p)[..., None]
        return y.T

    def lattice_solver(self, system) -> LatticeSolver:
        """The block solver of `system`, whose velocity block F must be
        invariant under cell shifts: per wave vector k, the 22 x 22 block
        [[F^, -B^*], [B^, 0]] on a cell's 21 velocity and 1 pressure dofs,
        and at k = 0 that block bordered by the mean rows, on the velocity
        weights W (21 x 3, one column per component) and the pressure
        weight m of one cell.  The caller holds it (see `SaddleSystem`)."""
        B, _, int_s, int_p = self._blocks
        u, p = self._cells
        L = u.shape[1] + 1
        Bk = _half_symbols(B, p, u)[..., 0, :]
        symbol = np.zeros(Bk.shape[:3] + (L, L), dtype=complex)
        symbol[..., :-1, :-1] = _half_symbols(system.F, u, u)
        symbol[..., :-1, -1] = -Bk.conj()
        symbol[..., -1, :-1] = Bk
        block = np.zeros((L + 4, L + 4))
        block[:L, :L] = symbol[0, 0, 0].real
        W = np.zeros((L - 1, 3))
        W[np.arange(L - 1), u[0] // int_s.size] = int_s[u[0] % int_s.size]
        block[:L - 1, L:L + 3], block[L:L + 3, :L - 1] = W, W.T
        block[L - 1, L + 3] = block[L + 3, L - 1] = int_p[p[0, 0]]
        return LatticeSolver(
            system, system.norm1, np.concatenate([u, p + u.size], axis=1),
            symbol, border=(np.arange(self.shape[0] - 4, self.shape[0]),
                            block))


class SaddleSystem:
    """The saddle system with velocity block F (`fespace._CSR`) over
    `constraints`.

    It is applied (`@`), and its |A|_1 taken, block by block; it is
    never assembled.  A system whose F is invariant under cell shifts (M,
    or M/dt + nu A/2) is solved by its Fourier blocks, by the
    `LatticeSolver` of `SaddleConstraints.lattice_solver`; any other, a
    frozen-advection step's, by GMRES preconditioned with the block
    solver of such a system.  That solver refers to this system, so the
    code that solves with it holds it (a trajectory's `StepOperator`, the
    projection), and nothing caches it here: a cached one would close a
    reference cycle, which keeps the system, its blocks and the solver's
    inverses resident until a full collection, in a run until it ends."""

    def __init__(self, constraints: SaddleConstraints, F):
        self.constraints, self.F = constraints, F
        self.slices, self.shape = constraints.slices, constraints.shape

    def __matmul__(self, x):
        return self.constraints.apply(self.F, x)

    @property
    def norm1(self) -> float:
        """|A|_1, the largest column sum of |A|."""
        sums = self.constraints.column_sums.copy()
        sums[self.slices["u"]] += _column_sums(self.F)
        return float(sums.max())

    def rhs(self, rhs_u) -> np.ndarray:
        """The full right-hand side: rhs_u on the momentum rows, zero on
        the constraint rows."""
        rhs = np.zeros(self.shape[0])
        rhs[self.slices["u"]] = rhs_u
        return rhs

    def residual(self, x, rhs) -> float:
        """|Ax - b| / max(1, |b|)."""
        return float(_column_norms(self @ x - rhs)
                     / max(1.0, _column_norms(rhs)))

    def solve(self, rhs, solver=None, preconditioner=None,
              x0=None) -> SaddleSolution:
        """Guarded solve (see `_guard`) for a full right-hand side built
        by `rhs`, by the one solver the caller passes.

        With a `preconditioner` (the `LatticeSolver` of a nearby system
        of the same layout) the system is solved by
        `preconditioner.krylov_solve` from the guess `x0`, and otherwise
        by `solver`, this system's own block solver.  An answer the
        guards reject raises LinearSolveError.
        """
        if preconditioner is not None:
            x, resid = preconditioner.krylov_solve(self, rhs, x0)
        else:
            x = solver.solve(rhs)
            resid = float(solver.residual)
        return SaddleSolution(x=x, slices=self.slices, residual=resid
                              / max(1.0, _column_norms(rhs)))
