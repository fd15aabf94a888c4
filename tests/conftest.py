import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from torusns.cli import study_steps
from torusns.diagnostics import build_report
from torusns.fespace import build_spaces
from torusns.mesh import build_torus_mesh
from torusns.steppers import SchemeConfig, run
from torusns.trig import sine_shear, tg_like


@pytest.fixture(scope="session")
def level():
    """Shared spaces (with their operators) per mesh level; built once
    per session."""
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = build_spaces(build_torus_mesh(n))
        return cache[n]

    return get


@pytest.fixture(scope="session")
def as_scipy():
    """A matrix of the package (`fespace._CSR`) as scipy's CSR matrix,
    for the tests that take scipy's methods or arithmetic on it; a scipy
    matrix passes through."""
    def convert(matrix):
        if sp.issparse(matrix):
            return matrix
        return sp.csr_matrix((matrix.data, matrix.indices, matrix.indptr),
                             shape=matrix.shape)

    return convert


@pytest.fixture(scope="session")
def saddle_matrix(as_scipy):
    """The assembled matrix of a saddle system (`linsolve.SaddleSystem`),
    built from its velocity block F and its constraint blocks by
    `sp.bmat` as scipy's CSC matrix, in the layout [u, p, alpha, beta]:
    [[F, -B^T, W^T, 0], [B, 0, 0, m], [W, 0, 0, 0], [0, m^T, 0, 0]], with
    W = diag(int_s, int_s, int_s) and m = int_p; the reference of the
    tests of products, norms and solves."""
    def assemble(system):
        B, _, int_s, int_p = system.constraints._blocks
        B, n_u = as_scipy(B).tocsc(), B.shape[1]
        W = sp.csr_matrix((np.tile(int_s, 3), np.arange(n_u),
                           int_s.size * np.arange(4)))
        m = sp.csc_matrix(int_p[:, None])
        return sp.bmat([[as_scipy(system.F).tocsc(), -B.T, W.T, None],
                        [B, None, None, m],
                        [W, None, None, None],
                        [None, m.T, None, None]], format="csc")

    return assemble


@pytest.fixture(scope="session")
def lu_solve(as_scipy):
    """The reference solve of a sparse matrix (scipy's or the package's)
    for one right-hand side or a column stack, by SuperLU: minimum-degree
    ordering on A^T + A, diagonal pivots preferred down to 0.1 of their
    column's largest entry (the symmetric-mode settings of the SuperLU
    Users' Guide, which keep the saddle systems' fill small).  Unguarded:
    a test that wants the guards calls `linsolve._guard` on the answer."""
    def solve(matrix, rhs):
        lu = spla.splu(as_scipy(matrix).tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.1)
        return lu.solve(np.asarray(rhs, dtype=float))

    return solve


@pytest.fixture(scope="session")
def vector_mass():
    """The vector mass matrix diag(M_s, M_s, M_s) of a pair's spaces, on
    the componentwise block pattern."""
    def build(spaces):
        return spaces.velocity.block_pattern.matrix(
            np.tile(spaces.ops.M_s.data, 3))

    return build


@pytest.fixture(scope="session")
def quad_points():
    """The quadrature points of a space's elements, (E, Q, 3): element
    6 c + t is Kuhn type t of the cube at vertex c, so its points are that
    vertex plus type t's offsets."""
    def gather(spaces):
        mesh, t = spaces.mesh, spaces.tables
        return (np.repeat(mesh.vertices, 6, 0)[:, None]
                + t.offsets[np.arange(mesh.n_tets) % 6])

    return gather


@pytest.fixture(scope="session")
def cn_runs(level):
    """Midpoint-scheme trajectories for all three convective cases."""
    spaces = level(3)
    out = {}
    for case in (1, 2, 3):
        cfg = SchemeConfig(scheme="CN", case=case, nu=0.1, T=1.0, N=16)
        out[case] = run(cfg, spaces, tg_like())
    return out


@pytest.fixture(scope="session")
def cnle_run(level):
    spaces = level(3)
    cfg = SchemeConfig(scheme="CNLE", case=1, nu=0.1, T=1.0, N=16)
    return run(cfg, spaces, tg_like())


@pytest.fixture(scope="session")
def cnab_runs(level):
    """Calm and deliberately overdriven explicit-convection runs.

    The step sizes differ by a factor 100 at fixed mesh; the large one
    overflows on purpose, so arithmetic warnings are silenced.
    """
    spaces = level(3)
    out = {}
    with np.errstate(all="ignore"):
        for tag, dt in (("stable", 0.02), ("unstable", 2.0)):
            cfg = SchemeConfig(scheme="CNAB", case=1, nu=0.005, T=dt * 64,
                               N=64, c1=5.0)
            out[tag] = run(cfg, spaces, tg_like())
    return out


STUDY_ALPHA = 0.6
STUDY_DT2 = 0.125  # target step at the coarsest level


@pytest.fixture(scope="session")
def shear_study(level):
    """Three-level refinement study with dt slaved to h^0.6."""
    h2 = np.sqrt(3.0) * np.pi
    C = STUDY_DT2 / h2 ** STUDY_ALPHA
    rows = []
    for n in (2, 3, 4):
        spaces = level(n)
        N = study_steps(1.0, C, STUDY_ALPHA, spaces.h)
        cfg = SchemeConfig(scheme="CN", case=1, nu=0.1, T=1.0, N=N)
        traj = run(cfg, spaces, sine_shear())
        report = build_report(traj, spaces,
                              u0_norm=sine_shear().l2_norm())
        rows.append((n, spaces, traj, report))
    return rows
