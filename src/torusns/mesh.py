"""Structured simplicial meshes of the periodic box [0, 2*pi)^3.

The box is divided into n^3 cubes and each cube into the 6 tetrahedra
that share its main diagonal (Kuhn pattern).  Opposite faces of the box
are identified at the vertex-index level, so the mesh is a genuine
triangulation of the 3-torus: there is no boundary and every face is
interior.  All elements are congruent up to coordinate permutation,
which makes the family exactly quasi-uniform under refinement.

Layout: element e is Kuhn type e % 6 of cube e // 6, and cube c is the
one at vertex c.  A mesh is its n_cells: it builds its vertices and
elements in this order and stores nothing else, so the finite element
kernels can contract each stride-6 slice of elements with its type's
tables.  Because vertices wrap around, element geometry cannot be
recovered from the vertex coordinates alone; the unwrapped coordinates
of element e are those of its cube corner plus its type's offsets, both
read off the element index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations

import numpy as np

from .trig import TWO_PI

#: Unit-cube vertex offsets of the 6 Kuhn tetrahedra.  Path k visits
#: (0,0,0) -> ... -> (1,1,1) adding one unit step per axis in the order
#: of a permutation; odd permutations get their last two vertices
#: swapped so every element is positively oriented.
KUHN_OFFSETS = np.zeros((6, 4, 3))
KUHN_PERMUTATIONS = list(permutations(range(3)))
for _t, _perm in enumerate(KUHN_PERMUTATIONS):
    _v = np.zeros((4, 3))
    for _step, _axis in enumerate(_perm):
        _v[_step + 1] = _v[_step]
        _v[_step + 1, _axis] += 1.0
    _parity = sum(1 for i in range(3) for j in range(i + 1, 3)
                  if _perm[i] > _perm[j]) % 2
    if _parity == 1:
        _v[[2, 3]] = _v[[3, 2]]
    KUHN_OFFSETS[_t] = _v

class MeshError(ValueError):
    pass


def element_diameter(n_cells: int) -> float:
    """Diameter h of every element of the n-cell mesh: the cube diagonal."""
    return float(np.sqrt(3.0) * (TWO_PI / n_cells))


@dataclass
class PeriodicMesh:
    """The Kuhn subdivision of the n_cells^3 cubes of the periodic box,
    built from n_cells alone in the layout of the module docstring."""
    n_cells: int
    vertices: np.ndarray = field(init=False)    # (n^3, 3) in [0, 2*pi)
    tetrahedra: np.ndarray = field(init=False)  # (6 n^3, 4) vertex indices
    h: float = field(init=False)

    def __post_init__(self):
        n = self.n_cells
        if n < 2:
            raise MeshError("n_cells must be >= 2; smaller grids degenerate "
                            "under periodic identification")
        cubes = self._cubes()
        self.vertices = self.cell_size * cubes
        tet_verts = (cubes[:, None, None, :]
                     + KUHN_OFFSETS.astype(np.int64)).reshape(-1, 4, 3) % n
        self.tetrahedra = ((tet_verts[..., 0] * n + tet_verts[..., 1]) * n
                           + tet_verts[..., 2])
        self.h = element_diameter(n)

    @cached_property
    def shape_ratio(self) -> float:
        """Largest diameter-to-inradius ratio over the elements."""
        return float(np.max(self._shape_ratios()))

    @property
    def cell_size(self) -> float:
        return TWO_PI / self.n_cells

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_tets(self) -> int:
        return self.tetrahedra.shape[0]

    def tet_coords(self) -> np.ndarray:
        """Unwrapped physical coordinates, shape (n_tets, 4, 3).

        Coordinates may exceed 2*pi for elements that wrap; periodic
        fields do not care and element geometry is exact.
        """
        corners = self._cubes()[:, None, None, :]
        return (self.cell_size * (corners + KUHN_OFFSETS)).reshape(-1, 4, 3)

    def _cubes(self) -> np.ndarray:
        """(n^3, 3) integer grid corners of the cubes, in vertex order."""
        idx = np.arange(self.n_cells)
        return np.stack(np.meshgrid(idx, idx, idx, indexing="ij"),
                        axis=-1).reshape(-1, 3)

    def volumes(self) -> np.ndarray:
        x = self.tet_coords()
        e = x[:, 1:] - x[:, :1]
        return np.linalg.det(e) / 6.0

    def _shape_ratios(self) -> np.ndarray:
        x = self.tet_coords()
        # diameter: max pairwise edge length
        diffs = x[:, :, None, :] - x[:, None, :, :]
        diam = np.sqrt((diffs ** 2).sum(-1)).max(axis=(1, 2))
        # inradius: 3 V / surface area
        vol = self.volumes()
        area = np.zeros(self.n_tets)
        for f in ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)):
            p, q, r = (x[:, i] for i in f)
            area += 0.5 * np.linalg.norm(np.cross(q - p, r - p), axis=1)
        return diam * area / (3.0 * vol)


def build_torus_mesh(n_cells: int) -> PeriodicMesh:
    """Kuhn-subdivided periodic mesh with n_cells cubes per axis."""
    return PeriodicMesh(int(n_cells))


def conformity_ok(mesh: PeriodicMesh) -> bool:
    """Every face shared by exactly two elements.

    Faces are keyed by their centroid on the torus, held in exact
    integer units of cell_size/3: index triples alone cannot tell
    wrapped faces apart on very coarse grids.
    """
    offsets = KUHN_OFFSETS.astype(np.int64)  # entries are exactly 0 or 1
    counts: dict[tuple, int] = {}
    period = 3 * mesh.n_cells  # torus period in units of cell_size/3
    corners = mesh._cubes()[:, None, :]      # element 6 c + t: cube c, type t
    for f in ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)):
        mids = 3 * corners + offsets[:, f, :].sum(axis=1)
        mids = np.mod(mids, period).reshape(-1, 3)
        for row in mids:
            key = tuple(int(v) for v in row)
            counts[key] = counts.get(key, 0) + 1
    return all(c == 2 for c in counts.values())
