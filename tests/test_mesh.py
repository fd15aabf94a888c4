import dataclasses

import numpy as np
import pytest

from torusns.mesh import (KUHN_OFFSETS, MeshError, PeriodicMesh,
                          build_torus_mesh, conformity_ok)
from torusns.trig import TWO_PI


@pytest.mark.parametrize("n,nv,nt", [(2, 8, 48), (3, 27, 162)])
def test_entity_counts(n, nv, nt):
    mesh = build_torus_mesh(n)
    assert mesh.n_vertices == nv
    assert mesh.n_tets == nt
    # independent count: distinct grid coordinates
    uniq = {tuple(np.round(v, 12)) for v in mesh.vertices}
    assert len(uniq) == n ** 3


@pytest.mark.parametrize("n", [2, 3, 4])
def test_elements_follow_the_layout(n):
    # element 6 c + t is Kuhn type t of the cube at vertex c, and its
    # vertices are that corner plus the type's offsets, wrapped
    mesh = build_torus_mesh(n)
    a = TWO_PI / n
    e = np.arange(mesh.n_tets)
    corner = np.rint(mesh.vertices[e // 6] / a).astype(np.int64)[:, None]
    offsets = KUHN_OFFSETS[e % 6]
    grid = np.rint(mesh.vertices[mesh.tetrahedra] / a).astype(np.int64)
    assert np.array_equal(grid, (corner + offsets.astype(np.int64)) % n)
    # unwrapped: the same corner plus offsets, in physical units
    assert np.array_equal(mesh.tet_coords(), a * (corner + offsets))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_mesh_is_built_from_n_cells(n):
    mesh = PeriodicMesh(n)
    assert [f.name for f in dataclasses.fields(mesh) if f.init] == ["n_cells"]
    with pytest.raises(ValueError):
        dataclasses.replace(mesh, tetrahedra=mesh.tetrahedra[::-1])
    # the stored construction it replaced, written out
    a = TWO_PI / n
    idx = np.arange(n)
    ii, jj, kk = np.meshgrid(idx, idx, idx, indexing="ij")
    corners = np.stack([ii, jj, kk], axis=-1).reshape(-1, 3)
    tet_verts = (corners[:, None, None, :]
                 + KUHN_OFFSETS.astype(np.int64)).reshape(-1, 4, 3) % n
    tets = (tet_verts[..., 0] * n + tet_verts[..., 1]) * n + tet_verts[..., 2]
    assert np.array_equal(mesh.vertices, a * corners)
    assert np.array_equal(mesh.tetrahedra, tets)
    assert mesh.tetrahedra.dtype == tets.dtype


@pytest.mark.parametrize("n", [2, 3, 4])
def test_volume_partition(n):
    vols = build_torus_mesh(n).volumes()
    assert vols.min() > 0.0
    assert abs(vols.sum() - TWO_PI ** 3) / TWO_PI ** 3 < 1e-12


def test_mesh_size_values():
    assert abs(build_torus_mesh(2).h - np.sqrt(3.0) * np.pi) < 1e-14
    assert abs(build_torus_mesh(4).h - np.sqrt(3.0) * np.pi / 2) < 1e-14
    # halving the cell size halves the diameter exactly
    assert build_torus_mesh(2).h == 2.0 * build_torus_mesh(4).h


def test_quasi_uniformity():
    ratios = [build_torus_mesh(n).shape_ratio for n in (2, 3, 4)]
    assert np.allclose(ratios, ratios[0], rtol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_face_pairing(n):
    assert conformity_ok(build_torus_mesh(n))


def test_small_grids_rejected():
    for bad in (1, 0, -3):
        with pytest.raises(MeshError):
            build_torus_mesh(bad)
