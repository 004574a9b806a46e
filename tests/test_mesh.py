"""Mesh constructions and invariants."""

import math

import numpy as np
import pytest

from orliczfem.meshing import Mesh, build_mesh, cell_jacobians
from orliczfem.nfunctions import DomainError


def test_unit_square_reference_counts():
    mesh = build_mesh("unit_square", 0.5)
    assert mesh.n_nodes == 9
    assert mesh.n_cells == 8


def test_uniform_refinement_quadruples_cells():
    coarse = build_mesh("unit_square", 0.5)
    fine = build_mesh("unit_square", 0.25)
    assert fine.n_cells == 4 * coarse.n_cells


def _area(mesh):
    return 0.5 * cell_jacobians(mesh.nodes, mesh.cells)[1].sum()


def test_square_area_and_orientation():
    mesh = build_mesh("unit_square", 0.2)
    signed = cell_jacobians(mesh.nodes, mesh.cells)[1]
    assert np.all(signed > 0.0)
    assert 0.5 * signed.sum() == pytest.approx(1.0)


def test_disk_boundary_nodes_on_circle():
    mesh = build_mesh("unit_disk", 0.1)
    radii = np.linalg.norm(mesh.nodes[mesh.boundary_nodes], axis=1)
    assert np.all(np.abs(radii - 1.0) <= 1e-12)
    assert _area(mesh) == pytest.approx(math.pi, rel=5e-3)


def test_square_boundary_nodes_on_the_sides():
    mesh = build_mesh("unit_square", 0.2)
    x, y = mesh.nodes.T
    on_side = (np.minimum(x, 1.0 - x) <= 1e-12) | (np.minimum(y, 1.0 - y) <= 1e-12)
    assert np.array_equal(mesh.boundary_nodes, on_side)


@pytest.mark.parametrize("tag", ["unit_square", "unit_disk", "half_disk", "unit_disk_polygonal(6)"])
def test_boundary_is_one_closed_curve(tag):
    mesh = build_mesh(tag, 0.25)
    # each flagged node ends exactly two boundary edges, and no other node ends one
    ends = np.bincount(mesh.edges[mesh.boundary_edges].ravel(), minlength=mesh.n_nodes)
    assert np.array_equal(ends == 2, mesh.boundary_nodes)
    assert set(np.unique(ends)) <= {0, 2}
    assert mesh.boundary_nodes.sum() == mesh.boundary_edges.sum()


def test_boundary_nodes_is_derived_not_an_argument():
    mesh = build_mesh("unit_disk", 0.25)
    again = Mesh(mesh.nodes, mesh.cells, mesh.domain_tag, mesh.h)
    assert np.array_equal(again.boundary_nodes, mesh.boundary_nodes)
    with pytest.raises(TypeError):
        Mesh(mesh.nodes, mesh.cells, mesh.domain_tag, mesh.h, boundary_nodes=mesh.boundary_nodes)
    with pytest.raises(TypeError):
        Mesh(mesh.nodes, mesh.cells, mesh.boundary_nodes, mesh.domain_tag, mesh.h)


def test_disk_refinement_improves_area():
    errs = [abs(_area(build_mesh("unit_disk", h)) - math.pi) for h in (0.5, 0.25, 0.125)]
    assert errs[0] > errs[1] > errs[2]


def test_half_disk_boundary():
    mesh = build_mesh("half_disk", 0.2)
    b = mesh.nodes[mesh.boundary_nodes]
    on_axis = np.abs(b[:, 1]) <= 1e-12
    on_arc = np.abs(np.linalg.norm(b, axis=1) - 1.0) <= 1e-12
    assert np.all(on_axis | on_arc)
    assert _area(mesh) == pytest.approx(math.pi / 2, rel=1e-2)


@pytest.mark.parametrize("k", [6, 12, 30])
def test_polygonal_disk_exact_area(k):
    mesh = build_mesh(f"unit_disk_polygonal({k})", 0.2)
    exact = 0.5 * k * math.sin(2 * math.pi / k)
    assert _area(mesh) == pytest.approx(exact, abs=1e-12)


def test_conformity_edge_sharing():
    mesh = build_mesh("unit_disk", 0.25)
    # interior edges in exactly 2 cells, boundary edges in exactly 1
    counts = np.zeros(mesh.n_edges, dtype=int)
    for edges in mesh.cell_edges:
        counts[edges] += 1
    assert set(np.unique(counts)) <= {1, 2}
    assert np.array_equal(counts == 1, mesh.boundary_edges)


def test_invalid_inputs():
    with pytest.raises(DomainError):
        build_mesh("unit_square", 0.0)
    with pytest.raises(DomainError):
        build_mesh("unit_square", -1.0)
    with pytest.raises(DomainError):
        build_mesh("dodecahedron", 0.1)
    with pytest.raises(DomainError):
        build_mesh("unit_disk_polygonal(2)", 0.1)

