"""Mesh constructions, invariants, and the text format."""

import math

import numpy as np
import pytest

from orliczfem.meshing import build_mesh, read_mesh_text, write_mesh_text
from orliczfem.nfunctions import DomainError


def test_unit_square_reference_counts():
    mesh = build_mesh("unit_square", 0.5)
    assert mesh.n_nodes == 9
    assert mesh.n_cells == 8


def test_uniform_refinement_quadruples_cells():
    coarse = build_mesh("unit_square", 0.5)
    fine = build_mesh("unit_square", 0.25)
    assert fine.n_cells == 4 * coarse.n_cells


def test_square_area_and_orientation():
    mesh = build_mesh("unit_square", 0.2)
    areas = mesh.cell_areas()
    assert np.all(areas > 0.0)
    assert areas.sum() == pytest.approx(1.0)


def test_disk_boundary_nodes_on_circle():
    mesh = build_mesh("unit_disk", 0.1)
    radii = np.linalg.norm(mesh.nodes[mesh.boundary_nodes], axis=1)
    assert np.all(np.abs(radii - 1.0) <= 1e-12)
    assert mesh.cell_areas().sum() == pytest.approx(math.pi, rel=5e-3)


def test_disk_refinement_improves_area():
    errs = [
        abs(build_mesh("unit_disk", h).cell_areas().sum() - math.pi) for h in (0.5, 0.25, 0.125)
    ]
    assert errs[0] > errs[1] > errs[2]


def test_half_disk_boundary():
    mesh = build_mesh("half_disk", 0.2)
    b = mesh.nodes[mesh.boundary_nodes]
    on_axis = np.abs(b[:, 1]) <= 1e-12
    on_arc = np.abs(np.linalg.norm(b, axis=1) - 1.0) <= 1e-12
    assert np.all(on_axis | on_arc)
    assert mesh.cell_areas().sum() == pytest.approx(math.pi / 2, rel=1e-2)


@pytest.mark.parametrize("k", [6, 12, 30])
def test_polygonal_disk_exact_area(k):
    mesh = build_mesh(f"unit_disk_polygonal({k})", 0.2)
    exact = 0.5 * k * math.sin(2 * math.pi / k)
    assert mesh.cell_areas().sum() == pytest.approx(exact, abs=1e-12)


def test_conformity_edge_sharing():
    mesh = build_mesh("unit_disk", 0.25)
    # interior edges in exactly 2 cells, boundary edges in exactly 1
    counts = np.zeros(mesh.n_edges, dtype=int)
    for edges in mesh.cell_edges:
        counts[edges] += 1
    assert set(np.unique(counts)) <= {1, 2}
    assert np.array_equal(counts == 1, mesh.boundary_edges)


def test_boundary_flags_consistency_enforced():
    mesh = build_mesh("unit_square", 0.5)
    wrong = ~mesh.boundary_nodes
    from orliczfem.meshing import Mesh

    with pytest.raises(DomainError):
        Mesh(mesh.nodes, mesh.cells.copy(), wrong, "unit_square", 0.5)


def test_invalid_inputs():
    with pytest.raises(DomainError):
        build_mesh("unit_square", 0.0)
    with pytest.raises(DomainError):
        build_mesh("unit_square", -1.0)
    with pytest.raises(DomainError):
        build_mesh("dodecahedron", 0.1)
    with pytest.raises(DomainError):
        build_mesh("unit_disk_polygonal(2)", 0.1)


def test_text_roundtrip(tmp_path):
    mesh = build_mesh("unit_disk", 0.3)
    path = tmp_path / "mesh.txt"
    write_mesh_text(mesh, path)
    back = read_mesh_text(path, domain_tag=mesh.domain_tag, h=mesh.h)
    assert np.array_equal(back.nodes, mesh.nodes)
    assert np.array_equal(back.cells, mesh.cells)
    assert np.array_equal(back.boundary_nodes, mesh.boundary_nodes)


def test_text_format_without_flags(tmp_path):
    mesh = build_mesh("unit_square", 0.5)
    path = tmp_path / "mesh.txt"
    with open(path, "w") as fh:
        fh.write(f"{mesh.n_nodes} {mesh.n_cells} 2\n")
        for x, y in mesh.nodes:
            fh.write(f"{x} {y}\n")
        for i, j, k in mesh.cells:
            fh.write(f"{i} {j} {k}\n")
    back = read_mesh_text(path)
    assert np.array_equal(back.boundary_nodes, mesh.boundary_nodes)


def test_text_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 1\n")
    with pytest.raises(DomainError):
        read_mesh_text(path)
    path.write_text("3 1 2\n0 0 1\n1 0 1\n0 1 1\n0 1 7\n")
    with pytest.raises(DomainError):
        read_mesh_text(path)
    # a non-number in the header, among the nodes or among the cells
    for text in ("3 one 2\n", "3 1 2\n0 0\n1 x\n0 1\n0 1 2\n", "3 1 2\n0 0\n1 0\n0 1\n0 1 z\n"):
        path.write_text(text)
        with pytest.raises(DomainError, match="malformed"):
            read_mesh_text(path)
