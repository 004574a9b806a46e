"""2D conforming triangle meshes for the supported benchmark domains.

Domains (the ``domain_tag`` strings accepted by :func:`build_mesh`):

* ``unit_square``              [0,1]^2, structured N x N grid split into triangles
* ``unit_disk``                ring-based triangulation, boundary nodes on the circle
* ``unit_disk_polygonal(k)``   same construction mapped radially onto the inscribed
                               regular k-gon (tracks the polygonal-boundary error)
* ``half_disk``                upper half of the unit disk

The refinement parameter ``h`` is the grid pitch: the square uses N =
ceil(1/h) cells per side, the disks use m = ceil(1/h) concentric rings.  Cell
edges are bounded by ~1.05 h (ring chords); a 2 x 2 grid at h = 0.5 gives the
reference 8-triangle, 9-node square mesh.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .nfunctions import DomainError

__all__ = ["Mesh", "LOCAL_EDGES", "cell_jacobians", "build_mesh"]

#: Vertex pairs of a cell's local edges: column k of ``Mesh.cell_edges`` joins
#: ``LOCAL_EDGES[k]``, and the P2 edge function k lives on it.
LOCAL_EDGES = ((0, 1), (1, 2), (2, 0))


@dataclass
class Mesh:
    """Conforming triangle mesh; its edge tables and boundary flags come from the cells."""

    nodes: np.ndarray  # (nv, 2)
    cells: np.ndarray  # (nc, 3), positively oriented
    domain_tag: str
    h: float
    boundary_nodes: np.ndarray = field(init=False)  # (nv,) bool
    edges: np.ndarray = field(init=False)  # (ne, 2) sorted node pairs
    cell_edges: np.ndarray = field(init=False)  # (nc, 3) edge ids
    boundary_edges: np.ndarray = field(init=False)  # (ne,) bool

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.cells = np.ascontiguousarray(self.cells, dtype=np.int64)
        _orient_positively(self.nodes, self.cells)
        self.edges, self.cell_edges, self.boundary_edges = _edge_tables(self.cells)
        self.boundary_nodes = np.zeros(len(self.nodes), dtype=bool)
        self.boundary_nodes[np.unique(self.edges[self.boundary_edges])] = True

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def boundary_distance(self, points: np.ndarray) -> np.ndarray:
        """Distance from each point to the nearest boundary node (polygonal proxy)."""
        bpts = self.nodes[self.boundary_nodes]
        pts = np.atleast_2d(points)
        d = np.sqrt(((pts[:, None, :] - bpts[None, :, :]) ** 2).sum(axis=2))
        return d.min(axis=1)


def cell_jacobians(nodes, cells):
    """Each cell's affine Jacobian [p1 - p0, p2 - p0], shape (nc, 2, 2), and its determinant."""
    p = nodes[cells]
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
    return jac, jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]


def _orient_positively(nodes, cells):
    signed = cell_jacobians(nodes, cells)[1]
    if np.any(signed == 0.0):
        raise DomainError("mesh contains degenerate cells")
    flip = signed < 0.0
    cells[flip] = cells[flip][:, [0, 2, 1]]


def _edge_tables(cells):
    raw = np.concatenate([cells[:, pair] for pair in LOCAL_EDGES])
    raw.sort(axis=1)
    edges, inverse, counts = np.unique(
        raw, axis=0, return_inverse=True, return_counts=True
    )
    if counts.max() > 2:
        raise DomainError("non-conforming mesh: an edge is shared by >2 cells")
    cell_edges = inverse.reshape(3, -1).T
    return edges, np.ascontiguousarray(cell_edges), counts == 1


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def _square_mesh(h: float) -> Mesh:
    n = max(1, math.ceil(1.0 / h - 1e-12))
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    cells = []
    for j in range(n):
        for i in range(n):
            v00 = j * (n + 1) + i
            v10 = v00 + 1
            v01 = v00 + (n + 1)
            v11 = v01 + 1
            cells.append((v00, v10, v11))
            cells.append((v00, v11, v01))
    return Mesh(nodes, np.array(cells), "unit_square", h)


def _ring_chain(j: int, m: int, closed: bool):
    """Node angles of ring j out of m (closed rings: 6j nodes; arcs: 3j+1)."""
    if closed:
        k = 6 * j
        return 2.0 * math.pi * np.arange(k) / k
    k = 3 * j + 1
    return math.pi * np.arange(k) / (k - 1)


def _merge_rings(inner_ids, inner_ang, outer_ids, outer_ang, closed: bool):
    """Triangulate the annulus between two concentric node rings."""
    tris = []
    if len(inner_ids) == 1:
        center = inner_ids[0]
        rng = len(outer_ids) if closed else len(outer_ids) - 1
        for o in range(rng):
            tris.append((center, outer_ids[o], outer_ids[(o + 1) % len(outer_ids)]))
        return tris

    if closed:
        i_ang = np.append(inner_ang, inner_ang[0] + 2.0 * math.pi)
        o_ang = np.append(outer_ang, outer_ang[0] + 2.0 * math.pi)
        i_ids = np.append(inner_ids, inner_ids[0])
        o_ids = np.append(outer_ids, outer_ids[0])
    else:
        i_ang, o_ang = np.asarray(inner_ang), np.asarray(outer_ang)
        i_ids, o_ids = np.asarray(inner_ids), np.asarray(outer_ids)

    i = o = 0
    ni, no = len(i_ids) - 1, len(o_ids) - 1
    while i < ni or o < no:
        take_outer = o < no and (i == ni or o_ang[o + 1] <= i_ang[i + 1])
        if take_outer:
            tris.append((i_ids[i], o_ids[o], o_ids[o + 1]))
            o += 1
        else:
            tris.append((i_ids[i], o_ids[o], i_ids[i + 1]))
            i += 1
    return tris


def _disk_mesh(h: float, tag: str, half: bool = False, kgon: int | None = None) -> Mesh:
    m = max(1, math.ceil(1.0 / h - 1e-12))
    if kgon is not None:
        # boundary ring has 6m nodes; make that a multiple of k so every
        # polygon vertex is a mesh node and the k-gon is meshed exactly
        step = kgon // math.gcd(6, kgon)
        m = step * math.ceil(m / step)
    nodes = [(0.0, 0.0)]
    ring_ids = [[0]]
    ring_angles = [np.zeros(1)]
    closed = not half
    for j in range(1, m + 1):
        ang = _ring_chain(j, m, closed)
        r = j / m
        ids = list(range(len(nodes), len(nodes) + len(ang)))
        nodes.extend(zip(r * np.cos(ang), r * np.sin(ang)))
        ring_ids.append(ids)
        ring_angles.append(ang)
    cells = []
    for j in range(1, m + 1):
        cells.extend(
            _merge_rings(
                ring_ids[j - 1], ring_angles[j - 1], ring_ids[j], ring_angles[j], closed
            )
        )
    nodes = np.array(nodes)
    if kgon is not None:
        nodes = _map_to_kgon(nodes, kgon)
    return Mesh(nodes, np.array(cells), tag, h)


def _map_to_kgon(nodes: np.ndarray, k: int) -> np.ndarray:
    """Scale radially so the unit circle lands on the inscribed regular k-gon."""
    theta = np.arctan2(nodes[:, 1], nodes[:, 0])
    sector = np.mod(theta, 2.0 * math.pi / k) - math.pi / k
    rho = math.cos(math.pi / k) / np.cos(sector)
    return nodes * rho[:, None]


_POLY_RE = re.compile(r"^unit_disk_polygonal\((\d+)\)$")


def build_mesh(domain_tag: str, h: float) -> Mesh:
    """Build a mesh of the requested domain with grid pitch ``h``."""
    if not (h > 0.0) or not math.isfinite(h):
        raise DomainError(f"refinement h must be a positive number, got {h}")
    if domain_tag == "unit_square":
        return _square_mesh(h)
    if domain_tag == "unit_disk":
        return _disk_mesh(h, domain_tag)
    if domain_tag == "half_disk":
        return _disk_mesh(h, domain_tag, half=True)
    match = _POLY_RE.match(domain_tag)
    if match:
        k = int(match.group(1))
        if k < 3:
            raise DomainError(f"polygonal disk needs k >= 3, got {k}")
        return _disk_mesh(h, domain_tag, kgon=k)
    raise DomainError(f"unknown domain tag {domain_tag!r}")

