"""Snapshot writers: legacy ASCII VTK and flat CSV.

Higher-order fields are exported on a once-refined piecewise-linear
subtriangulation (each triangle split through its edge midpoints) so that
standard viewers see the extra resolution the elements carry.  All floats
are written with 17 significant digits, which round-trips doubles exactly
and keeps repeated runs byte-identical.
"""
from __future__ import annotations

import numpy as np

from . import fem
from .fem import FEFunction
from .mesh import number_edges

__all__ = ["write_vtk", "write_snapshot_csv"]

# Barycentric coordinates of the corners and edge midpoints of a triangle,
# ordered a, b, c, m_ab, m_bc, m_ca.
_SUB_BARY = np.array([
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
    [0.5, 0.5, 0.0],
    [0.0, 0.5, 0.5],
    [0.5, 0.0, 0.5],
])


def _plot_geometry(space):
    """Points, triangles, and the per-cell point ids used for sampling."""
    mesh = space.mesh
    tris = mesh.triangles
    if space.degree == 1:
        ids = tris
        return mesh.vertices, tris, ids, _SUB_BARY[:3]

    nv = mesh.n_vertices
    edges, inverse, _ = number_edges(tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), nv)
    eid = inverse.reshape(-1, 3) + nv  # columns: m_ab, m_bc, m_ca
    points = np.vstack([mesh.vertices, mesh.vertices[edges].mean(axis=1)])

    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    mab, mbc, mca = eid[:, 0], eid[:, 1], eid[:, 2]
    children = np.stack([
        np.stack([a, mab, mca], axis=1),
        np.stack([mab, b, mbc], axis=1),
        np.stack([mca, mbc, c], axis=1),
        np.stack([mab, mbc, mca], axis=1),
    ], axis=1).reshape(-1, 3)
    ids = np.column_stack([a, b, c, mab, mbc, mca])
    return points, children, ids, _SUB_BARY


def _sample(space, ids, bary, values, n_points):
    phi, _ = fem.lagrange_basis(space.degree, bary)
    cell_vals = values[space.cell_dofs] @ phi  # (n_cells, n_sample)
    out = np.zeros(n_points)
    out[ids.ravel()] = cell_vals.ravel()
    return out


def _rows(fmt: str, table) -> str:
    """fmt (one line, ending in a newline) applied to every row of a table,
    or every entry of a vector, with one % over the whole block."""
    table = np.asarray(table)
    return (fmt * len(table)) % tuple(table.ravel().tolist())


def write_vtk(path, fields, title="coupled wave/heat snapshot") -> None:
    """Write named scalar fields sharing one space as a VTK 2.0 dataset.

    fields: sequence of (name, FEFunction) pairs, written in order.
    """
    fields = list(fields)
    if not fields:
        raise ValueError("write_vtk needs at least one field")
    space = fields[0][1].space
    for name, f in fields:
        if f.space is not space:
            raise ValueError(f"field {name!r} lives on a different space")

    points, cells, ids, bary = _plot_geometry(space)
    n_points = len(points)
    parts = [
        f"# vtk DataFile Version 2.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n"
        f"POINTS {n_points} double\n",
        _rows("%.17g %.17g 0\n", points),
        f"CELLS {len(cells)} {4 * len(cells)}\n",
        _rows("3 %d %d %d\n", cells),
        f"CELL_TYPES {len(cells)}\n",
        "5\n" * len(cells),
        f"POINT_DATA {n_points}\n",
    ]
    for name, f in fields:
        parts.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
        parts.append(_rows("%.17g\n", _sample(space, ids, bary, f.values, n_points)))
    with open(path, "w") as fh:
        fh.write("".join(parts))


def write_snapshot_csv(path, u: FEFunction, theta: FEFunction) -> None:
    """Write both fields at the degree-of-freedom points as x1,x2,u,theta."""
    if theta.space is not u.space:
        raise ValueError("fields live on different spaces")
    table = np.column_stack([u.space.dof_coords, u.values, theta.values])
    with open(path, "w") as fh:
        fh.write("x1,x2,u,theta\n" + _rows("%.17g,%.17g,%.17g,%.17g\n", table))
