"""Triangular meshes of the computational domains.

Two generators are provided: a uniform triangulation of the unit square
used by the verification harness, and a boundary-fitted structured mesh of
the focused-transducer domain (a rectangle whose right side is replaced by
a circular arc).  Both generators are deterministic.  Meshes are written to
and read from a small native CSV format.

All triangles are stored counterclockwise; the loader reorients clockwise
cells.  Boundary vertices are derived by edge counting (an edge shared by
exactly one triangle is a boundary edge).
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

__all__ = [
    "Mesh",
    "MeshFormatError",
    "unit_square_mesh",
    "unit_square_cells",
    "focused_domain_mesh",
    "focused_domain_cells",
    "number_edges",
    "mirror_vertex_map",
    "load_mesh",
    "save_mesh",
]

# Focused-transducer domain: x1 > X_LEFT, |x2| < Y_HALF, |x| < ARC_RADIUS.
# The rectangle corners (+-0.03, +-0.04) lie exactly on the arc (3-4-5
# triangle), so the boundary is the rectangle with its right edge replaced
# by the circular arc.
X_LEFT = -0.03
Y_HALF = 0.04
ARC_RADIUS = 0.05
# The most cells either generator builds, checked before any array is
# made: about 22 times the 44,700 of the shipped focused h_target = 7.6e-4,
# which puts the smallest h_target near 1.6e-4 and the largest unit-square
# subdivision count at 707.
MAX_CELLS = 1_000_000


def _is_int(value) -> bool:
    """Whether a count or degree is a Python int: a bool is an int, and a
    float such as 2.0 or a numpy integer equals one, yet none counts."""
    return isinstance(value, int) and not isinstance(value, bool)


class MeshFormatError(ValueError):
    """A mesh file could not be parsed; message carries the line number."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


class Mesh:
    """Immutable 2D triangulation.

    Attributes
    ----------
    vertices : (n_vertices, 2) float array
    triangles : (n_triangles, 3) int array, counterclockwise
    boundary_vertices : sorted int array of vertex indices on the boundary
    h_max : largest triangle diameter (longest edge)
    """

    __slots__ = ("vertices", "triangles", "boundary_vertices", "h_max")

    def __init__(self, vertices, triangles):
        vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise ValueError("vertices must be an (n, 2) array")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError("triangles must be an (m, 3) array")
        if not np.isfinite(vertices).all():
            raise ValueError("vertex coordinates must be finite")
        if triangles.shape[0] == 0:
            raise ValueError("mesh has no triangles")
        if triangles.min() < 0 or triangles.max() >= len(vertices):
            raise ValueError("triangle indices out of range")
        if (np.diff(np.sort(triangles, axis=1), axis=1) == 0).any():
            raise ValueError("triangle with repeated vertex")

        areas = _signed_areas(vertices, triangles)
        if (areas <= 0.0).any():
            bad = int(np.argmax(areas <= 0.0))
            raise ValueError(
                f"triangle {bad} is degenerate or clockwise (signed area {areas[bad]:.3e})"
            )

        edges, _, counts = number_edges(triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2),
                                        len(vertices))
        if (counts > 2).any():
            raise ValueError("non-manifold mesh: an edge is shared by more than two triangles")
        self.boundary_vertices = np.unique(edges[counts == 1])

        d01 = vertices[triangles[:, 1]] - vertices[triangles[:, 0]]
        d12 = vertices[triangles[:, 2]] - vertices[triangles[:, 1]]
        d20 = vertices[triangles[:, 0]] - vertices[triangles[:, 2]]
        lengths = np.stack(
            [np.hypot(d01[:, 0], d01[:, 1]), np.hypot(d12[:, 0], d12[:, 1]), np.hypot(d20[:, 0], d20[:, 1])]
        )
        self.h_max = float(lengths.max())

        vertices.setflags(write=False)
        triangles.setflags(write=False)
        self.boundary_vertices.setflags(write=False)
        self.vertices = vertices
        self.triangles = triangles

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def areas(self) -> np.ndarray:
        return _signed_areas(self.vertices, self.triangles)

    def __repr__(self):
        return (
            f"Mesh(n_vertices={self.n_vertices}, n_triangles={self.n_triangles}, "
            f"h_max={self.h_max:.4e})"
        )


def _signed_areas(vertices, triangles):
    a = vertices[triangles[:, 0]]
    b = vertices[triangles[:, 1]]
    c = vertices[triangles[:, 2]]
    return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


def number_edges(pairs, n_vertices: int):
    """Number the edges of vertex pairs given in either orientation.

    Returns (edges, edge_of, counts): the distinct edges as rows (smaller
    vertex first) in lexicographic order, the edge number of each pair, and
    the number of pairs on each edge.  The edges are numbered by the
    integer keys lo * n_vertices + hi, which sort as the rows do.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    keys, edge_of, counts = np.unique(lo * n_vertices + hi, return_inverse=True,
                                      return_counts=True)
    return np.column_stack([keys // n_vertices, keys % n_vertices]), edge_of, counts


def unit_square_mesh(n: int) -> Mesh:
    """Uniform triangulation of the unit square with 2*n^2 triangles.

    Vertices sit on the lattice (i/n, j/n); every grid cell is split along
    the diagonal from its lower-left to its upper-right corner, giving
    h_max = sqrt(2)/n.
    """
    unit_square_cells(n)
    side = np.arange(n + 1, dtype=np.float64) / n
    xx, yy = np.meshgrid(side, side, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    idx = np.arange((n + 1) * (n + 1)).reshape(n + 1, n + 1)
    v00 = idx[:-1, :-1].ravel()
    v10 = idx[:-1, 1:].ravel()
    v01 = idx[1:, :-1].ravel()
    v11 = idx[1:, 1:].ravel()
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    triangles = np.vstack([lower, upper])
    return Mesh(vertices, triangles)


def unit_square_cells(n: int) -> int:
    """Cell count 2 n^2 of unit_square_mesh(n), found without building the
    mesh; ValueError where that would refuse n."""
    if not _is_int(n) or n < 1:
        raise ValueError(f"subdivision count must be a positive integer, got {n!r}")
    cells = 2 * n ** 2
    if cells > MAX_CELLS:
        raise ValueError(f"n = {n!r} would mesh {cells:,} cells, "
                         f"above the cap of MAX_CELLS = {MAX_CELLS:,}")
    return cells


def _focused_grid(h_target: float) -> tuple:
    """Columns m and rows n of focused_domain_mesh's grid, 2 m n cells, for
    an h_target whose mesh stays within MAX_CELLS.  Each count is clamped at
    1e18, so that no h_target overflows the arithmetic."""
    if not (0.0 < h_target < ARC_RADIUS):
        raise ValueError(f"h_target must lie in (0, {ARC_RADIUS}), got {h_target!r}")
    step = h_target / math.sqrt(2.0)
    m = max(2, math.ceil(min((ARC_RADIUS - X_LEFT) / step, 1e18)))
    n = max(2, math.ceil(min(2.0 * Y_HALF / step, 1e18)))
    n += n % 2
    if 2 * m * n > MAX_CELLS:
        raise ValueError(f"h_target = {h_target!r} would mesh {2 * m * n:,} cells, "
                         f"above the cap of MAX_CELLS = {MAX_CELLS:,}")
    return m, n


def focused_domain_cells(h_target: float) -> int:
    """Cell count of focused_domain_mesh(h_target), found without building
    the mesh; ValueError where that would refuse h_target."""
    m, n = _focused_grid(h_target)
    return 2 * m * n


def focused_domain_mesh(h_target: float) -> Mesh:
    """Structured boundary-fitted mesh of the focused-transducer domain.

    Every horizontal slab |x2| = const intersects the domain in the segment
    [X_LEFT, sqrt(R^2 - x2^2)], so a tensor grid in (row, column) space maps
    onto a boundary-fitted grid whose right column lies exactly on the arc.
    Rows are generated symmetrically about x2 = 0 (coordinates of mirrored
    rows are exact negations) and cell diagonals are mirrored across the
    axis, so the triangulation is invariant under (x1, x2) -> (x1, -x2).
    Cell counts are chosen so triangle diameters stay below 2*h_target.
    """
    m, n = _focused_grid(h_target)
    height = 2.0 * Y_HALF

    # x2 levels, exactly antisymmetric: row j and row n-j are negations.
    half = np.arange(n // 2 + 1, dtype=np.float64) / n * height - Y_HALF
    half[0] = -Y_HALF
    half[-1] = 0.0
    levels = np.concatenate([half, -half[-2::-1]])

    # Slab widths from |x2|, so mirrored rows match bitwise; the arc column
    # sits on the circle exactly.
    right = np.sqrt(ARC_RADIUS * ARC_RADIUS - np.abs(levels) * np.abs(levels))
    x = X_LEFT + (right - X_LEFT)[:, None] * (np.arange(m + 1, dtype=np.float64) / m)
    x[:, -1] = right
    vertices = np.column_stack([x.ravel(), np.repeat(levels, m + 1)])

    # Grid cell (j, i) has corners a, b (row j) and d, c (row j + 1); the
    # upper half splits it along a-c, the lower half along the mirrored b-d.
    a = np.arange(n)[:, None] * (m + 1) + np.arange(m)
    b, d = a + 1, a + m + 1
    c = d + 1
    upper = (np.arange(n) >= n // 2)[:, None]
    tris = np.stack([a, b, np.where(upper, c, d), np.where(upper, a, b), c, d], axis=-1)
    return Mesh(vertices, tris.reshape(-1, 3))


def mirror_vertex_map(mesh: Mesh) -> np.ndarray:
    """Index map sending each vertex to its mirror image across x2 = 0.

    Requires the mesh to be exactly symmetric (bitwise matching coordinates),
    as produced by focused_domain_mesh.
    """
    lookup = {(float(x), float(y)): i for i, (x, y) in enumerate(mesh.vertices)}
    out = np.empty(mesh.n_vertices, dtype=np.int64)
    for i, (x, y) in enumerate(mesh.vertices):
        key = (float(x), float(-y))
        if key not in lookup:
            raise ValueError(f"mesh is not mirror-symmetric: vertex {i} has no partner")
        out[i] = lookup[key]
    return out


# ---------------------------------------------------------------------------
# File format


def load_mesh(path) -> Mesh:
    """Read a mesh in the native CSV format that save_mesh writes.  Clockwise
    triangles are flipped; a degenerate one is reported with its line."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as e:
        raise MeshFormatError(path, 0, f"cannot read file: {e}") from e
    pos = 0

    def expect_header(tag):
        nonlocal pos
        if pos >= len(lines):
            raise MeshFormatError(path, pos + 1, f"unexpected end of file, expected '#{tag} N'")
        parts = lines[pos].split()
        if len(parts) != 2 or parts[0] != f"#{tag}":
            raise MeshFormatError(path, pos + 1, f"expected '#{tag} N' header")
        try:
            count = int(parts[1])
        except ValueError:
            raise MeshFormatError(path, pos + 1, f"invalid count {parts[1]!r}") from None
        if count < 0:
            raise MeshFormatError(path, pos + 1, "negative count")
        pos += 1
        return count

    nv = expect_header("vertices")
    vertices = np.empty((nv, 2), dtype=np.float64)
    for k in range(nv):
        if pos >= len(lines):
            raise MeshFormatError(path, pos + 1, "unexpected end of file in vertex block")
        parts = lines[pos].split(",")
        if len(parts) != 2:
            raise MeshFormatError(path, pos + 1, "expected 'x,y'")
        try:
            vertices[k, 0] = float(parts[0])
            vertices[k, 1] = float(parts[1])
        except ValueError:
            raise MeshFormatError(path, pos + 1, f"invalid coordinates {lines[pos]!r}") from None
        pos += 1

    nt = expect_header("triangles")
    triangles = np.empty((nt, 3), dtype=np.int64)
    tri_lines = []
    for k in range(nt):
        if pos >= len(lines):
            raise MeshFormatError(path, pos + 1, "unexpected end of file in triangle block")
        parts = lines[pos].split(",")
        if len(parts) != 3:
            raise MeshFormatError(path, pos + 1, "expected 'i,j,k'")
        try:
            triangles[k] = [int(p) for p in parts]
        except ValueError:
            raise MeshFormatError(path, pos + 1, f"invalid indices {lines[pos]!r}") from None
        tri_lines.append(pos + 1)
        pos += 1

    if nv == 0 or nt == 0:
        raise MeshFormatError(path, pos, "mesh must contain vertices and triangles")
    if triangles.min() < 0 or triangles.max() >= nv:
        bad = int(np.argmax((triangles < 0).any(axis=1) | (triangles >= nv).any(axis=1)))
        raise MeshFormatError(path, tri_lines[bad], "triangle index out of range")
    areas = _signed_areas(vertices, triangles)
    scale = max(float(np.abs(vertices).max()), 1.0)
    degenerate = np.abs(areas) <= 1e-14 * scale * scale
    if degenerate.any():
        k = int(np.argmax(degenerate))
        raise MeshFormatError(path, tri_lines[k], f"triangle {k} has zero area")
    flip = areas < 0.0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    return Mesh(vertices, triangles)


def save_mesh(mesh: Mesh, path) -> None:
    """Write a mesh in the native CSV format."""
    path = Path(path)
    out = [f"#vertices {mesh.n_vertices}"]
    out.extend(f"{x:.17g},{y:.17g}" for x, y in mesh.vertices)
    out.append(f"#triangles {mesh.n_triangles}")
    out.extend(f"{a},{b},{c}" for a, b, c in mesh.triangles)
    path.write_text("\n".join(out) + "\n")
