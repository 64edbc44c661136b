"""Lagrange finite elements on triangles: spaces, quadrature, assembly.

Continuous P1/P2/P3 spaces with homogeneous Dirichlet boundary handled by
degree-of-freedom elimination.  Degrees of freedom are numbered vertices
first, then edge nodes (edges ordered lexicographically by their vertex
pair, nodes within an edge from the smaller vertex), then cell interiors,
so the numbering is reproducible for a given mesh.

Quadrature rules are conical products of Gauss-Legendre and Gauss-Jacobi
rules collapsed onto the triangle; a rule of requested degree d integrates
all polynomials of total degree <= d exactly.  Weights are normalized to
sum to one, so integrals are area * sum(w * f).

Assembly weights and load sources are tables of values on the quadrature
points, shape (cells, points), with a gradient table where the form
needs one; analytic fields (ScalarField) serve initial data, projections
and error norms.  Mass and load tables are einsum contractions; every
stiffness form builds its local matrices with one GEMM against a table
of reference basis products (see assemble_weighted_stiffness).  All
matrices share the space's one pattern, so a solver system is a sum of
data arrays, restricted to the interior dofs by one gather
(FESpace.interior_matrix).  A run's sources are tabulated once on the
error-degree points and assembled from those tables at each step
(source_loads).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.special

from . import linalg
from .linalg import SparseMatrix
from .mesh import Mesh

__all__ = [
    "QuadratureRule",
    "triangle_rule",
    "FESpace",
    "build_space",
    "FEFunction",
    "ScalarField",
    "assemble_mass",
    "assemble_stiffness",
    "assemble_weighted_stiffness",
    "assemble_load",
    "source_loads",
    "ritz_projection",
    "nodal_interpolate",
    "error_norms",
]

# Gradients of the barycentric coordinates on the reference triangle
# (0,0)-(1,0)-(0,1) with respect to (xi, eta).
_DLAMBDA = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])

# Cells per block of the weighted stiffness kernel's per-point table.
_CELL_BLOCK = 1024


@dataclass(frozen=True)
class ScalarField:
    """Analytic scalar field: value(points, t) and optional gradient."""

    fn: Callable
    grad: Callable | None = None

    def value(self, x, t: float = 0.0) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return np.broadcast_to(np.asarray(self.fn(x, t), dtype=np.float64), x.shape[:-1]).copy()

    def gradient(self, x, t: float = 0.0) -> np.ndarray:
        if self.grad is None:
            raise ValueError("field does not provide a gradient")
        x = np.asarray(x, dtype=np.float64)
        return np.broadcast_to(np.asarray(self.grad(x, t), dtype=np.float64), x.shape).copy()


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature on the reference triangle in barycentric coordinates.

    points has shape (nq, 3); weights sum to one (reference measure
    normalized), so the integral over a physical cell K is
    area(K) * sum_q weights[q] * f(x_q).
    """

    degree: int
    points: np.ndarray
    weights: np.ndarray


_RULE_CACHE: dict[int, QuadratureRule] = {}


def triangle_rule(degree: int) -> QuadratureRule:
    """Symmetric-free conical product rule exact to the requested degree."""
    if not isinstance(degree, (int, np.integer)) or degree < 0:
        raise ValueError(f"quadrature degree must be a nonnegative integer, got {degree!r}")
    degree = int(degree)
    if degree in _RULE_CACHE:
        return _RULE_CACHE[degree]
    k = max(1, math.ceil((degree + 1) / 2))
    # Gauss-Legendre on [0,1] for the collapsed direction.
    gl_x, gl_w = np.polynomial.legendre.leggauss(k)
    gl_x = 0.5 * (gl_x + 1.0)
    gl_w = 0.5 * gl_w
    # Gauss-Jacobi with weight (1 - v) on [0,1] for the conical direction.
    gj_x, gj_w = scipy.special.roots_jacobi(k, 1.0, 0.0)
    gj_x = 0.5 * (gj_x + 1.0)
    gj_w = 0.25 * gj_w  # carries the (1 - v) factor; sums to 1/2
    xi = np.outer(gl_x, 1.0 - gj_x).ravel()
    eta = np.tile(gj_x, k)
    w = np.outer(gl_w, gj_w).ravel() * 2.0  # normalize reference area 1/2 -> 1
    bary = np.column_stack([1.0 - xi - eta, xi, eta])
    rule = QuadratureRule(degree, bary, w)
    _RULE_CACHE[degree] = rule
    return rule


def lagrange_basis(degree: int, bary: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shape functions and reference gradients at barycentric points.

    Returns (phi, dphi) with shapes (n_basis, nq) and (n_basis, nq, 2).
    Local ordering: vertices 0,1,2; then edge nodes on local edges
    (0,1), (0,2), (1,2) (two per edge for cubic, ordered toward the first
    vertex of the pair); then the interior node for cubics.
    """
    bary = np.asarray(bary, dtype=np.float64)
    l0, l1, l2 = bary[:, 0], bary[:, 1], bary[:, 2]
    lam = (l0, l1, l2)
    nq = bary.shape[0]

    def grad_from_dlam(dlam_list):
        # dlam_list: per basis function, tuple of 3 arrays dN/dlambda_j
        n = len(dlam_list)
        out = np.zeros((n, nq, 2))
        for b, parts in enumerate(dlam_list):
            for j in range(3):
                out[b] += np.multiply.outer(parts[j], _DLAMBDA[j])
        return out

    zeros = np.zeros(nq)
    if degree == 1:
        phi = np.stack([l0, l1, l2])
        dlam = [
            (np.ones(nq), zeros, zeros),
            (zeros, np.ones(nq), zeros),
            (zeros, zeros, np.ones(nq)),
        ]
        return phi, grad_from_dlam(dlam)

    if degree == 2:
        phi = np.stack([
            l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
            4 * l0 * l1, 4 * l0 * l2, 4 * l1 * l2,
        ])
        dlam = [
            (4 * l0 - 1, zeros, zeros),
            (zeros, 4 * l1 - 1, zeros),
            (zeros, zeros, 4 * l2 - 1),
            (4 * l1, 4 * l0, zeros),
            (4 * l2, zeros, 4 * l0),
            (zeros, 4 * l2, 4 * l1),
        ]
        return phi, grad_from_dlam(dlam)

    if degree == 3:
        def vert(l):
            return 0.5 * l * (3 * l - 1) * (3 * l - 2)

        def dvert(l):
            return 0.5 * (27 * l * l - 18 * l + 2)

        def edge(la, lb):
            return 4.5 * la * lb * (3 * la - 1)

        phi = np.stack([
            vert(l0), vert(l1), vert(l2),
            edge(l0, l1), edge(l1, l0),   # edge (0,1): node near 0, node near 1
            edge(l0, l2), edge(l2, l0),   # edge (0,2)
            edge(l1, l2), edge(l2, l1),   # edge (1,2)
            27 * l0 * l1 * l2,
        ])

        def dedge(la, lb):
            # d/dla and d/dlb of 4.5*la*lb*(3la - 1)
            return 4.5 * lb * (6 * la - 1), 4.5 * la * (3 * la - 1)

        d01a_a, d01a_b = dedge(l0, l1)
        d01b_b, d01b_a = dedge(l1, l0)
        d02a_a, d02a_c = dedge(l0, l2)
        d02b_c, d02b_a = dedge(l2, l0)
        d12a_b, d12a_c = dedge(l1, l2)
        d12b_c, d12b_b = dedge(l2, l1)
        dlam = [
            (dvert(l0), zeros, zeros),
            (zeros, dvert(l1), zeros),
            (zeros, zeros, dvert(l2)),
            (d01a_a, d01a_b, zeros),
            (d01b_a, d01b_b, zeros),
            (d02a_a, zeros, d02a_c),
            (d02b_a, zeros, d02b_c),
            (zeros, d12a_b, d12a_c),
            (zeros, d12b_b, d12b_c),
            (27 * l1 * l2, 27 * l0 * l2, 27 * l0 * l1),
        ]
        return phi, grad_from_dlam(dlam)

    raise ValueError(f"polynomial degree must be 1, 2 or 3, got {degree!r}")


_LOCAL_EDGES = ((0, 1), (0, 2), (1, 2))


class FESpace:
    """Continuous Lagrange space of degree 1, 2 or 3 on a triangle mesh."""

    def __init__(self, mesh: Mesh, degree: int):
        if degree not in (1, 2, 3):
            raise ValueError(f"polynomial degree must be 1, 2 or 3, got {degree!r}")
        self.mesh = mesh
        self.degree = degree

        tris = mesh.triangles
        nv = mesh.n_vertices
        nt = mesh.n_triangles
        n_loc = (degree + 1) * (degree + 2) // 2

        edges_all = np.sort(tris[:, _LOCAL_EDGES].reshape(-1, 2), axis=1)
        edges, edge_of = np.unique(edges_all, axis=0, return_inverse=True)
        edge_of = edge_of.reshape(nt, 3)
        ne = len(edges)
        self._edges = edges

        per_edge = {1: 0, 2: 1, 3: 2}[degree]
        n_interior_nodes = 1 if degree == 3 else 0
        self.n_dofs = nv + per_edge * ne + n_interior_nodes * nt

        cell_dofs = np.empty((nt, n_loc), dtype=np.int64)
        cell_dofs[:, :3] = tris
        if degree == 2:
            cell_dofs[:, 3:6] = nv + edge_of
        elif degree == 3:
            for k, (a, b) in enumerate(_LOCAL_EDGES):
                eid = edge_of[:, k]
                asc = tris[:, a] < tris[:, b]  # local first vertex is the global smaller one
                base = nv + 2 * eid
                cell_dofs[:, 3 + 2 * k] = np.where(asc, base, base + 1)
                cell_dofs[:, 4 + 2 * k] = np.where(asc, base + 1, base)
            cell_dofs[:, 9] = nv + 2 * ne + np.arange(nt)
        self.cell_dofs = cell_dofs

        coords = np.empty((self.n_dofs, 2))
        coords[:nv] = mesh.vertices
        if degree == 2:
            coords[nv:] = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
        elif degree == 3:
            va = mesh.vertices[edges[:, 0]]
            vb = mesh.vertices[edges[:, 1]]
            coords[nv : nv + 2 * ne : 2] = va + (vb - va) / 3.0
            coords[nv + 1 : nv + 2 * ne : 2] = va + 2.0 * (vb - va) / 3.0
            coords[nv + 2 * ne :] = mesh.vertices[tris].mean(axis=1)
        self.dof_coords = coords

        # Dirichlet set: vertex dofs on the boundary plus edge dofs of
        # boundary edges (cell-interior dofs never touch the boundary).
        edges_sorted = edges  # already sorted rows, lexicographic order
        counts = np.zeros(ne, dtype=np.int64)
        np.add.at(counts, edge_of.ravel(), 1)
        boundary_edge = counts == 1
        bdofs = [mesh.boundary_vertices]
        if degree == 2:
            bdofs.append(nv + np.flatnonzero(boundary_edge))
        elif degree == 3:
            be = np.flatnonzero(boundary_edge)
            bdofs.append(nv + 2 * be)
            bdofs.append(nv + 2 * be + 1)
        self.boundary_dofs = np.unique(np.concatenate(bdofs))
        mask = np.ones(self.n_dofs, dtype=bool)
        mask[self.boundary_dofs] = False
        self.interior_dofs = np.flatnonzero(mask)

        v0 = mesh.vertices[tris[:, 0]]
        jac = np.stack(
            [mesh.vertices[tris[:, 1]] - v0, mesh.vertices[tris[:, 2]] - v0], axis=2
        )  # (nt, 2, 2), columns are edge vectors
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        inv = np.empty_like(jac)
        inv[:, 0, 0] = jac[:, 1, 1]
        inv[:, 0, 1] = -jac[:, 0, 1]
        inv[:, 1, 0] = -jac[:, 1, 0]
        inv[:, 1, 1] = jac[:, 0, 0]
        inv /= det[:, None, None]
        self._v0 = v0
        self._jac = jac
        self._inv_jac = inv
        self.cell_areas = 0.5 * det
        self._values_cache: dict[int, FEValues] = {}
        self._matrix_cache: dict = {}

    @property
    def assembly_degree(self) -> int:
        return 2 * self.degree + 2

    @property
    def error_degree(self) -> int:
        return 2 * self.degree + 4

    def values(self, quad_degree: int | None = None) -> "FEValues":
        if quad_degree is None:
            quad_degree = self.assembly_degree
        if quad_degree not in self._values_cache:
            self._values_cache[quad_degree] = FEValues(self, triangle_rule(quad_degree))
        return self._values_cache[quad_degree]

    def function(self, values=None) -> "FEFunction":
        if values is None:
            values = np.zeros(self.n_dofs)
        return FEFunction(self, np.asarray(values, dtype=np.float64))

    def matrix_pattern(self) -> linalg.TripletPattern:
        """Structure of every assembled matrix: local entry (a, b) of cell c
        goes to (cell_dofs[c, a], cell_dofs[c, b])."""
        if "pattern" not in self._matrix_cache:
            cd, n_loc = self.cell_dofs, self.cell_dofs.shape[1]
            self._matrix_cache["pattern"] = linalg.TripletPattern(
                self.n_dofs, self.n_dofs, np.repeat(cd, n_loc, axis=1).ravel(),
                np.tile(cd, (1, n_loc)).ravel())
        return self._matrix_cache["pattern"]

    def interior_matrix(self, data) -> SparseMatrix:
        """Block on the interior dofs (rows and columns interior_dofs, in
        order) of the matrix on matrix_pattern() whose CSR data array is
        `data`, such as a linear combination of assembled matrices' data."""
        if "interior" not in self._matrix_cache:
            pattern = self.matrix_pattern()
            number = np.full(self.n_dofs, -1)
            number[self.interior_dofs] = np.arange(self.interior_dofs.size)
            rows = np.repeat(number, np.diff(pattern.indptr))
            cols = number[pattern.indices]
            gather = np.flatnonzero((rows >= 0) & (cols >= 0))
            # The numbering keeps the dof order, so the gathered entries
            # are already in the block's CSR order.
            n = self.interior_dofs.size
            self._matrix_cache["interior"] = (
                gather, linalg.TripletPattern(n, n, rows[gather], cols[gather]))
        gather, block = self._matrix_cache["interior"]
        return block.matrix(np.asarray(data)[gather])

    def mass_matrix(self) -> SparseMatrix:
        if "mass" not in self._matrix_cache:
            self._matrix_cache["mass"] = assemble_mass(self)
        return self._matrix_cache["mass"]

    def stiffness_matrix(self) -> SparseMatrix:
        if "stiffness" not in self._matrix_cache:
            self._matrix_cache["stiffness"] = assemble_stiffness(self)
        return self._matrix_cache["stiffness"]

    def l2_norm(self, values: np.ndarray) -> float:
        m = self.mass_matrix()
        return math.sqrt(max(float(values @ (m @ values)), 0.0))

    def __repr__(self):
        return f"FESpace(degree={self.degree}, n_dofs={self.n_dofs}, cells={self.mesh.n_triangles})"


def build_space(mesh: Mesh, degree: int) -> FESpace:
    return FESpace(mesh, degree)


class FEValues:
    """Tabulated basis data for one (space, quadrature rule) pair."""

    def __init__(self, space: FESpace, rule: QuadratureRule):
        self.space = space
        self.rule = rule
        self.phi, self._dphi_ref = lagrange_basis(space.degree, rule.points)  # reference tables
        # physical quadrature points: (nt, nq, 2)
        ref = rule.points[:, 1:]  # (xi, eta)
        self.points = space._v0[:, None, :] + np.einsum("cij,qj->cqi", space._jac, ref)
        self.points.flags.writeable = False  # shared by every caller of the table
        self.weights = rule.weights
        self.areas = space.cell_areas

    @functools.cached_property
    def dphi(self) -> np.ndarray:
        """Physical gradients (nt, n_loc, nq, 2), tabulated on first use and
        stored with the basis index fastest, so that gradient evaluation
        contracts contiguous rows."""
        dphi = np.einsum("cde,bqd->cbqe", self.space._inv_jac, self._dphi_ref, optimize=True)
        return np.ascontiguousarray(dphi.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)

    @functools.cached_property
    def reference_products(self) -> np.ndarray:
        """Quadrature-weighted products of reference basis data, shape
        (5 nq, n_loc**2): rows (j, q) hold, for the local pair (a, b) at point
        q, w_q times d0a d0b, d0a d1b + d1a d0b, d1a d1b, phi_a d0b and
        phi_a d1b, where dk is the derivative along reference axis k."""
        d0, d1 = self._dphi_ref[..., 0], self._dphi_ref[..., 1]  # (n_loc, nq)
        pairs = ((d0, d0), (d0, d1), (d1, d1), (self.phi, d0), (self.phi, d1))
        table = np.stack([np.einsum("q,aq,bq->qab", self.weights, a, b) for a, b in pairs])
        table[1] += table[1].transpose(0, 2, 1)
        return table.reshape(5 * len(self.weights), -1)

    def fe_values(self, coeffs: np.ndarray) -> np.ndarray:
        local = coeffs[self.space.cell_dofs]  # (nt, n_loc)
        return np.einsum("cb,bq->cq", local, self.phi, optimize=True)

    def fe_gradients(self, coeffs: np.ndarray) -> np.ndarray:
        local = coeffs[self.space.cell_dofs]
        return np.einsum("cb,cbqe->cqe", local, self.dphi, optimize=True)

    def integrate(self, cell_values: np.ndarray) -> float:
        return float(np.einsum("c,q,cq->", self.areas, self.weights, cell_values, optimize=True))


@dataclass
class FEFunction:
    """Coefficient vector attached to its space."""

    space: FESpace
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.space.n_dofs,):
            raise ValueError(
                f"coefficient vector has shape {self.values.shape}, expected ({self.space.n_dofs},)"
            )

    def copy(self) -> "FEFunction":
        return FEFunction(self.space, self.values.copy())


def _table(table, shape: tuple, what: str) -> np.ndarray:
    """table itself, after checking that it is an array of the given shape."""
    if not isinstance(table, np.ndarray) or table.shape != shape:
        got = table.shape if isinstance(table, np.ndarray) else type(table).__name__
        raise ValueError(f"{what} must be an array of shape {shape}, got {got}")
    return table


def assemble_mass(space: FESpace, weight=None, quad_degree: int | None = None) -> SparseMatrix:
    """Weighted mass matrix M_ij = integral of w * phi_j * phi_i, for a table
    of w on the quadrature points, shape (nt, nq); weight=None is w = 1."""
    fev = space.values(quad_degree)
    shape = fev.points.shape[:2]
    w_vals = np.ones(shape) if weight is None else _table(weight, shape, "mass weight")
    local = np.einsum("q,cq,aq,bq->cab", fev.weights, w_vals, fev.phi, fev.phi, optimize=True)
    local *= fev.areas[:, None, None]
    return space.matrix_pattern().assemble(local)


def assemble_stiffness(space: FESpace, quad_degree: int | None = None) -> SparseMatrix:
    """Stiffness matrix K_ij = integral of grad phi_j . grad phi_i."""
    return assemble_weighted_stiffness(space, None, quad_degree=quad_degree)


def assemble_weighted_stiffness(space: FESpace, weight,
                                quad_degree: int | None = None) -> SparseMatrix:
    """Matrix of the form a(u, w phi): A_ij = (w grad phi_j + phi_j grad w) . grad phi_i ...

    Row index i is the test function, column j the trial function:
    A_ij = integral of w * grad phi_j . grad phi_i + (grad phi_j . grad w) * phi_i,
    i.e. the weight multiplies the test function inside the bilinear form
    and its gradient enters through the product rule.  weight is a pair
    (values, gradients) of tables on the quadrature points, shapes (nt, nq)
    and (nt, nq, 2); weight=None is w = 1, the plain stiffness form.

    The local matrices come from one GEMM instead of a contraction over
    (cell, point, component, basis).  The form is mapped to the reference
    cell: with G = J^{-1}, a cell enters only through area * G G^T
    (3 entries) times w and area * G grad w, so one GEMM of those
    (cells x 5 points) values against the FEValues.reference_products
    table gives every local matrix, for every degree.  The per-point
    values are built for _CELL_BLOCK cells at a time, so that table stays
    small on large meshes.
    """
    fev = space.values(quad_degree)
    nt, nq = fev.points.shape[:2]
    if weight is None:
        w_vals, w_grads = np.ones((nt, nq)), np.zeros((nt, nq, 2))
    elif isinstance(weight, tuple) and len(weight) == 2:
        w_vals = _table(weight[0], (nt, nq), "weight values")
        w_grads = _table(weight[1], (nt, nq, 2), "weight gradients")
    else:
        raise ValueError(f"weight must be None or a (values, gradients) pair of arrays of "
                         f"shapes {(nt, nq)} and {(nt, nq, 2)}, got {type(weight).__name__}")
    inv = space._inv_jac * fev.areas[:, None, None]
    metric = np.matmul(inv, space._inv_jac.transpose(0, 2, 1))[:, [0, 0, 1], [0, 1, 1], None]
    n_loc = fev.phi.shape[0]
    local = np.empty((nt, n_loc * n_loc))
    for start in range(0, nt, _CELL_BLOCK):
        cells = slice(start, start + _CELL_BLOCK)
        x = np.empty((min(_CELL_BLOCK, nt - start), 5, nq))
        np.multiply(metric[cells], w_vals[cells, None, :], out=x[:, :3])
        np.matmul(inv[cells], w_grads[cells].transpose(0, 2, 1), out=x[:, 3:])
        np.matmul(x.reshape(-1, 5 * nq), fev.reference_products, out=local[cells])
    return space.matrix_pattern().assemble(local.reshape(nt, n_loc, n_loc))


def assemble_load(space: FESpace, source, quad_degree: int | None = None) -> np.ndarray:
    """Load vector b_i = integral of f * phi_i, for a table of f on the
    quadrature points, shape (nt, nq)."""
    fev = space.values(quad_degree)
    f_vals = _table(source, fev.points.shape[:2], "load source")
    local = np.einsum("q,cq,aq->ca", fev.weights, f_vals, fev.phi, optimize=True)
    local *= fev.areas[:, None]
    return np.bincount(space.cell_dofs.ravel(), weights=local.ravel(), minlength=space.n_dofs)


def source_loads(space: FESpace, evaluator) -> Callable:
    """The `sources` callable of run_simulation, t -> (wave load, heat load),
    from a point-table evaluator.  evaluator(x) runs once, at the first call
    (a run's first step, after its arguments are checked), on the space's
    error-degree quadrature points x, shape (n, 2): it tabulates what does
    not change in time and returns t -> (wave, heat) values at x, either
    None for no source."""
    degree = space.error_degree

    @functools.cache
    def at_points():
        return evaluator(space.values(degree).points.reshape(-1, 2))

    def load(values):
        if values is None:
            return None
        shape = space.values(degree).points.shape[:2]
        return assemble_load(space, values.reshape(shape), quad_degree=degree)

    def sources(t: float):
        wave, heat = at_points()(t)
        return load(wave), load(heat)

    return sources


def _gradient_load(space: FESpace, grad_table: np.ndarray) -> np.ndarray:
    """Load vector b_i = integral of g . grad phi_i for a table g of shape
    (nt, nq, 2) on the assembly quadrature."""
    fev = space.values()
    nt, nq = fev.points.shape[:2]
    g = grad_table * (fev.areas[:, None] * fev.weights)[:, :, None]
    d = fev.dphi.transpose(0, 2, 3, 1).reshape(nt, 2 * nq, -1)
    local = np.matmul(g.reshape(nt, 1, 2 * nq), d)
    return np.bincount(space.cell_dofs.ravel(), weights=local.ravel(), minlength=space.n_dofs)


def ritz_projection(space: FESpace, field: ScalarField, t: float = 0.0) -> FEFunction:
    """Elliptic projection: a(R v, phi) = (grad v, grad phi) with zero trace.

    The field must provide a gradient.  Interior values solve the reduced
    stiffness system; boundary values are exactly zero.
    """
    return FEFunction(space, _ritz_values(space, [field], t)[0])


def _ritz_values(space: FESpace, fields, t: float) -> list:
    """Coefficient vectors of the Ritz projections of several fields, from
    one factorization of the interior stiffness matrix, which is released
    on return."""
    fev = space.values()
    pts = fev.points.reshape(-1, 2)
    idx = space.interior_dofs
    lu = linalg.factorize(space.interior_matrix(space.stiffness_matrix().data))
    out = []
    for field in fields:
        rhs = _gradient_load(space, field.gradient(pts, t).reshape(fev.points.shape))
        values = np.zeros(space.n_dofs)
        values[idx] = lu(rhs[idx])
        out.append(values)
    return out


def nodal_interpolate(space: FESpace, field: ScalarField, t: float = 0.0) -> FEFunction:
    """Lagrange interpolation: coefficients are field values at dof points."""
    return FEFunction(space, field.value(space.dof_coords, t))


def error_norms(u: FEFunction, exact: ScalarField | None, t: float = 0.0,
                quad_degree: int | None = None) -> tuple[float, float, float]:
    """(L2, H1-seminorm, L6-gradient) norms of u minus an exact field.

    Pass exact=None to take norms of u itself.  Uses an elevated quadrature
    degree (2p + 4 by default) so the measurement error stays below the
    discretization error being measured.
    """
    space = u.space
    if quad_degree is None:
        quad_degree = space.error_degree
    fev = space.values(quad_degree)
    vals = fev.fe_values(u.values)
    grads = fev.fe_gradients(u.values)
    have_grad = True
    if exact is not None:
        pts = fev.points.reshape(-1, 2)
        vals = vals - exact.value(pts, t).reshape(vals.shape)
        if exact.grad is not None:
            grads = grads - exact.gradient(pts, t).reshape(grads.shape)
        else:
            have_grad = False
    l2 = math.sqrt(max(fev.integrate(vals * vals), 0.0))
    if not have_grad:
        return l2, math.nan, math.nan
    g2 = np.einsum("cqe,cqe->cq", grads, grads)
    h1 = math.sqrt(max(fev.integrate(g2), 0.0))
    l6 = max(fev.integrate(g2 * g2 * g2), 0.0) ** (1.0 / 6.0)
    return l2, h1, l6
