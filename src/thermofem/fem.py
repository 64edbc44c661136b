"""Lagrange finite elements on triangles: spaces, quadrature, assembly.

Continuous P1/P2/P3 spaces with homogeneous Dirichlet boundary handled by
degree-of-freedom elimination.  The element is defined once, by the
barycentric lattice indices of its local nodes (_local_nodes): the shape
functions, the dof numbering, the dof coordinates and the Dirichlet set
are all derived from that table, for every degree.  Degrees of freedom
are numbered vertices first, then edge nodes (edges ordered
lexicographically by their vertex pair, nodes within an edge from the
smaller vertex), then cell interiors, so the numbering is reproducible
for a given mesh.

A quadrature rule of degree d integrates all polynomials of total degree
<= d exactly; weights are normalized to sum to one, so integrals are
area * sum(w * f).  FESpace.values(d) takes a fully symmetric rule
(_SYMMETRIC_ORBITS: 12 points at degree 6, 16 at degree 8) when d is the
space's assembly degree 2p + 2 and such a rule is pinned, so the P2 and
P3 assembly tables hold 12 and 16 points where the conical products hold
16 and 25.  Every other table takes triangle_rule(d), a conical product
of Gauss-Legendre and Gauss-Jacobi rules collapsed onto the triangle:
P1's assembly rule (degree 4, which would move a golden value past its
tolerance) and every error-degree rule (2p + 4), which tabulates the
sources and the error norms.  Keying the choice on the degree, not on a
purpose flag, keeps values() and values(space.assembly_degree) one table.

Assembly weights and load sources are tables of values on the quadrature
points, shape (cells, points), with a gradient table where the form
needs one; analytic fields (ScalarField) serve initial data, projections
and error norms.  Every element kernel (values, gradients, mass, load and
stiffness forms, integrals) is one GEMM of per-cell data against a
reference table that FEValues builds once per quadrature rule, or
elementwise arithmetic (see assemble_weighted_stiffness); gradients meet
the cells only through batched 2x2 products with their Jacobians.  All
matrices share the space's one pattern, so a solver system is a sum of
data arrays, restricted to the interior dofs by one gather
(FESpace.interior_matrix).  A run's sources are tabulated once per cell
block on the error-degree points, evaluated block by block at each step,
and assembled from one table per field (source_loads).
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.special

from . import linalg
from .linalg import SparseMatrix
from .mesh import Mesh, _is_int, number_edges

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

# Cells per block of the weighted stiffness kernel's per-point table and of
# the source evaluations (source_loads).
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

# Fully symmetric, positive-weight interior rules on the triangle (Dunavant,
# Int. J. Numer. Methods Eng. 21, 1985), as orbits of barycentric points:
# degree -> (centroid weights, S21 orbits (w, a) of the points (a, b, b)
# with b = (1 - a) / 2, S111 orbits (w, a, b) of the six permutations of
# (a, b, 1 - a - b)); w is the weight of each point.  The published values
# were refined by Gauss-Newton steps on the moment equations in 40-digit
# arithmetic and rounded, so every moment is exact to rounding.
_SYMMETRIC_ORBITS = {
    6: ((),
        ((0.11678627572637937, 0.5014265096581791),
         (0.05084490637020682, 0.8738219710169955)),
        ((0.08285107561837357, 0.053145049844816945, 0.3103524510337844),)),
    8: ((0.14431560767778717,),
        ((0.09509163426728462, 0.0814148234145537),
         (0.10321737053471824, 0.6588613844964796),
         (0.03245849762319808, 0.8989055433659381)),
        ((0.027230314174434993, 0.008394777409957605, 0.2631128296346381),)),
}


@functools.cache
def _symmetric_rule(degree: int) -> QuadratureRule:
    """The pinned symmetric rule of a degree, its orbits expanded once."""
    centroid, s21, s111 = _SYMMETRIC_ORBITS[degree]
    points = [(1 / 3, 1 / 3, 1 / 3)] * len(centroid)
    weights = list(centroid)
    for w, a in s21:
        b = (1.0 - a) / 2.0
        points += [(a, b, b), (b, a, b), (b, b, a)]
        weights += [w] * 3
    for w, a, b in s111:
        points += itertools.permutations((a, b, 1.0 - a - b))
        weights += [w] * 6
    return _read_only_rule(degree, np.array(points), np.array(weights))


def _read_only_rule(degree: int, bary: np.ndarray, weights: np.ndarray) -> QuadratureRule:
    # Every space on a rule shares its arrays (FEValues.weights is weights).
    bary.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(degree, bary, weights)


def triangle_rule(degree: int) -> QuadratureRule:
    """Conical product rule exact to the requested degree, with
    ceil((degree + 1) / 2)**2 points; it has no symmetry in the vertices."""
    if not _is_int(degree) or degree < 0:
        raise ValueError(f"quadrature degree must be a nonnegative integer, got {degree!r}")
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
    rule = _RULE_CACHE[degree] = _read_only_rule(degree, bary, w)
    return rule


_LOCAL_EDGES = ((0, 1), (0, 2), (1, 2))


def _local_nodes(degree: int) -> np.ndarray:
    """The degree-p element's local nodes as barycentric lattice indices.

    Row a is the index alpha (|alpha| = p) of local node a, whose point is
    alpha / p: vertices 0, 1, 2; then the p - 1 nodes of each local edge
    (0,1), (0,2), (1,2), counted from the edge's first local vertex; then
    the interior nodes.  This is the only place that knows the local
    layout: the basis, the dof numbering, the dof coordinates and the
    Dirichlet set are all derived from it.
    """
    if not _is_int(degree) or degree not in (1, 2, 3):
        raise ValueError(f"polynomial degree must be 1, 2 or 3, got {degree!r}")
    p = degree
    rows = [[p * (m == k) for m in range(3)] for k in range(3)]
    for a, b in _LOCAL_EDGES:
        rows += [[p - j if m == a else j if m == b else 0 for m in range(3)]
                 for j in range(1, p)]
    rows += [alpha for alpha in itertools.product(range(1, p), repeat=3) if sum(alpha) == p]
    return np.array(rows, dtype=np.int64)


def lagrange_basis(degree: int, bary: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shape functions and reference gradients at barycentric points.

    Returns (phi, dphi) with shapes (n_basis, nq) and (n_basis, nq, 2), in
    the local order of _local_nodes.  The function of the node with lattice
    index alpha is phi = prod_m prod_{s < alpha_m} (p lambda_m - s) / (s + 1),
    which is one at its own node and zero at the others; its gradient
    follows by the product rule through the gradients of the lambda_m.
    """
    nodes = _local_nodes(degree)
    bary = np.asarray(bary, dtype=np.float64).T  # (3, nq)
    # ell[k] = prod_{s < k} (p lambda - s) / (s + 1) and its derivative in
    # lambda, for k = 0..p, each of shape (3, nq).
    ell = [np.ones_like(bary)]
    dell = [np.zeros_like(bary)]
    for s in range(degree):
        factor = (degree * bary - s) / (s + 1)
        dell.append(dell[s] * factor + ell[s] * (degree / (s + 1)))
        ell.append(ell[s] * factor)
    m = np.arange(3)
    lam = np.array(ell)[nodes, m]  # (n_basis, 3, nq): factor m of each function
    dlam = np.array(dell)[nodes, m]
    phi = lam[:, 0] * lam[:, 1] * lam[:, 2]
    dlam[:, 0] *= lam[:, 1] * lam[:, 2]
    dlam[:, 1] *= lam[:, 0] * lam[:, 2]
    dlam[:, 2] *= lam[:, 0] * lam[:, 1]
    return phi, dlam.transpose(0, 2, 1) @ _DLAMBDA


class FESpace:
    """Continuous Lagrange space of degree 1, 2 or 3 on a triangle mesh."""

    def __init__(self, mesh: Mesh, degree: int):
        nodes = _local_nodes(degree)
        self.mesh = mesh
        self.degree = degree

        tris = mesh.triangles
        nv = mesh.n_vertices
        nt = mesh.n_triangles
        per_edge = degree - 1
        n_inner = len(nodes) - 3 - 3 * per_edge

        cell_dofs = np.empty((nt, len(nodes)), dtype=np.int64)
        cell_dofs[:, :3] = tris
        n_edge_dofs = 0
        # Dirichlet set: vertex dofs on the boundary plus edge dofs of
        # boundary edges (cell-interior dofs never touch the boundary).
        boundary_edge_dofs = np.empty(0, dtype=np.int64)
        if per_edge:
            pairs = tris[:, _LOCAL_EDGES]  # (nt, 3, 2)
            edges, edge_of, edge_counts = number_edges(pairs.reshape(-1, 2), nv)
            n_edge_dofs = per_edge * len(edges)
            # Local edge node j is the edge's global node j (counted from its
            # smaller vertex) when the local first vertex is the smaller one,
            # and node per_edge - 1 - j otherwise.
            j = np.arange(per_edge)
            node = np.where((pairs[..., 0] < pairs[..., 1])[..., None], j, per_edge - 1 - j)
            cell_dofs[:, 3 : 3 + 3 * per_edge] = (
                nv + per_edge * edge_of.reshape(nt, 3, 1) + node).reshape(nt, -1)
            be = np.flatnonzero(edge_counts == 1)
            boundary_edge_dofs = (nv + per_edge * be[:, None] + j).ravel()
        first_inner = nv + n_edge_dofs  # then n_inner dofs per cell, cell by cell
        self.n_dofs = first_inner + n_inner * nt
        cell_dofs[:, 3 + 3 * per_edge :] = np.arange(first_inner, self.n_dofs).reshape(nt, n_inner)
        self.cell_dofs = cell_dofs

        self.dof_coords = np.empty((self.n_dofs, 2))
        self.dof_coords[cell_dofs] = (nodes / degree) @ mesh.vertices[tris]

        # Both parts are sorted and the edge dofs follow the vertex dofs.
        self.boundary_dofs = np.concatenate([mesh.boundary_vertices, boundary_edge_dofs])
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
        """Tables on the rule of degree quad_degree (the assembly degree by
        default): the symmetric rule at the assembly degree where one is
        pinned, triangle_rule otherwise (see the module docstring)."""
        if quad_degree is None:
            quad_degree = self.assembly_degree
        elif not _is_int(quad_degree):  # True or 6.0 would share the table of 1 or 6
            raise ValueError(f"quadrature degree must be a nonnegative integer, "
                             f"got {quad_degree!r}")
        if quad_degree not in self._values_cache:
            symmetric = quad_degree == self.assembly_degree and quad_degree in _SYMMETRIC_ORBITS
            rule = _symmetric_rule(quad_degree) if symmetric else triangle_rule(quad_degree)
            self._values_cache[quad_degree] = FEValues(self, rule)
        return self._values_cache[quad_degree]

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
    """Tabulated basis data for one (space, quadrature rule) pair.

    Every element kernel is one GEMM of per-cell data against a reference
    table built here, once per pair, or elementwise arithmetic on
    (cells, points) tables.  The tables hold reference-cell data only;
    points and gradients are mapped between the reference cell and the
    cells by batched 2x2 products with the cells' Jacobians."""

    def __init__(self, space: FESpace, rule: QuadratureRule):
        self.space = space
        self.rule = rule
        self.phi, self._dphi_ref = lagrange_basis(space.degree, rule.points)  # reference tables
        # physical quadrature points v0 + J xi: (nt, nq, 2)
        self.points = rule.points[:, 1:] @ space._jac.transpose(0, 2, 1)
        self.points += space._v0[:, None, :]
        self.points.flags.writeable = False  # shared by every caller of the table
        self.weights = rule.weights
        self.areas = space.cell_areas

    @functools.cached_property
    def weighted_phi(self) -> np.ndarray:
        """w_q phi_a(x_q), shape (nq, n_loc): the load kernel's table."""
        return self.weights[:, None] * self.phi.T

    @functools.cached_property
    def weighted_dphi(self) -> np.ndarray:
        """w_q d phi_a / d xi_d (x_q), shape (2 nq, n_loc), rows (q, d): the
        gradient load kernel's table."""
        return (self.weights[:, None] * self._dphi_ref).reshape(len(self.phi), -1).T

    @functools.cached_property
    def mass_products(self) -> np.ndarray:
        """w_q phi_a(x_q) phi_b(x_q), shape (nq, n_loc**2): the mass kernel's table."""
        table = self.weighted_phi[:, :, None] * self.phi.T[:, None, :]
        return table.reshape(len(self.weights), -1)

    @functools.cached_property
    def reference_products(self) -> np.ndarray:
        """Quadrature-weighted products of reference basis data, shape
        (5 nq, n_loc**2): rows (j, q) hold, for the local pair (a, b) at point
        q, w_q times d0a d0b, d0a d1b + d1a d0b, d1a d1b, phi_a d0b and
        phi_a d1b, where dk is the derivative along reference axis k."""
        d0, d1 = self._dphi_ref[..., 0], self._dphi_ref[..., 1]  # (n_loc, nq)
        pairs = ((d0, d0), (d0, d1), (d1, d1), (self.phi, d0), (self.phi, d1))
        w = self.weights[:, None, None]
        table = np.stack([w * a.T[:, :, None] * b.T[:, None, :] for a, b in pairs])
        table[1] += table[1].transpose(0, 2, 1)
        return table.reshape(5 * len(self.weights), -1)

    def fe_values(self, coeffs: np.ndarray) -> np.ndarray:
        return coeffs[self.space.cell_dofs] @ self.phi

    def fe_gradients(self, coeffs: np.ndarray) -> np.ndarray:
        """Physical gradients (nt, nq, 2): the reference gradients, one GEMM
        against the (n_loc, nq * 2) table of d phi / d xi, times J^{-1}."""
        ref = coeffs[self.space.cell_dofs] @ self._dphi_ref.reshape(len(self.phi), -1)
        return np.matmul(ref.reshape(self.points.shape), self.space._inv_jac)

    def integrate(self, cell_values: np.ndarray) -> float:
        return float(self.areas @ (cell_values @ self.weights))


def _pointwise_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b at every point of two gradient tables, shapes (..., 2)."""
    out = a[..., 0] * b[..., 0]
    out += a[..., 1] * b[..., 1]
    return out


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
    local = w_vals @ fev.mass_products
    local *= fev.areas[:, None]
    return space.matrix_pattern().assemble(local)


def assemble_stiffness(space: FESpace) -> SparseMatrix:
    """Stiffness matrix K_ij = integral of grad phi_j . grad phi_i."""
    return assemble_weighted_stiffness(space, None)


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
    local = f_vals @ fev.weighted_phi
    local *= fev.areas[:, None]
    return np.bincount(space.cell_dofs.ravel(), weights=local.ravel(), minlength=space.n_dofs)


def source_loads(space: FESpace, evaluator) -> Callable:
    """The `sources` callable of run_simulation, t -> (wave load, heat load),
    from a point-table evaluator, tabulated once per cell block.

    At the first call (a run's first step, after its arguments are
    checked) evaluator(x) runs once per block of _CELL_BLOCK cells of the
    space's error-degree quadrature points, in cell order, with x of shape
    (n, 2): it tabulates what does not change in time and returns
    t -> (wave, heat) values at x, either None for no source.  Each call
    evaluates every block into one (cells, points) table per field, so
    the evaluator's temporaries stay cache-sized, and assembles that
    table.  A field must be None in every block or in none."""
    degree = space.error_degree

    @functools.cache
    def blocks():
        points = space.values(degree).points
        return [evaluator(points[start:start + _CELL_BLOCK].reshape(-1, 2))
                for start in range(0, len(points), _CELL_BLOCK)]

    def sources(t: float):
        shape = space.values(degree).points.shape[:2]
        tables = None
        for start, values in zip(range(0, shape[0], _CELL_BLOCK), blocks()):
            fields = values(t)
            if tables is None:
                tables = [None if v is None else np.empty(shape) for v in fields]
            for table, v in zip(tables, fields):
                if (table is None) != (v is None):
                    raise ValueError("a source field must be None in every cell block or in none")
                if table is not None:
                    rows = table[start:start + _CELL_BLOCK]
                    rows[...] = np.reshape(v, rows.shape)
        return tuple(None if table is None else assemble_load(space, table, quad_degree=degree)
                     for table in tables)

    return sources


def _gradient_load(space: FESpace, grad_table: np.ndarray) -> np.ndarray:
    """Load vector b_i = integral of g . grad phi_i for a table g of shape
    (nt, nq, 2) on the assembly quadrature: g times J^{-T}, then one GEMM
    against FEValues.weighted_dphi."""
    fev = space.values()
    ref = np.matmul(grad_table, space._inv_jac.transpose(0, 2, 1))
    local = ref.reshape(len(ref), -1) @ fev.weighted_dphi
    local *= fev.areas[:, None]
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


def error_norms(u: FEFunction, exact: ScalarField | None,
                t: float = 0.0) -> tuple[float, float]:
    """(L2, H1-seminorm) norms of u minus an exact field.

    Pass exact=None to take norms of u itself.  Uses the elevated error
    degree 2p + 4 so the measurement error stays below the discretization
    error being measured.
    """
    fev = u.space.values(u.space.error_degree)
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
        return l2, math.nan
    h1 = math.sqrt(max(fev.integrate(_pointwise_dot(grads, grads)), 0.0))
    return l2, h1
