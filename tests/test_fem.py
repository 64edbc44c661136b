import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermofem import coefficients, fem
from thermofem.coefficients import (KUZNETSOV, LINEAR_WAVE, LIVER_QUADRATIC, WESTERVELT,
                                    DegeneracyError, HeatParams, TissueModel)
from thermofem.fem import (FEFunction, ScalarField, assemble_load, assemble_mass,
                           assemble_stiffness, assemble_weighted_stiffness, build_space,
                           error_norms, nodal_interpolate, ritz_projection, triangle_rule)
from thermofem.mesh import Mesh, unit_square_mesh
from thermofem.mms import ManufacturedPair
from thermofem.scenarios import TRANSDUCER_RADIUS, example3_source

from conftest import constant_field


def reference_triangle():
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]))


def sine_field():
    def f(x, t=0.0):
        return np.sin(2 * np.pi * x[..., 0]) * np.sin(2 * np.pi * x[..., 1])

    def g(x, t=0.0):
        a = 2 * np.pi * np.cos(2 * np.pi * x[..., 0]) * np.sin(2 * np.pi * x[..., 1])
        b = 2 * np.pi * np.sin(2 * np.pi * x[..., 0]) * np.cos(2 * np.pi * x[..., 1])
        return np.stack([a, b], axis=-1)

    return ScalarField(f, g)


def tables(space, field, degree=None):
    """(values, gradients) of an analytic field on a quadrature table."""
    pts = space.values(degree).points
    return field.value(pts), field.gradient(pts)


X1_WEIGHT = ScalarField(
    lambda x, t=0.0: x[..., 0],
    lambda x, t=0.0: np.stack([np.ones_like(x[..., 0]), np.zeros_like(x[..., 0])], axis=-1))


# exact P1 matrices on the unit right triangle (hand-derived)
P1_MASS = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
P1_STIFFNESS = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
# A_ij = int x1 grad(phi_j).grad(phi_i) + int (grad(phi_j).e1) phi_i
P1_WEIGHTED = np.array([[1 / 6, 0.0, -1 / 6], [-1 / 3, 1 / 3, 0.0], [-1 / 3, 1 / 6, 1 / 6]])


class TestQuadrature:
    @pytest.mark.parametrize("degree", range(1, 11))
    def test_monomial_exactness(self, degree):
        rule = triangle_rule(degree)
        assert rule.weights.sum() == pytest.approx(1.0, rel=1e-14)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                xi, eta = rule.points[:, 1], rule.points[:, 2]
                got = 0.5 * np.sum(rule.weights * xi**a * eta**b)
                ref = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
                assert abs(got - ref) <= 1e-14

    def test_positive_weights(self):
        for degree in (1, 4, 8):
            assert (triangle_rule(degree).weights > 0).all()


class TestSymmetricRules:
    """The pinned symmetric rules (fem._SYMMETRIC_ORBITS) against their
    defining properties, which are the oracle for their constants, and
    the tables of a space that take them."""

    @pytest.mark.parametrize("degree, n_points", [(6, 12), (8, 16)])
    def test_rule_is_exact_positive_interior_and_read_only(self, degree, n_points):
        rule = fem._symmetric_rule(degree)
        assert rule.degree == degree
        assert rule.points.shape == (n_points, 3) and rule.weights.shape == (n_points,)
        x, y = rule.points[:, 1], rule.points[:, 2]
        for i in range(degree + 1):
            for j in range(degree + 1 - i):
                want = 2 * math.factorial(i) * math.factorial(j) / math.factorial(i + j + 2)
                assert abs(rule.weights @ (x**i * y**j) - want) <= 1e-15
        assert (rule.weights > 0).all()
        assert abs(rule.weights.sum() - 1.0) <= 1e-15
        assert (rule.points > 0).all()
        assert np.abs(rule.points.sum(axis=1) - 1.0).max() <= 1e-15
        with pytest.raises(ValueError):
            rule.points[0, 0] = 0.5
        with pytest.raises(ValueError):
            rule.weights[0] = 0.5
        assert fem._symmetric_rule(degree) is rule

    @pytest.mark.parametrize("degree", [6, 8])
    def test_rule_is_invariant_under_vertex_permutations(self, degree):
        rule = fem._symmetric_rule(degree)
        for perm in itertools.permutations(range(3)):
            dist = np.abs(rule.points[:, None, list(perm)] - rule.points[None]).max(axis=2)
            match = dist.argmin(axis=1)
            assert dist.min(axis=1).max() <= 1e-15
            assert sorted(match) == list(range(len(match)))
            np.testing.assert_array_equal(rule.weights[match], rule.weights)

    @pytest.mark.parametrize("degree, n_points", [(1, 9), (2, 12), (3, 16)])
    def test_only_p2_p3_assembly_tables_take_the_symmetric_rule(self, degree, n_points):
        sp = build_space(unit_square_mesh(2), degree)
        assert sp.values() is sp.values(sp.assembly_degree)
        assert sp.values().points.shape[1] == len(sp.values().weights) == n_points
        rule = fem._symmetric_rule if degree > 1 else triangle_rule
        assert sp.values().rule is rule(sp.assembly_degree)
        # Every other degree, the error degree among them, is conical.
        for d in (4, 6, 8, sp.error_degree):
            if d != sp.assembly_degree:
                assert sp.values(d).rule.points is triangle_rule(d).points
                assert sp.values(d).weights is triangle_rule(d).weights


class TestBuildSpace:
    def test_p2_single_triangle(self):
        sp = build_space(reference_triangle(), 2)
        assert sp.n_dofs == 6

    def test_p3_single_triangle(self):
        sp = build_space(reference_triangle(), 3)
        assert sp.n_dofs == 10

    def test_unit_square_p1_interior(self):
        sp = build_space(unit_square_mesh(2), 1)
        assert sp.n_dofs == 9
        assert len(sp.interior_dofs) == 1

    @pytest.mark.parametrize("degree", (1, 2, 3))
    def test_dofs_per_cell(self, degree):
        sp = build_space(unit_square_mesh(3), degree)
        assert sp.cell_dofs.shape[1] == (degree + 1) * (degree + 2) // 2

    @pytest.mark.parametrize("degree", (1, 2, 3))
    def test_boundary_interior_partition(self, degree):
        sp = build_space(unit_square_mesh(3), degree)
        union = np.concatenate([sp.boundary_dofs, sp.interior_dofs])
        assert np.array_equal(np.sort(union), np.arange(sp.n_dofs))

    @pytest.mark.parametrize("degree", (2, 3))
    def test_shared_edge_dofs_consistent(self, degree):
        # dofs on a shared edge must carry the same coordinates from both cells
        sp = build_space(unit_square_mesh(2), degree)
        coords = sp.dof_coords
        for c in range(sp.mesh.n_triangles):
            for local, d in enumerate(sp.cell_dofs[c]):
                assert np.isfinite(coords[d]).all()
        # interpolate a smooth function and check continuity at shared dofs:
        # nodal interpolation is well-defined only if shared dofs agree
        f = nodal_interpolate(sp, sine_field())
        probe = ScalarField(lambda x, t=0.0: x[..., 0] ** degree)
        g = nodal_interpolate(sp, probe)
        l2, _ = error_norms(g, probe)
        assert l2 <= 1e-12  # P_eta reproduces x1^eta only with consistent dofs

    def test_rejects_degree_4(self):
        with pytest.raises(ValueError):
            build_space(unit_square_mesh(2), 4)


def hand_tables(degree, bary):
    """The P1-P3 shape functions and their lambda-derivatives written out
    per degree, in the local order vertices, edge nodes of (0,1), (0,2),
    (1,2) from the edge's first vertex, interior: (phi, dphi), shapes
    (n_loc, nq) and (n_loc, nq, 2)."""
    l0, l1, l2 = bary.T
    zero, one = np.zeros_like(l0), np.ones_like(l0)
    if degree == 1:
        phi = [l0, l1, l2]
        dlam = [(one, zero, zero), (zero, one, zero), (zero, zero, one)]
    elif degree == 2:
        phi = [l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
               4 * l0 * l1, 4 * l0 * l2, 4 * l1 * l2]
        dlam = [(4 * l0 - 1, zero, zero), (zero, 4 * l1 - 1, zero), (zero, zero, 4 * l2 - 1),
                (4 * l1, 4 * l0, zero), (4 * l2, zero, 4 * l0), (zero, 4 * l2, 4 * l1)]
    else:
        def vert(lam):
            return 0.5 * lam * (3 * lam - 1) * (3 * lam - 2), 0.5 * (27 * lam * lam - 18 * lam + 2)

        def edge(la, lb):  # value, d/dla, d/dlb of the node near la on edge (la, lb)
            return 4.5 * la * lb * (3 * la - 1), 4.5 * lb * (6 * la - 1), 4.5 * la * (3 * la - 1)

        lam = (l0, l1, l2)
        phi, dlam = [], []
        for m in range(3):
            v, dv = vert(lam[m])
            phi.append(v)
            dlam.append(tuple(dv if k == m else zero for k in range(3)))
        for a, b in ((0, 1), (0, 2), (1, 2)):
            for near, far in ((a, b), (b, a)):
                v, dn, df = edge(lam[near], lam[far])
                phi.append(v)
                dlam.append(tuple(dn if k == near else df if k == far else zero
                                  for k in range(3)))
        phi.append(27 * l0 * l1 * l2)
        dlam.append((27 * l1 * l2, 27 * l0 * l2, 27 * l0 * l1))
    dphi = np.zeros((len(phi), len(l0), 2))
    for b, parts in enumerate(dlam):
        for j in range(3):
            dphi[b] += np.multiply.outer(parts[j], fem._DLAMBDA[j])
    return np.stack(phi), dphi


def hand_numbering(mesh, degree):
    """(cell_dofs, boundary_dofs, dof_coords) built per degree: vertices,
    then the degree - 1 nodes of each edge (edges in lexicographic order,
    nodes from the smaller vertex), then one interior node per cell for
    cubics."""
    tris, nv, nt = mesh.triangles, mesh.n_vertices, mesh.n_triangles
    pairs = np.sort(np.stack([tris[:, [0, 1]], tris[:, [0, 2]], tris[:, [1, 2]]], axis=1),
                    axis=2)
    edges, edge_of, counts = np.unique(pairs.reshape(-1, 2), axis=0, return_inverse=True,
                                       return_counts=True)
    edge_of = edge_of.reshape(nt, 3)
    ne = len(edges)
    va, vb = mesh.vertices[edges[:, 0]], mesh.vertices[edges[:, 1]]
    boundary = [mesh.boundary_vertices]
    be = np.flatnonzero(counts == 1)
    if degree == 1:
        cell_dofs, coords = tris.copy(), mesh.vertices.copy()
    elif degree == 2:
        cell_dofs = np.column_stack([tris, nv + edge_of])
        coords = np.vstack([mesh.vertices, 0.5 * (va + vb)])
        boundary.append(nv + be)
    else:
        cols = [tris]
        for k, (a, b) in enumerate(((0, 1), (0, 2), (1, 2))):
            asc = tris[:, a] < tris[:, b]
            base = nv + 2 * edge_of[:, k]
            cols += [np.where(asc, base, base + 1)[:, None], np.where(asc, base + 1, base)[:, None]]
        cols.append(nv + 2 * ne + np.arange(nt)[:, None])
        cell_dofs = np.hstack(cols)
        edge_nodes = np.stack([va + (vb - va) / 3.0, va + 2.0 * (vb - va) / 3.0], axis=1)
        coords = np.vstack([mesh.vertices, edge_nodes.reshape(-1, 2),
                            mesh.vertices[tris].mean(axis=1)])
        boundary += [nv + 2 * be, nv + 2 * be + 1]
    return cell_dofs, np.unique(np.concatenate(boundary)), coords


def rotated_mesh(seed=5):
    """A distorted square whose triangles start at a random vertex each, so
    local and global edge orientations mix."""
    mesh = distorted_square()
    shift = np.random.default_rng(seed).integers(0, 3, mesh.n_triangles)
    rows = np.arange(mesh.n_triangles)[:, None]
    return Mesh(mesh.vertices, mesh.triangles[rows, (np.arange(3) + shift[:, None]) % 3])


class TestLagrangeElement:
    """The element derived from its lattice nodes (fem._local_nodes) against
    the per-degree tables and numbering it replaces, and against its
    defining properties."""

    @pytest.mark.parametrize("degree", (1, 2, 3))
    @pytest.mark.parametrize("rule", ("assembly", "error"))
    def test_basis_matches_hand_tables(self, degree, rule):
        points = triangle_rule(2 * degree + (2 if rule == "assembly" else 4)).points
        phi, dphi = fem.lagrange_basis(degree, points)
        want_phi, want_dphi = hand_tables(degree, points)
        assert phi.shape == want_phi.shape and dphi.shape == want_dphi.shape
        if degree == 1:
            np.testing.assert_array_equal(dphi, want_dphi)
        if degree <= 2:
            np.testing.assert_array_equal(phi, want_phi)
        assert np.abs(phi - want_phi).max() <= 4e-15
        assert np.abs(dphi - want_dphi).max() <= 4e-15

    @pytest.mark.parametrize("degree", (1, 2, 3))
    def test_nodal_property_and_partition_of_unity(self, degree, rng):
        nodes = fem._local_nodes(degree)
        assert (nodes.sum(axis=1) == degree).all()
        assert len(np.unique(nodes, axis=0)) == len(nodes) == (degree + 1) * (degree + 2) // 2
        phi, _ = fem.lagrange_basis(degree, nodes / degree)
        assert np.abs(phi - np.eye(len(nodes))).max() <= 1e-14
        bary = rng.dirichlet(np.ones(3), size=50)
        phi, dphi = fem.lagrange_basis(degree, bary)
        assert np.abs(phi.sum(axis=0) - 1.0).max() <= 1e-14
        assert np.abs(dphi.sum(axis=0)).max() <= 1e-13

    @pytest.mark.parametrize("degree", (1, 2, 3))
    def test_gradients_match_central_differences(self, degree, rng):
        xi = rng.dirichlet(np.ones(3), size=20)[:, 1:]
        h = 1e-6

        def phi(ref):
            return fem.lagrange_basis(degree, np.column_stack([1.0 - ref.sum(axis=1), ref]))[0]

        _, dphi = fem.lagrange_basis(degree, np.column_stack([1.0 - xi.sum(axis=1), xi]))
        for d, step in enumerate(np.eye(2) * h):
            fd = (phi(xi + step) - phi(xi - step)) / (2 * h)
            assert np.abs(dphi[..., d] - fd).max() <= 1e-7

    @pytest.mark.parametrize("degree", (1, 2, 3))
    def test_numbering_matches_per_degree_construction(self, degree):
        mesh = rotated_mesh()
        sp = build_space(mesh, degree)
        cell_dofs, boundary, coords = hand_numbering(mesh, degree)
        np.testing.assert_array_equal(sp.cell_dofs, cell_dofs)
        np.testing.assert_array_equal(sp.boundary_dofs, boundary)
        assert sp.n_dofs == len(coords)
        assert np.abs(sp.dof_coords - coords).max() <= 4e-15

    def test_p1_space_numbers_no_edges(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a P1 space numbered the mesh edges")

        monkeypatch.setattr(fem, "number_edges", refuse)
        sp = build_space(rotated_mesh(), 1)
        np.testing.assert_array_equal(sp.cell_dofs, sp.mesh.triangles)


class TestMass:
    def test_p1_exact_oracle(self):
        sp = build_space(reference_triangle(), 1)
        m = assemble_mass(sp).to_dense()
        assert np.abs(m - P1_MASS).max() <= 1e-12

    def test_constant_weight_linearity(self):
        sp = build_space(unit_square_mesh(3), 2)
        m1 = assemble_mass(sp).to_dense()
        mc = assemble_mass(sp, tables(sp, constant_field(2.5))[0]).to_dense()
        assert np.abs(mc - 2.5 * m1).max() <= 1e-13

    def test_total_mass_is_area(self):
        for degree in (1, 2, 3):
            sp = build_space(unit_square_mesh(3), degree)
            assert assemble_mass(sp).to_dense().sum() == pytest.approx(1.0, rel=1e-12)

    def test_spd(self):
        sp = build_space(unit_square_mesh(3), 2)
        m = assemble_mass(sp).to_dense()
        assert np.abs(m - m.T).max() <= 1e-15
        assert np.linalg.eigvalsh(m).min() > 0.0


class TestStiffness:
    def test_p1_exact_oracle(self):
        sp = build_space(reference_triangle(), 1)
        k = assemble_stiffness(sp).to_dense()
        assert np.abs(k - P1_STIFFNESS).max() <= 1e-12

    def test_constants_in_kernel(self):
        sp = build_space(unit_square_mesh(4), 3)
        k = assemble_stiffness(sp)
        assert np.abs(k @ np.ones(sp.n_dofs)).max() <= 1e-12

    def test_psd(self, rng):
        sp = build_space(unit_square_mesh(3), 2)
        k = assemble_stiffness(sp)
        for _ in range(10):
            x = rng.standard_normal(sp.n_dofs)
            assert x @ (k @ x) >= -1e-12


class TestInteriorMatrix:
    @pytest.mark.parametrize("degree", (1, 2, 3))
    def test_equals_dense_interior_block(self, degree, rng):
        sp = build_space(unit_square_mesh(4), degree)
        idx = sp.interior_dofs
        pattern = sp.matrix_pattern()
        combined = 2.0 * sp.mass_matrix().data + sp.stiffness_matrix().data
        for data in (combined, rng.standard_normal(pattern.indices.size)):
            expected = pattern.matrix(data).to_dense()[np.ix_(idx, idx)]
            assert sp.interior_matrix(data).to_dense().tobytes() == expected.tobytes()


class TestWeightedStiffness:
    def test_weight_one_equals_stiffness(self):
        for degree in (1, 2, 3):
            sp = build_space(unit_square_mesh(3), degree)
            k = assemble_stiffness(sp).to_dense()
            kw = assemble_weighted_stiffness(sp, tables(sp, constant_field(1.0))).to_dense()
            assert np.abs(kw - k).max() <= 1e-13

    def test_constant_weight_linearity(self):
        sp = build_space(unit_square_mesh(3), 1)
        k = assemble_stiffness(sp).to_dense()
        kw = assemble_weighted_stiffness(sp, tables(sp, constant_field(3.0))).to_dense()
        assert np.abs(kw - 3.0 * k).max() <= 1e-12

    def test_x1_weight_exact_oracle(self):
        sp = build_space(reference_triangle(), 1)
        a = assemble_weighted_stiffness(sp, tables(sp, X1_WEIGHT)).to_dense()
        assert np.abs(a - P1_WEIGHTED).max() <= 1e-12
        assert np.abs(a.sum(axis=1)).max() <= 1e-14  # constants still in kernel

    def test_refined_quadrature_oracle(self):
        # default assembly degree vs an elevated degree-10 rule
        sp = build_space(reference_triangle(), 1)
        a = assemble_weighted_stiffness(sp, tables(sp, X1_WEIGHT)).to_dense()
        a10 = assemble_weighted_stiffness(sp, tables(sp, X1_WEIGHT, 10), quad_degree=10).to_dense()
        assert np.abs(a - a10).max() <= 1e-12

    def test_generally_nonsymmetric(self):
        sp = build_space(unit_square_mesh(3), 1)
        w = ScalarField(
            lambda x, t=0.0: 1.0 + x[..., 0],
            lambda x, t=0.0: np.stack(
                [np.ones_like(x[..., 0]), np.zeros_like(x[..., 0])], axis=-1),
        )
        a = assemble_weighted_stiffness(sp, tables(sp, w)).to_dense()
        assert np.abs(a - a.T).max() > 1e-10

    # unit_square_mesh(4) has 32 cells: one block, or blocks of 7 with a
    # shorter last one
    @pytest.mark.parametrize("block", [fem._CELL_BLOCK, 7])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_matches_einsum_reference(self, degree, block, rng, monkeypatch):
        monkeypatch.setattr(fem, "_CELL_BLOCK", block)
        sp = build_space(unit_square_mesh(4), degree)
        fev = sp.values()
        nt, nq = fev.points.shape[:2]
        w_vals = rng.standard_normal((nt, nq))
        w_grads = rng.standard_normal((nt, nq, 2))
        a = assemble_weighted_stiffness(sp, (w_vals, w_grads)).to_dense()
        _, dphi_ref = fem.lagrange_basis(degree, fev.rule.points)
        dphi = np.einsum("cde,bqd->cbqe", sp._inv_jac, dphi_ref)
        local = np.einsum("q,cq,cbqe,caqe->cab", fev.weights, w_vals, dphi, dphi)
        local += np.einsum("q,cbqe,cqe,aq->cab", fev.weights, dphi, w_grads, fev.phi)
        local *= fev.areas[:, None, None]
        ref = np.zeros((sp.n_dofs, sp.n_dofs))
        cd = sp.cell_dofs
        np.add.at(ref, (cd[:, :, None], cd[:, None, :]), local)
        assert np.abs(a - ref).max() <= 1e-13 * np.abs(ref).max()


# A P2 space on 8 cells, and the shape of its assembly quadrature table.
BOUNDARY_SPACE = build_space(unit_square_mesh(2), 2)
NT, NQ = BOUNDARY_SPACE.values().points.shape[:2]


@pytest.mark.parametrize("assemble,given,expected", [
    pytest.param(assemble_weighted_stiffness, (np.ones((NT, 1)), np.zeros((NT, NQ, 2))),
                 (NT, NQ), id="stiffness-values"),
    pytest.param(assemble_weighted_stiffness, (np.ones((NT, NQ)), np.zeros((NT, 1, 2))),
                 (NT, NQ, 2), id="stiffness-gradients"),
    pytest.param(assemble_weighted_stiffness, np.ones((NT, NQ)), (NT, NQ, 2),
                 id="stiffness-bare-array"),
    pytest.param(assemble_weighted_stiffness, constant_field(1.0), (NT, NQ, 2),
                 id="stiffness-field"),
    pytest.param(assemble_mass, constant_field(1.0), (NT, NQ), id="mass-field"),
    pytest.param(assemble_mass, np.ones((NT, 1)), (NT, NQ), id="mass-table"),
    pytest.param(assemble_load, constant_field(1.0), (NT, NQ), id="load-field"),
    pytest.param(assemble_load, np.ones(NT * NQ), (NT, NQ), id="load-flat"),
])
def test_assemblers_take_only_quadrature_tables(assemble, given, expected):
    # Any other form fails at the boundary, naming the shape it expects.
    with pytest.raises(ValueError, match=re.escape(str(expected))):
        assemble(BOUNDARY_SPACE, given)


class TestLoad:
    def test_zero_source(self):
        sp = build_space(unit_square_mesh(3), 2)
        b = assemble_load(sp, tables(sp, constant_field(0.0))[0])
        assert np.array_equal(b, np.zeros(sp.n_dofs))

    def test_unit_source_is_mass_row_sums(self):
        sp = build_space(unit_square_mesh(3), 2)
        b = assemble_load(sp, tables(sp, constant_field(1.0))[0])
        rows = np.asarray(assemble_mass(sp).to_dense().sum(axis=1)).ravel()
        assert b == pytest.approx(rows, abs=1e-14)

    def test_against_refined_quadrature(self):
        sp = build_space(unit_square_mesh(16), 1)
        f = sine_field()
        degree = sp.error_degree
        b = assemble_load(sp, tables(sp, f, degree)[0], quad_degree=degree)
        b12 = assemble_load(sp, tables(sp, f, 12)[0], quad_degree=12)
        denom = np.linalg.norm(b12)
        assert np.linalg.norm(b - b12) / denom <= 1e-10

    def test_source_loads_tabulate_once_and_match_fields(self):
        # The evaluator runs once, at the first call, on the error-degree
        # points; each time only rescales its table, and the loads equal
        # those of the same source tabulated afresh on those points.
        sp = build_space(unit_square_mesh(3), 2)
        f = sine_field()
        tabulated = []

        def evaluator(x):
            tabulated.append(x.shape)
            profile = f.value(x)
            return lambda t: (None, profile * (1.0 + t))

        loads = fem.source_loads(sp, evaluator)
        assert tabulated == []  # not before the run's first step
        degree = sp.error_degree
        for t in (0.0, 0.5, 0.25):
            wave, heat = loads(t)
            assert wave is None
            table = f.value(sp.values(degree).points) * (1.0 + t)
            assert np.array_equal(heat, assemble_load(sp, table, quad_degree=degree))
        assert tabulated == [(sp.values(sp.error_degree).points[..., 0].size, 2)]


def aperture_square():
    """unit_square_mesh(4) moved over the driven source's aperture, so that
    most cells see a nonzero example-3 profile."""
    mesh = unit_square_mesh(4)
    scale = 1.2 * TRANSDUCER_RADIUS
    return Mesh(mesh.vertices * scale - [0.2 * scale, 0.5 * scale], mesh.triangles)


class TestSourceCellBlocks:
    """source_loads evaluates a run's sources block by block; with
    _CELL_BLOCK = 5 on 32 cells the last of the 7 blocks holds 2 cells."""

    BLOCK = 5

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(fem, "_CELL_BLOCK", self.BLOCK)

    def test_each_block_tabulated_once_in_order_at_first_call(self):
        space = build_space(unit_square_mesh(4), 2)
        seen = []

        def evaluator(x):
            seen.append(x.copy())
            profile = sine_field().value(x)
            return lambda t: (profile * t, None)

        loads = fem.source_loads(space, evaluator)
        assert seen == []  # not before the run's first step
        for t in (0.0, 0.5, 0.25):
            loads(t)
        points = space.values(space.error_degree).points
        want = [points[start:start + self.BLOCK].reshape(-1, 2)
                for start in range(0, len(points), self.BLOCK)]
        assert len(want) == 7 and len(want[-1]) == 2 * points.shape[1]
        assert len(seen) == len(want)
        for got, expected in zip(seen, want):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("variant", [WESTERVELT, KUZNETSOV, LINEAR_WAVE, None],
                             ids=["westervelt", "kuznetsov", "linear", "example3"])
    def test_loads_equal_whole_table_loads(self, variant):
        if variant is None:
            mesh, make = aperture_square(), example3_source
        else:
            pair = ManufacturedPair(a1=0.8, a2=2e-4, rate1=1.3, rate2=0.4)
            heat = HeatParams(kappa=1.0, nu=1e-5)
            mesh, make = unit_square_mesh(4), lambda: pair.sources(variant, LIVER_QUADRATIC, heat)
        space = build_space(mesh, 1)
        degree = space.error_degree
        points = space.values(degree).points
        whole = make()(points.reshape(-1, 2))
        loads = fem.source_loads(space, make())
        for t in (0.0, 0.3, 0.7):
            for got, table in zip(loads(t), whole(t)):
                if table is None:
                    assert got is None
                    continue
                assert np.abs(table).max() > 0.0
                want = assemble_load(space, table.reshape(points.shape[:2]), quad_degree=degree)
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("none_first", [True, False])
    def test_none_in_some_blocks_only_is_rejected(self, none_first):
        space = build_space(unit_square_mesh(4), 1)
        blocks = []

        def evaluator(x):
            blocks.append(x)
            missing = (len(blocks) == 1) == none_first
            return lambda t: (np.ones(len(x)), None if missing else np.ones(len(x)))

        with pytest.raises(ValueError, match="None in every cell block or in none"):
            fem.source_loads(space, evaluator)(0.0)

    def test_nonpositive_speed_in_last_block_raises(self):
        # c = 1 + theta; theta = -2 only inside the last cell, the upper
        # triangle of the top-right grid square, so only the last block
        # meets a nonpositive speed.
        model = TissueModel(speed_coeffs=(1.0, 1.0), ambient=0.0)
        space = build_space(unit_square_mesh(4), 1)

        def evaluator(x):
            theta = np.where((x[:, 0] > 0.75) & (x[:, 1] > x[:, 0]), -2.0, 0.0)

            def values(t):
                c = coefficients.speed_of_sound(model, theta)
                return c, None

            return values

        points = space.values(space.error_degree).points
        last = points[-1]
        assert np.all((last[:, 0] > 0.75) & (last[:, 1] > last[:, 0]))
        others = points[:-1].reshape(-1, 2)
        assert not np.any((others[:, 0] > 0.75) & (others[:, 1] > others[:, 0]))
        with pytest.raises(DegeneracyError, match="nonpositive"):
            fem.source_loads(space, evaluator)(0.0)


class TestRitz:
    def test_zero_field(self):
        sp = build_space(unit_square_mesh(4), 2)
        r = ritz_projection(sp, constant_field(0.0))
        assert np.abs(r.values).max() == 0.0

    def test_idempotent_on_fe_functions(self, rng):
        sp = build_space(unit_square_mesh(4), 2)
        vals = rng.standard_normal(sp.n_dofs)
        vals[sp.boundary_dofs] = 0.0
        v = FEFunction(sp, vals)

        # evaluate v as a black-box field with its gradient
        fev_cache = {}

        def value(x, t=0.0):
            return _eval_fe(sp, vals, x)

        def grad(x, t=0.0):
            return _eval_fe_grad(sp, vals, x)

        r = ritz_projection(sp, ScalarField(value, grad))
        assert np.abs(r.values - vals).max() <= 1e-10

    def test_h1_rate(self):
        f = sine_field()
        errs = []
        for n in (8, 16, 32):
            sp = build_space(unit_square_mesh(n), 1)
            r = ritz_projection(sp, f)
            _, h1 = error_norms(r, f)
            errs.append(h1)
        for i in range(len(errs) - 1):
            rate = math.log2(errs[i] / errs[i + 1])
            assert rate == pytest.approx(1.0, abs=0.15)

    def test_galerkin_orthogonality(self, rng):
        sp = build_space(unit_square_mesh(6), 2)
        f = sine_field()
        r = ritz_projection(sp, f)
        k = sp.stiffness_matrix()
        rhs = fem._gradient_load(sp, f.gradient(sp.values().points))
        residual = rhs - k @ r.values
        scale = max(np.abs(rhs).max(), 1.0)
        probes = rng.choice(sp.interior_dofs, size=20, replace=False)
        assert np.abs(residual[probes]).max() <= 1e-10 * scale


def _eval_fe(space, vals, x, want_grad=False):
    """Point evaluation of a FE coefficient vector (test helper, slow)."""
    x = np.atleast_2d(x)
    mesh = space.mesh
    out = np.zeros(len(x))
    grad = np.zeros((len(x), 2))
    v0 = mesh.vertices[mesh.triangles[:, 0]]
    v1 = mesh.vertices[mesh.triangles[:, 1]]
    v2 = mesh.vertices[mesh.triangles[:, 2]]
    e1 = v1 - v0
    e2 = v2 - v0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    for i, p in enumerate(x):
        d = p - v0
        lam1 = (d[:, 0] * e2[:, 1] - d[:, 1] * e2[:, 0]) / det
        lam2 = (e1[:, 0] * d[:, 1] - e1[:, 1] * d[:, 0]) / det
        inside = (lam1 >= -1e-12) & (lam2 >= -1e-12) & (lam1 + lam2 <= 1 + 1e-12)
        c = int(np.flatnonzero(inside)[0])
        bary = np.array([[1 - lam1[c] - lam2[c], lam1[c], lam2[c]]])
        phi, dref = fem.lagrange_basis(space.degree, bary)
        coeffs = vals[space.cell_dofs[c]]
        out[i] = coeffs @ phi[:, 0]
        if want_grad:
            jac = np.array([[e1[c, 0], e2[c, 0]], [e1[c, 1], e2[c, 1]]])
            inv = np.linalg.inv(jac)
            dphys = dref[:, 0, :] @ inv  # (n_loc, 2): rows are basis gradients
            grad[i] = coeffs @ dphys
    return (out, grad) if want_grad else out


def _eval_fe_grad(space, vals, x):
    _, g = _eval_fe(space, vals, x, want_grad=True)
    return g


class TestNodalInterpolation:
    def test_constant(self):
        sp = build_space(unit_square_mesh(3), 2)
        f = nodal_interpolate(sp, constant_field(1.0))
        assert np.array_equal(f.values, np.ones(sp.n_dofs))

    def test_p2_reproduces_quadratic(self):
        sp = build_space(unit_square_mesh(3), 2)
        probe = ScalarField(lambda x, t=0.0: x[..., 0] * x[..., 1])
        f = nodal_interpolate(sp, probe)
        l2, _ = error_norms(f, probe)
        assert l2 <= 1e-13

    def test_time_passed_through(self):
        sp = build_space(unit_square_mesh(2), 1)
        probe = ScalarField(lambda x, t: np.full(x.shape[:-1], t))
        f = nodal_interpolate(sp, probe, t=2.5)
        assert np.allclose(f.values, 2.5)


class TestErrorNorms:
    def test_reproduced_polynomial(self):
        sp = build_space(unit_square_mesh(3), 2)
        probe = ScalarField(
            lambda x, t=0.0: x[..., 0] * x[..., 1],
            lambda x, t=0.0: np.stack([x[..., 1], x[..., 0]], axis=-1),
        )
        f = nodal_interpolate(sp, probe)
        l2, h1 = error_norms(f, probe)
        assert l2 <= 1e-12 and h1 <= 1e-12

    def test_none_gives_own_norms(self):
        sp = build_space(unit_square_mesh(2), 1)
        u = FEFunction(sp, np.ones(sp.n_dofs))
        l2, h1 = error_norms(u, None)
        assert l2 == pytest.approx(1.0, rel=1e-12)
        assert h1 <= 1e-12

    def test_single_dof_perturbation(self, rng):
        sp = build_space(unit_square_mesh(4), 2)
        vals = rng.standard_normal(sp.n_dofs)
        u = FEFunction(sp, vals)
        eps = 1e-3
        j = int(rng.integers(0, sp.n_dofs))
        pert = vals.copy()
        pert[j] += eps
        m = assemble_mass(sp)
        phi_norm = math.sqrt(m.to_dense()[j, j])
        diff = FEFunction(sp, pert - vals)
        l2, _ = error_norms(diff, None)
        assert 0.0 < l2 <= eps * phi_norm * (1 + 1e-12)


class TestQuadraturePoints:
    def test_cached_rule_arrays_are_read_only(self):
        # Every space on a rule shares its arrays: a write through one
        # space must fail rather than change the next one.
        with pytest.raises(ValueError):
            build_space(unit_square_mesh(2), 1).values().weights[0] += 1.0
        rule = triangle_rule(build_space(unit_square_mesh(2), 1).assembly_degree)
        with pytest.raises(ValueError):
            rule.points[0, 0] = 0.5
        assert build_space(unit_square_mesh(3), 1).values().weights.sum() == pytest.approx(1.0)

    def test_quadrature_points_are_read_only(self):
        fev = build_space(unit_square_mesh(2), 1).values()
        with pytest.raises(ValueError):
            fev.points[0, 0, 0] = 0.5
        with pytest.raises(ValueError):
            fev.points.reshape(-1, 2)[0] = 0.5


def distorted_square(n=4, seed=3):
    """unit_square_mesh(n) with its interior vertices moved at random, so
    every cell has its own Jacobian."""
    mesh = unit_square_mesh(n)
    v = mesh.vertices.copy()
    inner = np.setdiff1d(np.arange(len(v)), mesh.boundary_vertices)
    v[inner] += np.random.default_rng(seed).uniform(-0.2, 0.2, (inner.size, 2)) / n
    return Mesh(v, mesh.triangles)


class TestKernelOracles:
    """Each GEMM kernel of FEValues and the assemblers against its einsum
    definition, on the assembly and on the error-degree rule."""

    @staticmethod
    def make_case(degree, rule, rng):
        """(space, FEValues, physical gradient table (nt, n_loc, nq, 2), rng)."""
        sp = build_space(distorted_square(), degree)
        fev = sp.values(sp.assembly_degree if rule == "assembly" else sp.error_degree)
        verts = sp.mesh.vertices[sp.mesh.triangles]  # (nt, 3, 2)
        jac = np.stack([verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]], axis=2)
        _, dphi_ref = fem.lagrange_basis(degree, fev.rule.points)
        dphi = np.einsum("cde,bqd->cbqe", np.linalg.inv(jac), dphi_ref)
        return sp, fev, dphi, rng

    @pytest.fixture(params=[(p, rule) for p in (1, 2, 3) for rule in ("assembly", "error")],
                    ids=lambda c: f"p{c[0]}-{c[1]}")
    def case(self, request, rng):
        return self.make_case(*request.param, rng)

    @staticmethod
    def close(got, want):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @staticmethod
    def scatter(sp, local):
        out = np.zeros((sp.n_dofs,) * (local.ndim - 1))
        cd = sp.cell_dofs
        np.add.at(out, (cd,) if local.ndim == 2 else (cd[:, :, None], cd[:, None, :]), local)
        return out

    def test_points(self, case):
        sp, fev, _, _ = case
        verts = sp.mesh.vertices[sp.mesh.triangles]
        self.close(fev.points, np.einsum("qk,ckd->cqd", fev.rule.points, verts))

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_gradient_load(self, degree, rng):
        # assembled on the assembly rule only
        sp, fev, dphi, rng = self.make_case(degree, "assembly", rng)
        g = rng.standard_normal(fev.points.shape)
        local = np.einsum("c,q,cqe,cbqe->cb", fev.areas, fev.weights, g, dphi)
        self.close(fem._gradient_load(sp, g), self.scatter(sp, local))

    def test_fe_values(self, case):
        sp, fev, _, rng = case
        c = rng.standard_normal(sp.n_dofs)
        self.close(fev.fe_values(c), np.einsum("cb,bq->cq", c[sp.cell_dofs], fev.phi))

    def test_fe_gradients(self, case):
        sp, fev, dphi, rng = case
        c = rng.standard_normal(sp.n_dofs)
        self.close(fev.fe_gradients(c), np.einsum("cb,cbqe->cqe", c[sp.cell_dofs], dphi))

    def test_assemble_load(self, case):
        sp, fev, _, rng = case
        f = rng.standard_normal(fev.points.shape[:2])
        local = np.einsum("c,q,cq,aq->ca", fev.areas, fev.weights, f, fev.phi)
        self.close(assemble_load(sp, f, quad_degree=fev.rule.degree), self.scatter(sp, local))

    def test_assemble_mass(self, case):
        sp, fev, _, rng = case
        w = rng.standard_normal(fev.points.shape[:2])
        local = np.einsum("c,q,cq,aq,bq->cab", fev.areas, fev.weights, w, fev.phi, fev.phi)
        got = assemble_mass(sp, w, quad_degree=fev.rule.degree).to_dense()
        self.close(got, self.scatter(sp, local))

    def test_integrate(self, case):
        _, fev, _, rng = case
        v = rng.standard_normal(fev.points.shape[:2])
        self.close(np.array(fev.integrate(v)), np.einsum("c,q,cq->", fev.areas, fev.weights, v))

    def test_pointwise_dot(self, case):
        _, fev, _, rng = case
        a, b = rng.standard_normal((2,) + fev.points.shape)
        self.close(fem._pointwise_dot(a, b), np.einsum("cqe,cqe->cq", a, b))


class TestFEFunction:
    def test_length_check(self):
        sp = build_space(unit_square_mesh(2), 1)
        with pytest.raises(ValueError):
            FEFunction(sp, np.zeros(3))


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=4))
@settings(max_examples=12)
def test_mass_total_is_area_property(degree, n):
    sp = build_space(unit_square_mesh(n), degree)
    total = assemble_mass(sp).to_dense().sum()
    assert total == pytest.approx(1.0, rel=1e-12)
