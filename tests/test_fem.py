import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermofem import fem
from thermofem.fem import (FEFunction, ScalarField, assemble_load, assemble_mass,
                           assemble_stiffness, assemble_weighted_stiffness, build_space,
                           error_norms, nodal_interpolate, ritz_projection, triangle_rule)
from thermofem.mesh import Mesh, unit_square_mesh

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
        l2, _, _ = error_norms(g, probe)
        assert l2 <= 1e-12  # P_eta reproduces x1^eta only with consistent dofs

    def test_rejects_degree_4(self):
        with pytest.raises(ValueError):
            build_space(unit_square_mesh(2), 4)


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
        local = np.einsum("q,cq,cbqe,caqe->cab", fev.weights, w_vals, fev.dphi, fev.dphi)
        local += np.einsum("q,cbqe,cqe,aq->cab", fev.weights, fev.dphi, w_grads, fev.phi)
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
            _, h1, _ = error_norms(r, f)
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
        l2, _, _ = error_norms(f, probe)
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
        l2, h1, l6 = error_norms(f, probe)
        assert l2 <= 1e-12 and h1 <= 1e-12 and l6 <= 1e-12

    def test_none_gives_own_norms(self):
        sp = build_space(unit_square_mesh(2), 1)
        u = FEFunction(sp, np.ones(sp.n_dofs))
        l2, h1, _ = error_norms(u, None)
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
        l2, _, _ = error_norms(diff, None)
        assert 0.0 < l2 <= eps * phi_norm * (1 + 1e-12)


class TestQuadraturePoints:
    def test_quadrature_points_are_read_only(self):
        fev = build_space(unit_square_mesh(2), 1).values()
        with pytest.raises(ValueError):
            fev.points[0, 0, 0] = 0.5
        with pytest.raises(ValueError):
            fev.points.reshape(-1, 2)[0] = 0.5


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
