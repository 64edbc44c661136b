import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermofem.fem import build_space
from thermofem.linalg import TripletPattern, factorize, matvec, sparse_from_triplets
from thermofem.mesh import unit_square_mesh


def _from_dense(dense):
    rows, cols = np.nonzero(dense)
    return sparse_from_triplets(dense.shape[0], dense.shape[1],
                                (rows, cols, dense[rows, cols]))


class TestConstruction:
    def test_duplicate_accumulation(self):
        a = sparse_from_triplets(1, 1, [(0, 0, 1.0), (0, 0, 2.0)])
        assert a.to_dense()[0, 0] == 3.0
        assert a.nnz == 1

    def test_empty(self):
        a = sparse_from_triplets(3, 3, [])
        assert np.array_equal(a.to_dense(), np.zeros((3, 3)))

    def test_identity_fixes_vectors(self, rng):
        a = sparse_from_triplets(2, 2, [(0, 0, 1.0), (1, 1, 1.0)])
        x = rng.standard_normal(2)
        assert np.array_equal(matvec(a, x), x)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            sparse_from_triplets(2, 2, [(0, 2, 1.0)])
        with pytest.raises(ValueError):
            sparse_from_triplets(2, 2, [(-1, 0, 1.0)])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            sparse_from_triplets(1, 1, [(0, 0, float("nan"))])

    def test_csr_invariants(self, rng):
        dense = rng.standard_normal((6, 6))
        dense[np.abs(dense) < 0.7] = 0.0
        a = _from_dense(dense)
        indptr, indices = a.indptr, a.indices
        assert (np.diff(indptr) >= 0).all()
        for r in range(6):
            row = indices[indptr[r]:indptr[r + 1]]
            assert (np.diff(row) > 0).all()  # sorted, unique


def _summed_in_triplet_order(shape, rows, cols, vals):
    """Dense reference: every value added into its position in triplet order."""
    dense = np.zeros(shape)
    np.add.at(dense, (rows, cols), vals)
    return dense


class TestTripletPattern:
    def test_matches_triplet_construction_bit_for_bit(self, rng):
        # many duplicates in random order, with magnitudes spread so that
        # the order in which duplicates are added shows in the last bits
        n, m = 30, 5000
        rows, cols = rng.integers(0, n, m), rng.integers(0, n, m)
        pattern = TripletPattern(n, n, rows, cols)
        for _ in range(3):
            vals = rng.standard_normal(m) * 10.0 ** rng.integers(-8, 8, m)
            vals[rng.random(m) < 0.1] = -0.0
            b = pattern.assemble(vals)
            expected = _summed_in_triplet_order((n, n), rows, cols, vals)
            assert b.to_dense().tobytes() == expected.tobytes()
            a = sparse_from_triplets(n, n, (rows, cols, vals))
            assert a.indptr.tobytes() == b.indptr.tobytes()
            assert a.indices.tobytes() == b.indices.tobytes()
            assert np.abs(a.data - b.data).max() <= 1e-15 * np.abs(a.data).max()

    def test_rows_already_in_order(self, rng):
        rows = np.repeat(np.arange(4), 6)
        cols = np.tile([0, 0, 1, 2, 2, 3], 4)
        vals = rng.standard_normal(rows.size)
        a = sparse_from_triplets(4, 4, (rows, cols, vals))
        assert a.data.tobytes() == TripletPattern(4, 4, rows, cols).assemble(vals).data.tobytes()

    def test_empty(self):
        a = TripletPattern(3, 3, [], []).assemble([])
        assert np.array_equal(a.to_dense(), np.zeros((3, 3)))

    def test_fe_space_pattern(self, rng):
        space = build_space(unit_square_mesh(3), 3)
        cd = space.cell_dofs
        rows = np.repeat(cd, cd.shape[1], axis=1).ravel()
        cols = np.tile(cd, (1, cd.shape[1])).ravel()
        vals = rng.standard_normal(rows.size)
        b = space.matrix_pattern().assemble(vals)
        expected = _summed_in_triplet_order((space.n_dofs,) * 2, rows, cols, vals)
        assert b.to_dense().tobytes() == expected.tobytes()
        a = sparse_from_triplets(space.n_dofs, space.n_dofs, (rows, cols, vals))
        assert a.indices.tobytes() == b.indices.tobytes()
        assert np.abs(a.data - b.data).max() <= 1e-15 * np.abs(a.data).max()

    def test_rejects_wrong_length_and_nonfinite(self):
        pattern = TripletPattern(2, 2, [0, 1, 1], [0, 1, 1])
        with pytest.raises(ValueError):
            pattern.assemble([1.0, 2.0])
        with pytest.raises(ValueError):
            pattern.assemble([1.0, float("inf"), 2.0])
        with pytest.raises(ValueError):
            pattern.matrix([1.0, 2.0, 3.0])  # two stored positions

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_matrix_rejects_nonfinite_data(self, bad):
        # matrix() marks its structure canonical, so scipy skips its own
        # scan; the finiteness check must still run.
        pattern = TripletPattern(2, 2, [0, 1, 1], [0, 1, 1])
        assert np.array_equal(pattern.matrix([1.0, 2.0]).to_dense(), np.diag([1.0, 2.0]))
        with pytest.raises(ValueError, match="finite"):
            pattern.matrix([1.0, bad])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            TripletPattern(2, 2, [0, 2], [0, 0])


class TestMatvec:
    def test_zero_matrix(self, rng):
        a = sparse_from_triplets(4, 4, [])
        assert np.array_equal(matvec(a, rng.standard_normal(4)), np.zeros(4))

    def test_against_dense_oracle(self, rng):
        dense = rng.standard_normal((5, 5))
        a = _from_dense(dense)
        x = rng.standard_normal(5)
        assert matvec(a, x) == pytest.approx(dense @ x, rel=1e-14, abs=1e-14)

    def test_dimension_mismatch(self, rng):
        a = sparse_from_triplets(3, 4, [(0, 0, 1.0)])
        with pytest.raises(ValueError):
            matvec(a, np.zeros(3))


class TestSolve:
    """Solving through the sparse LU factorization, the only linear solver."""

    def test_identity(self, rng):
        a = sparse_from_triplets(5, 5, [(i, i, 1.0) for i in range(5)])
        b = rng.standard_normal(5)
        x, _ = factorize(a).solve_with_report(b)
        assert np.allclose(x, b, rtol=1e-12)

    def test_mass_matrix_matches_dense_lu(self, rng):
        space = build_space(unit_square_mesh(4), 1)
        m = space.mass_matrix()
        b = rng.standard_normal(m.shape[0])
        x = factorize(m)(b)
        res = np.linalg.norm(b - matvec(m, x)) / np.linalg.norm(b)
        assert res <= 1e-12
        oracle = np.linalg.solve(m.to_dense(), b)
        assert x == pytest.approx(oracle, rel=1e-8)

    def test_zero_rhs(self):
        a = sparse_from_triplets(3, 3, [(i, i, 2.0) for i in range(3)])
        x, residual = factorize(a).solve_with_report(np.zeros(3))
        assert np.array_equal(x, np.zeros(3))
        assert residual == 0.0

    def test_singular_zero_matrix(self):
        a = sparse_from_triplets(3, 3, [])
        with pytest.raises(RuntimeError, match="singular"):
            factorize(a)

    def test_non_square_rejected(self):
        a = sparse_from_triplets(2, 3, [(0, 0, 1.0)])
        with pytest.raises(ValueError):
            factorize(a)

    def test_deterministic(self, rng):
        n = 40
        raw = rng.standard_normal((n, n))
        dense = raw @ raw.T + n * np.eye(n)
        a = _from_dense(dense)
        b = rng.standard_normal(n)
        x1 = factorize(a)(b)
        x2 = factorize(a)(b)
        assert np.array_equal(x1, x2)

    def test_report_residual_recomputable(self, rng):
        space = build_space(unit_square_mesh(3), 1)
        m = space.mass_matrix()
        b = rng.standard_normal(m.shape[0])
        x, residual = factorize(m).solve_with_report(b)
        res = np.linalg.norm(b - matvec(m, x)) / np.linalg.norm(b)
        assert residual == pytest.approx(res, abs=1e-13)

    def test_random_spd_instances(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 60))
            raw = rng.standard_normal((n, n))
            dense = raw @ raw.T + n * np.eye(n)
            a = _from_dense(dense)
            b = rng.standard_normal(n)
            x = factorize(a)(b)
            assert np.linalg.norm(b - dense @ x) / np.linalg.norm(b) <= 1e-11

    def test_random_nonsymmetric_instances(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 60))
            dense = rng.standard_normal((n, n))
            dense += np.diag(np.abs(dense).sum(axis=1) + 1.0)  # diagonally dominant
            a = _from_dense(dense)
            b = rng.standard_normal(n)
            x = factorize(a)(b)
            assert np.linalg.norm(b - dense @ x) / np.linalg.norm(b) <= 1e-11

    def test_larger_nonsymmetric(self, rng):
        n = 500
        dense = np.zeros((n, n))
        idx = np.arange(n)
        dense[idx, idx] = 4.0
        dense[idx[:-1], idx[:-1] + 1] = -1.2
        dense[idx[1:], idx[1:] - 1] = -0.8
        a = _from_dense(dense)
        b = rng.standard_normal(n)
        x = factorize(a)(b)
        assert np.linalg.norm(b - dense @ x) / np.linalg.norm(b) <= 1e-11


class TestFactorize:
    def test_matches_solve(self, rng):
        space = build_space(unit_square_mesh(4), 1)
        m = space.mass_matrix()
        b = rng.standard_normal(m.shape[0])
        lu = factorize(m)
        x = lu(b)
        assert np.linalg.norm(b - matvec(m, x)) / np.linalg.norm(b) <= 1e-12

    def test_report(self, rng):
        space = build_space(unit_square_mesh(3), 1)
        m = space.mass_matrix()
        b = rng.standard_normal(m.shape[0])
        x, residual = factorize(m).solve_with_report(b)
        assert residual <= 1e-12


@given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=1000))
@settings(max_examples=25)
def test_solve_random_spd_property(n, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n))
    dense = raw @ raw.T + n * np.eye(n)
    a = _from_dense(dense)
    b = rng.standard_normal(n)
    x = factorize(a)(b)
    bn = np.linalg.norm(b)
    if bn > 0:
        assert np.linalg.norm(b - dense @ x) / bn <= 1e-11
