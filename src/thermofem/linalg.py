"""Sparse matrices and the linear solver for assembly and time stepping.

Storage is CSR (wrapping scipy.sparse); duplicate triplets are summed on
construction, matching finite element accumulation semantics.  A
TripletPattern fixes the structure for assemblies that repeat it and sums
each one in triplet order.  Linear systems are solved by sparse LU
factorization (factorize); the returned solver can be applied to any
number of right-hand sides.  Every system the solver sees (wave, heat,
Ritz and mass) has a structurally symmetric pattern, so the columns are
ordered by multiple minimum degree on A^T + A, which fills in far less
than scipy's default, COLAMD.

Everything here is deterministic: identical inputs produce bit-identical
outputs, which the reporting layer relies on.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

__all__ = [
    "SparseMatrix",
    "sparse_from_triplets",
    "TripletPattern",
    "matvec",
    "factorize",
]


class SparseMatrix:
    """Immutable CSR matrix."""

    __slots__ = ("_csr",)

    def __init__(self, csr):
        csr = scipy.sparse.csr_matrix(csr)
        csr.sum_duplicates()
        csr.sort_indices()
        if not np.isfinite(csr.data).all():
            raise ValueError("matrix entries must be finite")
        self._csr = csr

    @property
    def shape(self):
        return self._csr.shape

    @property
    def indptr(self):
        return self._csr.indptr

    @property
    def indices(self):
        return self._csr.indices

    @property
    def data(self):
        return self._csr.data

    @property
    def nnz(self) -> int:
        return self._csr.nnz

    def __matmul__(self, x):
        return matvec(self, x)

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def submatrix(self, rows, cols) -> "SparseMatrix":
        return SparseMatrix(self._csr[rows][:, cols])

    def scipy(self):
        return self._csr

    def __repr__(self):
        return f"SparseMatrix(shape={self.shape}, nnz={self.nnz})"


def sparse_from_triplets(n_rows: int, n_cols: int, triplets) -> SparseMatrix:
    """Build a CSR matrix from (i, j, value) triplets, summing duplicates.

    triplets is either an iterable of (i, j, value) tuples or a tuple of
    three parallel arrays (rows, cols, values).
    """
    if n_rows < 0 or n_cols < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    if isinstance(triplets, tuple) and len(triplets) == 3 and not np.isscalar(triplets[0]):
        rows, cols, vals = triplets
    else:
        triplets = list(triplets)
        if triplets:
            rows, cols, vals = zip(*triplets)
        else:
            rows, cols, vals = (), (), ()
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    if not (rows.shape == cols.shape == vals.shape):
        raise ValueError("triplet arrays must have matching lengths")
    if rows.size and (rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols):
        raise ValueError("triplet index out of range")
    coo = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n_rows, n_cols))
    return SparseMatrix(coo.tocsr())


class TripletPattern:
    """Fixed (row, col) triplet positions, summed into one CSR structure.

    Each triplet's slot in the CSR data array is found once, here;
    assemble(values) then adds the values of each position into its slot
    in triplet order, starting from +0.0.  indptr and indices are the
    structure every matrix made here shares.
    """

    __slots__ = ("shape", "size", "indptr", "indices", "_slot")

    def __init__(self, n_rows: int, n_cols: int, rows, cols):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape:
            raise ValueError("triplet arrays must have matching lengths")
        if rows.size and (rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols):
            raise ValueError("triplet index out of range")
        self.shape = (n_rows, n_cols)
        self.size = rows.size
        positions, self._slot = np.unique(rows * n_cols + cols, return_inverse=True)
        row_ptr = np.concatenate(([0], np.cumsum(np.bincount(positions // n_cols, minlength=n_rows))))
        structure = scipy.sparse.csr_matrix(
            (np.zeros(positions.size), positions % n_cols, row_ptr), shape=self.shape)
        self.indptr, self.indices = structure.indptr, structure.indices

    def assemble(self, values) -> SparseMatrix:
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size != self.size:
            raise ValueError(f"got {values.size} values for {self.size} triplet positions")
        return self.matrix(np.bincount(self._slot, weights=values, minlength=self.indices.size))

    def matrix(self, data) -> SparseMatrix:
        """The matrix on this structure whose CSR data array is `data`."""
        data = np.asarray(data, dtype=np.float64)
        if data.shape != self.indices.shape:
            raise ValueError(f"got {data.size} entries for {self.indices.size} stored positions")
        return SparseMatrix(scipy.sparse.csr_matrix(
            (data, self.indices, self.indptr), shape=self.shape))


def matvec(a: SparseMatrix, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.shape[1],):
        raise ValueError(f"operand shape {x.shape} does not match matrix shape {a.shape}")
    return a.scipy() @ x


class _LUSolver:
    __slots__ = ("_lu", "_a", "n")

    def __init__(self, a: SparseMatrix):
        self._a = a
        self._lu = scipy.sparse.linalg.splu(a.scipy().tocsc(), permc_spec="MMD_AT_PLUS_A")
        self.n = a.shape[0]

    def __call__(self, b) -> np.ndarray:
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (self.n,):
            raise ValueError(f"right-hand side shape {b.shape} does not match dimension {self.n}")
        return self._lu.solve(b)

    def solve_with_report(self, b) -> tuple[np.ndarray, float]:
        """The solution x and the relative residual |b - a x| / |b| (0 for b = 0)."""
        x = self(b)
        norm_b = float(np.linalg.norm(b))
        res = 0.0 if norm_b == 0.0 else float(np.linalg.norm(b - self._a.scipy() @ x)) / norm_b
        return x, res


def factorize(a: SparseMatrix) -> _LUSolver:
    """Sparse LU factorization; the returned object solves a x = b per call."""
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    return _LUSolver(a)

