"""Sparse matrices and the linear solver for assembly and time stepping.

Storage is CSR (wrapping scipy.sparse); duplicate triplets are summed on
construction, matching finite element accumulation semantics.  A
TripletPattern fixes the structure for assemblies that repeat it.  Linear
systems are solved by sparse LU factorization (factorize); the returned
solver can be applied to any number of right-hand sides.  Every system the
solver sees (wave, heat, Ritz and mass) has a structurally symmetric
pattern, so the columns are ordered by multiple minimum degree on
A^T + A, which fills in far less than scipy's default, COLAMD.

Everything here is deterministic: identical inputs produce bit-identical
outputs, which the reporting layer relies on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

__all__ = [
    "SparseMatrix",
    "SolveReport",
    "sparse_from_triplets",
    "TripletPattern",
    "matvec",
    "factorize",
]


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    relative_residual: float
    method: str


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

    def __add__(self, other):
        return SparseMatrix(self._csr + other._csr)

    def __mul__(self, scalar):
        return SparseMatrix(self._csr * float(scalar))

    __rmul__ = __mul__

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

    assemble(values) gives the same matrix as sparse_from_triplets on these
    positions, bit for bit, and does the structure work only once.
    """

    __slots__ = ("shape", "size", "_indptr", "_indices", "_first", "_adds")

    def __init__(self, n_rows: int, n_cols: int, rows, cols):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape:
            raise ValueError("triplet arrays must have matching lengths")
        if rows.size and (rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols):
            raise ValueError("triplet index out of range")
        self.shape = (n_rows, n_cols)
        self.size = rows.size

        # scipy buckets the triplets by row in their order, sorts each row with
        # its own unstable sort, then adds equal positions left to right; that
        # sort run on the triplet numbers gives the summation order once.
        by_row = np.argsort(rows, kind="stable")
        row_ptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_rows))))
        buckets = scipy.sparse.csr_matrix(
            (by_row.astype(np.float64), cols[by_row], row_ptr), shape=self.shape)
        buckets.sort_indices()
        order = buckets.data.astype(np.int64)  # triplet number at each sorted slot
        sorted_rows = rows[by_row]  # the buckets keep each triplet's row
        new_entry = np.ones(order.size, dtype=bool)
        new_entry[1:] = (sorted_rows[1:] != sorted_rows[:-1]) | (buckets.indices[1:] != buckets.indices[:-1])
        starts = np.flatnonzero(new_entry)
        self._indices = buckets.indices[starts]
        self._indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(sorted_rows[starts], minlength=n_rows)))
        ).astype(buckets.indptr.dtype)

        lengths = np.diff(np.append(starts, order.size))
        self._first = order[starts]
        self._adds = []  # k-th duplicate of each position that has one
        for k in range(1, int(lengths.max(initial=1))):
            entries = np.flatnonzero(lengths > k)
            self._adds.append((entries, order[starts[entries] + k]))

    def assemble(self, values) -> SparseMatrix:
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size != self.size:
            raise ValueError(f"got {values.size} values for {self.size} triplet positions")
        data = values[self._first]
        for entries, triplets in self._adds:
            data[entries] += values[triplets]
        return SparseMatrix(scipy.sparse.csr_matrix(
            (data, self._indices, self._indptr), shape=self.shape))


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

    def solve_with_report(self, b) -> tuple[np.ndarray, SolveReport]:
        x = self(b)
        norm_b = float(np.linalg.norm(b))
        res = 0.0 if norm_b == 0.0 else float(np.linalg.norm(b - self._a.scipy() @ x)) / norm_b
        return x, SolveReport(1, res, "sparse-lu")


def factorize(a: SparseMatrix) -> _LUSolver:
    """Sparse LU factorization; the returned object solves a x = b per call."""
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    return _LUSolver(a)

