"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark's host is a shared VM whose speed drifts by a third or more
over tens of minutes, as neighbours come and go; a workload call then
reads slower for reasons that have nothing to do with the program.  Each
worker process times this kernel next to the workload, and run.py rescales
the workload's seconds by REFERENCE_S / (kernel seconds measured), so they
read as seconds on a machine where one kernel pass takes REFERENCE_S.

The kernel mixes what thermofem spends its time on (a SuperLU factorization
and solve of a 2-D stiffness-like matrix, COO to CSR conversion, a batched
einsum over small element blocks, and an interpreted loop), and it calls
numpy and scipy only, so no change to thermofem moves it.  Its data fit in
cache, so it slows more than the memory-bound workloads when the host's
cores slow down.  On the 2-vCPU VM the benchmark was tuned on, the kernel
moved up to two and a half times as much as a workload call, so the
rescaled time can move the other way by about half the measured drift;
that is still less than the drift itself.
"""
from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# One kernel pass on the machine the rescaled seconds refer to.
REFERENCE_S = 0.010
# Passes per timing window: about 0.6 s here.  Their mean, not the fastest
# pass, so that time taken by a neighbour counts as it does for the workload.
PASSES = 50

_N = 48
_LAPLACIAN = sp.diags([-1.0, -1.0, 4.01, -1.0, -1.0], [-_N, -1, 0, 1, _N],
                      shape=(_N * _N, _N * _N), format="csc")
_RNG = np.random.default_rng(0)
_ROWS = _RNG.integers(0, 3000, 60000)
_COLS = _RNG.integers(0, 3000, 60000)
_VALS = _RNG.random(60000)
_GRADS = _RNG.random((3000, 6, 3))
_WEIGHTS = _RNG.random(6)
_RHS = np.ones(_N * _N)


def _kernel() -> float:
    x = spla.splu(_LAPLACIAN).solve(_RHS)
    csr = sp.coo_matrix((_VALS, (_ROWS, _COLS)), shape=(3000, 3000)).tocsr()
    blocks = np.einsum("cqa,q,cqb->cab", _GRADS, _WEIGHTS, _GRADS)
    acc = 0.0
    for k in range(3000):
        acc += k * 0.5
    return float(x[0]) + float(csr.data[0]) + float(blocks[0, 0, 0]) + acc


def seconds_per_pass() -> float:
    """Mean wall time of one kernel pass over PASSES passes."""
    start = time.perf_counter()
    for _ in range(PASSES):
        _kernel()
    return (time.perf_counter() - start) / PASSES
