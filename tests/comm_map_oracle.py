"""Reference implementation of Algorithm 2: the test tree's oracle.

The literal O(NT³) triple loop from the paper's pseudocode.  The
vectorized :func:`repro.core.conversion.build_comm_precision_map` is
property-tested against it (``tests/test_core_conversion.py``) and
benchmarked against it (``benchmarks/test_sweep_planning.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.conversion import CommPrecisionMap
from repro.core.precision_map import KernelPrecisionMap
from repro.precision import Precision, get_storage_precision


def build_comm_precision_map_loop(kmap: KernelPrecisionMap) -> CommPrecisionMap:
    """Algorithm 2, tile by tile.  Emits no telemetry."""
    nt = kmap.nt
    comm = np.full((nt, nt), int(Precision.FP64), dtype=np.int8)
    storage = np.full((nt, nt), int(Precision.FP64), dtype=np.int8)

    for i in range(nt):
        for j in range(i + 1):
            storage[i, j] = int(get_storage_precision(kmap.kernel(i, j)))
            storage[j, i] = storage[i, j]

    for k in range(nt):
        prec = Precision.FP32
        for m in range(k + 1, nt):
            if kmap.kernel(m, k) == Precision.FP64:
                prec = Precision.FP64
                break
        if k == nt - 1:
            prec = Precision.FP64  # no successors; no broadcast is issued
        comm[k, k] = int(prec)

    # Off-diagonal tiles (m, k) operating TRSM(m, k).
    for k in range(nt - 1):
        for m in range(k + 1, nt):
            tile_storage = Precision(int(storage[m, k]))
            # SYRK(m, k) consumes the payload at the tile's own kernel
            # precision (see module docstring).
            prec = kmap.kernel(m, k)
            if prec >= tile_storage:
                comm[m, k] = int(tile_storage)
                continue
            done = False
            # row broadcast: GEMM(m, n, k) writes tile (m, n), k < n < m
            for n in range(k + 1, m):
                prec = max(prec, kmap.kernel(m, n))
                if prec >= tile_storage:
                    comm[m, k] = int(tile_storage)
                    done = True
                    break
            if done:
                continue
            # column broadcast: GEMM(n, m, k) writes tile (n, m), n > m
            for n in range(m + 1, nt):
                prec = max(prec, kmap.kernel(n, m))
                if prec >= tile_storage:
                    comm[m, k] = int(tile_storage)
                    done = True
                    break
            if done:
                continue
            comm[m, k] = int(prec)

    return CommPrecisionMap(nt=nt, comm_codes=comm, storage_codes=storage)
