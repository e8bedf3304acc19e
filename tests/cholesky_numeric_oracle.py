"""The parent's float64-round-trip factorization: the oracle of ``mp_cholesky``.

The k-loop ``repro/core/cholesky.py::mp_cholesky`` was before tiles
stayed at their rest dtype — every tile pulled out of
``TiledSymmetricMatrix.get`` as float64 and pushed back through ``set``
around each kernel, payloads made by ``quantize`` — moved here verbatim,
over the kernel bodies of that commit: the triangular solve through
``scipy.linalg.solve_triangular``, the trailing update through
``multiply_accumulate`` widened to float64 (its bits pinned by the cast
chains of ``tests/test_precision_gemm.py``), a ``C`` tile that never says which
grid it is on and so is rounded at every FP16 update.
:func:`repro.core.cholesky.mp_cholesky` is tested equal to it on the raw
bits (``tests/test_core_cholesky_rest_dtype.py``) and benchmarked against
it (``benchmarks/test_numeric_factorization.py``).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.core.cholesky import CholeskyResult
from repro.core.config import ConversionStrategy
from repro.core.conversion import CommPrecisionMap, build_comm_precision_map
from repro.core.precision_map import KernelPrecisionMap, uniform_map
from repro.precision import Precision
from repro.precision.emulate import Operand, as_input, quantize
from repro.precision.gemm import multiply_accumulate
from repro.tiles.kernels import NotPositiveDefiniteError, trsm_execution_precision
from repro.tiles.tilematrix import TiledSymmetricMatrix


def potrf(c_kk: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(np.asarray(c_kk, dtype=np.float64))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc


def trsm(l_kk, c_mk: np.ndarray, precision: Precision = Precision.FP64) -> np.ndarray:
    exec_prec = trsm_execution_precision(precision)
    xt = scipy.linalg.solve_triangular(
        as_input(l_kk, exec_prec), as_input(c_mk, exec_prec).T, lower=True
    )
    return np.ascontiguousarray(xt.T).astype(np.float64, copy=False)


def syrk(c_mk, c_mm: np.ndarray, precision: Precision = Precision.FP64) -> np.ndarray:
    a = quantize(c_mk, precision)
    c = np.asarray(c_mm, dtype=np.float64)
    out = c - a @ a.T
    return (out + out.T) * 0.5


def gemm(c_mk, c_nk, c_mn: np.ndarray, precision: Precision = Precision.FP64) -> np.ndarray:
    out = multiply_accumulate(as_input(c_mk, precision), as_input(c_nk, precision).T, c_mn,
                              precision=precision)
    return np.asarray(out, dtype=np.float64)


def mp_cholesky_oracle(
    mat: TiledSymmetricMatrix,
    kernel_map: KernelPrecisionMap | None = None,
    *,
    strategy: ConversionStrategy = ConversionStrategy.AUTO,
    comm_map: CommPrecisionMap | None = None,
    overwrite: bool = False,
) -> CholeskyResult:
    nt = mat.nt
    if kernel_map is None:
        kernel_map = uniform_map(nt, Precision.FP64)
    if comm_map is None:
        comm_map = build_comm_precision_map(kernel_map)

    work = mat if overwrite else mat.copy()
    for i, j in work.lower_indices():
        work.set(i, j, work.get(i, j), precision=kernel_map.storage(i, j))
    counts: dict[tuple[str, Precision], int] = {}

    def bump(kind: str, precision: Precision) -> None:
        key = (kind, precision)
        counts[key] = counts.get(key, 0) + 1

    for k in range(nt):
        l_kk = potrf(work.get(k, k))
        work.set(k, k, np.tril(l_kk), precision=Precision.FP64)
        bump("POTRF", Precision.FP64)

        if k == nt - 1:
            break

        # POTRF broadcast payload
        diag_payload = Operand(quantize(np.tril(l_kk), comm_map.payload(k, k, strategy)))

        # panel solves
        for m in range(k + 1, nt):
            prec = kernel_map.kernel(m, k)
            solved = trsm(diag_payload, work.get(m, k), precision=prec)
            work.set(m, k, solved)
            bump("TRSM", trsm_execution_precision(prec))

        # panel broadcast payloads
        payloads: dict[int, Operand] = {}
        for m in range(k + 1, nt):
            p = comm_map.payload(m, k, strategy)
            payloads[m] = Operand(quantize(work.get(m, k), p))

        # diagonal updates
        for m in range(k + 1, nt):
            updated = syrk(payloads[m], work.get(m, m), precision=comm_map.payload(m, k, strategy))
            work.set(m, m, updated)
            bump("SYRK", Precision.FP64)

        # trailing updates
        for m in range(k + 2, nt):
            for n in range(k + 1, m):
                prec = kernel_map.kernel(m, n)
                updated = gemm(payloads[m], payloads[n], work.get(m, n), precision=prec)
                work.set(m, n, updated)
                bump("GEMM", prec)

    return CholeskyResult(
        factor=work,
        kernel_map=kernel_map,
        comm_map=comm_map,
        strategy=strategy,
        kernel_counts=counts,
    )
