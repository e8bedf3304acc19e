"""Error-measurement helpers shared by the accuracy studies.

All accuracy comparisons in the paper use the Frobenius norm: the GEMM
benchmark compares each format against FP64 GEMM (Section IV), and the
tile-selection rule thresholds the ratio of tile to global Frobenius
norms (Section V).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "frobenius",
    "relative_frobenius_error",
    "max_abs_error",
    "combine_frobenius",
]


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm of an array."""
    return float(np.linalg.norm(np.asarray(a, dtype=np.float64)))


def _scaled_norm(a: np.ndarray) -> float:
    """Frobenius norm of ``a / max|a|`` times ``max|a|``: the sum of
    squares neither underflows nor overflows, and doubling ``a`` exactly
    doubles the result."""
    scale = float(np.max(np.abs(a), initial=0.0))
    if scale == 0.0 or not math.isfinite(scale):
        return scale
    return scale * float(np.linalg.norm(a / scale))


def relative_frobenius_error(approx: np.ndarray, exact: np.ndarray) -> float:
    """``‖approx − exact‖_F / ‖exact‖_F`` (0 when both are zero)."""
    exact = np.asarray(exact, dtype=np.float64)
    approx = np.asarray(approx, dtype=np.float64)
    denom = _scaled_norm(exact)
    num = _scaled_norm(approx - exact)
    if denom == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / denom


def max_abs_error(approx: np.ndarray, exact: np.ndarray) -> float:
    """Element-wise maximum absolute error."""
    return float(np.max(np.abs(np.asarray(approx, float) - np.asarray(exact, float))))


def combine_frobenius(partials: "list[float] | np.ndarray") -> float:
    """Combine per-tile Frobenius norms into the global matrix norm.

    ``‖A‖_F² = Σ_ij ‖A_ij‖_F²`` — used when the matrix is never formed as
    one dense array (tiled storage, or sampled-norm estimation for the
    Fig. 7 scale).
    """
    partials = np.asarray(partials, dtype=np.float64)
    return float(np.sqrt(np.sum(partials**2)))
