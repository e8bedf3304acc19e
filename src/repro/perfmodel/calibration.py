"""The Table II oracle of the performance model.

The simulator is only as good as its anchors: :func:`verify_table2`
compares the shipped model against the paper's Table II, cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..precision.formats import Precision
from .gpus import V100
from .kernels import gemm_time
from .transfers import h2d_time

__all__ = ["CalibrationReport", "verify_table2"]

#: the paper's Table II (ms) — the shipped model's ground truth
TABLE2_MS = {
    ("move", Precision.FP64): (0.67, 2.68, 6.04, 10.74, 16.78),
    ("move", Precision.FP32): (0.34, 1.34, 3.02, 5.37, 8.39),
    ("move", Precision.FP16): (0.17, 0.67, 1.51, 2.68, 4.19),
    ("gemm", Precision.FP64): (2.2, 17.62, 59.47, 140.96, 275.32),
    ("gemm", Precision.FP32): (1.09, 8.75, 29.54, 70.03, 136.78),
    ("gemm", Precision.FP16): (0.14, 1.1, 3.71, 8.8, 17.18),
}
TABLE2_SIZES = (2048, 4096, 6144, 8192, 10240)


@dataclass(frozen=True)
class CalibrationReport:
    """Per-cell relative errors of the model vs a reference table."""

    max_rel_error: float
    mean_rel_error: float
    worst_cell: tuple[str, str, int]

    @property
    def ok(self) -> bool:
        return self.max_rel_error < 0.15


def verify_table2() -> CalibrationReport:
    """Compare the shipped V100 model against the paper's Table II."""
    worst = ("", "", 0)
    errs = []
    max_err = 0.0
    for (kind, prec), refs in TABLE2_MS.items():
        for n, ref in zip(TABLE2_SIZES, refs):
            if kind == "move":
                got = h2d_time(V100, n, prec) * 1e3
            else:
                got = gemm_time(V100, n, prec) * 1e3
            rel = abs(got - ref) / ref
            errs.append(rel)
            if rel > max_err:
                max_err = rel
                worst = (kind, prec.name, n)
    return CalibrationReport(
        max_rel_error=max_err, mean_rel_error=float(np.mean(errs)), worst_cell=worst
    )
