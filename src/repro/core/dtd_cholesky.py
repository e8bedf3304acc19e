"""Algorithm 1 expressed through Dynamic Task Discovery.

The same adaptive mixed-precision Cholesky as
:mod:`repro.core.dag_cholesky`, but written the way a DTD user writes it:
four nested loops inserting tasks sequentially, with data accesses
declared per operand and dependencies *inferred* by the runtime.  The
discovered graph is identical to the PTG's (tested), which is the
paper's point about PaRSEC's interchangeable DSLs — and also why DTD's
sequential insertion becomes the scalability bottleneck the paper notes
("might encounter similar scalability issues as ... other distributed
task-insertion runtimes").
"""

from __future__ import annotations

from ..perfmodel.kernels import KernelKind, kernel_flops, kernel_flops_rect
from ..precision.formats import Precision
from ..runtime.dtd import AccessMode, DataAccess, DTDRuntime
from ..tiles.distribution import ProcessGrid
from ..tiles.kernels import trsm_execution_precision
from .config import ConversionStrategy
from .conversion import CommPrecisionMap
from .dag_cholesky import CholeskyDag, _CholeskyDataflow
from .precision_map import KernelPrecisionMap

__all__ = ["build_cholesky_dag_dtd"]


def build_cholesky_dag_dtd(
    n: int,
    nb: int,
    kernel_map: KernelPrecisionMap,
    *,
    strategy: ConversionStrategy = ConversionStrategy.AUTO,
    grid: ProcessGrid | None = None,
    comm_map: CommPrecisionMap | None = None,
) -> CholeskyDag:
    """Insert Algorithm 1's tasks sequentially and discover the DAG."""
    # sizes, priorities and edge encodings come from the same rules as the PTG's
    rules = _CholeskyDataflow(n, nb, kernel_map, strategy, grid, comm_map)
    nt, grid = rules.nt, rules.grid
    edge, elements, prio = rules.edge, rules.elements, rules.prio
    payload, storage, sender_conv = rules.payload, rules.storage, rules.sender_conv

    rt = DTDRuntime(default_elements=nb * nb)

    for k in range(nt):
        rt.insert_task(
            KernelKind.POTRF,
            (k,),
            [DataAccess((k, k), AccessMode.INOUT, Precision.FP64, Precision.FP64,
                        elements(k, k))],
            rank=grid.owner(k, k),
            precision=Precision.FP64,
            flops=kernel_flops(KernelKind.POTRF, edge(k)),
            output_precision=Precision.FP64,
            sender_conversion=sender_conv(k, k) if k < nt - 1 else None,
            priority=prio(k, KernelKind.POTRF),
        )
        for m in range(k + 1, nt):
            # panel tile arrives from its last GEMM in its at-rest encoding
            kernel, c_rest, _rests = rules.trailing(m, k, k)
            rt.insert_task(
                KernelKind.TRSM,
                (m, k),
                [
                    DataAccess((k, k), AccessMode.INPUT, payload(k, k),
                               Precision.FP64, elements(k, k)),
                    DataAccess((m, k), AccessMode.INOUT, c_rest, c_rest,
                               elements(m, k)),
                ],
                rank=grid.owner(m, k),
                precision=trsm_execution_precision(kernel),
                flops=kernel_flops_rect(KernelKind.TRSM, edge(m), edge(k)),
                output_precision=storage(m, k),
                sender_conversion=sender_conv(m, k),
                priority=prio(k, KernelKind.TRSM),
            )
        for m in range(k + 1, nt):
            rt.insert_task(
                KernelKind.SYRK,
                (m, k),
                [
                    DataAccess((m, k), AccessMode.INPUT, payload(m, k),
                               storage(m, k), elements(m, k)),
                    DataAccess((m, m), AccessMode.INOUT, Precision.FP64,
                               Precision.FP64, elements(m, m)),
                ],
                rank=grid.owner(m, m),
                precision=Precision.FP64,
                flops=kernel_flops_rect(KernelKind.SYRK, edge(m), edge(k)),
                output_precision=Precision.FP64,
                priority=prio(k, KernelKind.SYRK),
            )
        for m in range(k + 2, nt):
            for nn in range(k + 1, m):
                prec, c_in_rest, rest = rules.trailing(m, nn, k)
                rt.insert_task(
                    KernelKind.GEMM,
                    (m, nn, k),
                    [
                        DataAccess((m, k), AccessMode.INPUT, payload(m, k),
                                   storage(m, k), elements(m, k)),
                        DataAccess((nn, k), AccessMode.INPUT, payload(nn, k),
                                   storage(nn, k), elements(nn, k)),
                        DataAccess((m, nn), AccessMode.INOUT, c_in_rest, c_in_rest,
                                   elements(m, nn)),
                    ],
                    rank=grid.owner(m, nn),
                    precision=prec,
                    flops=kernel_flops_rect(KernelKind.GEMM, edge(m), edge(nn), edge(k)),
                    output_precision=rest,
                    priority=prio(k, KernelKind.GEMM),
                )

    return rules.dag(rt.finalize())
