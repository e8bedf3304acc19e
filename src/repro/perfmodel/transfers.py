"""Host↔device and host↔host transfer-time models (Table II anchor).

Table II of the paper measures, on one Summit V100, the time to move one
tile/matrix to the GPU in each precision and the time to execute a GEMM on
it.  Moving a 2048² FP64 tile takes 0.67 ms — exactly 33.55 MB at 50 GB/s
— and halves with each precision step down, which is precisely the
bytes/bandwidth model implemented here.  The data-motion argument of the
automated conversion strategy (send in the *lowest adequate* precision so
fewer bytes cross the link) falls directly out of this model.
"""

from __future__ import annotations

from ..precision.formats import Precision, bytes_per_element
from .gpus import GPUSpec

__all__ = ["tile_bytes", "h2d_time"]


def tile_bytes(nb: int, precision: Precision) -> int:
    """Bytes of one ``nb`` × ``nb`` tile encoded in ``precision``."""
    return nb * nb * bytes_per_element(precision)


def h2d_time(gpu: GPUSpec, nb: int, precision: Precision) -> float:
    """Seconds to move one tile over the GPU's host link (either way: the
    link is symmetric)."""
    return gpu.host_link_latency + tile_bytes(nb, precision) / gpu.host_link_bandwidth
