"""Geospatial data plane: spatial ordering of locations and datasets.

Hilbert/Morton/random orderings so tile blocks hold neighbouring
locations, a locality score, and dataset reordering that moves
measurements with their locations (docs/DATAPLANE.md).  Dataset files
are :mod:`repro.geostats.io`'s CSV.
"""

from .hilbert import (
    ORDERINGS,
    check_spatial_order,
    hilbert_decode,
    hilbert_encode,
    hilbert_order,
    order_indices,
    order_locations,
)
from .ingest import permute_dataset, reorder_dataset

__all__ = [
    "ORDERINGS",
    "check_spatial_order",
    "hilbert_decode",
    "hilbert_encode",
    "hilbert_order",
    "order_indices",
    "order_locations",
    "permute_dataset",
    "reorder_dataset",
]
