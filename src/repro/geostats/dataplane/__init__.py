"""Geospatial data plane: columnar ingest and Hilbert ordering.

The input side of the pipeline (docs/DATAPLANE.md): point sets on disk
(Parquet when pyarrow exists, self-describing NPZ always) and
Hilbert-curve spatial ordering so tile blocks hold neighbouring
locations.
"""

from .format import (
    POINTSET_SCHEMA,
    PointSet,
    dataset_from_pointset,
    parquet_available,
    pointset_from_dataset,
    read_pointset,
    read_pointset_csv,
    resolve_format,
    stream_pointset,
    synthesize_pointset,
    write_pointset,
)
from .hilbert import (
    ORDERINGS,
    check_spatial_order,
    hilbert_decode,
    hilbert_encode,
    hilbert_order,
    nn_index_distance,
    order_indices,
    order_locations,
)
from .ingest import permute_dataset, reorder_dataset, reorder_pointset

__all__ = [
    "ORDERINGS",
    "POINTSET_SCHEMA",
    "PointSet",
    "check_spatial_order",
    "dataset_from_pointset",
    "hilbert_decode",
    "hilbert_encode",
    "hilbert_order",
    "nn_index_distance",
    "order_indices",
    "order_locations",
    "parquet_available",
    "permute_dataset",
    "pointset_from_dataset",
    "read_pointset",
    "read_pointset_csv",
    "reorder_dataset",
    "reorder_pointset",
    "resolve_format",
    "stream_pointset",
    "synthesize_pointset",
]
