"""Tiled matrix storage, distribution, norms, and numeric tile kernels."""

from .distribution import ProcessGrid, squarest_grid
from .kernels import (
    NotPositiveDefiniteError,
    gemm,
    potrf,
    syrk,
    trsm,
    trsm_execution_precision,
)
from .norms import global_norm_from_tile_norms, sampled_tile_norms, tile_norms
from .tilematrix import TiledSymmetricMatrix, tile_index_range

__all__ = [
    "NotPositiveDefiniteError",
    "ProcessGrid",
    "TiledSymmetricMatrix",
    "gemm",
    "global_norm_from_tile_norms",
    "potrf",
    "sampled_tile_norms",
    "squarest_grid",
    "syrk",
    "tile_index_range",
    "tile_norms",
    "trsm",
    "trsm_execution_precision",
]
