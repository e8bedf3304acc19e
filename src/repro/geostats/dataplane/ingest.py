"""Reordering datasets on their way into the tiled pipeline.

:func:`reorder_dataset` applies one permutation to locations *and*
measurements together; applying it to locations alone silently
decorrelates z from its locations, which is the bug class the
covariance-consistency regression test pins down.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .hilbert import order_indices

__all__ = [
    "permute_dataset",
    "reorder_dataset",
]


def permute_dataset(dataset, perm: np.ndarray):
    """One permutation applied consistently to locations *and* z."""
    perm = np.asarray(perm)
    return replace(dataset, locations=dataset.locations[perm], z=dataset.z[perm])


def reorder_dataset(dataset, ordering: str, *, seed: int = 0):
    """Reorder a :class:`Dataset` spatially (observations follow)."""
    perm = order_indices(dataset.locations, ordering, seed=seed)
    return permute_dataset(dataset, perm)
