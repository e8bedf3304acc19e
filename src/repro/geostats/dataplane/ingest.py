"""Reordering point sets and datasets on their way into the tiled pipeline.

The helpers (:func:`reorder_pointset`, :func:`reorder_dataset`) apply
one permutation to coordinates *and* measurements together;
applying it to coordinates alone silently decorrelates z from its
locations, which is the bug class the covariance-consistency regression
test pins down.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ...obs import get_registry
from .format import PointSet
from .hilbert import check_spatial_order, order_indices

__all__ = [
    "permute_dataset",
    "reorder_dataset",
    "reorder_pointset",
]


def reorder_pointset(
    ps: PointSet, ordering: str, *, seed: int = 0
) -> tuple[PointSet, np.ndarray, float]:
    """Reorder a point set; returns (reordered, permutation, locality score).

    Coordinates and values move together under one permutation and the
    gather is bit-preserving.  The score is published on the obs
    registry as ``dataplane.ordering_score``.
    """
    perm = order_indices(ps.coords, ordering, seed=seed)
    out = ps.take(perm)
    out.meta = {**ps.meta, "ordering": ordering}
    score = check_spatial_order(out.coords)
    get_registry().gauge(
        "dataplane.ordering_score", "consecutive/random pair distance ratio"
    ).set(score, ordering=ordering)
    return out, perm, score


def permute_dataset(dataset, perm: np.ndarray):
    """One permutation applied consistently to locations *and* z."""
    perm = np.asarray(perm)
    return replace(dataset, locations=dataset.locations[perm], z=dataset.z[perm])


def reorder_dataset(dataset, ordering: str, *, seed: int = 0):
    """Reorder a :class:`Dataset` spatially (observations follow)."""
    perm = order_indices(dataset.locations, ordering, seed=seed)
    return permute_dataset(dataset, perm)
