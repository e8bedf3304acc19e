"""Nearest-neighbour index distance: the test tree's oracle for spatial locality.

The data-plane property battery (``tests/test_dataplane_properties.py``)
checks that a space-filling sort beats a random shuffle on it.
"""

from __future__ import annotations

import numpy as np

from repro.geostats.locations import pairwise_distances


def nn_index_distance(locations: np.ndarray) -> float:
    """Mean |index gap| to each point's spatial nearest neighbour.

    After a space-filling sort, spatial neighbours sit at nearby indices,
    so the mean gap is small; after a random shuffle it is O(n).  O(n²).
    """
    locs = np.asarray(locations, dtype=np.float64)
    n = locs.shape[0]
    if n < 2:
        return 0.0
    d = pairwise_distances(locs)
    np.fill_diagonal(d, np.inf)
    nn = np.argmin(d, axis=1)
    return float(np.mean(np.abs(np.arange(n) - nn)))
