"""The paper's three evaluation applications at performance scale.

Figs. 7, 10, and 12c are driven by three geospatial configurations:

* **2D-sqexp** at required accuracy 1e-4 — the most precision-tolerant
  (paper: 46.7 % of tiles in FP16, 29.5 % in FP16_32);
* **2D-Matérn** at 1e-9 — intermediate;
* **3D-sqexp** at 1e-8 — the most precision-hungry (>60 % of tiles in
  FP64/FP32; 3D neighbourhoods keep more tiles strongly correlated).

At these scales (matrix 409,600–798,720) the covariance matrix is never
materialised: kernel-precision maps are built from *sampled* tile norms
through the covariance entry oracle (:func:`repro.tiles.norms.sampled_tile_norms`),
which is exact in expectation and cheap.  The correlation ranges below
were chosen so the resulting tile fractions land near the paper's Fig. 7
percentages; they are recorded here as the reproduction's application
definitions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.precision_map import KernelPrecisionMap, build_precision_map
from ..geostats.covariance import CovarianceModel, Matern, SquaredExponential
from ..geostats.locations import generate_locations
from ..tiles.norms import sampled_tile_norms

__all__ = ["AppConfig", "APPLICATIONS", "app_kernel_map", "get_app"]


@dataclass(frozen=True)
class AppConfig:
    """One evaluation application: model, parameters, required accuracy."""

    key: str
    model: CovarianceModel
    theta: tuple[float, ...]
    accuracy: float

    @property
    def label(self) -> str:
        return {"2d-sqexp": "2D-sqexp", "2d-matern": "2D-Matern", "3d-sqexp": "3D-sqexp"}[
            self.key
        ]


APPLICATIONS: dict[str, AppConfig] = {
    # u_req values straight from Section VII-C; θ chosen so the sampled
    # maps land on the Fig. 7 tile-fraction profile: 2D-sqexp ≈ 46/24 %
    # FP16/FP16_32 (paper: 46.7/29.5 %), 3D-sqexp > 60 % in FP64/FP32,
    # 2D-Matérn in between.
    "2d-sqexp": AppConfig("2d-sqexp", SquaredExponential(dim=2), (1.0, 0.1), 1e-4),
    "2d-matern": AppConfig("2d-matern", Matern(dim=2), (1.0, 0.03, 0.5), 1e-9),
    "3d-sqexp": AppConfig("3d-sqexp", SquaredExponential(dim=3), (1.0, 0.05), 1e-8),
}


def get_app(key: str) -> AppConfig:
    k = key.strip().lower()
    if k not in APPLICATIONS:
        raise ValueError(f"unknown application {key!r}; expected one of {sorted(APPLICATIONS)}")
    return APPLICATIONS[k]


def app_kernel_map(
    app: AppConfig | str,
    n: int,
    nb: int,
    *,
    samples_per_tile: int = 64,
    seed: int = 0,
    locations: np.ndarray | None = None,
    ordering: str | None = "morton",
) -> KernelPrecisionMap:
    """Kernel-precision map of one application at matrix size ``n``.

    Locations are generated synthetically (or passed via ``locations``,
    e.g. from a dataplane manifest), spatially sorted per ``ordering``
    (``morton``/``hilbert``/``random``; ``None`` keeps the given order),
    tile norms estimated by sampling, and the Higham–Mary rule applied
    at the application's required accuracy — the Fig. 7 pipeline.  The
    default (synthetic, Morton) reproduces the original behaviour
    bit-for-bit.
    """
    if isinstance(app, str):
        app = get_app(app)
    if locations is None:
        locs = generate_locations(n, app.model.dim, seed=seed, sort=False)
    else:
        locs = np.asarray(locations, dtype=np.float64)
        if locs.shape != (n, app.model.dim):
            raise ValueError(
                f"locations must be ({n}, {app.model.dim}), got {locs.shape}"
            )
    if ordering is not None:
        from ..geostats.dataplane.hilbert import order_locations

        locs = order_locations(locs, ordering, seed=seed)
    oracle = app.model.entry_oracle(locs, app.theta)
    rng = np.random.default_rng(seed + 1)
    norms = sampled_tile_norms(n, nb, oracle, samples_per_tile=samples_per_tile, rng=rng)
    return build_precision_map(norms, app.accuracy)
