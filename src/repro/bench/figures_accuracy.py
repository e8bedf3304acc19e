"""Experiment drivers for the accuracy studies (Figs. 5, 6, 7).

Figs. 5/6 are Monte Carlo parameter-estimation studies over the paper's
weak/strong × rough/smooth configurations; Fig. 7 is the kernel-precision
heatmap of the three applications at full scale (sampled-norm pipeline).

The Monte Carlo panels run at a fixed reproduction scale, far below the
paper's 100 replicas × 40,000 locations, so the harness finishes on one
CPU.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..geostats.covariance import Matern, SquaredExponential
from ..geostats.generator import SyntheticField
from ..geostats.montecarlo import MonteCarloStudy, run_monte_carlo
from .apps import APPLICATIONS, app_kernel_map

__all__ = [
    "MCConfig",
    "FIG5_CONFIGS",
    "FIG6_CONFIGS",
    "run_fig5_config",
    "run_fig6_config",
    "fig7_fraction_rows",
]

#: nugget used by the sqexp Monte Carlo configurations (the nugget-free
#: squared exponential is numerically singular in FP64 — see DESIGN.md)
SQEXP_NUGGET = 0.01


@dataclass(frozen=True)
class MCConfig:
    """One Monte Carlo panel of Fig. 5/6."""

    key: str
    model_kind: str  # "sqexp" | "matern"
    dim: int
    theta: tuple[float, ...]
    accuracies: tuple
    nugget: float = 0.0

    def field(self, n: int) -> SyntheticField:
        if self.model_kind == "sqexp":
            model = SquaredExponential(dim=self.dim)
        else:
            model = Matern(dim=self.dim)
        return SyntheticField(model, self.theta, n, nugget=self.nugget)


#: Fig. 5 panels: 2D-sqexp weak/strong; 2D-Matérn weak/strong × rough/smooth.
FIG5_CONFIGS: dict[str, MCConfig] = {
    "sqexp-weak": MCConfig(
        "sqexp-weak", "sqexp", 2, (1.0, 0.03), (1e-1, 1e-2, 1e-4, "exact"), SQEXP_NUGGET
    ),
    "sqexp-strong": MCConfig(
        "sqexp-strong", "sqexp", 2, (1.0, 0.3), (1e-1, 1e-2, 1e-4, "exact"), SQEXP_NUGGET
    ),
    "matern-weak-rough": MCConfig(
        "matern-weak-rough", "matern", 2, (1.0, 0.03, 0.5), (1e-2, 1e-4, 1e-9, "exact")
    ),
    "matern-weak-smooth": MCConfig(
        "matern-weak-smooth", "matern", 2, (1.0, 0.03, 1.0), (1e-2, 1e-4, 1e-9, "exact")
    ),
    "matern-strong-rough": MCConfig(
        "matern-strong-rough", "matern", 2, (1.0, 0.3, 0.5), (1e-2, 1e-4, 1e-9, "exact")
    ),
    "matern-strong-smooth": MCConfig(
        "matern-strong-smooth", "matern", 2, (1.0, 0.3, 1.0), (1e-2, 1e-4, 1e-9, "exact")
    ),
}

#: Fig. 6 panels: 3D-sqexp weak/strong.
FIG6_CONFIGS: dict[str, MCConfig] = {
    "sqexp3d-weak": MCConfig(
        "sqexp3d-weak", "sqexp", 3, (1.0, 0.03), (1e-2, 1e-4, 1e-8, "exact"), SQEXP_NUGGET
    ),
    "sqexp3d-strong": MCConfig(
        "sqexp3d-strong", "sqexp", 3, (1.0, 0.3), (1e-2, 1e-4, 1e-8, "exact"), SQEXP_NUGGET
    ),
}


def _run_panel(cfg: MCConfig, n: int, replicas: int, tile_size: int) -> MonteCarloStudy:
    return run_monte_carlo(cfg.field(n), cfg.accuracies, replicas=replicas,
                           tile_size=tile_size, max_evals=120)


def run_fig5_config(key: str) -> MonteCarloStudy:
    """Run one Fig. 5 panel: 5 replicas of 256 locations in 32-wide tiles."""
    return _run_panel(FIG5_CONFIGS[key], 256, 5, 32)


def run_fig6_config(key: str) -> MonteCarloStudy:
    """Run one Fig. 6 panel: 4 replicas of 343 (7³) locations in 49-wide tiles."""
    return _run_panel(FIG6_CONFIGS[key], 343, 4, 49)


def fig7_fraction_rows() -> list[list]:
    """Fig. 7: per-application tile fractions at the paper's matrix size,
    409,600 in 2048-wide tiles, from 32 sampled entries per tile.

    Returns rows ``[app, FP64 %, FP32 %, FP16_32 %, FP16 %]``.
    """
    from ..precision.formats import Precision

    rows = []
    for key in ("2d-sqexp", "2d-matern", "3d-sqexp"):
        kmap = app_kernel_map(APPLICATIONS[key], 409600, 2048, samples_per_tile=32)
        fr = kmap.tile_fractions()
        rows.append(
            [
                APPLICATIONS[key].label,
                100.0 * fr.get(Precision.FP64, 0.0),
                100.0 * fr.get(Precision.FP32, 0.0),
                100.0 * fr.get(Precision.FP16_32, 0.0),
                100.0 * fr.get(Precision.FP16, 0.0),
            ]
        )
    return rows
