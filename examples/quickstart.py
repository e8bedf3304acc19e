#!/usr/bin/env python3
"""Quickstart: adaptive mixed-precision MLE on a synthetic Matérn field.

Generates a 2D Gaussian random field with known parameters, then fits the
maximum likelihood estimate three ways — exact FP64, the adaptive
framework at the paper's tight accuracy (1e-9), and at a loose 1e-2 —
and shows the precision maps the framework planned.

Run:  python examples/quickstart.py
"""

from repro.core import build_comm_precision_map, build_precision_map
from repro.geostats import SyntheticField, build_tiled_covariance, fit_mle
from repro.tiles import tile_norms


def main() -> None:
    # 1. synthesise a rough Matérn field (θ = σ², β, ν)
    field = SyntheticField.matern_2d(
        n=400, variance=1.0, range_=0.1, smoothness=0.5, seed=42
    )
    dataset = field.sample()
    print(f"synthetic dataset: n={dataset.n}, θ_true={field.theta}")

    # 2. what does the adaptive framework plan for this covariance?
    cov = build_tiled_covariance(dataset.locations, dataset.model, field.theta, nb=50)
    kmap = build_precision_map(tile_norms(cov), 1e-4)  # Fig. 2: kernel precision per tile
    cmap = build_comm_precision_map(kmap)               # Fig. 4: Algorithm 2's conversions
    fractions = ", ".join(f"{p.name}: {f * 100:.1f}%"
                          for p, f in sorted(kmap.tile_fractions().items(), reverse=True))
    print("\nprecision plan at u_req=1e-4:")
    print(f"  tiles [{fractions}]; STC on {cmap.stc_fraction() * 100:.1f}% of communications")
    print(kmap.render())

    # 3. fit the MLE at three accuracy levels
    for label, kwargs in [
        ("exact FP64", dict(exact=True)),
        ("u_req=1e-9", dict(accuracy=1e-9)),
        ("u_req=1e-2", dict(accuracy=1e-2)),
    ]:
        result = fit_mle(dataset, tile_size=50, max_evals=200, xtol=1e-7, **kwargs)
        theta = ", ".join(f"{v:.4f}" for v in result.theta_hat)
        print(
            f"\n{label:11}: θ̂ = ({theta})  loglik = {result.loglik:.2f}  "
            f"({result.n_evals} evaluations)"
        )

    print("\nExpected: exact and 1e-9 agree closely; 1e-2 drifts (Fig. 5 of the paper).")


if __name__ == "__main__":
    main()
