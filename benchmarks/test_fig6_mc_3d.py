"""Fig. 6: Monte Carlo parameter estimation for the 3D synthetic datasets.

3D-sqexp at weak/strong correlation; the paper finds an accuracy of 1e-8
"yields estimations that are highly close to the exact solution".
Default scale: weak panel only, 4 replicas of 343 (7³) locations; set
``REPRO_FULL=1`` for both panels.
"""

from conftest import full_mode
from repro.bench import FIG6_CONFIGS, run_fig6_config, write_csv


def _panel_keys():
    return tuple(FIG6_CONFIGS) if full_mode() else ("sqexp3d-weak",)


def test_fig6_mc_3d(once):
    def run_all():
        return {key: run_fig6_config(key) for key in _panel_keys()}

    studies = once(run_all)
    print()
    rows = []
    for key, study in studies.items():
        print(study.render())
        print()
        for s in study.box_stats():
            rows.append([key, s.parameter, s.accuracy_label, s.median, s.q1, s.q3, s.mean, s.std])
    write_csv(
        "fig6_mc_3d",
        ["panel", "parameter", "accuracy", "median", "q1", "q3", "mean", "std"],
        rows,
    )

    for key, study in studies.items():
        exact_bias = study.median_bias("exact")
        tight_bias = study.median_bias("1e-08")
        for param in exact_bias:
            spread = max(
                (s.iqr for s in study.box_stats()
                 if s.accuracy_label == "exact" and s.parameter == param),
                default=0.0,
            )
            tol = max(3.0 * spread, 0.15, 3.0 * exact_bias[param])
            assert abs(tight_bias[param] - exact_bias[param]) <= tol, (
                f"{key}/{param}: 1e-8 bias {tight_bias[param]:.3f} vs exact {exact_bias[param]:.3f}"
            )
