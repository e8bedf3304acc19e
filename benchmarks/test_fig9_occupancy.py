"""Fig. 9: GPU occupancy of one H100 during the factorization.

The paper observes 100 % compute occupancy for FP64/FP32 (all transfers
fully overlapped) and >80 % for the FP64/FP16_32 and FP64/FP16
configurations, whose kernels are fast enough that data motion starts to
peek through.
"""

import numpy as np

from repro.bench import ascii_series, fig9_occupancy_rows, write_csv


def _mean(series):
    return float(np.mean([occ for _t, occ in series]))


def _steady(series):
    """Windows in the bulk of the run (skip pipeline fill and drain)."""
    t_end = series[-1][0]
    return [(t, o) for t, o in series if 0.2 * t_end <= t <= 0.85 * t_end]


def test_fig9_occupancy(once):
    traces = once(fig9_occupancy_rows)
    print()
    rows = []
    for label, series in traces.items():
        mean = _mean(series)
        print(ascii_series(
            [t for t, _ in series], [o for _, o in series],
            label=f"{label}: mean occupancy {mean * 100:.1f}%",
        ))
        for t, o in series:
            rows.append([label, t, o])
    write_csv("fig9_occupancy", ["config", "time_s", "occupancy"], rows)

    # FP64/FP32: fully compute-bound — occupancy ≈ 100 % through the bulk
    # of the run (the initial host→device fill and the final drain are
    # excluded, as in any sampled trace they show as ramp windows)
    for label in ("FP64", "FP32"):
        steady = _mean(_steady(traces[label]))
        assert steady > 0.95, f"{label} steady-state occupancy {steady:.2f}"
    # FP16-class configs stay high but below the FP64 level on average
    for label in ("FP64/FP16_32", "FP64/FP16"):
        mean = _mean(_steady(traces[label]))
        assert mean > 0.55, f"{label} steady occupancy {mean:.2f}"
        assert mean <= _mean(_steady(traces["FP64"])) + 1e-9
    # ... and a majority of steady windows exceed the paper's 80 % mark
    for label in ("FP64/FP16_32", "FP64/FP16"):
        steady = _steady(traces[label])
        frac_above = np.mean([o > 0.8 for _t, o in steady])
        assert frac_above > 0.4, f"{label}: only {frac_above:.0%} of windows above 80%"
