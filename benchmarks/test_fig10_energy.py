"""Fig. 10: energy of FP64 vs the mixed-precision approach.

Per GPU generation, prices the FP64 baseline and the three applications
as sweep points; each point's joules come from the engine's busy-second
counters under the activity-based power law. Paper shapes asserted:

* the MP approach consumes (much) less total energy than FP64;
* Gflops/Watt improves with MP, most on V100 and least on A100/H100 for
  3D-sqexp (whose tiles concentrate in FP64/FP32, and FP64 already runs
  on tensor cores there);
* every MP application draws less average power than FP64 on the same
  GPU (lower precision draws less per second).

Known deviation: FP64's average power sits above the TDP on V100 and
A100 (the ROADMAP item "Energy: the FP64 calibration").
"""

import pytest

from conftest import full_mode
from repro.bench import fig10_rows, fig10_specs, format_table, write_csv

_HEADERS = ["config", "seconds", "kJ", "Gflops/W", "avg W"]


@pytest.mark.parametrize("gpu_name", ["V100", "A100", "H100"])
def test_fig10_energy(once, sweep, gpu_name):
    n = 61440 if gpu_name == "V100" else (122880 if full_mode() else 73728)
    rows = fig10_rows(once(sweep, fig10_specs(gpu_name, n), f"fig10-{gpu_name}"))
    print()
    print(format_table(_HEADERS, rows, title=f"Fig. 10 — {gpu_name} energy"))
    write_csv(f"fig10_energy_{gpu_name.lower()}", _HEADERS, rows)

    # label -> (kJ, Gflops/W, average W)
    by_label = {r[0]: (r[2], r[3], r[4]) for r in rows}
    fp64_kj, fp64_gpw, fp64_watts = by_label.pop("FP64")
    for label, (kj, gpw, watts) in by_label.items():
        if label == "3D-sqexp" and gpu_name != "V100":
            # paper, Section VII-E: on A100/H100 FP64 already runs on
            # tensor cores and 3D-sqexp's tiles concentrate in FP64/FP32,
            # so its energy savings all but vanish there — parity expected
            assert kj < fp64_kj * 1.10, f"{label} should be near FP64 energy on {gpu_name}"
        else:
            assert kj < fp64_kj, f"{label} must save energy vs FP64"
            assert gpw > fp64_gpw, f"{label} must improve Gflops/W"
        assert watts < fp64_watts, f"{label} must draw less average power than FP64"

    # 2D-sqexp (most low-precision tiles) saves the most energy of the apps
    assert by_label["2D-sqexp"][0] <= by_label["3D-sqexp"][0]
