"""Fig. 11: precision conversion strategies on one multi-GPU node.

Summit node (6 × V100) and Guyot (8 × A100).  Paper shapes: near-linear
scaling from one GPU to the full node, >80 % FP64/FP32 efficiency vs the
node's aggregate peak, STC over TTC up to 1.66×, and ~10× from FP64 to
FP64/FP16.
"""

import pytest

from conftest import full_mode
from repro.bench import MACHINES, format_table, strategy_rows, strategy_specs, write_csv
from repro.perfmodel import GUYOT_NODE, SUMMIT_NODE
from repro.precision import Precision
from repro.sweep import RunSpec

_HEADERS = ["config", "gpus", "n", "strategy", "Tflop/s", "seconds", "H2D GB", "conversions"]


@pytest.mark.parametrize("node_name", ["summit", "guyot"])
def test_fig11_single_node(once, sweep, node_name):
    sizes = (61440, 90112) if not full_mode() else (32768, 61440, 90112, 122880)
    result = once(sweep, strategy_specs(node_name, sizes), f"fig11-{node_name}")
    rows = strategy_rows(result)
    print()
    print(format_table(_HEADERS, rows, title=f"Fig. 11 — {node_name} node"))
    write_csv(f"fig11_{node_name}", _HEADERS, rows)

    node = {"summit": SUMMIT_NODE, "guyot": GUYOT_NODE}[node_name]
    peak64_node = node.gpus_per_node * node.gpu.peak(Precision.FP64) / 1e12
    largest = max(sizes)
    at = {(r[0], r[3]): r[4] for r in rows if r[2] == largest}

    if node_name == "guyot":
        # Guyot's 2,063 GB host holds every tile: nothing spills to disk
        assert all(run.result["disk_write_bytes"] == 0 for run in result.runs)

    # FP64 efficiency vs the node's aggregate peak
    eff = at[("FP64", "STC")] / peak64_node
    assert eff > 0.55, f"{node_name} node FP64 efficiency {eff:.2f}"

    # STC ≥ TTC throughout; ratio within the paper's observed band
    for label in ("FP64/FP16_32", "FP64/FP16"):
        ratio = at[(label, "STC")] / at[(label, "TTC")]
        assert 1.0 <= ratio <= 1.8, f"{node_name} {label} STC/TTC {ratio:.2f}"

    # multi-GPU speedup over a single GPU of the same model (near-linear)
    single = RunSpec(n=largest, nb=2048, config="FP64", gpu=MACHINES[node_name]["gpu"])
    s64 = sweep([single], f"fig11-{node_name}-1gpu").runs[0].result["tflops"]
    scaling = at[("FP64", "STC")] / s64
    assert scaling > 0.55 * node.gpus_per_node, (
        f"{node_name}: only {scaling:.1f}x over 1 GPU with {node.gpus_per_node} GPUs"
    )

    # FP64 → FP64/FP16 gain on the full node
    gain = at[("FP64/FP16", "STC")] / at[("FP64", "STC")]
    assert gain > 2.5, f"{node_name} FP64→FP64/FP16 gain {gain:.1f}"
