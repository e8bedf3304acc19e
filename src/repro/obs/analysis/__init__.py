"""repro.obs.analysis — turn captured traces into the paper's evidence.

The capture flags (``--trace-out``, ``--metrics-out``, ``--events-out``)
record what happened; this subpackage *explains* it, the way Sections
VII-D/E argue the paper's claims:

* :mod:`~repro.obs.analysis.ledger` — the **data-motion ledger**: bytes
  per link (h2d/d2h/nic) per precision per rank, conversion passes
  attributed to sender-side (STC) vs receiver-side (TTC) sites, and the
  "bytes saved vs all-FP64" delta;
* :mod:`~repro.obs.analysis.critical_path` — the **critical path** of
  the simulated schedule (the longest end-time chain through
  compute/transfer events), per-engine slack, and bucketed utilization
  timelines, so occupancy/bottleneck claims are queryable instead of
  eyeballed from Perfetto;
* :mod:`~repro.obs.analysis.report` — loaders (run-summary JSON, event
  logs, run directories; the Perfetto trace is read by
  :func:`repro.obs.exporters.load_trace_events`) and the text/JSON
  rendering behind ``repro analyze``.

The regression sentinel that *gates* two run summaries lives beside
this package in :mod:`repro.obs.regress` (``repro compare``).
"""

from .critical_path import (
    CriticalPathResult,
    critical_path,
    engine_slack,
    utilization_timeline,
)
from .ledger import ConversionRow, DataMotionLedger, LedgerRow, build_ledger
from .report import analyze_path, analyze_trace, render_analysis

__all__ = [
    "ConversionRow",
    "CriticalPathResult",
    "DataMotionLedger",
    "LedgerRow",
    "analyze_path",
    "analyze_trace",
    "build_ledger",
    "critical_path",
    "engine_slack",
    "render_analysis",
    "utilization_timeline",
]
