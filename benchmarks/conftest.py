"""Shared helpers for the benchmark harness.

Run with::

    pytest benchmarks/ --benchmark-only

Environment knobs:

* ``REPRO_FULL=1`` — run every Monte Carlo panel / the full size sweeps
  (the defaults are scaled to finish on one laptop CPU in minutes).
* ``REPRO_RESULTS_DIR`` — where CSV outputs land (default ``./results``).
"""

from __future__ import annotations

import os

import pytest

from repro.sweep import run_sweep


def full_mode() -> bool:
    return os.environ.get("REPRO_FULL", "0") not in ("", "0", "false")


@pytest.fixture
def once(benchmark):
    """Run a heavy experiment exactly once under pytest-benchmark timing."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run


@pytest.fixture(scope="session")
def sweep(tmp_path_factory):
    """Price a list of RunSpecs through :func:`repro.sweep.run_sweep`.

    The cache lives for this session only: a cache key covers the spec,
    not the code, so a persistent cache would serve stale figures.
    """
    cache_dir = tmp_path_factory.mktemp("sweep-cache")

    def _run(specs, name):
        return run_sweep(specs, cache_dir=cache_dir, name=name, progress_seconds=None)

    return _run
