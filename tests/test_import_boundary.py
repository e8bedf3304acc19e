"""Which heavy modules a run loads, each measured in a fresh interpreter.

SciPy is loaded where a kernel first needs it (the LAPACK ``?trtrs``
handles at the first TRSM, ``scipy.special`` at a Matérn ν that needs a
Bessel function, ``scipy.linalg`` at a solve) and ``http.server`` where a
live plane serves, so a symbolic run loads none of them, nor the
top-level ``scipy`` package: a run manifest reads SciPy's version from
the installed metadata.  The kernels that do need them must still work
from a cold start.  The engine layers (``repro.runtime``, ``repro.core``,
``repro.sweep``) do not import the live plane at all: it is a CLI
concern, checked on their source.
"""

from __future__ import annotations

import ast
import importlib.metadata
import json
import os
import subprocess
import sys
import textwrap

import pytest

HEAVY = ("scipy", "scipy.linalg", "scipy.special", "http.server", "ssl")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ENGINE = ("runtime", "core", "sweep")

SIMULATE = """
from repro.core import two_precision_map
from repro.core.solver import simulate_cholesky
from repro.perfmodel.gpus import V100
from repro.precision import Precision
from repro.runtime import Platform

rep = simulate_cholesky(8 * 512, 512, two_precision_map(8, Precision.FP16),
                        Platform.single_gpu(V100), stream={stream})
assert rep.makespan > 0
"""


def _run(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; return its ``result`` and the heavy modules loaded."""
    probe = textwrap.dedent(code) + textwrap.dedent(f"""
        import json, sys
        print(json.dumps({{"loaded": [m for m in {HEAVY!r} if m in sys.modules],
                           "result": globals().get("result")}}))
        """)
    out = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")},
    ).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("stream", [False, True], ids=["held", "streamed"])
def test_symbolic_simulate_loads_none(stream):
    assert _run(SIMULATE.format(stream=stream))["loaded"] == []


def test_cli_simulate_loads_none():
    code = """
        from repro.cli import main

        assert main(["simulate", "--n", "4096", "--nb", "512"]) in (0, None)
        """
    assert _run(code)["loaded"] == []


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "4096", "--nb", "512", "--metrics-out", "{out}/metrics.json"],
    ["sweep", "--n", "1024", "--nb", "256", "--config", "FP64", "--cache-dir", "{out}",
     "--progress-every", "-1"],
], ids=["simulate", "sweep"])
def test_manifest_names_scipy_without_loading_it(argv, tmp_path):
    """``simulate --metrics-out`` and a sweep point each write a manifest."""
    code = f"""
        import json
        from pathlib import Path
        from repro.cli import main

        assert main({[a.format(out=tmp_path) for a in argv]!r}) == 0
        result = [json.loads(p.read_text())["manifest"]["versions"]["scipy"]
                  for p in Path({str(tmp_path)!r}).glob("*.json")]
        """
    out = _run(code)
    assert out["loaded"] == []
    assert out["result"] == [importlib.metadata.version("scipy")]


def test_sqexp_likelihood_loads_no_special_function():
    code = """
        import math
        from repro.core import MPConfig
        from repro.geostats import SyntheticField
        from repro.geostats.likelihood import log_likelihood

        ds = SyntheticField.sqexp_2d(128, 1.0, 0.03, seed=0, nugget=0.01).sample()
        assert math.isfinite(log_likelihood(ds, ds.theta_true, MPConfig(accuracy=1e-4, tile_size=32)).value)
        """
    loaded = _run(code)["loaded"]
    assert "scipy.special" not in loaded and "http.server" not in loaded and "ssl" not in loaded
    assert "scipy.linalg" in loaded  # the TRSMs and the solve need LAPACK


def test_matern_from_a_cold_start():
    """ν = 1 reads ``k1``, any other non-closed-form ν ``kve``: both from
    the first call of a fresh process, to the oracle's digits."""
    code = """
        import math
        import numpy as np
        from repro.geostats.covariance import Matern

        h = np.array([0.0, 1e-3, 0.05, 0.3, 2.0])
        got = {nu: Matern(dim=2).correlation(h, (1.5, 0.1, nu)).tolist() for nu in (0.5, 1.0, 0.7)}
        import scipy.special
        s = h[1:] / 0.1
        want = {nu: [1.5] + (1.5 * 2 ** (1 - nu) / math.gamma(nu) * s ** nu
                             * scipy.special.kv(nu, s)).tolist() for nu in (0.5, 1.0, 0.7)}
        result = [np.allclose(got[nu], want[nu], rtol=1e-12, atol=0.0) for nu in got]
        """
    assert _run(code)["result"] == [True, True, True]


def test_trsm_from_a_cold_start():
    code = """
        import numpy as np
        from repro.precision import Precision
        from repro.tiles import kernels as tk

        rng = np.random.default_rng(0)
        a = rng.standard_normal((16, 16))
        lower = np.linalg.cholesky(a @ a.T + 16 * np.eye(16))
        c = rng.standard_normal((16, 16))
        import scipy.linalg
        want = scipy.linalg.solve_triangular(lower, c.T, lower=True).T
        result = [bool(np.allclose(tk.trsm(lower, c, p), want, rtol=tol, atol=tol))
                  for p, tol in ((Precision.FP64, 1e-13), (Precision.FP16, 1e-5))]
        """
    assert _run(code)["result"] == [True, True]


def test_a_serving_plane_loads_http_server():
    code = """
        from repro.obs.live import live_plane

        with live_plane() as plane:
            assert plane.port is None
        import sys
        quiet = "http.server" not in sys.modules
        with live_plane(port=0) as plane:
            result = [quiet, plane.port > 0]
        """
    out = _run(code)
    assert out["result"] == [True, True] and "http.server" in out["loaded"]


def _imported_modules(path: str, package: str) -> set[str]:
    """Every module ``path`` (a module of ``package``) imports, relative
    imports resolved, ``from a import b`` counted as ``a`` and ``a.b``."""
    names = set()
    for node in ast.walk(ast.parse(open(path, encoding="utf-8").read())):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            parts = package.split(".")
            base = parts[:len(parts) + 1 - node.level] if node.level else []
            module = ".".join(base + [node.module] if node.module else base)
            names |= {module} | {f"{module}.{alias.name}" for alias in node.names}
    return names


def _engine_imports_of(module: str) -> list[str]:
    """The engine modules whose source imports ``module``."""
    found = []
    for layer in ENGINE:
        for root, _dirs, files in os.walk(os.path.join(SRC, "repro", layer)):
            package = "repro." + os.path.relpath(root, os.path.join(SRC, "repro")).replace(os.sep, ".")
            for name in files:
                path = os.path.join(root, name)
                if name.endswith(".py") and module in _imported_modules(path, package):
                    found.append(os.path.relpath(path, SRC))
    return found


def test_engine_layers_do_not_import_the_live_plane():
    assert _engine_imports_of("repro.obs.live") == []


def test_the_import_scan_sees_relative_imports():
    """The scan resolves what the engine does import from ``repro.obs``."""
    assert "repro/runtime/simulator.py" in _engine_imports_of("repro.obs.emit_event")
    assert "repro/core/solver.py" in _engine_imports_of("repro.runtime.simulator")
