"""Sweep grids: declarative campaigns over simulator configurations.

The paper's headline results are all sweeps — STC-vs-TTC comparisons
across matrix sizes (Fig. 8), weak/strong scaling grids (Fig. 12),
precision-configuration panels (Figs. 1, 7) — yet a single simulator
invocation prices exactly one point.  A :class:`SweepGrid` names the
axes once (sizes, tile sizes, precision configs, conversion strategies,
platforms, host memory, seeds) and expands them into the cartesian list of
:class:`RunSpec` points the campaign engine executes.

Every :class:`RunSpec` carries a deterministic cache key: the SHA-256
of its canonical JSON form plus a schema version.  Two specs with the
same parameters hash identically across processes and sessions, which
is what makes re-running an unchanged grid free (see
:mod:`repro.sweep.engine`).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Iterator, Mapping

from ..core.config import ConversionStrategy, MPConfig
from ..core.precision_map import FIXED_CONFIGS
from ..runtime.platform import DEFAULT_HOST_MEMORY_GB

__all__ = ["AXES", "RunSpec", "SweepGrid", "KERNEL_CONFIGS"]

#: schema version folded into every cache key — bump when the result
#: JSON layout or the simulation semantics change incompatibly
#: (3: per-precision d2h/nic byte splits + conversion-site attribution;
#:  4: scheduling policy becomes a spec field and sweep axis;
#:  5: spatial ordering becomes a spec field and sweep axis, adaptive
#:     results gain ordering/precision-map structure metrics;
#:  6: the spec drops its unbounded-memory switch and the strategy value
#:     that priced the same run as "auto";
#:  7: host memory per node becomes a spec field and sweep axis;
#:  8: results gain the run's joules and Gflops/W)
CACHE_SCHEMA = 8

#: supported kernel-precision configurations; "adaptive" builds the map
#: from sampled tile norms of the named application at ``accuracy``
KERNEL_CONFIGS = (*FIXED_CONFIGS, "adaptive")


@dataclass(frozen=True)
class RunSpec:
    """One point of a sweep: everything needed to price one run.

    ``config`` selects the kernel-precision map: one of the fixed
    configurations of Fig. 8 or ``"adaptive"``, in which case ``app``
    names the application whose sampled tile norms feed the Higham–Mary
    rule and ``accuracy`` (optional) overrides the application's
    ``u_req`` threshold.  ``host_memory_gb`` is the host DRAM of each
    node (Guyot's 2,063 GB in Fig. 11; tiles beyond it spill to disk; 0
    is a host with no room, priced as a one-byte host).
    """

    n: int
    nb: int
    config: str = "FP64"
    strategy: str = "auto"
    gpu: str = "V100"
    gpus_per_node: int = 1
    n_nodes: int = 1
    host_memory_gb: float = DEFAULT_HOST_MEMORY_GB
    app: str = "2d-matern"
    accuracy: float | None = None
    seed: int = 0
    policy: str = "panel-first"
    ordering: str = "morton"

    def __post_init__(self) -> None:
        from ..geostats.dataplane.hilbert import ORDERINGS
        from ..runtime.policies import POLICY_NAMES

        if self.n <= 0 or self.nb <= 0:
            raise ValueError(f"n and nb must be positive, got n={self.n}, nb={self.nb}")
        if self.config not in KERNEL_CONFIGS:
            raise ValueError(f"unknown config {self.config!r}; expected one of {KERNEL_CONFIGS}")
        strategies = tuple(s.value for s in ConversionStrategy)
        if self.strategy not in strategies:
            raise ValueError(f"unknown strategy {self.strategy!r}; expected one of {strategies}")
        if self.gpus_per_node < 1 or self.n_nodes < 1:
            raise ValueError("gpus_per_node and n_nodes must be positive")
        if not self.host_memory_gb >= 0:
            raise ValueError(f"host_memory_gb must be non-negative, got {self.host_memory_gb}")
        if self.policy not in POLICY_NAMES:
            raise ValueError(f"unknown policy {self.policy!r}; expected one of {POLICY_NAMES}")
        if self.ordering not in ORDERINGS:
            raise ValueError(
                f"unknown ordering {self.ordering!r}; expected one of {ORDERINGS}"
            )
        if self.accuracy is not None:
            MPConfig(accuracy=self.accuracy)  # raises outside (0, 1], NaN included
        if self.config == "adaptive":
            from ..bench.apps import get_app

            get_app(self.app)  # the one config that reads it

    @property
    def nt(self) -> int:
        return -(-self.n // self.nb)

    @property
    def platform(self) -> str:
        """``nodes x GPUs x model``, plus the host size when not the default."""
        plat = f"{self.n_nodes}x{self.gpus_per_node}x{self.gpu}"
        if self.host_memory_gb != DEFAULT_HOST_MEMORY_GB:
            plat += f" host={self.host_memory_gb:g}GB"
        return plat

    @property
    def label(self) -> str:
        cfg = self.config if self.config != "adaptive" else f"adaptive({self.app})"
        base = f"{cfg}/{self.strategy} n={self.n} nb={self.nb} {self.platform}"
        if self.policy != "panel-first":
            base += f" [{self.policy}]"
        if self.ordering != "morton":
            base += f" ord={self.ordering}"
        return base

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping[str, object]) -> "RunSpec":
        return cls(**dict(d))

    def cache_key(self) -> str:
        """Deterministic content hash of this spec (hex, 16 chars).

        Canonical JSON (sorted keys, no whitespace variance) of the spec
        plus the cache schema version; stable across processes, runs,
        and machines.
        """
        doc = {"schema": CACHE_SCHEMA, "spec": self.to_dict()}
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


#: the sweep axes: :class:`RunSpec`'s fields, in field order
AXES = tuple(f.name for f in fields(RunSpec))


@dataclass(frozen=True)
class SweepGrid:
    """A cartesian grid of :class:`RunSpec` points: one tuple of values per
    :data:`AXES` name.

    Axes with a single value may be given as scalars; expansion order is
    :data:`AXES` (``RunSpec``'s field order), which keeps run numbering
    deterministic.
    """

    n: tuple[int, ...] = (4096,)
    nb: tuple[int, ...] = (512,)
    config: tuple[str, ...] = ("FP64",)
    strategy: tuple[str, ...] = ("auto",)
    gpu: tuple[str, ...] = ("V100",)
    gpus_per_node: tuple[int, ...] = (1,)
    n_nodes: tuple[int, ...] = (1,)
    host_memory_gb: tuple[float, ...] = (DEFAULT_HOST_MEMORY_GB,)
    app: tuple[str, ...] = ("2d-matern",)
    accuracy: tuple[float | None, ...] = (None,)
    seed: tuple[int, ...] = (0,)
    policy: tuple[str, ...] = ("panel-first",)
    ordering: tuple[str, ...] = ("morton",)
    name: str = "sweep"

    @classmethod
    def from_axes(cls, **axes) -> "SweepGrid":
        """Build a grid, lifting scalar axis values to 1-tuples; an axis
        given as ``None`` (a repeatable flag never passed) keeps its default."""
        norm: dict[str, object] = {}
        for key, value in axes.items():
            if key == "name":
                norm[key] = value
            elif isinstance(value, (list, tuple)):
                norm[key] = tuple(value)
            elif value is not None:
                norm[key] = (value,)
        return cls(**norm)

    def _axes(self) -> list[tuple]:
        return [getattr(self, axis) for axis in AXES]

    def axes_dict(self) -> dict:
        """The grid's axes as plain JSON-ready values (for manifests)."""
        return {axis: list(values) for axis, values in zip(AXES, self._axes())}

    def __len__(self) -> int:
        return math.prod(map(len, self._axes()))

    def expand(self) -> list[RunSpec]:
        return list(iter(self))

    def __iter__(self) -> Iterator[RunSpec]:
        for values in itertools.product(*self._axes()):
            yield RunSpec(**dict(zip(AXES, values)))
