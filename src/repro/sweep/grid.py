"""Sweep grids: declarative campaigns over simulator configurations.

The paper's headline results are all sweeps — STC-vs-TTC comparisons
across matrix sizes (Fig. 8), weak/strong scaling grids (Fig. 12),
precision-configuration panels (Figs. 1, 7) — yet a single simulator
invocation prices exactly one point.  A :class:`SweepGrid` names the
axes once (sizes, tile sizes, precision configs, conversion strategies,
platforms, seeds) and expands them into the cartesian list of
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
from dataclasses import asdict, dataclass, field
from typing import Iterator, Mapping

from ..core.precision_map import FIXED_CONFIGS

__all__ = ["RunSpec", "SweepGrid", "KERNEL_CONFIGS", "ORDERINGS"]

#: schema version folded into every cache key — bump when the result
#: JSON layout or the simulation semantics change incompatibly
#: (3: per-precision d2h/nic byte splits + conversion-site attribution;
#:  4: scheduling policy becomes a spec field and sweep axis;
#:  5: spatial ordering becomes a spec field and sweep axis, adaptive
#:     results gain ordering/precision-map structure metrics)
CACHE_SCHEMA = 5

#: supported kernel-precision configurations; "adaptive" builds the map
#: from sampled tile norms of the named application at ``accuracy``
KERNEL_CONFIGS = (*FIXED_CONFIGS, "adaptive")

#: spatial orderings applied to the application's locations before the
#: precision map is sampled (see repro.geostats.dataplane)
ORDERINGS = ("morton", "random", "hilbert")


@dataclass(frozen=True)
class RunSpec:
    """One point of a sweep: everything needed to price one run.

    ``config`` selects the kernel-precision map: one of the fixed
    configurations of Fig. 8 or ``"adaptive"``, in which case ``app``
    names the application whose sampled tile norms feed the Higham–Mary
    rule and ``accuracy`` (optional) overrides the application's
    ``u_req`` threshold.
    """

    n: int
    nb: int
    config: str = "FP64"
    strategy: str = "auto"
    gpu: str = "V100"
    gpus_per_node: int = 1
    n_nodes: int = 1
    app: str = "2d-matern"
    accuracy: float | None = None
    seed: int = 0
    policy: str = "panel-first"
    ordering: str = "morton"
    enforce_memory: bool = True

    def __post_init__(self) -> None:
        from ..runtime.policies import POLICY_NAMES

        if self.n <= 0 or self.nb <= 0:
            raise ValueError(f"n and nb must be positive, got n={self.n}, nb={self.nb}")
        if self.config not in KERNEL_CONFIGS:
            raise ValueError(f"unknown config {self.config!r}; expected one of {KERNEL_CONFIGS}")
        if self.strategy not in ("auto", "stc", "ttc"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.gpus_per_node < 1 or self.n_nodes < 1:
            raise ValueError("gpus_per_node and n_nodes must be positive")
        if self.policy not in POLICY_NAMES:
            raise ValueError(f"unknown policy {self.policy!r}; expected one of {POLICY_NAMES}")
        if self.ordering not in ORDERINGS:
            raise ValueError(
                f"unknown ordering {self.ordering!r}; expected one of {ORDERINGS}"
            )

    @property
    def nt(self) -> int:
        return -(-self.n // self.nb)

    @property
    def label(self) -> str:
        plat = f"{self.n_nodes}x{self.gpus_per_node}x{self.gpu}"
        cfg = self.config if self.config != "adaptive" else f"adaptive({self.app})"
        base = f"{cfg}/{self.strategy} n={self.n} nb={self.nb} {plat}"
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


@dataclass(frozen=True)
class SweepGrid:
    """A cartesian grid of :class:`RunSpec` points.

    Axes with a single value may be given as scalars; expansion order is
    the documented field order (n, nb, config, strategy, gpu,
    gpus_per_node, n_nodes, app, accuracy, seed, policy, ordering),
    which keeps run numbering deterministic.
    """

    n: tuple[int, ...] = (4096,)
    nb: tuple[int, ...] = (512,)
    config: tuple[str, ...] = ("FP64",)
    strategy: tuple[str, ...] = ("auto",)
    gpu: tuple[str, ...] = ("V100",)
    gpus_per_node: tuple[int, ...] = (1,)
    n_nodes: tuple[int, ...] = (1,)
    app: tuple[str, ...] = ("2d-matern",)
    accuracy: tuple[float | None, ...] = (None,)
    seed: tuple[int, ...] = (0,)
    policy: tuple[str, ...] = ("panel-first",)
    ordering: tuple[str, ...] = ("morton",)
    enforce_memory: bool = True
    name: str = "sweep"
    extra: Mapping[str, object] = field(default_factory=dict)

    @classmethod
    def from_axes(cls, **axes) -> "SweepGrid":
        """Build a grid, lifting scalar axis values to 1-tuples."""
        norm: dict[str, object] = {}
        for key, value in axes.items():
            if key in ("enforce_memory", "name", "extra"):
                norm[key] = value
            elif isinstance(value, (list, tuple)):
                norm[key] = tuple(value)
            else:
                norm[key] = (value,)
        return cls(**norm)

    def axes_dict(self) -> dict:
        """The grid's axes as plain JSON-ready values (for manifests)."""
        return {
            "n": list(self.n),
            "nb": list(self.nb),
            "config": list(self.config),
            "strategy": list(self.strategy),
            "gpu": list(self.gpu),
            "gpus_per_node": list(self.gpus_per_node),
            "n_nodes": list(self.n_nodes),
            "app": list(self.app),
            "accuracy": list(self.accuracy),
            "seed": list(self.seed),
            "policy": list(self.policy),
            "ordering": list(self.ordering),
            "enforce_memory": self.enforce_memory,
        }

    def __len__(self) -> int:
        size = 1
        for axis in (self.n, self.nb, self.config, self.strategy, self.gpu,
                     self.gpus_per_node, self.n_nodes, self.app, self.accuracy,
                     self.seed, self.policy, self.ordering):
            size *= len(axis)
        return size

    def expand(self) -> list[RunSpec]:
        return list(iter(self))

    def __iter__(self) -> Iterator[RunSpec]:
        for (n, nb, config, strategy, gpu, gpn, nodes, app, accuracy, seed,
             policy, ordering) in itertools.product(
                self.n, self.nb, self.config, self.strategy, self.gpu,
                self.gpus_per_node, self.n_nodes, self.app, self.accuracy,
                self.seed, self.policy, self.ordering,
        ):
            yield RunSpec(
                n=n,
                nb=nb,
                config=config,
                strategy=strategy,
                gpu=gpu,
                gpus_per_node=gpn,
                n_nodes=nodes,
                app=app,
                accuracy=accuracy,
                seed=seed,
                policy=policy,
                ordering=ordering,
                enforce_memory=self.enforce_memory,
            )
