"""Platform description: ranks, nodes, and GPUs for a simulated run.

The paper deploys one MPI rank per GPU (6 per Summit node), laid out on a
P×Q process grid that is "as square as possible" with P ≤ Q.  A
:class:`Platform` binds a :class:`~repro.perfmodel.gpus.NodeSpec` to a
node count and provides the rank ↔ (node, local GPU) mapping the
simulator and the DAG builder share.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..perfmodel.gpus import GPUSpec, NodeSpec
from ..tiles.distribution import ProcessGrid

__all__ = ["Platform"]


@dataclass(frozen=True)
class Platform:
    """A set of ``n_nodes`` identical nodes; one rank per GPU."""

    node: NodeSpec
    n_nodes: int = 1

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be positive")

    @property
    def gpu(self) -> GPUSpec:
        return self.node.gpu

    @property
    def n_ranks(self) -> int:
        return self.n_nodes * self.node.gpus_per_node

    def node_of(self, rank: int) -> int:
        """Node index hosting ``rank``."""
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} outside platform of {self.n_ranks} ranks")
        return rank // self.node.gpus_per_node

    def local_gpu(self, rank: int) -> int:
        """GPU index of ``rank`` within its node."""
        return rank % self.node.gpus_per_node

    def process_grid(self) -> ProcessGrid:
        """The squarest P×Q grid over all ranks (Section VII-A)."""
        return ProcessGrid.squarest(self.n_ranks)

    @classmethod
    def of_gpus(
        cls,
        gpu: GPUSpec,
        gpus_per_node: int = 1,
        n_nodes: int = 1,
        *,
        host_memory: float = 256e9,
    ) -> "Platform":
        """``n_nodes`` generic nodes of ``gpus_per_node`` GPUs of one model.

        The one route from a run description (CLI flags, a sweep point, a
        figure driver) to a platform: every such node gets the same
        25 GB/s, 1.5 µs injection NIC as the paper's named machines
        (:mod:`repro.perfmodel.gpus`).  ``host_memory`` (bytes per node)
        shrinks the host tier for out-of-core studies.
        """
        # "cli" is part of the platform fingerprint of every schedule
        # `repro simulate --schedule-out` has exported; keep it replayable
        node = NodeSpec(
            name="cli",
            gpu=gpu,
            gpus_per_node=gpus_per_node,
            host_memory_bytes=host_memory,
            nic_bandwidth=25e9,
            nic_latency=1.5e-6,
        )
        return cls(node=node, n_nodes=n_nodes)

    @classmethod
    def single_gpu(cls, gpu: GPUSpec) -> "Platform":
        """One node with one GPU of the given model (Fig. 8/9/10 setups)."""
        return cls.of_gpus(gpu)
