"""Dynamic Task Discovery (DTD) — PaRSEC's task-insertion interface.

Besides the PTG, PaRSEC offers Dynamic Task Discovery (Hoque et al.,
ScalA'17; Section III-B of the paper): the programmer inserts tasks
sequentially with declared data accesses, and the runtime infers the
dependency graph from data hazards.  This module implements that
programming model on top of :class:`~repro.runtime.task.TaskGraph`:

* ``INPUT`` accesses depend on the last writer of the datum;
* ``INOUT``/``OUTPUT`` accesses additionally order against the previous
  version (read-after-write, write-after-read and write-after-write
  hazards resolve through version bumping — each write creates the next
  version of the tile, which is how the simulator and executors already
  key their payloads).

The DTD-built Cholesky unrolls to the *same* graph as the PTG
(asserted by tests), demonstrating the two DSLs' equivalence the paper
leans on — while the insertion-order API trades the PTG's compact
algebraic description for imperative convenience.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..precision.formats import Precision
from .task import TaskGraph, TaskInput, TileRef

__all__ = ["AccessMode", "DataAccess", "DTDRuntime"]


class AccessMode(enum.Enum):
    """Data access declaration of one task operand."""

    INPUT = "input"
    INOUT = "inout"
    OUTPUT = "output"


@dataclass(frozen=True)
class DataAccess:
    """One operand of an inserted task.

    ``payload_precision`` — precision the datum travels in when it comes
    from a remote producer (Algorithm 2's communication precision);
    defaults to the storage precision.
    """

    tile: tuple[int, int]
    mode: AccessMode
    payload_precision: Precision | None = None
    storage_precision: Precision = Precision.FP64
    elements: int | None = None


class DTDRuntime:
    """Sequential task insertion with automatic dependency inference."""

    def __init__(self, *, default_elements: int = 1) -> None:
        self.graph = TaskGraph()
        #: last written version per tile and the task that wrote it
        self._version: dict[tuple[int, int], int] = {}
        self._writer: dict[tuple[int, int], int | None] = {}
        self._default_elements = default_elements

    # -- insertion --------------------------------------------------------
    def insert_task(
        self,
        kind: str,
        params: tuple[int, ...],
        accesses: list[DataAccess],
        *,
        rank: int = 0,
        precision: Precision = Precision.FP64,
        flops: float = 0.0,
        output_precision: Precision | None = None,
        sender_conversion: tuple[Precision, Precision] | None = None,
        priority: int = 0,
    ):
        """Insert one task; dependencies are inferred from ``accesses``.

        Exactly one ``INOUT``/``OUTPUT`` access is required (the tile the
        task writes — matching the tile-algorithm structure where every
        kernel has a single output tile).
        """
        writes = [a for a in accesses if a.mode in (AccessMode.INOUT, AccessMode.OUTPUT)]
        if len(writes) != 1:
            raise ValueError(f"{kind}{params}: exactly one INOUT/OUTPUT access required")
        write = writes[0]

        inputs: list[TaskInput] = []
        for acc in accesses:
            tile = acc.tile
            version = self._version.get(tile, 0)
            producer = self._writer.get(tile)
            if acc.mode == AccessMode.OUTPUT:
                continue  # write-only: no incoming dataflow for this operand
            # NB: Precision.FP16 is enum value 0 (falsy) — test identity
            payload = (
                acc.payload_precision
                if acc.payload_precision is not None
                else acc.storage_precision
            )
            inputs.append(
                TaskInput(
                    producer=producer,
                    tile=TileRef(tile[0], tile[1], version),
                    payload_precision=payload,
                    storage_precision=acc.storage_precision,
                    elements=acc.elements or self._default_elements,
                    role="in" if acc.mode == AccessMode.INPUT else "inout",
                )
            )

        out_tile = write.tile
        out_version = self._version.get(out_tile, 0) + 1
        task = self.graph.new_task(
            kind=kind,
            params=params,
            rank=rank,
            precision=precision,
            flops=flops,
            output=TileRef(out_tile[0], out_tile[1], out_version),
            output_precision=(
                output_precision if output_precision is not None
                else write.storage_precision
            ),
            inputs=inputs,
            sender_conversion=sender_conversion,
            priority=priority,
        )
        self._version[out_tile] = out_version
        self._writer[out_tile] = task.tid
        return task

    # -- completion --------------------------------------------------------
    def finalize(self) -> TaskGraph:
        """Freeze insertion and return the discovered task graph."""
        self.graph.finalize()
        return self.graph

    def current_version(self, tile: tuple[int, int]) -> int:
        """Version the next reader of ``tile`` would observe."""
        return self._version.get(tile, 0)
