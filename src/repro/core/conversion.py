"""Automated precision conversion strategy (Section VI, Algorithm 2).

Tile Cholesky has two communication patterns: POTRF(k,k) broadcasts the
factored diagonal tile to the TRSMs of column k, and TRSM(m,k) broadcasts
the solved panel tile to the GEMMs of row m, the GEMMs of column m, and
SYRK(m,k).  Because the precision a receiver operates at may differ from
what the sender generates, a conversion is usually required — either at
the sender (*STC*) or at the receiver (*TTC*).

STC wins twice when applicable: the conversion happens once instead of in
every successive GEMM, and if it down-casts, every subsequent transfer
(network and host→device) moves fewer bytes.  But STC applied blindly
would either lose accuracy (successors may need more precision) or force
the sender to retain/broadcast multiple precisions of the same tile.  The
automated strategy therefore computes, per tile, the *communication
precision* — the highest precision any successor operates at, capped at
the sender's storage precision — and uses STC exactly when that lies
below the storage precision.

Faithfulness note: Algorithm 2 as printed iterates the row-broadcast
check "for n = k+1 to m", which with an inclusive bound would visit the
FP64 diagonal tile (m, m) and force every panel communication up to
storage precision (pure TTC) — contradicting Section VII-D's statement
that in the FP64/FP16 extreme configuration *all* communications employ
STC.  We therefore read the bound as exclusive (GEMM successors only) and
account for the SYRK successor by requiring the panel tile's *own* kernel
precision: by the selection rule, representing tile (m, k) at its own
kernel precision keeps the global error within ``u_req``, so the FP64
SYRK may consume the payload at that precision without additional loss.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..obs import emit_event, get_event_log
from ..precision.formats import Precision, get_storage_precision
from .config import ConversionStrategy
from .precision_map import KernelPrecisionMap

__all__ = [
    "CommPrecisionMap",
    "accumulator_encoding",
    "build_comm_precision_map",
    "encoding_width",
    "needs_conversion",
    "payload_encoding",
]


def payload_encoding(precision: Precision) -> str:
    """Word encoding of ``precision``: a tile on the wire, or a kernel's inputs.

    FP64/FP32 are native words; TF32 travels and is read as FP32 words
    (the truncation happens inside the tensor core); FP16_32 and FP16
    are half-precision words.
    """
    if precision == Precision.FP64:
        return "f64"
    if precision in (Precision.FP32, Precision.TF32):
        return "f32"
    if precision == Precision.BF16_32:
        return "bf16"
    return "f16"


def accumulator_encoding(kernel_precision: Precision) -> str:
    """Encoding of a kernel's in/out (accumulator) operand.

    The C operand of an FP16_32 GEMM stays in FP32 words even though the
    A/B inputs are read as halves; only pure FP16 keeps its accumulator
    in half words.
    """
    if kernel_precision == Precision.FP64:
        return "f64"
    if kernel_precision == Precision.FP16:
        return "f16"
    return "f32"


def encoding_width(encoding: str) -> Precision:
    """Representative precision of an encoding (for byte-width pricing)."""
    return {
        "f64": Precision.FP64,
        "f32": Precision.FP32,
        "bf16": Precision.BF16_32,
        "f16": Precision.FP16,
    }[encoding]


def needs_conversion(
    payload: Precision, consumer_kernel: Precision, role: str = "in"
) -> bool:
    """True when a consuming task must run a datatype-conversion pass.

    ``role`` distinguishes read-only inputs (``"in"`` — A/B operands,
    triangular factors) from in/out accumulators (``"inout"`` — the C
    operand of GEMM/SYRK, POTRF's tile).
    """
    needed = payload_encoding(consumer_kernel) if role == "in" else accumulator_encoding(consumer_kernel)
    return payload_encoding(payload) != needed


@dataclass
class CommPrecisionMap:
    """Output of Algorithm 2: per-tile communication precision.

    ``comm_codes[i, j]`` (lower triangle including diagonal) is the
    precision of the broadcast issued by the POTRF (i == j) or TRSM
    (i > j) operating on tile (i, j).  A tile uses STC when its
    communication precision is strictly below its storage precision.
    """

    nt: int
    comm_codes: np.ndarray
    storage_codes: np.ndarray

    def comm(self, i: int, j: int) -> Precision:
        if j > i:
            raise IndexError("communication precision is defined on the lower triangle")
        return Precision(int(self.comm_codes[i, j]))

    def storage(self, i: int, j: int) -> Precision:
        if j > i:
            i, j = j, i
        return Precision(int(self.storage_codes[i, j]))

    def is_stc(self, i: int, j: int) -> bool:
        """True when the task on tile (i, j) applies sender-side conversion."""
        return self.comm(i, j) < self.storage(i, j)

    def payload_codes(self, strategy: ConversionStrategy) -> np.ndarray:
        """Codes of the precision each tile's broadcast travels in: its
        storage under TTC, its communication precision under ``AUTO``."""
        return self.storage_codes if strategy == ConversionStrategy.TTC else self.comm_codes

    def payload(self, i: int, j: int, strategy: ConversionStrategy) -> Precision:
        """Precision in which tile (i, j)'s broadcast actually travels."""
        if j > i:
            raise IndexError("communication precision is defined on the lower triangle")
        return Precision(int(self.payload_codes(strategy)[i, j]))

    # -- statistics -------------------------------------------------------
    def _broadcast_mask(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower-triangle indices of tiles that issue a broadcast."""
        il, jl = np.tril_indices(self.nt)
        # POTRF(NT-1) issues no broadcast
        keep = ~((il == jl) & (il == self.nt - 1))
        return il[keep], jl[keep]

    def stc_counts(self) -> tuple[int, int]:
        """(n_stc, n_broadcasts) over all communicating tiles."""
        il, jl = self._broadcast_mask()
        n_stc = int(np.count_nonzero(self.comm_codes[il, jl] < self.storage_codes[il, jl]))
        return n_stc, int(il.size)

    def stc_fraction(self) -> float:
        """Fraction of communicating tiles that qualify for STC."""
        n_stc, total = self.stc_counts()
        return n_stc / total if total else 0.0

    def render(self) -> str:
        """ASCII rendering of Fig. 4b (lowercase marks STC tiles)."""
        glyph = {
            Precision.FP64: "D",
            Precision.FP32: "S",
            Precision.TF32: "T",
            Precision.FP16_32: "H",
            Precision.BF16_32: "B",
            Precision.FP16: "Q",
        }
        lines = []
        for i in range(self.nt):
            row = []
            for j in range(i + 1):
                g = glyph[self.comm(i, j)]
                row.append(g.lower() if self.is_stc(i, j) else g)
            lines.append(" ".join(row))
        # derive the legend from the glyph table so they cannot drift
        legend = " ".join(f"{g}={p.name}" for p, g in glyph.items()) + "; lowercase = STC"
        return "\n".join(lines) + f"\n[{legend}]"


#: code → storage-precision code, indexable by the Precision lattice rank
_STORAGE_CODE_LUT = np.array(
    [int(get_storage_precision(p)) for p in sorted(Precision)], dtype=np.int8
)
#: code → payload encoding, indexed the same way
_ENCODING_LUT = np.array([payload_encoding(p) for p in sorted(Precision)])


def build_comm_precision_map(kmap: KernelPrecisionMap) -> CommPrecisionMap:
    """Algorithm 2: derive the communication-precision map from Fig. 2a.

    Vectorized O(NT²) formulation of the paper's O(NT³) pseudocode.  The
    scan with early exit that Algorithm 2 runs per tile computes, for
    tile (m, k),

        comm(m, k) = min(storage(m, k),
                         max(kernel(m, k),                 # SYRK successor
                             max_{k < n < m} kernel(m, n), # row broadcast
                             max_{m < n} kernel(n, m)))    # column broadcast

    The row term is a reversed cumulative max (suffix max) along each
    lower-triangle row and the column term a per-column max of the
    strictly-lower triangle, so the whole map falls out of three NumPy
    scans.  Bit-identical to the literal triple loop of the paper's
    pseudocode, which lives in the test tree as the oracle
    (``tests/comm_map_oracle.py``, asserted by property test).
    """
    nt = kmap.nt
    codes = np.asarray(kmap.codes, dtype=np.int8)
    comm = np.full((nt, nt), int(Precision.FP64), dtype=np.int8)
    storage = np.full((nt, nt), int(Precision.FP64), dtype=np.int8)

    # storage map: lower triangle from the kernel map, mirrored upward
    s = _STORAGE_CODE_LUT[codes]
    il, jl = np.tril_indices(nt)
    storage[il, jl] = s[il, jl]
    storage[jl, il] = s[il, jl]

    # strictly-lower entries only; -1 sentinels sort below every code
    strict_lower = np.tril(np.ones((nt, nt), dtype=bool), k=-1)
    masked = np.where(strict_lower, codes, np.int8(-1))

    # suffix max along rows: row_sfx[m, k] = max_{n ≥ k, n < m} kernel(m, n)
    row_sfx = np.maximum.accumulate(masked[:, ::-1], axis=1)[:, ::-1]
    # exclusive variant: max over k < n < m (shift left by one column)
    row_succ = np.full((nt, nt), np.int8(-1), dtype=np.int8)
    if nt > 1:
        row_succ[:, :-1] = row_sfx[:, 1:]
    # column max below the diagonal: col_succ[m] = max_{n > m} kernel(n, m)
    col_succ = masked.max(axis=0) if nt else masked.diagonal()

    # Diagonal tiles (k, k) operating POTRF(k, k): successors are the
    # TRSMs of column k, which execute in FP64 only when their tile's
    # kernel precision is FP64 (otherwise FP32 — the hardware TRSM floor).
    diag = np.where(
        col_succ == np.int8(int(Precision.FP64)),
        np.int8(int(Precision.FP64)),
        np.int8(int(Precision.FP32)),
    )
    if nt:
        diag[-1] = np.int8(int(Precision.FP64))  # no successors; no broadcast
    comm[np.arange(nt), np.arange(nt)] = diag

    # Off-diagonal tiles (m, k) operating TRSM(m, k): the SYRK successor
    # requires the tile's own kernel precision (see module docstring),
    # the GEMM successors the row/column maxima, capped at storage; a payload
    # in its storage's encoding (TF32 under FP32) is the storage: no STC copy.
    io, jo = np.nonzero(strict_lower)
    if io.size:
        sto = storage[io, jo]
        need = np.minimum(sto, np.maximum(np.maximum(codes[io, jo], row_succ[io, jo]), col_succ[io]))
        comm[io, jo] = np.where(_ENCODING_LUT[need] == _ENCODING_LUT[sto], sto, need)

    cmap = CommPrecisionMap(nt=nt, comm_codes=comm, storage_codes=storage)
    _emit_comm_decision(cmap)
    return cmap


def _emit_comm_decision(cmap: CommPrecisionMap) -> None:
    """Structured decision log for Algorithm 2: STC vs TTC per edge.

    The "why" per tile is the comparison Algorithm 2 ends on — STC
    exactly when the communication precision sits strictly below the
    storage precision.  ``map`` hashes the comm codes; the ``comm``
    column (lower triangle in ``np.tril_indices`` order) rides only on
    the first event of each ``map`` in the log.  Storage, and so the
    STC/TTC choice, follows from the kernel map's column.
    """
    log = get_event_log()
    if log is None:  # keep the planning hot path free
        return
    n_stc, n_total = cmap.stc_counts()
    key = hashlib.blake2b(cmap.comm_codes.tobytes(), digest_size=8).hexdigest()
    attrs: dict[str, object] = {
        "nt": cmap.nt,
        "n_broadcasts": n_total,
        "n_stc": n_stc,
        "n_ttc": n_total - n_stc,
        "stc_fraction": cmap.stc_fraction(),
        "map": key,
    }
    if log.first_time(("comm_map.built", key)):
        attrs["comm"] = cmap.comm_codes[np.tril_indices(cmap.nt)].tolist()
    emit_event("comm_map.built", attrs)
