"""Tile-centric kernel-precision selection (Section V, Fig. 2a/2b, Fig. 7).

The covariance matrix of a stationary Gaussian field decays away from the
diagonal, so off-diagonal tiles can run their kernels in reduced
precision.  The selection rule of Higham & Mary, as deployed by the
paper:

    ‖A_ij‖_F · NT / ‖A‖_F  ≤  u_req / u_low

A tile may use a format with machine epsilon ``u_low`` whenever its share
of the global norm is below ``u_req/u_low``.  Diagonal tiles always use
FP64 (they hold the strongest correlations and feed POTRF/SYRK, which are
FP64-only in the framework).

:class:`KernelPrecisionMap` stores the per-tile selection, derives the
storage map of Fig. 2b (FP16-class tiles rest in FP32 because TRSM cannot
run below FP32), and computes the per-precision tile fractions reported
in Fig. 7.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..obs import emit_event, get_event_log
from ..precision.formats import (
    ADAPTIVE_FORMATS,
    Precision,
    get_storage_precision,
    rule_epsilon,
    validate_adaptive_set,
)
from ..tiles.norms import global_norm_from_tile_norms

__all__ = [
    "FIXED_CONFIGS",
    "KernelPrecisionMap",
    "build_precision_map",
    "fixed_config_map",
    "two_precision_map",
    "uniform_map",
    "band_precision_map",
]

#: the four extreme configurations every performance figure (8–12) sweeps:
#: label → off-diagonal kernel precision (the diagonal is always FP64)
FIXED_CONFIGS: dict[str, Precision] = {
    "FP64": Precision.FP64,
    "FP32": Precision.FP32,
    "FP64/FP16_32": Precision.FP16_32,
    "FP64/FP16": Precision.FP16,
}


#: ``Precision`` by code, indexable by a map's int8 codes
_PRECISIONS = tuple(sorted(Precision))


def precision_rows(codes: np.ndarray) -> list[list[Precision]]:
    """An NT×NT code array as nested lists: ``rows[i][j]`` is the
    ``Precision`` of code ``(i, j)``.  Built once before a tile loop, which
    then indexes plain lists."""
    return [[_PRECISIONS[c] for c in row] for row in codes.tolist()]


@dataclass
class KernelPrecisionMap:
    """Per-tile kernel precision of an NT×NT tiled symmetric matrix."""

    nt: int
    #: int8 array of Precision values, full NT×NT (mirrored)
    codes: np.ndarray

    def __post_init__(self) -> None:
        self.codes = np.asarray(self.codes, dtype=np.int8)
        if self.codes.shape != (self.nt, self.nt):
            raise ValueError(f"expected a {self.nt}×{self.nt} map, got {self.codes.shape}")

    def kernel(self, i: int, j: int) -> Precision:
        """Kernel precision of the task operating on tile (i, j)."""
        return Precision(int(self.codes[i, j]))

    def storage(self, i: int, j: int) -> Precision:
        """Storage precision of tile (i, j) (Fig. 2b)."""
        return get_storage_precision(self.kernel(i, j))

    def __call__(self, i: int, j: int) -> Precision:
        return self.kernel(i, j)

    # -- statistics -------------------------------------------------------
    def tile_fractions(self) -> dict[Precision, float]:
        """Fraction of lower-triangle tiles per precision (the Fig. 7 percentages)."""
        vals = self.codes[np.tril_indices(self.nt)]
        total = vals.size
        out: dict[Precision, float] = {}
        for prec in Precision:
            count = int(np.sum(vals == int(prec)))
            if count:
                out[prec] = count / total
        return out

    def count_below(self, threshold: Precision) -> int:
        """Lower-triangle tiles whose kernel precision is below ``threshold``.

        ``count_below(Precision.FP32)`` counts the FP16-class tiles —
        the "low precision" population the ordering experiments compare
        (spatially coherent orderings push more tiles under the
        Higham–Mary bound).
        """
        il, jl = np.tril_indices(self.nt)
        return int(np.sum(self.codes[il, jl] < int(threshold)))

    def fp64_band_width(self) -> int:
        """Width of the FP64 band: max |i − j| + 1 over FP64 tiles.

        For the banded maps spatial ordering produces, this is the
        number of tile diagonals pinned to FP64 (1 = diagonal only);
        random orderings degenerate to the full width NT.
        """
        fp64 = self.codes == int(Precision.FP64)
        i, j = np.nonzero(fp64)
        if i.size == 0:
            return 0
        return int(np.max(np.abs(i - j))) + 1

    def render(self) -> str:
        """ASCII heatmap of the kernel map (Fig. 2a / Fig. 7 style)."""
        glyph = {
            Precision.FP64: "D",
            Precision.FP32: "S",
            Precision.TF32: "T",
            Precision.FP16_32: "h",
            Precision.BF16_32: "b",
            Precision.FP16: ".",
        }
        lines = []
        for i in range(self.nt):
            row = [glyph[self.kernel(i, j)] for j in range(i + 1)]
            lines.append(" ".join(row))
        legend = "D=FP64 S=FP32 T=TF32 h=FP16_32 b=BF16_32 .=FP16"
        return "\n".join(lines) + f"\n[{legend}]"


def build_precision_map(
    tile_norms: np.ndarray,
    accuracy: float,
    formats: Sequence[Precision] = ADAPTIVE_FORMATS,
) -> KernelPrecisionMap:
    """Apply the Higham–Mary rule to a (mirrored) tile-norm array.

    For each off-diagonal tile the *narrowest* format whose
    ``u_req/u_low`` bound admits the tile's relative norm is selected;
    diagonal tiles are pinned to FP64.  FP64 always qualifies, so the
    selection is total.
    """
    tile_norms = np.asarray(tile_norms, dtype=np.float64)
    if tile_norms.ndim != 2 or tile_norms.shape[0] != tile_norms.shape[1]:
        raise ValueError("tile_norms must be a square NT×NT array")
    formats = validate_adaptive_set(formats)  # widest → narrowest
    nt = tile_norms.shape[0]
    bounds = {prec.name: accuracy / rule_epsilon(prec) for prec in formats}
    codes = np.full((nt, nt), int(Precision.FP64), dtype=np.int8)
    global_norm = global_norm_from_tile_norms(tile_norms)
    if global_norm > 0.0:
        rel = tile_norms * nt / global_norm
        # probe from widest to narrowest; the narrowest qualifying format wins
        for prec in formats:
            codes[rel <= bounds[prec.name]] = int(prec)
        np.fill_diagonal(codes, int(Precision.FP64))
    else:  # an all-zero matrix has no norm shares to rank: all FP64
        rel = np.zeros((nt, nt))
    kmap = KernelPrecisionMap(nt=nt, codes=codes)
    _emit_map_decision(kmap, accuracy, bounds, rel)
    return kmap


def _emit_map_decision(
    kmap: KernelPrecisionMap,
    accuracy: float,
    bounds: dict[str, float],
    rel: np.ndarray,
) -> None:
    """Structured decision log: which tile got which precision and why.

    The "why" is the Higham–Mary rule itself: a tile's relative norm
    share against each format's ``u_req/u_low`` bound.  ``map`` hashes
    the codes and the bounds; the per-tile columns (``kernel`` codes and
    ``rel_norm``, lower triangle in ``np.tril_indices`` order) ride only
    on the first event of each ``map`` in the log — equal codes under
    equal bounds put every tile in the same bound interval.
    """
    log = get_event_log()
    if log is None:  # keep the planning hot path free
        return
    key = hashlib.blake2b(kmap.codes.tobytes() + repr(bounds).encode(), digest_size=8).hexdigest()
    attrs: dict[str, object] = {
        "nt": kmap.nt,
        "accuracy": accuracy,
        "rule_bounds": bounds,
        "fractions": {p.name: f for p, f in sorted(kmap.tile_fractions().items(), reverse=True)},
        "map": key,
    }
    if log.first_time(("precision_map.built", key)):
        tril = np.tril_indices(kmap.nt)
        attrs["kernel"] = kmap.codes[tril].tolist()
        attrs["rel_norm"] = rel[tril].tolist()
    emit_event("precision_map.built", attrs)


def two_precision_map(nt: int, low: Precision) -> KernelPrecisionMap:
    """Fig. 8's extreme map: FP64 on the diagonal, ``low`` everywhere else."""
    codes = np.full((nt, nt), int(low), dtype=np.int8)
    np.fill_diagonal(codes, int(Precision.FP64))
    return KernelPrecisionMap(nt=nt, codes=codes)


def fixed_config_map(nt: int, label: str) -> KernelPrecisionMap:
    """The map of one :data:`FIXED_CONFIGS` label."""
    return two_precision_map(nt, FIXED_CONFIGS[label])


def uniform_map(nt: int, precision: Precision) -> KernelPrecisionMap:
    """Single-precision map (FP64 or FP32 baselines of Fig. 8/12).

    The diagonal stays FP64 — POTRF/SYRK are FP64-only in the framework —
    so ``uniform_map(nt, FP64)`` is the true FP64 baseline and
    ``uniform_map(nt, FP32)`` matches the paper's "FP32" configuration.
    """
    return two_precision_map(nt, precision)


def band_precision_map(
    nt: int,
    band_widths: Sequence[tuple[int, Precision]],
) -> KernelPrecisionMap:
    """Band-based assignment (the related-work baseline of [12], [13]).

    ``band_widths`` lists ``(max_distance_from_diagonal, precision)``
    pairs in increasing distance order; tiles beyond the last band get the
    last precision.  Used by the band-vs-norm ablation bench.
    """
    if not band_widths:
        raise ValueError("band_widths must not be empty")
    idx = np.arange(nt)
    distance = np.abs(idx[:, None] - idx[None, :])
    codes = np.full((nt, nt), int(band_widths[-1][1]), dtype=np.int8)
    for dist, prec in reversed(band_widths):
        codes[distance <= dist] = int(prec)
    np.fill_diagonal(codes, int(Precision.FP64))
    return KernelPrecisionMap(nt=nt, codes=codes)
