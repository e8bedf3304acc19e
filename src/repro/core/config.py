"""Configuration of the adaptive mixed-precision framework."""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

from ..precision.formats import ADAPTIVE_FORMATS, Precision, validate_adaptive_set

__all__ = ["ConversionStrategy", "MPConfig"]


class ConversionStrategy(enum.Enum):
    """Where datatype conversion happens for each communication (Section VI).

    * ``TTC`` — receiver/target task conversion: the sender forwards data
      in the precision it generates (storage precision); every consuming
      task converts locally.  The baseline of [18], [38] and the lower
      bound of Fig. 8.
    * ``STC`` — sender/source task conversion: the sender down-casts once
      to the highest precision any successor needs, shrinking every
      transfer.  The upper bound of Fig. 8 (applicable to all
      communications only in the extreme two-precision configurations).
    * ``AUTO`` — the paper's automated strategy: per-communication choice,
      STC whenever all successors operate at lower precision than the
      sender's storage, TTC otherwise (Algorithm 2).
    """

    TTC = "ttc"
    STC = "stc"
    AUTO = "auto"


@dataclass(frozen=True)
class MPConfig:
    """Parameters of one adaptive mixed-precision factorization.

    Attributes
    ----------
    accuracy:
        The application-required accuracy ``u_req`` of the tile-selection
        rule ``‖A_ij‖·NT/‖A‖ ≤ u_req/u_low``.  The paper's Monte Carlo
        study lands on 1e-4 for 2D-sqexp, 1e-9 for 2D-Matérn, and 1e-8
        for 3D-sqexp (Section VII-B).
    formats:
        Candidate precision formats; must include FP64.  Defaults to the
        paper's adaptive set {FP64, FP32, FP16_32, FP16}.
    strategy:
        Conversion strategy (``AUTO`` reproduces the paper's automated
        approach).
    tile_size:
        Tile edge ``nb``; the paper empirically fixes 2048 on its GPUs.
    """

    accuracy: float = 1e-9
    formats: tuple[Precision, ...] = ADAPTIVE_FORMATS
    strategy: ConversionStrategy = ConversionStrategy.AUTO
    tile_size: int = 2048

    def __post_init__(self) -> None:
        if not (0.0 < self.accuracy <= 1.0):
            raise ValueError(f"accuracy must be in (0, 1], got {self.accuracy}")
        if self.tile_size <= 0:
            raise ValueError("tile_size must be positive")
        object.__setattr__(self, "formats", validate_adaptive_set(self.formats))

    def with_accuracy(self, accuracy: float) -> "MPConfig":
        return dataclasses.replace(self, accuracy=accuracy)

    @classmethod
    def fp64_only(cls, tile_size: int = 2048) -> "MPConfig":
        """The full-FP64 baseline configuration."""
        return cls(accuracy=1e-15, formats=(Precision.FP64,), tile_size=tile_size)

    @classmethod
    def two_precision(
        cls,
        low: Precision,
        tile_size: int = 2048,
        strategy: ConversionStrategy = ConversionStrategy.AUTO,
    ) -> "MPConfig":
        """Fig. 8's extreme configurations: FP64 diagonal, ``low`` elsewhere.

        Returned config carries the format pair; the extreme kernel map
        itself is built by :func:`repro.core.precision_map.two_precision_map`.
        """
        return cls(accuracy=1e-9, formats=(Precision.FP64, low), tile_size=tile_size, strategy=strategy)
