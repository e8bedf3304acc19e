"""Software emulation of reduced-precision arithmetic on NumPy arrays.

We have no tensor cores in this reproduction, so the numerical behaviour
of each GPU precision format (Fig. 1's accuracy panel) is emulated on the
host in IEEE single and double precision:

* *quantisation* — rounding an array to the representable set of the
  target input format (FP32 via the native NumPy dtype; FP16 via
  :func:`round_to_fp16`; TF32 and BF16 via round-to-nearest-even
  mantissa truncation of the FP32 encoding);
* *accumulation* — matrix products are evaluated with an accumulator of
  the format's ``accum_bits``; pure FP16 uses chunked accumulation with
  partial sums re-rounded to FP16, reproducing the linear-in-k error
  growth (and eventual overflow at |x| > 65504) of genuine half-precision
  accumulation.

The emulation is deliberately value-faithful rather than bit-faithful:
tensor cores round slightly differently inside the 4×4 block FMA (Fasi et
al., 2021), but the error *scaling* — what the tile-selection rule and the
Monte Carlo accuracy study respond to — matches.

Convert once
------------
The paper converts a tile once, at the sender, not again in every
receiving task; the host emulation follows the same rule.  Every kernel
takes its operands through :func:`as_input`, which rounds an array to the
kernel's input grid and narrows it to the dtype the emulated product
multiplies in.  A tile that many kernels read — a POTRF/TRSM broadcast
payload — is wrapped in an :class:`Operand`, which remembers each form it
has been asked for, so the conversion is paid by the first consumer of a
format and reused by the rest.  The inout tile of a chain of FP16 GEMMs
carries the same knowledge itself: the kernel returns it as an
:class:`OnFp16Grid`, which :func:`as_input` hands to the next fp16-input
kernel as it is, so the tile is rounded at its first FP16 update only.
FP16 and FP16_32 multiply the same fp16-grid inputs, so an ``Operand``
makes that form once for both.

The same rule, paid per call rather than per tile: a 64² rounding costs
its call overhead more than its element work, so the factorization hands
the pure-FP16 updates of an iteration to the kernel as stacks of tiles
(:func:`repro.precision.gemm.multiply_accumulate` takes a leading stack
axis) and rounds each stack's accumulator, result and unflagged ``C``
tiles in one pass each.  FP16 alone: no other format rounds per update.

Why :func:`round_to_fp16` exists
--------------------------------
NumPy's ``float32/64 → float16`` cast raises the underflow flag element
by element, which makes it 30–40× slower on values that are subnormal or
flush to zero in fp16 than on O(1) values.  The tile-selection rule
demotes to FP16 exactly the tiles of small norm — the near-zero far
field of a covariance matrix — so the cast sat on its slow path for most
of the factorization.  ``round_to_fp16`` produces the same bits from a
magic-constant add/subtract on those lanes.
"""

from __future__ import annotations

import numpy as np

from .formats import FORMAT_INFO, Precision

__all__ = [
    "truncate_mantissa",
    "round_to_fp16",
    "OnFp16Grid",
    "Operand",
    "as_input",
    "quantize",
    "quantize_batch",
    "quantize_tile",
    "storage_dtype",
]

_EXP_MASK = np.uint32(0x7F800000)


def truncate_mantissa(x: np.ndarray, keep_bits: int) -> np.ndarray:
    """Round FP32 values to ``keep_bits`` significand bits (incl. implicit).

    Implements round-to-nearest-even on the binary32 encoding, which is
    how TF32 (11 bits) and BF16 (8 bits) inputs are produced from FP32
    registers on the GPU.  Returns a float32 array.

    Non-finite lanes pass through bit-exactly: NaNs keep their payload
    (the rounding add would otherwise carry a low-payload NaN into ±inf)
    and ±inf stays ±inf (an all-ones pattern would wrap the uint32 add
    into a tiny denormal).  Finite values that round past the largest
    representable float32 overflow to ±inf, matching hardware saturation.
    """
    if keep_bits >= 24:
        return np.asarray(x, dtype=np.float32)
    x32 = np.ascontiguousarray(x, dtype=np.float32)
    bits = x32.view(np.uint32)
    drop = np.uint32(24 - keep_bits)
    one = np.uint32(1)
    # round-to-nearest-even: add half ulp (of the kept grid) plus the
    # tie-breaking bit taken from the lowest kept position
    lsb = (bits >> drop) & one
    round_bias = (one << (drop - one)) - one + lsb
    rounded = (bits + round_bias) >> drop << drop
    nonfinite = (bits & _EXP_MASK) == _EXP_MASK
    if nonfinite.any():
        rounded = np.where(nonfinite, bits, rounded)
    return rounded.view(np.float32).copy()


_FP16_MIN_NORMAL = 2.0**-14
#: halfway from the largest fp16 (65504) to 2^16: from here on the cast saturates to ±inf
_FP16_SATURATES = 65520.0
#: per dtype: the sign bit and the exponent field of its encoding (|x| with the mantissa
#: masked off is the lane's binade 2^E); 2^(mantissa bits − 10), a binade's ulp over its
#: fp16 step; the encodings of 2^-14 and 65520 (|x| orders as its encoding does, NaN on
#: top); and 1.5 · 2^(p−1) · 2^-24 for the p-bit significand: a sum in [2^(p−1), 2^p) · 2^-24
#: has ulp 2^-24, the spacing of the fp16 subnormals
_FP16_MAGIC = {
    np.dtype(f): (
        u(sign), u(field), scale, f(_FP16_MIN_NORMAL).view(u), f(_FP16_SATURATES).view(u), f(sub)
    )
    for f, u, sign, field, scale, sub in (
        (np.float32, np.uint32, 1 << 31, 0x7F800000, 2.0**13, 0.75),
        (np.float64, np.uint64, 1 << 63, 0x7FF0000000000000, 2.0**42, 1.5 * 2.0**28),
    )
}


def round_to_fp16(x: np.ndarray) -> np.ndarray:
    """Round a float32/float64 array to the fp16 grid, keeping its dtype.

    Bit-identical to ``x.astype(np.float16).astype(x.dtype)`` — round to
    nearest even, gradual underflow, signed zeros, saturation to ±inf
    from 65520 up, NaN payloads as NumPy's cast leaves them — without
    that cast's slow path.  Below the smallest normal fp16 (2^-14) the
    grid is the multiples of 2^-24, and ``(|x| + magic) − magic`` rounds
    to it in one correctly rounded add (the sum's ulp is 2^-24) and an
    exact subtract; the sign bit of ``x`` is put back, on a zero result
    too.  A lane that is normal in fp16 has the same rounding on
    the grid of its own binade, 2^(E−10) for |x| ∈ [2^E, 2^(E+1)): when
    every lane is finite and below 65520 the magic constant is built per
    lane from the lane's exponent, 2^(E+13) in float32 and 2^(E+42) in
    float64 (E held at −14 below the normal range, which is the subnormal
    constant's grid again), and no lane needs NumPy's cast or can raise a
    floating-point flag.  Only an array with a NaN, an infinity or a
    saturating lane (or a 0-d one) sends its normal and non-finite lanes
    through the cast, which is fast on them.
    """
    sign, exponent_field, scale, min_normal, saturates, magic = _FP16_MAGIC[x.dtype]
    mag = np.abs(x)
    bits = mag.view(sign.dtype)
    top = bits.max(initial=0) if x.ndim else saturates
    if top >= saturates:
        out = np.empty_like(x)
        # over: finite values from 65520 up saturate to ±inf in the cast, as on the hardware;
        # invalid: a signalling NaN trips the add, and its lane is the cast's anyway
        with np.errstate(over="ignore", invalid="ignore"):
            np.copysign((mag + magic) - magic, x, out=out)
            rest = ~(mag < _FP16_MIN_NORMAL)  # not ``>=``: NaN lanes belong to the cast
            if rest.any():
                out[rest] = x[rest].astype(np.float16)
        return out
    if top >= min_normal:
        magic = (bits & exponent_field).view(x.dtype)
        np.maximum(magic, _FP16_MIN_NORMAL, out=magic)
        magic *= scale
    mag += magic
    mag -= magic
    bits |= x.view(sign.dtype) & sign
    return mag


class OnFp16Grid(np.ndarray):
    """A float32 tile that says it rests on the fp16 grid (module docstring).

    The claim is about these values: arithmetic on one gives a plain
    array back, and nothing may write into one.
    """

    def __array_wrap__(self, array, context=None, return_scalar=False):
        return array[()] if return_scalar else array


def _input_form(x: np.ndarray, precision: Precision) -> np.ndarray:
    """``x`` on the input grid of ``precision``, in the product's dtype."""
    if precision == Precision.FP64:
        return np.asarray(x, dtype=np.float64)
    x = np.asanyarray(x)
    if x.dtype != np.float32:
        x = x.astype(np.float64, copy=False)
    if precision in (Precision.FP16, Precision.FP16_32):
        # rounded at the width it arrives in: narrowing a float64 to
        # float32 first would round twice
        on_grid = x if isinstance(x, OnFp16Grid) else round_to_fp16(x)
        return on_grid.astype(np.float32, copy=False)
    x = x.astype(np.float32, copy=False)
    # TF32 and BF16_32 keep 11 and 8 significand bits
    return x if precision == Precision.FP32 else truncate_mantissa(x, FORMAT_INFO[precision].input_bits)


class Operand:
    """An array several kernels read, and each input form already made of it.

    The convert-once rule of the module docstring: :func:`as_input` makes
    a form the first time a format asks for it and hands the same array
    to every later consumer, so treat the forms as read-only.  Two
    threads asking at once may both convert; they store equal arrays.
    ``finite`` holds the formats whose form a reader has found finite, so
    a check of it is made once too.
    """

    __slots__ = ("data", "_forms", "finite")

    def __init__(self, data: np.ndarray) -> None:
        self.data = np.asarray(data)
        self._forms: dict[Precision, np.ndarray] = {}
        self.finite: set[Precision] = set()


#: FP16_32 multiplies the inputs FP16 does: an Operand makes that form once for both
_SAME_FORM = {Precision.FP16_32: Precision.FP16}


def as_input(x: np.ndarray | Operand, precision: Precision) -> np.ndarray:
    """``x`` as a kernel of format ``precision`` multiplies it.

    Rounded to the format's *input* grid (fp16 for FP16 and FP16_32,
    11/8 significand bits for TF32/BF16_32) and held in the dtype the
    emulated product runs in: float32 for every format but FP64.  The
    result may alias ``x`` when no conversion is needed.
    """
    if not isinstance(x, Operand):
        return _input_form(x, precision)
    precision = _SAME_FORM.get(precision, precision)
    form = x._forms.get(precision)
    if form is None:
        form = x._forms[precision] = _input_form(x.data, precision)
    return form


def quantize(x: np.ndarray | Operand, precision: Precision) -> np.ndarray:
    """Round ``x`` to the *input* format of ``precision``; returns float64.

    :func:`as_input` widened back to float64, so downstream NumPy code
    keeps full-width arithmetic while the values live on the target
    format's grid.  FP16-family formats saturate to ±inf past 65504, like
    the hardware.
    """
    return as_input(x, precision).astype(np.float64, copy=False)


def quantize_batch(tiles: "list[np.ndarray]", precision: Precision) -> "list[np.ndarray]":
    """Quantise many arrays through one vectorised :func:`quantize` pass.

    Equivalent to ``[quantize(t, precision) for t in tiles]`` but pays
    the dtype casts / mantissa bit-twiddling once over the concatenated
    payload instead of once per tile — the same batching trick that
    vectorised ``build_comm_precision_map``.  Shapes may be ragged; each
    output keeps its input's shape.  Used by :mod:`repro.tlr.compression`
    for low-rank factor pairs.
    """
    arrays = [np.asarray(t, dtype=np.float64) for t in tiles]
    if not arrays or precision == Precision.FP64:
        return arrays
    q = quantize(np.concatenate([a.ravel() for a in arrays]), precision)
    pieces = np.split(q, np.cumsum([a.size for a in arrays])[:-1])
    return [piece.reshape(a.shape) for piece, a in zip(pieces, arrays)]


def storage_dtype(precision: Precision) -> np.dtype:
    """NumPy dtype used to *hold* a tile at rest in ``precision``."""
    return FORMAT_INFO[precision].rest_dtype


def quantize_tile(tile: np.ndarray, precision: Precision) -> np.ndarray:
    """Quantise a tile for storage, keeping the rest dtype of the format.

    Unlike :func:`quantize` (which widens back to float64 for in-place
    numerics), this mimics the matrix-generation phase of Section V where
    tiles are written out directly in their storage precision.  Values
    past float32's range saturate to ±inf, like the hardware cast.
    """
    dtype = storage_dtype(precision)
    if dtype == np.float32:
        with np.errstate(over="ignore"):
            return np.asarray(tile, dtype=dtype)
    return np.asarray(tile, dtype=dtype)
