"""Precision formats, emulation, and mixed-precision kernels.

This subpackage is the numerical substrate of the reproduction: it defines
the precision lattice (FP64 … FP16) used throughout the adaptive
framework, quantisation routines that emulate GPU reduced-precision
arithmetic on the host, and the emulated mixed-precision GEMM that
underpins both the Fig. 1 accuracy study and the numeric execution mode of
the mixed-precision Cholesky.
"""

from .emulate import (
    Operand,
    as_input,
    quantize,
    quantize_batch,
    quantize_tile,
    round_to_fp16,
    storage_dtype,
    truncate_mantissa,
)
from .errors import (
    combine_frobenius,
    frobenius,
    max_abs_error,
    relative_frobenius_error,
)
from .formats import (
    ADAPTIVE_FORMATS,
    FORMAT_INFO,
    FormatInfo,
    Precision,
    bytes_per_element,
    get_storage_precision,
    rule_epsilon,
    validate_adaptive_set,
)
from .gemm import gemm_relative_error, mixed_gemm, mixed_syrk, multiply_accumulate

__all__ = [
    "ADAPTIVE_FORMATS",
    "FORMAT_INFO",
    "FormatInfo",
    "Operand",
    "Precision",
    "as_input",
    "bytes_per_element",
    "combine_frobenius",
    "frobenius",
    "gemm_relative_error",
    "get_storage_precision",
    "max_abs_error",
    "mixed_gemm",
    "mixed_syrk",
    "multiply_accumulate",
    "quantize",
    "quantize_batch",
    "quantize_tile",
    "relative_frobenius_error",
    "round_to_fp16",
    "rule_epsilon",
    "storage_dtype",
    "truncate_mantissa",
    "validate_adaptive_set",
]
