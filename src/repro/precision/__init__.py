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
    get_higher_precision,
    get_lower_precision,
    get_storage_precision,
    parse_precision,
    rule_epsilon,
    sort_by_width,
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
    "get_higher_precision",
    "get_lower_precision",
    "get_storage_precision",
    "max_abs_error",
    "mixed_gemm",
    "mixed_syrk",
    "multiply_accumulate",
    "parse_precision",
    "quantize",
    "quantize_batch",
    "quantize_tile",
    "relative_frobenius_error",
    "round_to_fp16",
    "rule_epsilon",
    "sort_by_width",
    "storage_dtype",
    "truncate_mantissa",
    "validate_adaptive_set",
]
