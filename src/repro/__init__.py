"""repro — reproduction of "Reducing Data Motion and Energy Consumption of
Geospatial Modeling Applications Using Automated Precision Conversion"
(Cao et al., IEEE CLUSTER 2023).

The package implements, in pure Python/NumPy:

* a precision-emulation substrate for the GPU floating-point formats the
  paper mixes (FP64, FP32, TF32, FP16_32, BF16_32, FP16);
* a PaRSEC-like task runtime with a discrete-event simulator calibrated
  to V100/A100/H100 characteristics;
* the adaptive mixed-precision tile Cholesky (Algorithm 1) with the
  automated STC/TTC precision conversion strategy (Algorithm 2);
* an ExaGeoStat-like geospatial statistics layer (synthetic fields,
  squared-exponential and Matérn covariances, maximum likelihood
  estimation, kriging).

Quickstart::

    from repro import geostats

    field = geostats.SyntheticField.matern_2d(n=400, variance=1.0,
                                              range_=0.1, smoothness=0.5, seed=1)
    dataset = field.sample()
    result = geostats.fit_mle(dataset, accuracy=1e-9)
    print(result.theta_hat)
"""

from .core import (
    CholeskyResult,
    ConversionStrategy,
    KernelPrecisionMap,
    MPConfig,
    build_precision_map,
    mp_cholesky,
    simulate_cholesky,
)
from .precision import ADAPTIVE_FORMATS, Precision

__version__ = "0.1.0"

__all__ = [
    "ADAPTIVE_FORMATS",
    "CholeskyResult",
    "ConversionStrategy",
    "KernelPrecisionMap",
    "MPConfig",
    "Precision",
    "__version__",
    "build_precision_map",
    "mp_cholesky",
    "simulate_cholesky",
]
