"""Geospatial statistics layer (ExaGeoStat-like application driver)."""

from . import dataplane
from .covariance import (
    CovarianceModel,
    Matern,
    SquaredExponential,
    get_model,
)
from .generator import Dataset, SyntheticField, build_tiled_covariance
from .io import load_dataset_csv, load_dataset_npz, save_dataset_csv, save_dataset_npz
from .likelihood import LikelihoodEval, log_likelihood
from .locations import cross_distances, generate_locations, morton_order, pairwise_distances
from .mle import MLEResult, default_tile_size, fit_mle
from .montecarlo import BoxStats, MonteCarloStudy, ReplicaEstimate, run_monte_carlo
from .optimizer import OptimizeResult, maximize_bounded, nelder_mead_bounded
from .prediction import KrigingResult, krige
from .variogram import (
    EmpiricalVariogram,
    empirical_variogram,
    fit_variogram,
    theoretical_variogram,
)

__all__ = [
    "BoxStats",
    "CovarianceModel",
    "Dataset",
    "EmpiricalVariogram",
    "KrigingResult",
    "LikelihoodEval",
    "Matern",
    "MLEResult",
    "MonteCarloStudy",
    "OptimizeResult",
    "ReplicaEstimate",
    "SquaredExponential",
    "SyntheticField",
    "build_tiled_covariance",
    "cross_distances",
    "dataplane",
    "default_tile_size",
    "empirical_variogram",
    "fit_mle",
    "fit_variogram",
    "generate_locations",
    "get_model",
    "krige",
    "load_dataset_csv",
    "load_dataset_npz",
    "log_likelihood",
    "maximize_bounded",
    "morton_order",
    "nelder_mead_bounded",
    "pairwise_distances",
    "run_monte_carlo",
    "save_dataset_csv",
    "save_dataset_npz",
    "theoretical_variogram",
]
