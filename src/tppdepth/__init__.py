"""Depth-based centrality and ranking for point processes observed up to
their first k events, with seeded simulators, moment estimation, contour
and rank analysis, and a file-based CLI."""

from .analysis import (
    ContourGrid,
    NearBoundarySummary,
    PropertyCheck,
    PropertyReport,
    RankTable,
    contour_grid,
    depth_breakdown,
    depth_values,
    near_boundary_comparison,
    rank,
    verify_properties,
    weighted_fraction_gap,
)
from .depth import (
    DepthParams,
    conditional_depth,
    hpp_conditional_depth,
    mahalanobis_depth,
    marginal_depth_d1,
    marginal_factor,
    product_depth,
)
from .errors import DataError
from .estimation import fit_mahalanobis, fit_params
from .io import load_csv, load_params_json, save_params_json, save_sample_csv
from .sequences import SampleSet
from .simulate import SimConfig, simulate

__version__ = "0.1.0"

__all__ = [
    "ContourGrid",
    "DataError",
    "DepthParams",
    "NearBoundarySummary",
    "PropertyCheck",
    "PropertyReport",
    "RankTable",
    "SampleSet",
    "SimConfig",
    "conditional_depth",
    "contour_grid",
    "depth_breakdown",
    "depth_values",
    "fit_mahalanobis",
    "fit_params",
    "hpp_conditional_depth",
    "load_csv",
    "load_params_json",
    "mahalanobis_depth",
    "marginal_depth_d1",
    "marginal_factor",
    "near_boundary_comparison",
    "product_depth",
    "rank",
    "save_params_json",
    "save_sample_csv",
    "simulate",
    "verify_properties",
    "weighted_fraction_gap",
]
