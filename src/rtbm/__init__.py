"""Riemann-Theta Boltzmann machine: densities, sampling, training, validation.

The visible-sector density of the RTBM is an infinite Gaussian mixture
whose weights form a discrete Gaussian over the integer hidden states; both
closed forms are ratios of Riemann-Theta evaluations.  This package
provides a certified-error theta kernel, the model densities and moments,
an exact two-stage sampler, CMA-ES maximum-likelihood training, and the
validation metrics used to judge fits.
"""

from .errors import (
    DegenerateBasis,
    InvalidModel,
    LengthMismatch,
    NotPositiveDefinite,
    NotSymmetric,
    ObjectiveNonFinite,
    PointBudgetExceeded,
    RankDeficient,
    RtbmError,
    TruncationMassTooLarge,
    UnsupportedDimension,
)
from .lattice import enumerate_ellipsoid, lll_reduce, shortest_vector_estimate
from .model import HiddenGaussianParams, RtbmModel
from .sampler import (
    HiddenSamplerState,
    RngStream,
    SampleBatch,
    sample_conditional,
    sample_hidden,
    sample_visible,
)
from .stats import (
    Histogram,
    ValidationReport,
    build_report,
    central_moments,
    chi2_rtbm,
    histogram,
    ks_distance,
    model_moments_1d,
    mse,
)
from .theta import (
    ThetaValue,
    radius_for_epsilon,
    theta_tilde,
    theta_tilde_batch,
    theta_tilde_grad,
    theta_tilde_hess,
)
from .train import FitResult, TrainConfig, cma_es_minimize, decode, encode, fit, negative_log_likelihood

__version__ = "0.1.0"

__all__ = [
    "DegenerateBasis",
    "FitResult",
    "HiddenGaussianParams",
    "HiddenSamplerState",
    "Histogram",
    "InvalidModel",
    "LengthMismatch",
    "NotPositiveDefinite",
    "NotSymmetric",
    "ObjectiveNonFinite",
    "PointBudgetExceeded",
    "RankDeficient",
    "RngStream",
    "RtbmError",
    "RtbmModel",
    "SampleBatch",
    "ThetaValue",
    "TrainConfig",
    "TruncationMassTooLarge",
    "UnsupportedDimension",
    "ValidationReport",
    "build_report",
    "central_moments",
    "chi2_rtbm",
    "cma_es_minimize",
    "decode",
    "encode",
    "enumerate_ellipsoid",
    "fit",
    "histogram",
    "ks_distance",
    "lll_reduce",
    "model_moments_1d",
    "mse",
    "negative_log_likelihood",
    "radius_for_epsilon",
    "sample_conditional",
    "sample_hidden",
    "sample_visible",
    "shortest_vector_estimate",
    "theta_tilde",
    "theta_tilde_batch",
    "theta_tilde_grad",
    "theta_tilde_hess",
    "__version__",
]
