"""Validation metrics: histograms, chi-square, MSE, KS distance, moments.

These are the distance estimators used to judge how well model samples,
the model density and a reference density agree: a chi-square between a
sampling histogram and the model prediction at the lower bin edges, plain
mean squared errors between density series on the same bins, the
Kolmogorov-Smirnov distance of samples against an exact CDF, and the mean
plus central moments 2 to 4.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import theta
from .errors import LengthMismatch, UnsupportedDimension

#: Default number of histogram bins.
DEFAULT_BINS = 50


@dataclass(frozen=True)
class Histogram:
    """Uniform-bin histogram with normalized densities.

    Densities are counts / (n * bin width), so they integrate to the
    in-range fraction of the sample.
    """

    edges: np.ndarray
    counts: np.ndarray = field(repr=False)
    densities: np.ndarray = field(repr=False)
    n_samples: int

    @property
    def n_bins(self):
        return self.counts.shape[0]

    @property
    def lower_edges(self):
        return self.edges[:-1]

    @property
    def width(self):
        return float(self.edges[1] - self.edges[0])


def histogram(samples, bins=DEFAULT_BINS, rng=None):
    """Histogram with uniform bins.

    The default range is [min, max] of the sample widened by half a bin, so
    the extreme observations sit at the centers of the outermost bins.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size == 0:
        raise ValueError("cannot histogram an empty sample")
    if bins < 1:
        raise ValueError(f"need at least one bin, got {bins}")
    if rng is None:
        lo, hi = float(np.min(samples)), float(np.max(samples))
        if hi == lo:
            lo, hi = lo - 0.5, hi + 0.5
        width = (hi - lo) / max(bins - 1, 1)
        lo, hi = lo - 0.5 * width, hi + 0.5 * width
    else:
        lo, hi = float(rng[0]), float(rng[1])
        if hi <= lo:
            raise ValueError(f"invalid histogram range [{lo}, {hi}]")
    counts, edges = np.histogram(samples, bins=bins, range=(lo, hi))
    width = edges[1] - edges[0]
    densities = counts / (samples.size * width)
    return Histogram(
        edges=edges, counts=counts, densities=densities, n_samples=samples.size
    )


def chi2_rtbm(hist, m, eps=theta.DEFAULT_EPS):
    """Chi-square between histogram densities and the model density.

    sum over bins of (O_i - P_i)^2 / P_i with O_i the normalized density of
    bin i and P_i the model density at the bin's lower edge; bins whose
    model density underflows (P_i <= 1e-300) are skipped.
    """
    if m.nv != 1:
        raise UnsupportedDimension(f"chi2_rtbm requires nv = 1, got nv = {m.nv}")
    return _chi2(hist.densities, np.exp(m.log_pdf_visible(hist.lower_edges.reshape(-1, 1), eps)))


def _chi2(o, p):
    """chi2_rtbm's sum for bin densities o and model densities p."""
    keep = p > 1e-300
    o = o[keep]
    p = p[keep]
    return float(np.sum((o - p) ** 2 / p))


def mse(a, b):
    """Mean squared difference between two equally long series."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise LengthMismatch(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    return float(np.mean((a - b) ** 2))


def ks_distance(samples, cdf):
    """Kolmogorov-Smirnov distance sup_x |S(x) - F(x)|.

    ``cdf`` is a callable evaluating the reference CDF (vectorized or
    scalar); the supremum over the empirical CDF steps is attained at the
    sample points, checked from both sides of each step.
    """
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    if x.size == 0:
        raise ValueError("need at least one sample")
    f = np.asarray(cdf(x), dtype=float)
    if f.shape != x.shape:
        f = np.array([cdf(v) for v in x], dtype=float)
    n = x.size
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - f, f - (i - 1) / n)))


def central_moments(samples):
    """(mean, mu2, mu3, mu4): sample mean and plain central moments."""
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("need at least one sample")
    mean = float(np.mean(x))
    d = x - mean
    d2 = d * d  # products: d**3 and d**4 would go through the generic pow
    return (
        mean,
        float(np.mean(d2)),
        float(np.mean(d2 * d)),
        float(np.mean(d2 * d2)),
    )


def model_moments_1d(m, eps=theta.DEFAULT_EPS):
    """(mean, mu2, mu3, mu4) of a one-dimensional model density.

    Exact Gaussian moment formulas for each mixture component, averaged
    with the hidden masses over the model's mixture table (the points of
    ``hidden_params``), then converted from raw to central moments.
    """
    if m.nv != 1:
        raise UnsupportedDimension(
            f"model_moments_1d requires nv = 1, got nv = {m.nv}"
        )
    mix = m._mixture(eps)
    mus = mix.means[:, 0]
    var = 1.0 / float(m.t[0, 0])
    m1, m2, m3, m4 = mix.average(np.stack([
        mus,
        mus**2 + var,
        mus**3 + 3.0 * mus * var,
        mus**4 + 6.0 * mus**2 * var + 3.0 * var**2,
    ], axis=1)).tolist()
    mu2 = m2 - m1**2
    mu3 = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
    mu4 = m4 - 4.0 * m1 * m3 + 6.0 * m1**2 * m2 - 3.0 * m1**4
    return (m1, mu2, mu3, mu4)


@dataclass(frozen=True)
class ValidationReport:
    """Distance estimators and moment triples for one validation run."""

    chi2_over_bins: float
    mse_sampling_rtbm: float
    mse_sampling_pdf: float
    mse_pdf_rtbm: float
    ks: float
    moments_sampling: tuple
    moments_model: tuple
    moments_reference: tuple
    n_samples: int
    n_bins: int

    def to_dict(self):
        names = ("mean", "mu2", "mu3", "mu4")
        return {
            "chi2_over_bins": self.chi2_over_bins,
            "mse_sampling_rtbm": self.mse_sampling_rtbm,
            "mse_sampling_pdf": self.mse_sampling_pdf,
            "mse_pdf_rtbm": self.mse_pdf_rtbm,
            "ks": self.ks,
            "moments": {
                "sampling": dict(zip(names, self.moments_sampling)),
                "model": dict(zip(names, self.moments_model)),
                "reference": dict(zip(names, self.moments_reference)),
            },
            "n_samples": self.n_samples,
            "n_bins": self.n_bins,
        }


def build_report(m, samples, reference, bins=DEFAULT_BINS, eps=theta.DEFAULT_EPS):
    """Full validation report for a 1d model.

    ``samples`` are draws from the model, ``reference`` the dataset the
    model is judged against.  The reference density is its empirical
    histogram on the sampling histogram's bins; the KS distance compares the
    model samples against the model's own exact CDF.
    """
    if m.nv != 1:
        raise UnsupportedDimension("build_report requires a 1d model")
    samples = np.asarray(samples, dtype=float).ravel()
    reference = np.asarray(reference, dtype=float).ravel()
    hist = histogram(samples, bins)
    model_pdf = np.exp(m.log_pdf_visible(hist.lower_edges.reshape(-1, 1), eps))
    ref_hist = histogram(reference, bins, rng=(hist.edges[0], hist.edges[-1]))
    return ValidationReport(
        chi2_over_bins=_chi2(hist.densities, model_pdf) / hist.n_bins,
        mse_sampling_rtbm=mse(hist.densities, model_pdf),
        mse_sampling_pdf=mse(hist.densities, ref_hist.densities),
        mse_pdf_rtbm=mse(ref_hist.densities, model_pdf),
        ks=ks_distance(samples, lambda x: m.cdf_visible_1d(x, eps)),
        moments_sampling=central_moments(samples),
        moments_model=model_moments_1d(m, eps),
        moments_reference=central_moments(reference),
        n_samples=samples.size,
        n_bins=hist.n_bins,
    )
