"""Exact sampling of the visible density, without Markov chains.

A visible sample is drawn in two stages: a hidden state h from the discrete
Gaussian P(h), then v from the conditional Gaussian P(v | h).  The hidden
draw is an inverse-CDF draw over the finite point set that certifies the
theta normalizer: the cumulative sums of the masses P(h) / max P(h) over
the set are searched for u * total, with u uniform on [0, 1).  This is an
exact draw from P(h) restricted to the set; the mass of P(h) outside the
set is at most

    p = eps(R) / (theta_n + eps(R)),

so the output law is within total variation p of the exact P(h).  p is
surfaced as a diagnostic and must stay below PMAX_OUTSIDE; at the default
theta epsilon it is ~1e-12, so the ellipsoid truncation is statistically
invisible.

Reproducibility contract: randomness comes from the Philox 4x64 counter
generator (numpy), keyed by (seed, stream id); identical keys reproduce
identical batches bit-for-bit on one platform.  Standard normal variates
use numpy's ziggurat method via Generator.standard_normal.  Parallel
generation should assign distinct stream ids, one per task.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import theta
from .errors import TruncationMassTooLarge

#: Hard ceiling on the certified outside-ellipsoid mass; beyond this the
#: truncated sampler would be visibly biased, so it refuses to run.
PMAX_OUTSIDE = 1e-4

RNG_ALGORITHM = "philox4x64-10"


@dataclass(frozen=True)
class RngStream:
    """A named, splittable source of randomness.

    Identical (seed, stream_id, algorithm) reproduce identical draw
    sequences bit-for-bit.  ``split`` derives per-task streams.
    """

    seed: int
    stream_id: int = 0
    algorithm: str = RNG_ALGORITHM

    def generator(self):
        if self.algorithm != RNG_ALGORITHM:
            raise ValueError(f"unknown rng algorithm {self.algorithm!r}")
        key = np.array([self.seed % 2**64, self.stream_id % 2**64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def split(self, stream_id):
        return RngStream(self.seed, stream_id, self.algorithm)


def _as_generator(rng):
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


@dataclass(frozen=True)
class HiddenSamplerState:
    """Frozen inverse-CDF table for the hidden-sector draw.

    ``accept_prob`` holds the relative masses P(h) / max P(h) of ``points``,
    the point set that certifies the normalizer; the draw is proportional to
    them.  ``p_outside`` bounds the mass of P(h) outside the set.
    """

    points: np.ndarray = field(repr=False)
    accept_prob: np.ndarray = field(repr=False)
    p_outside: float

    @classmethod
    def from_model(cls, m, eps=theta.DEFAULT_EPS):
        hp = m.hidden_params(eps)
        if hp.p_outside > PMAX_OUTSIDE:
            raise TruncationMassTooLarge(
                f"outside-ellipsoid mass {hp.p_outside:.3e} exceeds {PMAX_OUTSIDE}"
            )
        return cls(
            points=hp.points,
            accept_prob=np.exp(hp.log_weights - np.max(hp.log_weights)),
            p_outside=hp.p_outside,
        )


def sample_hidden(state, rng, size=None):
    """Draw hidden states from the ellipsoid-truncated discrete Gaussian.

    Inverse CDF over ``state.points``: with u uniform on [0, 1), the first
    point whose cumulative mass exceeds u * total.  ``side="right"`` never
    picks a point of zero mass and, as u * total < total, stays in range.
    The output law is within total variation ``p_outside`` of the exact P(h).
    """
    u = _as_generator(rng).random(size)
    cdf = np.cumsum(state.accept_prob)
    return state.points[np.searchsorted(cdf, u * cdf[-1], side="right")]


def sample_conditional(m, h, rng, size=None):
    """Draw v ~ P(v | h): mean mu(h), covariance T^{-1}.

    ``h`` is one hidden state, or a batch of ``size`` states with one draw
    each.  Uses v = mu(h) + L^{-T} xi with T = L L^T and xi standard normal.
    """
    gen = _as_generator(rng)
    mu = m.conditional_mean(np.asarray(h, dtype=float))  # validates the model
    low = m._form("t").low
    n = 1 if size is None else int(size)
    xi = gen.standard_normal((n, m.nv))
    dev = scipy.linalg.solve_triangular(low.T, xi.T, lower=False).T
    out = mu + dev
    return out[0] if size is None else out


@dataclass(frozen=True)
class SampleBatch:
    """Visible-sector draws plus the provenance that produced them."""

    samples: np.ndarray = field(repr=False)
    seed: int
    stream_id: int
    model_fingerprint: str
    p_outside: float

    def __len__(self):
        return self.samples.shape[0]


def sample_visible(m, n, rng, eps=theta.DEFAULT_EPS):
    """Draw ``n`` independent samples from the visible density P(v).

    Hidden states are drawn first (all of them), then the conditional
    Gaussians; both stages consume the same generator, so a batch is a pure
    function of (model, n, seed, stream id).
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    state = HiddenSamplerState.from_model(m, eps)
    gen = _as_generator(rng)
    hs = sample_hidden(state, gen, size=n)
    samples = sample_conditional(m, hs, gen, size=n)
    seed, stream = (rng.seed, rng.stream_id) if isinstance(rng, RngStream) else (-1, -1)
    return SampleBatch(
        samples=samples,
        seed=seed,
        stream_id=stream,
        model_fingerprint=m.fingerprint(),
        p_outside=state.p_outside,
    )
