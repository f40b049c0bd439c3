"""Exact sampling of the visible density, without Markov chains.

A visible sample is drawn in two stages: a hidden state h from the discrete
Gaussian P(h), then v from the conditional Gaussian P(v | h).  Both read the
model's mixture table (``RtbmModel._mixture``), built once per model and
epsilon over the finite point set that certifies the theta normalizer: its
masses, its component means mu(h), and Walker's alias table over the masses
(Walker 1977, built by Vose's method, 1991).  The hidden draw takes one
uniform u on [0, 1) per sample: with K points, the column is j = floor(u K)
and the coin u K - j, which keeps j when below prob[j] and else gives
alias[j].  So a draw costs O(1) whatever K is, and ``sample_visible`` then
gathers the drawn states' means from the table and adds the Gaussian noise.

The output law differs from the exact P(h) by at most, in total variation,
the mass of P(h) outside the set,

    p = eps(R) / (theta_n + eps(R)),

plus the alias table's rounding and the 2^-53 grid of u, which together add
at most about K 2^-53, the same order as an inverse-CDF draw's.  p is surfaced as
a diagnostic and must stay below PMAX_OUTSIDE; at the default theta epsilon
it is ~1e-12, so the ellipsoid truncation is statistically invisible.

Reproducibility contract: randomness comes from the Philox 4x64 counter
generator (numpy), keyed by (seed, stream id); identical keys reproduce
identical batches bit-for-bit on one platform.  Standard normal variates
use numpy's ziggurat method via Generator.standard_normal.  Parallel
generation should assign distinct stream ids, one per task.
"""

import dataclasses
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
    """The hidden-sector draw of one model and epsilon.

    ``accept_prob`` holds the relative masses P(h) / max P(h) of ``points``,
    the point set that certifies the normalizer; the draw is proportional to
    them.  ``p_outside`` bounds the mass of P(h) outside the set.  The draw
    itself reads the model's mixture table.
    """

    points: np.ndarray = field(repr=False)
    accept_prob: np.ndarray = field(repr=False)
    p_outside: float
    _mixture: object = field(repr=False, compare=False)

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
            _mixture=m._mixture(eps),
        )


def _draw(state, gen, size):
    """Indices into ``state.points`` of ``size`` hidden states, by the alias table.

    One uniform u per state: the column j = floor(u K) is below K for every
    u <= 1 - 2^-53, as u K falls short of K by at least K 2^-53, more than
    half the spacing of the doubles just below K, and so rounds below K; the
    coin u K - j is exact.  A point of zero mass has prob 0 and is no
    column's alias, so it is never drawn.
    """
    prob, alias = state._mixture.alias
    u = gen.random(size)
    u *= prob.size
    col = u.astype(np.intp)
    u -= col
    np.copyto(col, alias.take(col), where=u >= prob.take(col))
    return col


def sample_hidden(state, rng, size=None):
    """Draw hidden states from the ellipsoid-truncated discrete Gaussian.

    One uniform per state, through the alias table (see the module
    docstring); the output law is within total variation ``p_outside`` plus
    about K 2^-53 of the exact P(h).  The draw gathers rows of
    ``state.points``; ``sample_visible`` passes a state whose rows are the
    component means in their place.
    """
    idx = _draw(state, _as_generator(rng), 1 if size is None else size)
    return state.points.take(idx[0] if size is None else idx, axis=0)


def _add_noise(m, mu, gen, n):
    """mu + L^{-T} xi for n rows xi of standard normals, T = L L^T.

    ``mu`` is one mean or n of them.  The triangular solve overwrites xi,
    whose transpose is Fortran-ordered, and mu is added in place.
    """
    xi = gen.standard_normal((n, m.nv))
    low = m._form("t").low
    out = scipy.linalg.solve_triangular(
        low.T, xi.T, lower=False, overwrite_b=True, check_finite=False
    ).T
    out += mu
    return out


def sample_conditional(m, h, rng, size=None):
    """Draw v ~ P(v | h): mean mu(h), covariance T^{-1}.

    ``h`` is one hidden state, or a batch of ``size`` states with one draw
    each.  Uses v = mu(h) + L^{-T} xi with T = L L^T and xi standard normal.
    """
    gen = _as_generator(rng)
    mu = m.conditional_mean(np.asarray(h, dtype=float))  # validates the model
    out = _add_noise(m, mu, gen, 1 if size is None else int(size))
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
    Gaussians, whose means are gathered from the mixture table; both stages
    consume the same generator, so a batch is a pure function of (model, n,
    seed, stream id), and equals ``sample_hidden`` followed by
    ``sample_conditional`` on one generator.  No array holds the drawn
    states themselves, only their indices.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    state = HiddenSamplerState.from_model(m, eps)
    gen = _as_generator(rng)
    components = dataclasses.replace(state, points=state._mixture.means)
    samples = _add_noise(m, sample_hidden(components, gen, size=n), gen, n)
    seed, stream = (rng.seed, rng.stream_id) if isinstance(rng, RngStream) else (-1, -1)
    return SampleBatch(
        samples=samples,
        seed=seed,
        stream_id=stream,
        model_fingerprint=m.fingerprint(),
        p_outside=state.p_outside,
    )
