"""Coincidence-experiment layer: setting series, the correlation estimator,
CHSH runs over four setting pairs, and a transferable-outcomes baseline.

Each series draws fresh randomness for its own setting pair; nothing is
carried over between pairs except in the transfer baseline, which is the
point of that model.  One trial runner serves every sampled model and is the
only place that draws: it takes fixed-size chunks of uniforms from
counter-based generators keyed by (seed, stream) and hands each chunk to the
model's kernel, which tallies the four channels.  Every sampled command
reaches it through :func:`run_pairs`, where pair k draws on stream + k.  The
hv kernel takes no arccos per trial: it compares each hidden-angle draw with
one threshold on the generator's 2^-53 lattice, precomputed per separation
with ``np.arccos`` (the model's ``sample_phi``), so it yields the bits of
:func:`~spincorr.hidden.sample_singlet_batch`.  The transfer kernel takes each
trial's hemisphere signs from float32 projections, in cache-sized blocks, and
recomputes in float64, by the same formula, every trial that lies too near a
hemisphere boundary for float32 to settle its sign, so every sign is the
float64 one.  Results are bit-identical for a given seed and configuration at
any worker count, and memory does not grow with the number of trials.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .hidden import _check_separation, sample_phi
from .quantum import CHANNEL_EIGENVALUES, BlochDirection, channel_weights, correlations_exact
from .streams import _check_int, substream

CHSH_SIGNS = (1, -1, 1, 1)

# Only the transfer baseline shares each trial across setting pairs.
SAMPLED_MODELS = ("hv", "quantum-sampler", "transfer-baseline")

# Trials per work item; a multiple of streams.BLOCK_DRAWS, so chunks start on a generator block.
CHUNK_TRIALS = 1 << 16


@dataclass(frozen=True)
class SettingSeries:
    """Tallies of one coincidence series at a fixed setting pair.

    Channels are in the order of ``quantum.CHANNEL_OUTCOMES``.
    """

    a: BlochDirection
    b: BlochDirection
    counts: tuple[int, int, int, int]

    def __post_init__(self):
        counts = tuple(_check_int("each count", c, hi=None) for c in self.counts)
        if len(counts) != 4:
            raise ValueError(f"counts must be four tallies, got {len(counts)}")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def separation(self) -> float:
        return self.a.angle_to(self.b)


@dataclass(frozen=True)
class PairResult:
    """Correlation estimate for one setting pair inside a CHSH run."""

    a: BlochDirection
    b: BlochDirection
    estimate: float
    std_error: float
    series: SettingSeries | None = None


@dataclass(frozen=True)
class ChshReport:
    """Four setting-pair estimates and the CHSH statistic built from them.

    Pairs are ordered (a,b), (a,b'), (a',b), (a',b'); the statistic combines
    their estimates with signs (+, -, +, +).
    """

    pairs: tuple[PairResult, PairResult, PairResult, PairResult]
    model: str

    def __post_init__(self):
        if len(self.pairs) != len(CHSH_SIGNS):
            raise ValueError(f"a CHSH report needs exactly four pairs, got {len(self.pairs)}")

    @property
    def s_value(self) -> float:
        return sum(s * p.estimate for s, p in zip(CHSH_SIGNS, self.pairs))

    @property
    def s_std_error(self) -> float:
        return math.sqrt(sum(p.std_error**2 for p in self.pairs))


def canonical_settings() -> tuple[BlochDirection, BlochDirection, BlochDirection, BlochDirection]:
    """Coplanar setting quadruple (a, a', b, b') maximizing |S| for E = -cos."""
    return (
        BlochDirection(0.0),
        BlochDirection(math.pi / 2),
        BlochDirection(math.pi / 4),
        BlochDirection(3 * math.pi / 4),
    )


def _bin_channels(alpha_minus: np.ndarray, product_plus: np.ndarray) -> np.ndarray:
    """Channel tallies from two sign bits per trial: side 1 negative, product positive.

    A trial's channel sits at place 2 * product_plus + alpha_minus in CHANNEL_OUTCOMES.
    """
    minus = np.count_nonzero(alpha_minus)
    plus = np.count_nonzero(product_plus)
    both = np.count_nonzero(alpha_minus & product_plus)
    return np.array([len(alpha_minus) - minus - plus + both, minus - both, plus - both, both])


# numpy's random() returns m * 2^-53 for an integer m in [0, 2^53).
_LATTICE = 2.0**-53


def _plus_thresholds(separations) -> list[float]:
    """Per separation theta, the least draw u on the random() lattice with
    ``sample_phi(u) >= theta``: the hv product is +1 exactly when the draw lies below it.

    A bisection on the lattice index m keeps ``sample_phi(below 2^-53) < theta``
    (below = -1 is never evaluated) and ``sample_phi(above 2^-53) >= theta``
    (above = 2^53 maps to pi, which is never below a separation) until they
    are one step apart.  ``sample_phi`` takes ``np.arccos`` (whose last bit can
    differ from ``math.acos``) of 1 - 2u, which is exact on the lattice.  At
    theta = pi the threshold is 1.0, so every draw is plus.
    """
    theta = _check_separation(list(separations))
    below = np.full(theta.shape, -1, dtype=np.int64)
    above = np.full(theta.shape, 1 << 53, dtype=np.int64)
    while np.any(above - below > 1):
        mid = (below + above + 1) // 2  # equals above once converged, so it stays put
        plus = sample_phi(mid * _LATTICE) < theta
        below, above = np.where(plus, mid, below), np.where(plus, above, mid)
    return (above * _LATTICE).tolist()


def _hv_counts(threshold: float, u: np.ndarray) -> np.ndarray:
    """Hidden-variable tallies: u[:, 0] picks alpha and u[:, 1] the hidden angle,
    as in :func:`~spincorr.hidden.sample_singlet_batch`, where the product is +1
    when ``sample_phi(u[:, 1]) < theta``; here u[:, 1] is compared with that
    separation's threshold from :func:`_plus_thresholds`, which gives the same bit."""
    return _bin_channels(u[:, 0] >= 0.5, u[:, 1] < threshold)


def _sampler_counts(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Quantum-sampler tallies: channel j holds the draws in [cum[j-1], cum[j]),
    the last one everything from cum[2] up (cum is nondecreasing)."""
    above = [np.count_nonzero(u >= c) for c in cum[:3]]
    return -np.diff([len(u), *above, 0])


def _run(kernels, n: int, draws: int, seed: int, stream: int, workers: int) -> list[np.ndarray]:
    """Channel counts of n trials under each kernel; kernel k draws on stream + k.

    This is the only draw site: the chunk of kernel k starting at trial lo is
    the ``(count, draws)`` block of uniforms of substream ``(seed, stream + k)``
    at offset draws * lo, and ``kernel(u)`` tallies its trials, so the counts
    do not depend on the chunking.  Thread t of T walks the global chunk
    indices t, t + T, ..., each split into (kernel, chunk), and keeps its own
    totals, so no list of chunks is built and memory does not grow with n.
    workers is an upper bound: a single work item, or work items of fewer than
    CHUNK_TRIALS / 8 trials (a sweep's short series), run on the calling
    thread, where handing each item to a pool thread costs more than it saves.
    The whole draw plan, up to the last kernel's stream, is checked before the
    first draw; from there on every index is a Python int, so none can wrap.
    """
    n, workers = _check_int("n", n, 1, None), _check_int("workers", workers, 1, None)
    seed, stream = _check_int("seed", seed), _check_int("stream", stream)
    _check_int("last stream", stream + max(len(kernels), 1) - 1)
    chunks = -(-n // CHUNK_TRIALS)

    def work(first: int, step: int) -> list:
        totals = [0] * len(kernels)
        for index in range(first, chunks * len(kernels), step):
            k, chunk = divmod(index, chunks)
            lo = chunk * CHUNK_TRIALS
            rng = substream(seed, stream + k, draw_offset=draws * lo)
            totals[k] += kernels[k](rng.random((min(CHUNK_TRIALS, n - lo), draws)))
        return totals

    threads = min(workers, os.cpu_count() or 1, chunks * len(kernels))
    # A work item holds min(n, CHUNK_TRIALS) trials.  On 2 cores, hv series at 2
    # threads against 1 broke even at 4096 trials per item and won 1.2-1.3x at 8192.
    if threads <= 1 or min(n, CHUNK_TRIALS) < CHUNK_TRIALS // 8:
        parts = [work(0, 1)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(work, range(threads), [threads] * threads))
    return [sum(part[k] for part in parts) for k in range(len(kernels))]


def run_pairs(
    pairs, n: int, model: str = "hv", seed: int = 0, *, stream: int = 0, workers: int = 1
) -> list[SettingSeries]:
    """Draw n coincidences at each setting pair ``(a, b)`` and tally the four channels.

    This is the one way into the trial runner.  "hv" and "quantum-sampler"
    give pair k fresh trials on stream + k, so a pair's series does not depend
    on the other pairs; "transfer-baseline" is one kernel on stream that
    scores every pair on the same trials.  No pairs give no series under
    every model.  Results depend only on (seed, stream, n, pairs), not on
    workers.
    """
    pairs = tuple(pairs)
    if model == "transfer-baseline":
        draws, kernels = 2, [partial(_transfer_counts, pairs)] if pairs else []
    elif model == "hv":
        thresholds = _plus_thresholds(a.angle_to(b) for a, b in pairs)
        draws, kernels = 2, [partial(_hv_counts, t) for t in thresholds]
    elif model == "quantum-sampler":
        cumulative = [np.cumsum(channel_weights(a, b)) for a, b in pairs]
        draws, kernels = 1, [partial(_sampler_counts, cum) for cum in cumulative]
    else:
        raise ValueError(f"unknown model {model!r}; the sampled models are {SAMPLED_MODELS}")
    tallies = np.reshape(_run(kernels, n, draws, seed, stream, workers), (-1, 4))  # a row per pair
    return [SettingSeries(a=a, b=b, counts=counts) for (a, b), counts in zip(pairs, tallies)]


def run_series(
    a: BlochDirection,
    b: BlochDirection,
    n: int,
    model: str = "hv",
    seed: int = 0,
    *,
    stream: int = 0,
    workers: int = 1,
) -> SettingSeries:
    """Draw n coincidences at one setting pair and tally the four channels:
    :func:`run_pairs` of the one pair, on stream.

    model "hv" runs the hidden-variable sampler at the separation angle;
    "quantum-sampler" draws channels directly from the exact weights;
    "transfer-baseline" reports hemisphere signs of one hidden unit vector
    per trial, the sign of its projection on a and the opposite sign of its
    projection on b.  Results depend only on (seed, stream, n, settings),
    not on workers.
    """
    (series,) = run_pairs([(a, b)], n, model, seed, stream=stream, workers=workers)
    return series


def estimate_correlation(series: SettingSeries) -> tuple[float, float]:
    """Coincidence estimate of the correlation, with its binomial standard error.

    The estimate averages the channel outcome products over all trials; the
    error bar uses the exact variance (1 - E^2)/N of a +/-1 variable.
    """
    n = series.total
    if n < 1:
        raise ValueError("cannot estimate from an empty series")
    estimate = sum(e * c for e, c in zip(CHANNEL_EIGENVALUES, series.counts)) / n
    std_error = math.sqrt(max(0.0, 1.0 - estimate**2) / n)
    return estimate, std_error


def run_chsh(
    a: BlochDirection,
    a_prime: BlochDirection,
    b: BlochDirection,
    b_prime: BlochDirection,
    n_per_pair: int = 1_000_000,
    model: str = "hv",
    seed: int = 0,
    *,
    workers: int = 1,
) -> ChshReport:
    """Run the four CHSH setting pairs and combine them.

    Under "hv" and "quantum-sampler" each pair is an independent series on
    the stream matching its position, so the four series are unchanged
    under reordering or re-running; they share the runner's workers.  Under
    "transfer-baseline" the four pairs share every trial.  Model
    "quantum-exact" skips sampling and reports the closed-form correlation
    with zero error.
    """
    settings = ((a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime))
    if model == "quantum-exact":
        values = correlations_exact(settings)
        exact = [PairResult(x, y, value, 0.0) for (x, y), value in zip(settings, values)]
        return ChshReport(pairs=tuple(exact), model=model)
    series = run_pairs(settings, n_per_pair, model, seed, workers=workers)
    pairs = [PairResult(s.a, s.b, *estimate_correlation(s), series=s) for s in series]
    tag = model if model == "transfer-baseline" else f"{model}-per-setting"
    return ChshReport(pairs=tuple(pairs), model=tag)


# Trials per block of the hemisphere signs: the block's temporaries stay in cache and
# below malloc's mmap threshold, so a chunk takes no page faults.
_SIGN_BLOCK = 1 << 13

# numpy's float32 cos and sin err by at most this (measured at most 1.18 times 2^-24
# on [0, 2 pi) with numpy 2.4 on an AVX-512 Xeon; a test checks the running build).
_TRIG32_ERROR = 2 * 2.0**-24

# Each float32 projection on x lies within |x|_1 (at most sqrt(3)) times
#   2^-22           the float32 rounding of the azimuth, half an ulp on [4, 2 pi),
#   _TRIG32_ERROR   numpy's float32 cos and sin,
#   6 * 2^-24       six float32 roundings: the casts of s (or z) and of x, the
#                   products s cos (or s sin) and x_i lam_i, and the two sums,
# of the float64 projection, about 1.24e-6 in all; the float64 projection's own
# rounding, under 1e-15, is lost in the margin.  A float32 sign is kept only where
# the projection clears this threshold, about 8 times that bound.
_SIGN_EPS = 1e-5


def _projections(units: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Each trial's hidden vector (z = 2 u0 - 1, azimuth 2 pi u1) projected on each
    row of units, as a ``(len(units), len(u))`` array in the dtype of units: s, the
    azimuth and z are cast to it and summed as x0 s cos + x1 s sin, then + x2 z."""
    z = 2.0 * u[:, 0] - 1.0
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z)).astype(units.dtype)
    az = (2.0 * math.pi * u[:, 1]).astype(units.dtype)
    x = units[:, :, None]
    projection = x[:, 0] * (s * np.cos(az)) + x[:, 1] * (s * np.sin(az))
    projection += x[:, 2] * z.astype(units.dtype)
    return projection


def _hemisphere_signs(directions, u: np.ndarray) -> np.ndarray:
    """The float64 ``_projections(units, u) >= 0.0`` on each direction's unit vector,
    a bool row per direction.

    The signs come from float32 projections, taken block by block; a trial whose
    projection on some direction lies within _SIGN_EPS of 0 is recomputed with the
    float64 projections, so every sign is the float64 one.
    """
    units = np.array([x.unit_vector for x in directions])
    units32 = units.astype(np.float32)
    up = np.empty((len(directions), len(u)), dtype=bool)
    near = np.empty(len(u), dtype=bool)
    for lo in range(0, len(u), _SIGN_BLOCK):
        projection = _projections(units32, u[lo : lo + _SIGN_BLOCK])
        hi = lo + projection.shape[1]
        np.greater_equal(projection, 0.0, out=up[:, lo:hi])
        np.less(np.abs(projection).min(axis=0), _SIGN_EPS, out=near[lo:hi])
    (redo,) = np.nonzero(near)
    up[:, redo] = _projections(units, u[redo]) >= 0.0
    return up


def _transfer_counts(pairs, u: np.ndarray) -> np.ndarray:
    """Hemisphere-sign tallies, one row per setting pair; the pairs share each
    trial's hidden vector, and each distinct direction is projected once, with
    the float32 signs and float64 fallback of :func:`_hemisphere_signs`."""
    directions = list(dict.fromkeys(x for pair in pairs for x in pair))
    up = dict(zip(directions, _hemisphere_signs(directions, u)))  # side 2 is anti-aligned: up is -1
    return np.stack([_bin_channels(~up[x], up[x] ^ up[y]) for x, y in pairs])


def run_transfer_baseline(
    a: BlochDirection,
    a_prime: BlochDirection,
    b: BlochDirection,
    b_prime: BlochDirection,
    n: int = 1_000_000,
    seed: int = 0,
    *,
    workers: int = 1,
) -> ChshReport:
    """CHSH run under the transfer assumption: outcomes for every setting exist
    per trial and are shared across all four pairs.

    Each trial draws one hidden unit vector; outcomes are hemisphere signs
    (anti-aligned on side 2) evaluated for all four settings at once.  The
    per-trial CHSH combination is then +/-2 by construction, so |S| can never
    exceed 2 beyond sampling noise; the per-pair correlation is the linear
    ramp -1 + 2*theta/pi rather than -cos(theta).
    """
    return run_chsh(a, a_prime, b, b_prime, n, "transfer-baseline", seed, workers=workers)


def transfer_correlation_analytic(theta_ab: float) -> float:
    """Hemisphere-model correlation: linear in the separation, -1 + 2*theta/pi."""
    return -1.0 + 2.0 * _check_separation(theta_ab) / math.pi
