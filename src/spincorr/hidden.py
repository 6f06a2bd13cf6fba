"""Local hidden-variable model of the singlet correlation.

A hidden angle in [0, pi] with density (1/2) sin(phi) plus a partition of
that interval at the setting separation theta_ab reproduce the singlet
correlation -cos(theta_ab) exactly.  A trial is two bits: the sign of the
first outcome alpha and the sign of the product A = alpha * beta, which is
+1 exactly when phi < theta_ab.  The same machinery with the region
signs flipped gives the sequential-measurement correlation +cos(theta_ab)
for a single spin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .streams import _check_int

__all__ = [
    "HIDDEN_ANGLE", "partition_measures", "sample_phi", "sample_singlet_batch",
    "single_electron_correlation", "singlet_correlation_analytic",
]


def _check_separation(theta_ab):
    """theta_ab as a float, or a float array, if every separation lies in [0, pi]."""
    theta = np.asarray(theta_ab, dtype=float)
    inside = (theta >= 0.0) & (theta <= math.pi)  # NaN is outside
    if not np.all(inside):
        raise ValueError(f"separation angle must lie in [0, pi], got {theta[~inside][0]}")
    return float(theta) if theta.ndim == 0 else theta


@dataclass(frozen=True)
class HiddenAngleDistribution:
    """Fixed distribution of the hidden angle: density (1/2) sin(phi) on [0, pi]."""

    def pdf(self, phi):
        phi = np.asarray(phi, dtype=float)
        out = np.where((phi >= 0.0) & (phi <= math.pi), 0.5 * np.sin(phi), 0.0)
        return float(out) if out.ndim == 0 else out

    def cdf(self, phi):
        phi = np.asarray(phi, dtype=float)
        out = 0.5 * (1.0 - np.cos(np.clip(phi, 0.0, math.pi)))
        return float(out) if out.ndim == 0 else out

    def inverse_cdf(self, u):
        u = np.asarray(u, dtype=float)
        if not np.all((u >= 0.0) & (u <= 1.0)):  # NaN fails too
            raise ValueError("uniform input must lie in [0, 1]")
        out = np.arccos(np.clip(1.0 - 2.0 * u, -1.0, 1.0))
        return float(out) if out.ndim == 0 else out


HIDDEN_ANGLE = HiddenAngleDistribution()


def sample_phi(u):
    """Map uniform draws on [0, 1] to hidden angles via the inverse CDF.

    u=0 maps to 0, u=1 to pi; the result has density (1/2) sin(phi).
    Accepts a scalar or an array.
    """
    return HIDDEN_ANGLE.inverse_cdf(u)


def partition_measures(theta_ab: float) -> tuple[float, float]:
    """Probability masses (minus, plus) of the two regions at this separation.

    The plus region is the half-open interval [0, theta_ab), where the
    outcome product is +1; the minus region is the remainder [theta_ab, pi],
    where it is -1 (the boundary point has measure zero and belongs to the
    minus region).  Closed forms cos^2(theta_ab/2) and sin^2(theta_ab/2);
    they sum to one.
    """
    half = _check_separation(theta_ab) / 2.0
    return math.cos(half) ** 2, math.sin(half) ** 2


def singlet_correlation_analytic(theta_ab):
    """Model prediction for the singlet pair: -cos(theta_ab).

    Equals the plus-region measure minus the minus-region measure.  Accepts
    a scalar or an array of separations, all required to lie in [0, pi].
    """
    out = -np.cos(_check_separation(theta_ab))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SampleBatch:
    """Vectorized draws; arrays share one index and satisfy a_product = alpha*beta."""

    phi: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    a_product: np.ndarray

    def __len__(self) -> int:
        return len(self.phi)


def sample_singlet_batch(theta_ab: float, count: int, rng: np.random.Generator) -> SampleBatch:
    """Draw count entangled-pair outcomes at separation theta_ab.

    Each trial's first outcome alpha is a fair coin; the hidden angle phi
    then fixes the product (+1 on [0, theta_ab), -1 elsewhere) and the
    second outcome is beta = a_product * alpha.  The angle's origin is tied
    to the alpha outcome, which is what makes the product depend only on
    the separation.  Trial i consumes draws 2i (alpha) and 2i+1 (phi).

    This is the readable form of the model; commands sample through
    ``harness.run_pairs`` (pair k on stream + k), whose runner tallies the
    same two bits per trial straight from its chunk of uniforms, comparing
    each phi draw with a lattice threshold precomputed per separation with
    this ``np.arccos`` transform.
    """
    theta_ab = _check_separation(theta_ab)
    u = rng.random((_check_int("count", count, 1, None), 2))
    alpha = np.where(u[:, 0] < 0.5, 1, -1)
    phi = sample_phi(u[:, 1])
    a_product = np.where(phi < theta_ab, 1, -1)
    return SampleBatch(phi=phi, alpha=alpha, beta=a_product * alpha, a_product=a_product)


def single_electron_correlation(theta_ab: float) -> float:
    """Sequential-measurement correlation for one spin measured along a then b.

    The model is the singlet procedure with the region signs inverted: the
    product is +1 on [theta_ab, pi] and -1 on [0, theta_ab), giving
    +cos(theta_ab).  ``sweep --single-electron`` samples it as the negated
    singlet estimate.
    """
    return math.cos(_check_separation(theta_ab))
