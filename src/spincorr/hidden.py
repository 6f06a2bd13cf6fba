"""Local hidden-variable model of the singlet correlation.

A hidden angle in [0, pi] with density (1/2) sin(phi) plus a partition of
that interval at the setting separation theta_ab reproduce the singlet
correlation -cos(theta_ab) exactly.  The same machinery with the region
signs flipped gives the sequential-measurement correlation +cos(theta_ab)
for a single spin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _check_separation(theta_ab: float) -> float:
    theta_ab = float(theta_ab)
    if not 0.0 <= theta_ab <= math.pi:
        raise ValueError(f"separation angle must lie in [0, pi], got {theta_ab}")
    return theta_ab


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
        if np.any((u < 0.0) | (u > 1.0)):
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


@dataclass(frozen=True)
class Partition:
    """Split of the hidden-angle interval at the setting separation.

    The plus region is the half-open interval [0, theta_ab), where the
    outcome product is +1; the minus region is the remainder [theta_ab, pi],
    where it is -1.  The boundary point itself has measure zero; it is
    assigned to the minus region.
    """

    theta_ab: float

    REGION_PRODUCTS = {"minus": -1, "plus": +1}

    def __post_init__(self):
        object.__setattr__(self, "theta_ab", _check_separation(self.theta_ab))

    @property
    def minus_measure(self) -> float:
        return math.cos(self.theta_ab / 2.0) ** 2

    @property
    def plus_measure(self) -> float:
        return math.sin(self.theta_ab / 2.0) ** 2

    @property
    def measures(self) -> dict[str, float]:
        return {"minus": self.minus_measure, "plus": self.plus_measure}

    def product_sign(self, phi):
        """Outcome product (+1 or -1) for hidden angles, scalar or array."""
        phi = np.asarray(phi)
        out = np.where(phi < self.theta_ab, 1, -1)
        return int(out) if out.ndim == 0 else out


def partition_measures(theta_ab: float) -> tuple[float, float]:
    """Probability masses (minus, plus) of the two regions at this separation.

    Closed forms cos^2(theta_ab/2) and sin^2(theta_ab/2); they sum to one.
    """
    p = Partition(theta_ab)
    return p.minus_measure, p.plus_measure


def singlet_correlation_analytic(theta_ab):
    """Model prediction for the singlet pair: -cos(theta_ab).

    Equals the plus-region measure minus the minus-region measure.  Accepts
    a scalar or an array of separations, all required to lie in [0, pi].
    """
    theta_ab = np.asarray(theta_ab, dtype=float)
    if np.any((theta_ab < 0.0) | (theta_ab > math.pi)):
        raise ValueError("separation angle must lie in [0, pi]")
    out = -np.cos(theta_ab)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SampleRecord:
    """One model draw: hidden angle, both outcomes, and their product."""

    phi: float
    alpha: int
    beta: int
    a_product: int


@dataclass(frozen=True)
class SampleBatch:
    """Vectorized draws; arrays share one index and satisfy a_product = alpha*beta."""

    phi: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    a_product: np.ndarray

    def __len__(self) -> int:
        return len(self.phi)


def sample_singlet_pair(theta_ab: float, rng: np.random.Generator) -> SampleRecord:
    """Draw one entangled-pair outcome at separation theta_ab.

    The first outcome alpha is a fair coin; the hidden angle phi then fixes
    the product (+1 on [0, theta_ab), -1 elsewhere) and the second outcome
    is beta = a_product / alpha.  The angle's origin is tied to the alpha
    outcome, which is what makes the product depend only on the separation.

    Consumes exactly two uniform draws, alpha first.
    """
    theta_ab = _check_separation(theta_ab)
    alpha = 1 if rng.random() < 0.5 else -1
    phi = sample_phi(rng.random())
    a_product = 1 if phi < theta_ab else -1
    return SampleRecord(phi=phi, alpha=alpha, beta=a_product * alpha, a_product=a_product)


def sample_singlet_batch(theta_ab: float, count: int, rng: np.random.Generator) -> SampleBatch:
    """Vectorized equivalent of repeated sample_singlet_pair calls.

    Bit-identical to the scalar loop on the same generator state: trial i
    consumes draws 2i (alpha) and 2i+1 (phi).
    """
    theta_ab = _check_separation(theta_ab)
    if count < 1:
        raise ValueError("count must be at least 1")
    u = rng.random((count, 2))
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
