"""Exact spin correlations for the two-qubit singlet state.

Small complex linear algebra engine for a pair of spin-1/2 particles:
measurement directions on the Bloch sphere, spin projection operators,
the singlet state, the correlation ``<(sigma.a)(x)(sigma.b)>`` of any number
of setting pairs in one stacked evaluation, and two channel-by-channel
decompositions of it:

* the product-state decomposition over an auxiliary axis ``r``, whose four
  complex terms sum to the correlation for any choice of ``r``, and
* the eigenbasis decomposition over the joint eigenstates of the two
  projections, whose nonnegative weights sum to one and combine with the
  eigenvalues ``+/-1`` to give the correlation.

Everything here is a pure function of its inputs.  States are read-only
complex arrays: a spinor over ``(|+z>, |-z>)``, a two-spin state over the
product basis ``(++, +-, -+, --)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

__all__ = [
    "CHANNEL_EIGENVALUES", "CHANNEL_OUTCOMES", "BlochDirection", "channel_states",
    "channel_weights", "correlation_exact", "correlations_exact", "decompose_eigenbasis",
    "decompose_intermediate", "joint_projection", "product_states", "singlet",
    "spin_eigenbasis", "spin_projection",
]

_TAU = 2.0 * math.pi


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


PAULI_X = _frozen(np.array([[0, 1], [1, 0]], dtype=complex))
PAULI_Y = _frozen(np.array([[0, -1j], [1j, 0]], dtype=complex))
PAULI_Z = _frozen(np.array([[1, 0], [0, -1]], dtype=complex))
IDENTITY_2 = _frozen(np.eye(2, dtype=complex))

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_SINGLET = _frozen(np.array([0.0, _INV_SQRT2, -_INV_SQRT2, 0.0], dtype=complex))

# Outcome pair (alpha, beta) of each channel; every channel table and tally uses this order.
CHANNEL_OUTCOMES = ((1, -1), (-1, 1), (1, 1), (-1, -1))
CHANNEL_EIGENVALUES = tuple(alpha * beta for alpha, beta in CHANNEL_OUTCOMES)


@dataclass(frozen=True)
class BlochDirection:
    """A measurement axis on the Bloch sphere.

    Parameters
    ----------
    theta : float
        Zenith angle in radians; normalized into ``[0, pi]``.
    phi : float
        Azimuth angle in radians; normalized into ``[0, 2*pi)``.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        theta, phi = float(self.theta), float(self.phi)
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ValueError(f"direction angles must be finite, got ({theta}, {phi})")
        theta %= _TAU
        if theta > math.pi:
            theta = _TAU - theta
            phi += math.pi
        phi %= _TAU  # a tiny negative phi rounds up to _TAU itself
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", 0.0 if phi == _TAU else phi)

    @classmethod
    def from_vector(cls, v) -> "BlochDirection":
        """Direction along an arbitrary finite, nonzero 3-vector."""
        v = np.asarray(v, dtype=float).reshape(3)
        if not np.all(np.isfinite(v)):
            raise ValueError(f"cannot build a direction from a non-finite vector, got {v.tolist()}")
        if not v.any():  # atan2 and hypot take any scale; a norm would under- or overflow
            raise ValueError("cannot build a direction from the zero vector")
        x, y, z = v
        return cls(math.atan2(math.hypot(x, y), z), math.atan2(y, x))

    @property
    def unit_vector(self) -> np.ndarray:
        """Cartesian unit vector ``(sin t cos p, sin t sin p, cos t)``."""
        sin_t = math.sin(self.theta)
        return np.array(
            [sin_t * math.cos(self.phi), sin_t * math.sin(self.phi), math.cos(self.theta)]
        )

    def angle_to(self, other: "BlochDirection") -> float:
        """Separation angle in ``[0, pi]`` between the two axes.

        Taken as ``atan2(|u x v|, u . v)``, which stays accurate near 0 and pi
        where ``acos`` of the dot product loses the angle.
        """
        (ux, uy, uz), (vx, vy, vz) = self.unit_vector.tolist(), other.unit_vector.tolist()
        cross = math.hypot(uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx)
        return math.atan2(cross, ux * vx + uy * vy + uz * vz)


@dataclass(frozen=True)
class ChannelTerm:
    """One channel of a correlation decomposition.

    ``eigenvalue`` is ``+/-1`` in eigenbasis mode and ``None`` in
    intermediate mode, where the channel carries a complex weight instead.
    """

    index: int
    weight: complex
    eigenvalue: int | None = None


@dataclass(frozen=True)
class CorrelationBreakdown:
    """Per-channel decomposition of the singlet correlation, plus its total."""

    mode: Literal["intermediate", "eigenbasis"]
    channels: tuple[ChannelTerm, ...]
    total: float


def singlet() -> np.ndarray:
    """The two-spin singlet state, ``(|+-> - |-+>)/sqrt(2)`` in the z product basis."""
    return _SINGLET


def spin_eigenbasis(n: BlochDirection) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigenspinors of the spin projection along ``n``, over ``(|+z>, |-z>)``.

    Returns ``(plus, minus)`` with eigenvalues ``+1`` and ``-1``.
    """
    cos_half = math.cos(n.theta / 2.0)
    sin_half = math.sin(n.theta / 2.0)
    phase = complex(math.cos(n.phi), math.sin(n.phi))
    plus = np.array([cos_half, phase * sin_half], dtype=complex)
    minus = np.array([-phase.conjugate() * sin_half, cos_half], dtype=complex)
    return _frozen(plus), _frozen(minus)


def _spin_projections(units: np.ndarray) -> np.ndarray:
    """``sigma . n`` for each unit vector on the last axis of units, as a 2x2 per vector."""
    x, y, z = (units[..., i, None, None] for i in range(3))
    return x * PAULI_X + y * PAULI_Y + z * PAULI_Z


def _joint_projections(pairs) -> np.ndarray:
    """``(sigma . a) (x) (sigma . b)`` per setting pair, an ``(m, 4, 4)`` stack whose entry
    ``(2i + k, 2j + l)`` is the one product ``A[i, j] * B[k, l]``, as ``np.kron`` forms it."""
    units = np.array([(a.unit_vector, b.unit_vector) for a, b in pairs]).reshape(-1, 2, 3)
    pa, pb = _spin_projections(units[:, 0]), _spin_projections(units[:, 1])
    return (pa[:, :, None, :, None] * pb[:, None, :, None, :]).reshape(-1, 4, 4)


def spin_projection(n: BlochDirection) -> np.ndarray:
    """The 2x2 spin projection operator ``sigma . n`` (Hermitian, eigenvalues +/-1)."""
    return _spin_projections(n.unit_vector)


def joint_projection(a: BlochDirection, b: BlochDirection) -> np.ndarray:
    """The 4x4 operator ``(sigma . a) (x) (sigma . b)`` on the product basis."""
    return _joint_projections([(a, b)])[0]


# Setting pairs per stacked evaluation: about 1 MB of 4x4 complex operators, so
# memory stays bounded on the longest sweep grid.
_PAIR_BLOCK = 1 << 12


def correlations_exact(pairs) -> list[float]:
    """Singlet expectation ``(J @ psi0) @ conj(psi0)`` of the joint projection J at each
    setting pair ``(a, b)``, stacked per block of pairs.  Each value equals ``-a . b``
    but is computed from the matrix expectation, not that closed form."""
    pairs = list(pairs)
    values = []
    for lo in range(0, len(pairs), _PAIR_BLOCK):
        joint = _joint_projections(pairs[lo : lo + _PAIR_BLOCK])
        values += ((joint @ _SINGLET) @ _SINGLET.conj()).real.tolist()
    return values


def correlation_exact(a: BlochDirection, b: BlochDirection) -> float:
    """:func:`correlations_exact` of the one pair ``(a, b)``."""
    (value,) = correlations_exact([(a, b)])
    return value


def channel_states(a: BlochDirection, b: BlochDirection) -> tuple[np.ndarray, ...]:
    """Joint eigenstates of the two spin projections, in the order of ``CHANNEL_OUTCOMES``.

    The channel with outcomes ``(alpha, beta)`` is the product of the
    ``alpha`` eigenspinor along ``a`` (particle 1) and the ``beta`` one along
    ``b`` (particle 2); its joint eigenvalue is ``alpha * beta``.
    """
    basis_a, basis_b = spin_eigenbasis(a), spin_eigenbasis(b)
    # index 0 of an eigenbasis is the +1 eigenspinor, index 1 the -1 one
    return tuple(
        _frozen(np.kron(basis_a[alpha < 0], basis_b[beta < 0])) for alpha, beta in CHANNEL_OUTCOMES
    )


def product_states(r: BlochDirection) -> tuple[np.ndarray, ...]:
    """The four product states of the ``+/-r`` spinors, in the order of ``CHANNEL_OUTCOMES``."""
    return channel_states(r, r)


def decompose_intermediate(
    a: BlochDirection, b: BlochDirection, r: BlochDirection
) -> CorrelationBreakdown:
    """Split the singlet correlation over the product states of an auxiliary axis ``r``.

    Each channel weight is the complex term
    ``<psi0| (sigma.a x I) |k><k| (I x sigma.b) |psi0>`` for one of the four
    ``r`` product states ``|k>``.  The weights of the two parallel-spin
    channels are complex conjugates of each other, and the four weights sum
    to the (real) correlation for every choice of ``r``.
    """
    left = np.kron(spin_projection(a), IDENTITY_2) @ _SINGLET
    right = np.kron(IDENTITY_2, spin_projection(b)) @ _SINGLET
    terms = []
    for k, amp in enumerate(product_states(r), start=1):
        weight = complex(np.vdot(left, amp) * np.vdot(amp, right))
        terms.append(ChannelTerm(index=k, weight=weight))
    total = sum(t.weight for t in terms)
    return CorrelationBreakdown("intermediate", tuple(terms), float(total.real))


def decompose_eigenbasis(a: BlochDirection, b: BlochDirection) -> CorrelationBreakdown:
    """Split the singlet correlation over the joint eigenstates of the projections.

    Channel weights are squared overlaps of the singlet with the four joint
    eigenstates; they are nonnegative, sum to one, and weight the
    ``CHANNEL_EIGENVALUES`` in the total.
    """
    terms = []
    total = 0.0
    for k, (state, eig) in enumerate(zip(channel_states(a, b), CHANNEL_EIGENVALUES), start=1):
        weight = abs(complex(np.vdot(state, _SINGLET))) ** 2
        terms.append(ChannelTerm(index=k, weight=weight, eigenvalue=eig))
        total += eig * weight
    return CorrelationBreakdown("eigenbasis", tuple(terms), total)


def channel_weights(a: BlochDirection, b: BlochDirection) -> np.ndarray:
    """The four eigenbasis channel weights as an array summing to one."""
    return np.array([t.weight.real for t in decompose_eigenbasis(a, b).channels])
