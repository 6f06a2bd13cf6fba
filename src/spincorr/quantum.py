"""Exact spin correlations for the two-qubit singlet state.

Small complex linear algebra engine for a pair of spin-1/2 particles:
measurement directions on the Bloch sphere, spin projection operators,
the singlet state, and two channel-by-channel decompositions of the
correlation ``<(sigma.a)(x)(sigma.b)>``:

* the product-state decomposition over an auxiliary axis ``r``, whose four
  complex terms sum to the correlation for any choice of ``r``, and
* the eigenbasis decomposition over the joint eigenstates of the two
  projections, whose nonnegative weights sum to one and combine with the
  eigenvalues ``+/-1`` to give the correlation.

Everything here is a pure function of its inputs; all values are immutable
after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

_TAU = 2.0 * math.pi

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
for _m in (PAULI_X, PAULI_Y, PAULI_Z, IDENTITY_2):
    _m.setflags(write=False)
del _m


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
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi % _TAU)

    @classmethod
    def from_vector(cls, v) -> "BlochDirection":
        """Direction along an arbitrary finite, nonzero 3-vector."""
        v = np.asarray(v, dtype=float).reshape(3)
        if not np.all(np.isfinite(v)):
            raise ValueError(f"cannot build a direction from a non-finite vector, got {v.tolist()}")
        if float(np.linalg.norm(v)) == 0.0:
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
class Spinor:
    """Single spin-1/2 state as amplitudes over the z basis ``(|+z>, |-z>)``."""

    up: complex
    down: complex

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.up, self.down], dtype=complex)


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Two spin-1/2 state over the product z basis, ordered ``(++, +-, -+, --)``."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).reshape(4)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_product(cls, first: Spinor, second: Spinor) -> "BipartiteState":
        """Tensor product ``first (x) second``; amplitude ``(i, j)`` is ``first_i * second_j``."""
        return cls(np.kron(first.vector, second.vector))

    def overlap(self, other: "BipartiteState") -> complex:
        """Hermitian inner product ``<self|other>``."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))


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


def singlet() -> BipartiteState:
    """The two-spin singlet state, ``(|+-> - |-+>)/sqrt(2)`` in the z product basis."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return BipartiteState(np.array([0.0, inv_sqrt2, -inv_sqrt2, 0.0], dtype=complex))


def spin_eigenbasis(n: BlochDirection) -> tuple[Spinor, Spinor]:
    """Orthonormal eigenspinors of the spin projection along ``n``.

    Returns ``(plus, minus)`` with eigenvalues ``+1`` and ``-1``.
    """
    cos_half = math.cos(n.theta / 2.0)
    sin_half = math.sin(n.theta / 2.0)
    phase = complex(math.cos(n.phi), math.sin(n.phi))
    plus = Spinor(complex(cos_half), phase * sin_half)
    minus = Spinor(-phase.conjugate() * sin_half, complex(cos_half))
    return plus, minus


def spin_projection(n: BlochDirection) -> np.ndarray:
    """The 2x2 spin projection operator ``sigma . n`` (Hermitian, eigenvalues +/-1)."""
    x, y, z = n.unit_vector
    return x * PAULI_X + y * PAULI_Y + z * PAULI_Z


def joint_projection(a: BlochDirection, b: BlochDirection) -> np.ndarray:
    """The 4x4 operator ``(sigma . a) (x) (sigma . b)`` on the product basis."""
    return np.kron(spin_projection(a), spin_projection(b))


def correlation_exact(a: BlochDirection, b: BlochDirection) -> float:
    """Singlet expectation of the joint projection, via the full 4x4 sandwich.

    Equals ``-a . b`` for any pair of directions; the value is computed from
    the matrix expectation rather than that closed form.
    """
    psi = singlet().amplitudes
    return float(np.vdot(psi, joint_projection(a, b) @ psi).real)


def product_states(r: BlochDirection) -> tuple[BipartiteState, ...]:
    """The four product states of the ``+/-r`` spinors, ordered ``(+-, -+, ++, --)``."""
    plus, minus = spin_eigenbasis(r)
    return (
        BipartiteState.from_product(plus, minus),
        BipartiteState.from_product(minus, plus),
        BipartiteState.from_product(plus, plus),
        BipartiteState.from_product(minus, minus),
    )


def channel_states(a: BlochDirection, b: BlochDirection) -> tuple[BipartiteState, ...]:
    """Joint eigenstates of the two spin projections, ordered ``(+-, -+, ++, --)``.

    The first index is the eigenvalue sign along ``a`` (particle 1), the
    second along ``b`` (particle 2); the product of the signs is the
    eigenvalue of the joint projection on that state.
    """
    plus_a, minus_a = spin_eigenbasis(a)
    plus_b, minus_b = spin_eigenbasis(b)
    return (
        BipartiteState.from_product(plus_a, minus_b),
        BipartiteState.from_product(minus_a, plus_b),
        BipartiteState.from_product(plus_a, plus_b),
        BipartiteState.from_product(minus_a, minus_b),
    )


CHANNEL_EIGENVALUES = (-1, -1, +1, +1)


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
    psi = singlet().amplitudes
    left = np.kron(spin_projection(a), IDENTITY_2) @ psi
    right = np.kron(IDENTITY_2, spin_projection(b)) @ psi
    terms = []
    for k, state in enumerate(product_states(r), start=1):
        amp = state.amplitudes
        weight = complex(np.vdot(left, amp) * np.vdot(amp, right))
        terms.append(ChannelTerm(index=k, weight=weight))
    total = sum(t.weight for t in terms)
    return CorrelationBreakdown("intermediate", tuple(terms), float(total.real))


def decompose_eigenbasis(a: BlochDirection, b: BlochDirection) -> CorrelationBreakdown:
    """Split the singlet correlation over the joint eigenstates of the projections.

    Channel weights are squared overlaps of the singlet with the four joint
    eigenstates; they are nonnegative, sum to one, and weight the channel
    eigenvalues ``(-1, -1, +1, +1)`` in the total.
    """
    psi0 = singlet()
    terms = []
    total = 0.0
    for k, (state, eig) in enumerate(zip(channel_states(a, b), CHANNEL_EIGENVALUES), start=1):
        weight = abs(state.overlap(psi0)) ** 2
        terms.append(ChannelTerm(index=k, weight=weight, eigenvalue=eig))
        total += eig * weight
    return CorrelationBreakdown("eigenbasis", tuple(terms), total)


def channel_weights(a: BlochDirection, b: BlochDirection) -> np.ndarray:
    """The four eigenbasis channel weights as an array summing to one."""
    return np.array([t.weight.real for t in decompose_eigenbasis(a, b).channels])
