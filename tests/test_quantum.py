import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spincorr import quantum
from spincorr.quantum import (
    CHANNEL_EIGENVALUES,
    IDENTITY_2,
    CHANNEL_OUTCOMES,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    BlochDirection,
    channel_states,
    channel_weights,
    correlation_exact,
    correlations_exact,
    decompose_eigenbasis,
    decompose_intermediate,
    joint_projection,
    product_states,
    singlet,
    spin_eigenbasis,
    spin_projection,
)

angles = st.floats(-10.0, 10.0, allow_nan=False)
directions = st.builds(BlochDirection, angles, angles)


def projection_oracle(theta, phi):
    """Spin projection written out entrywise, independent of the Pauli sum."""
    return np.array(
        [
            [math.cos(theta), math.sin(theta) * cmath.exp(-1j * phi)],
            [math.sin(theta) * cmath.exp(1j * phi), -math.cos(theta)],
        ]
    )


# --- directions ---


def test_direction_normalizes_zenith_overflow():
    d = BlochDirection(3 * math.pi / 2, 0.0)
    assert d.theta == pytest.approx(math.pi / 2)
    assert d.phi == pytest.approx(math.pi)


@pytest.mark.parametrize("phi", [-1e-17, -5e-324, -2.0 * math.pi * 2.0**-54])
def test_direction_azimuth_stays_below_two_pi(phi):
    # phi % 2 pi rounds a tiny negative azimuth up to 2 pi itself
    d = BlochDirection(1.0, phi)
    assert d.phi == 0.0


def test_direction_negative_zenith_lands_in_opposite_half_plane():
    d = BlochDirection(-math.pi / 4)
    assert d.theta == pytest.approx(math.pi / 4)
    assert d.phi == pytest.approx(math.pi)
    assert d.unit_vector == pytest.approx([-math.sin(math.pi / 4), 0.0, math.cos(math.pi / 4)])


@pytest.mark.parametrize(
    "theta,phi", [(math.inf, 0.0), (math.nan, 0.0), (0.0, -math.inf), (1.0, math.nan)]
)
def test_direction_rejects_non_finite_angles(theta, phi):
    with pytest.raises(ValueError, match="finite"):
        BlochDirection(theta, phi)


@given(directions)
def test_unit_vector_has_unit_norm(d):
    assert np.linalg.norm(d.unit_vector) == pytest.approx(1.0, abs=1e-12)


@given(directions)
@example(BlochDirection(5.586261508006219e-09))  # acos(z) rounds this zenith to 0
def test_from_vector_round_trip(d):
    again = BlochDirection.from_vector(d.unit_vector)
    assert np.allclose(again.unit_vector, d.unit_vector, atol=1e-9)


@pytest.mark.parametrize(
    "v,theta,phi",
    [
        ([1e-200, 0.0, 0.0], math.pi / 2, 0.0),
        ([0.0, 0.0, -1e-170], math.pi, 0.0),
        ([5e-324, 0.0, 0.0], math.pi / 2, 0.0),
        ([1e300, 1e300, 0.0], math.pi / 2, math.pi / 4),
    ],
    ids=["tiny", "tiny-south", "subnormal", "huge"],
)
def test_from_vector_takes_any_scale(v, theta, phi):
    # the zero test must not square the components, which under- or overflow
    d = BlochDirection.from_vector(v)
    assert (d.theta, d.phi) == (theta, phi)


@pytest.mark.parametrize(
    "v",
    [[0.0, 0.0, 0.0], [-0.0, 0.0, 0.0], [math.inf, -math.inf, math.inf], [math.inf, 0.0, 0.0]],
    ids=["zero", "negative-zero", "infinite", "one-infinite"],
)
def test_from_vector_rejects_zero(v):
    with pytest.raises(ValueError):
        BlochDirection.from_vector(v)


@given(directions, directions)
def test_angle_to_is_symmetric_and_bounded(d1, d2):
    assert d1.angle_to(d2) == pytest.approx(d2.angle_to(d1), abs=1e-12)
    assert 0.0 <= d1.angle_to(d2) <= math.pi


@pytest.mark.parametrize("delta", [1e-9, 1e-7, 1e-4])
def test_angle_to_is_accurate_near_zero_and_pi(delta):
    separation = (1.0 + delta) - 1.0  # the exact zenith difference of the two axes
    for phi in (0.0, 0.7):
        near = BlochDirection(1.0, phi).angle_to(BlochDirection(1.0 + delta, phi))
        assert near == pytest.approx(separation, rel=1e-6, abs=0.0)
    far = BlochDirection(0.0).angle_to(BlochDirection(math.pi - delta))
    assert far < math.pi
    assert far == pytest.approx(math.pi - delta, rel=0.0, abs=1e-15)


# --- spin projection and eigenbasis ---


@given(directions)
def test_projection_matches_entrywise_oracle(d):
    assert np.allclose(spin_projection(d), projection_oracle(d.theta, d.phi), atol=1e-12)


@given(directions)
def test_projection_is_a_spin_observable(d):
    op = spin_projection(d)
    assert np.allclose(op, op.conj().T, atol=1e-12)
    assert abs(np.trace(op)) < 1e-12
    assert np.allclose(op @ op, np.eye(2), atol=1e-12)


@given(directions)
def test_eigenspinors_have_stated_eigenvalues(d):
    op = spin_projection(d)
    plus, minus = spin_eigenbasis(d)
    assert np.allclose(op @ plus, plus, atol=1e-12)
    assert np.allclose(op @ minus, -minus, atol=1e-12)


@given(directions)
def test_eigenspinors_are_orthonormal(d):
    plus, minus = spin_eigenbasis(d)
    assert np.linalg.norm(plus) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(minus) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(plus, minus)) < 1e-12


# --- states ---


def test_singlet_amplitudes():
    inv = 1.0 / math.sqrt(2.0)
    assert np.allclose(singlet(), [0.0, inv, -inv, 0.0], atol=0.0)
    assert np.linalg.norm(singlet()) == pytest.approx(1.0)


@given(directions)
def test_singlet_is_the_same_in_every_spin_basis(r):
    # antisymmetric combination of the +/-r product states, including phase
    plus_minus, minus_plus, _, _ = product_states(r)
    rebuilt = (plus_minus - minus_plus) / math.sqrt(2.0)
    assert np.allclose(rebuilt, singlet(), atol=1e-12)


def test_product_state_amplitude_layout():
    # r along +z: the first channel, outcomes (+1, -1), is |+z>|-z>, amplitude (+-)
    assert CHANNEL_OUTCOMES[0] == (1, -1)
    assert np.array_equal(product_states(BlochDirection(0))[0], [0.0, 1.0, 0.0, 0.0])


def test_amplitudes_are_immutable():
    d, e = BlochDirection(0.3, 1.1), BlochDirection(2.0, 5.0)
    states = [singlet(), *spin_eigenbasis(d), *channel_states(d, e), *product_states(d)]
    assert len(states) == 11
    for state in states:
        with pytest.raises(ValueError):
            state[0] = 1.0


# --- exact correlation ---


@given(directions, directions)
def test_correlation_is_minus_dot_product(a, b):
    expected = -float(np.dot(a.unit_vector, b.unit_vector))
    assert correlation_exact(a, b) == pytest.approx(expected, abs=1e-12)


def test_correlation_at_right_angle_vanishes():
    assert abs(correlation_exact(BlochDirection(0.0), BlochDirection(math.pi / 2))) < 1e-12


def per_pair_correlation(a, b):
    """The per-pair engine the stacked one replaced: a Pauli sum per axis, np.kron
    of the two, and the singlet sandwich by np.vdot."""

    def projection(n):
        x, y, z = n.unit_vector
        return x * PAULI_X + y * PAULI_Y + z * PAULI_Z

    psi = singlet()
    return float(np.vdot(psi, np.kron(projection(a), projection(b)) @ psi).real)


def assert_same_bits(got, want):
    assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))


def sweep_grid_pairs():
    """The pairs of ``sweep --grid 0:180:0.1 --deg``: (zenith 0, zenith theta)."""
    conv = math.pi / 180.0
    return [(BlochDirection(0.0), BlochDirection(min(0.1 * k, 180.0) * conv)) for k in range(1801)]


def random_pairs(count, seed):
    """Pairs with azimuths in (0, 2 pi) and zeniths spread over [0, pi], within
    1e-12..1e-1 of 0, and within that of pi, a third each."""
    rng = np.random.default_rng(seed)
    near = 10.0 ** rng.uniform(-12.0, -1.0, (count, 2))
    zenith = np.select(
        [np.arange(count)[:, None] % 3 == k for k in range(3)],
        [rng.uniform(0.0, math.pi, (count, 2)), near, math.pi - near],
    )
    azimuth = rng.uniform(1e-3, 2.0 * math.pi - 1e-3, (count, 2))
    return [
        (BlochDirection(ta, pa), BlochDirection(tb, pb))
        for (ta, tb), (pa, pb) in zip(zenith.tolist(), azimuth.tolist())
    ]


@pytest.mark.parametrize(
    "pairs", [sweep_grid_pairs(), random_pairs(3000, seed=16)], ids=["sweep-grid", "random"]
)
def test_stacked_correlations_equal_the_per_pair_engine_bit_for_bit(pairs):
    assert_same_bits(correlations_exact(pairs), [per_pair_correlation(a, b) for a, b in pairs])


def test_stacked_correlations_do_not_depend_on_the_block(monkeypatch):
    pairs = random_pairs(100, seed=3)
    whole = correlations_exact(pairs)
    monkeypatch.setattr(quantum, "_PAIR_BLOCK", 7)
    assert_same_bits(correlations_exact(iter(pairs)), whole)


def test_no_pairs_give_no_correlations():
    assert correlations_exact([]) == []
    assert correlations_exact(iter(())) == []


@given(directions, directions)
def test_batch_of_one_is_correlation_exact(a, b):
    (value,) = correlations_exact([(a, b)])
    assert_same_bits(value, correlation_exact(a, b))
    assert type(value) is float


def test_joint_projection_is_the_kronecker_product():
    for a, b in random_pairs(30, seed=5):
        want = np.kron(spin_projection(a), spin_projection(b))
        assert np.array_equal(joint_projection(a, b).view(np.int64), want.view(np.int64))


def test_joint_projection_is_hermitian_involution():
    a, b = BlochDirection(0.3, 1.1), BlochDirection(2.0, 5.0)
    op = joint_projection(a, b)
    assert np.allclose(op, op.conj().T, atol=1e-12)
    assert np.allclose(op @ op, np.eye(4), atol=1e-12)


# --- intermediate decomposition ---


def vector_oracle_parallel(r, a, b):
    return -0.5 * (r @ a) * (r @ b)


def vector_oracle_cross(r, a, b):
    return -0.5 * (np.cross(r, a) @ np.cross(r, b) - 1j * (r @ np.cross(a, b)))


@given(directions, directions, directions)
def test_intermediate_terms_match_vector_oracles(a, b, r):
    av, bv, rv = a.unit_vector, b.unit_vector, r.unit_vector
    f1, f2, f3, f4 = (t.weight for t in decompose_intermediate(a, b, r).channels)
    assert f1 == pytest.approx(vector_oracle_parallel(rv, av, bv), abs=1e-12)
    assert f2 == pytest.approx(vector_oracle_parallel(rv, av, bv), abs=1e-12)
    assert f3 == pytest.approx(vector_oracle_cross(rv, av, bv), abs=1e-12)
    assert f4 == pytest.approx(f3.conjugate(), abs=1e-12)


@given(directions, directions, directions)
def test_intermediate_terms_sum_to_the_correlation_for_any_axis(a, b, r):
    breakdown = decompose_intermediate(a, b, r)
    total = sum(t.weight for t in breakdown.channels)
    assert abs(total.imag) < 1e-12
    assert total.real == pytest.approx(-np.dot(a.unit_vector, b.unit_vector), abs=1e-12)
    assert breakdown.total == pytest.approx(total.real, abs=0.0)


@pytest.mark.parametrize(
    "t_a,t_b,t_r",
    [
        (0.0, math.pi / 2, math.pi / 4),
        (math.pi / 6, 2 * math.pi / 3, 5 * math.pi / 12),
        (-0.4, 0.9, 0.3),
        (0.7, 0.7, -1.2),
    ],
)
def test_coplanar_intermediate_closed_form_with_signed_angles(t_a, t_b, t_r):
    # directions in the x-z plane at signed zenith angles; the closed form
    # uses the signed differences, not the absolute separations
    a, b, r = BlochDirection(t_a), BlochDirection(t_b), BlochDirection(t_r)
    theta_ra, theta_rb = t_a - t_r, t_b - t_r
    f1, f2, f3, f4 = (t.weight for t in decompose_intermediate(a, b, r).channels)
    assert f1 == pytest.approx(-0.5 * math.cos(theta_ra) * math.cos(theta_rb), abs=1e-12)
    assert f2 == pytest.approx(f1, abs=1e-12)
    assert f3 == pytest.approx(-0.5 * math.sin(theta_ra) * math.sin(theta_rb), abs=1e-12)
    assert f4 == pytest.approx(f3, abs=1e-12)


def test_coplanar_quarter_case():
    # a at 0, b at 90 degrees, r halfway: parallel terms -1/4, cross terms +1/4
    a, b, r = BlochDirection(0.0), BlochDirection(math.pi / 2), BlochDirection(math.pi / 4)
    weights = [t.weight for t in decompose_intermediate(a, b, r).channels]
    assert weights == pytest.approx([-0.25, -0.25, 0.25, 0.25], abs=1e-12)


# --- eigenbasis decomposition ---


@given(directions, directions)
def test_eigenbasis_weights_match_half_angle_forms(a, b):
    theta = a.angle_to(b)
    c1, c2, c3, c4 = (t.weight for t in decompose_eigenbasis(a, b).channels)
    anti = 0.5 * math.cos(theta / 2.0) ** 2
    para = 0.5 * math.sin(theta / 2.0) ** 2
    assert c1 == pytest.approx(anti, abs=1e-12)
    assert c2 == pytest.approx(anti, abs=1e-12)
    assert c3 == pytest.approx(para, abs=1e-12)
    assert c4 == pytest.approx(para, abs=1e-12)


@given(directions, directions)
def test_eigenbasis_weights_are_a_distribution(a, b):
    weights = channel_weights(a, b)
    assert np.all(weights >= 0.0)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


@given(directions, directions)
def test_eigenbasis_total_equals_exact_correlation(a, b):
    breakdown = decompose_eigenbasis(a, b)
    assert breakdown.total == pytest.approx(correlation_exact(a, b), abs=1e-12)
    recombined = sum(t.eigenvalue * t.weight for t in breakdown.channels)
    assert breakdown.total == pytest.approx(recombined, abs=1e-12)


def test_channel_eigenvalue_order():
    assert CHANNEL_OUTCOMES == ((1, -1), (-1, 1), (1, 1), (-1, -1))
    assert CHANNEL_EIGENVALUES == (-1, -1, 1, 1)
    eigs = [t.eigenvalue for t in decompose_eigenbasis(BlochDirection(0), BlochDirection(1)).channels]
    assert eigs == [-1, -1, 1, 1]


@given(directions, directions)
def test_channel_states_resolve_the_identity(a, b):
    total = np.zeros((4, 4), dtype=complex)
    for state in channel_states(a, b):
        total += np.outer(state, state.conj())
    assert np.allclose(total, np.eye(4), atol=1e-12)


@given(directions, directions)
def test_channel_states_diagonalize_the_joint_projection(a, b):
    op = joint_projection(a, b)
    for state, eig in zip(channel_states(a, b), CHANNEL_EIGENVALUES):
        assert np.allclose(op @ state, eig * state, atol=1e-12)


@given(directions, directions)
def test_channel_states_carry_their_outcomes(a, b):
    side_a = np.kron(spin_projection(a), IDENTITY_2)
    side_b = np.kron(IDENTITY_2, spin_projection(b))
    for state, (alpha, beta) in zip(channel_states(a, b), CHANNEL_OUTCOMES):
        assert np.allclose(side_a @ state, alpha * state, atol=1e-12)
        assert np.allclose(side_b @ state, beta * state, atol=1e-12)


def test_equal_settings_weights():
    weights = channel_weights(BlochDirection(0.7, 0.2), BlochDirection(0.7, 0.2))
    assert weights == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-12)
