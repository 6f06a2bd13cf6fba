import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, stats

from spincorr.harness import _hv_counts, _plus_thresholds
from spincorr.hidden import (
    HIDDEN_ANGLE,
    partition_measures,
    sample_phi,
    sample_singlet_batch,
    single_electron_correlation,
    singlet_correlation_analytic,
)
from spincorr.quantum import CHANNEL_OUTCOMES, BlochDirection, correlation_exact
from spincorr.streams import substream

separations = st.floats(0.0, math.pi, allow_nan=False)


def hv_kernel_counts(theta, u):
    """The runner's hv kernel at separation theta, built as the runner builds it."""
    (threshold,) = _plus_thresholds([theta])
    return _hv_counts(threshold, u)


class FixedDraws:
    """Generator stand-in returning a scripted block of uniforms."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, size):
        return self.values.reshape(size)


# --- distribution ---


def test_pdf_shape_and_support():
    assert HIDDEN_ANGLE.pdf(math.pi / 2) == pytest.approx(0.5)
    assert HIDDEN_ANGLE.pdf(-0.1) == 0.0
    assert HIDDEN_ANGLE.pdf(math.pi + 0.1) == 0.0
    grid = np.linspace(0.0, math.pi, 101)
    assert np.all(HIDDEN_ANGLE.pdf(grid) >= 0.0)


def test_pdf_normalizes_by_quadrature():
    x = np.linspace(0.0, math.pi, 20001)
    assert integrate.simpson(HIDDEN_ANGLE.pdf(x), x=x) == pytest.approx(1.0, abs=1e-10)


def test_cdf_endpoints_and_clamping():
    assert HIDDEN_ANGLE.cdf(0.0) == 0.0
    assert HIDDEN_ANGLE.cdf(math.pi) == pytest.approx(1.0)
    assert HIDDEN_ANGLE.cdf(-1.0) == 0.0
    assert HIDDEN_ANGLE.cdf(4.0) == pytest.approx(1.0)


def test_inverse_cdf_endpoints():
    assert sample_phi(0.0) == 0.0
    assert sample_phi(1.0) == pytest.approx(math.pi)
    assert sample_phi(0.5) == pytest.approx(math.pi / 2)


@pytest.mark.parametrize("bad", [-0.01, 1.01, math.nan, np.array([0.5, math.nan])], ids=str)
def test_inverse_cdf_domain(bad):
    with pytest.raises(ValueError):
        sample_phi(bad)


@given(st.floats(0.0, 1.0, allow_nan=False))
def test_cdf_inverts_inverse_cdf(u):
    assert HIDDEN_ANGLE.cdf(sample_phi(u)) == pytest.approx(u, abs=1e-9)


def test_draws_pass_kolmogorov_smirnov():
    u = substream(2026).random(100_000)
    result = stats.kstest(sample_phi(u), HIDDEN_ANGLE.cdf)
    assert result.pvalue > 0.001


def test_mean_cosine_of_draws_is_zero():
    # Var(cos phi) = 1/3 under this density
    n = 1_000_000
    u = substream(515).random(n)
    sigma = math.sqrt((1.0 / 3.0) / n)
    assert abs(np.cos(sample_phi(u)).mean()) < 4.0 * sigma


# --- partition ---


def test_partition_closed_forms():
    minus, plus = partition_measures(math.pi / 3)
    assert minus == pytest.approx(math.cos(math.pi / 6) ** 2, abs=1e-12)
    assert plus == pytest.approx(math.sin(math.pi / 6) ** 2, abs=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 2, 2.5, math.pi])
def test_partition_measures_match_quadrature(theta):
    minus, plus = partition_measures(theta)
    if theta > 0.0:
        x = np.linspace(0.0, theta, 20001)
        assert plus == pytest.approx(integrate.simpson(HIDDEN_ANGLE.pdf(x), x=x), abs=1e-12)
    if theta < math.pi:
        x = np.linspace(theta, math.pi, 20001)
        assert minus == pytest.approx(integrate.simpson(HIDDEN_ANGLE.pdf(x), x=x), abs=1e-12)


def test_partition_completeness_on_fine_grid():
    for theta in np.arange(0.0, math.pi + 1e-9, 0.001):
        minus, plus = partition_measures(min(float(theta), math.pi))
        assert abs(minus + plus - 1.0) < 1e-12


@pytest.mark.parametrize("bad", [-0.1, math.pi + 0.01])
def test_partition_domain(bad):
    with pytest.raises(ValueError):
        partition_measures(bad)


def test_boundary_angle_belongs_to_minus_region():
    # sample_phi(0.5) is exactly pi/2, so this draw sits on the boundary: alpha=+1, product -1
    assert sample_phi(0.5) == math.pi / 2
    assert hv_kernel_counts(math.pi / 2, np.array([[0.25, 0.5]])).tolist() == [1, 0, 0, 0]


def test_region_products_weight_the_measures_to_the_correlation():
    theta = 2 * math.pi / 3
    minus, plus = partition_measures(theta)
    assert plus - minus == pytest.approx(singlet_correlation_analytic(theta), abs=1e-12)


# --- analytic correlations ---


def test_analytic_trivials():
    assert singlet_correlation_analytic(0.0) == -1.0
    assert singlet_correlation_analytic(math.pi / 3) == pytest.approx(-0.5, abs=1e-12)


@given(separations)
def test_analytic_matches_exact_engine_for_coplanar_pairs(theta):
    exact = correlation_exact(BlochDirection(0.0), BlochDirection(theta))
    assert singlet_correlation_analytic(theta) == pytest.approx(exact, abs=1e-12)


def test_analytic_rejects_out_of_range():
    with pytest.raises(ValueError):
        singlet_correlation_analytic(-0.5)
    with pytest.raises(ValueError):
        singlet_correlation_analytic(np.array([0.1, 3.5]))
    with pytest.raises(ValueError):
        singlet_correlation_analytic(math.nan)
    with pytest.raises(ValueError):
        singlet_correlation_analytic(np.array([0.1, math.nan]))


# --- sampling ---


def test_scripted_draw_reproduces_the_worked_example():
    # alpha=+1 and phi=0.2 below the pi/3 boundary: both outcomes come out +1
    u_phi = 0.5 * (1.0 - math.cos(0.2))
    batch = sample_singlet_batch(math.pi / 3, 1, FixedDraws([0.2, u_phi]))
    assert batch.alpha.tolist() == [1]
    assert batch.phi[0] == pytest.approx(0.2, abs=1e-12)
    assert batch.a_product.tolist() == [1]
    assert batch.beta.tolist() == [1]


def test_record_product_identity():
    batch = sample_singlet_batch(1.1, 200, substream(77))
    assert np.array_equal(batch.a_product, batch.alpha * batch.beta)
    assert np.all((0.0 <= batch.phi) & (batch.phi <= math.pi))


def test_equal_settings_are_perfectly_anticorrelated():
    batch = sample_singlet_batch(0.0, 1000, substream(3))
    assert np.all(batch.a_product == -1)
    assert np.all(batch.alpha == -batch.beta)


def test_batch_matches_scalar_loop_bit_for_bit():
    # trial i is the model's rule applied to draws 2i (alpha) and 2i+1 (phi)
    theta, n = 0.8, 500
    batch = sample_singlet_batch(theta, n, substream(19, 4))
    u = substream(19, 4).random(2 * n).tolist()
    alpha = [1 if u[2 * i] < 0.5 else -1 for i in range(n)]
    phi = [sample_phi(u[2 * i + 1]) for i in range(n)]
    beta = [a * (1 if p < theta else -1) for a, p in zip(alpha, phi)]
    assert alpha == batch.alpha.tolist()
    assert phi == batch.phi.tolist()
    assert beta == batch.beta.tolist()


@pytest.mark.parametrize("theta", [0.0, 1e-9, 0.3, 1.0, math.pi / 2, 2.5, math.pi - 1e-12, math.pi])
def test_hv_kernel_tallies_the_batch_channels(theta):
    # the runner's kernel on a chunk of uniforms against the readable model on the same draws
    n = 100_003
    batch = sample_singlet_batch(theta, n, substream(29, 2))
    outcomes = list(zip(batch.alpha.tolist(), batch.beta.tolist()))
    tally = [outcomes.count(pair) for pair in CHANNEL_OUTCOMES]
    assert hv_kernel_counts(theta, substream(29, 2).random((n, 2))).tolist() == tally


def test_sampled_mean_product_tracks_the_analytic_curve():
    n = 1_000_000
    batch = sample_singlet_batch(math.pi / 3, n, substream(11))
    sigma = math.sqrt((1.0 - 0.25) / n)
    assert abs(batch.a_product.mean() + 0.5) < 4.0 * sigma


def test_product_statistics_do_not_depend_on_which_side_fired_first():
    # conditioning on either alpha outcome gives the same mean product
    batch = sample_singlet_batch(math.pi / 2, 1_000_000, substream(23))
    products = batch.a_product
    up = products[batch.alpha == 1]
    down = products[batch.alpha == -1]
    diff = up.mean() - down.mean()
    sigma = math.sqrt(
        (1.0 - up.mean() ** 2) / up.size + (1.0 - down.mean() ** 2) / down.size
    )
    assert abs(diff) < 5.0 * sigma


def test_batch_count_validation():
    with pytest.raises(ValueError):
        sample_singlet_batch(1.0, 0, substream(0))


@pytest.mark.parametrize("count", [2.0, np.float64(5.0), True, "3", None])
def test_batch_count_must_be_an_integer(count):
    with pytest.raises(ValueError, match="count must be an integer"):
        sample_singlet_batch(1.0, count, substream(0))


# --- single-electron variant ---


def test_single_electron_analytic_is_plus_cosine():
    for theta in (0.0, math.pi / 3, math.pi / 2, math.pi):
        assert single_electron_correlation(theta) == pytest.approx(math.cos(theta), abs=1e-15)
