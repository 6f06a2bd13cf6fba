import math
import os
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from spincorr import harness
from spincorr.harness import (
    CHSH_SIGNS,
    ChshReport,
    PairResult,
    SettingSeries,
    canonical_settings,
    estimate_correlation,
    run_chsh,
    run_series,
    run_transfer_baseline,
    transfer_correlation_analytic,
)
from spincorr.cli import main
from spincorr.hidden import sample_phi
from spincorr.quantum import BlochDirection, channel_weights
from spincorr.streams import BLOCK_DRAWS, substream
from test_golden import CASES

Z = BlochDirection(0.0)


def coplanar(theta):
    return BlochDirection(theta)


def _sweep_pairs(*separations):
    return [(Z, coplanar(t)) for t in separations]


# --- series and estimator ---


def test_series_validates_counts():
    bad = [(1, 2, 3), (1, -2, 3, 4), (1.5, 0.9, 0, 0), ("3", 0, 0, 0), (math.inf, 0, 0, 0),
           (np.float64(2.0), 0, 0, 0), (True, 0, 0, 0)]
    for counts in bad:
        with pytest.raises(ValueError):
            SettingSeries(Z, Z, counts)
    # the runner's tallies are numpy integers; the series holds plain ints
    counts = SettingSeries(Z, Z, np.array([3, 0, 1, 2])).counts
    assert counts == (3, 0, 1, 2) and all(type(c) is int for c in counts)


def test_series_total_and_separation():
    s = SettingSeries(Z, coplanar(math.pi / 2), (10, 20, 30, 40))
    assert s.total == 100
    assert s.separation == pytest.approx(math.pi / 2)


@pytest.mark.parametrize(
    "counts,expected",
    [
        ((25, 25, 25, 25), 0.0),
        ((50, 50, 0, 0), -1.0),
        ((30, 30, 20, 20), -0.2),
    ],
)
def test_estimator_arithmetic(counts, expected):
    estimate, std_error = estimate_correlation(SettingSeries(Z, Z, counts))
    assert estimate == pytest.approx(expected, abs=1e-15)
    n = sum(counts)
    assert std_error == pytest.approx(math.sqrt((1.0 - expected**2) / n), abs=1e-15)


def test_estimator_rejects_empty_series():
    with pytest.raises(ValueError):
        estimate_correlation(SettingSeries(Z, Z, (0, 0, 0, 0)))


def test_run_series_requires_trials():
    with pytest.raises(ValueError):
        run_series(Z, Z, 0)
    with pytest.raises(ValueError):
        run_series(Z, Z, 10, model="bogus")


def test_equal_settings_give_no_parallel_coincidences():
    series = run_series(Z, Z, 5000, "hv", seed=1)
    assert series.counts[2] == 0
    assert series.counts[3] == 0
    assert series.total == 5000


def test_right_angle_series_populates_channels_evenly():
    n = 1_000_000
    series = run_series(Z, coplanar(math.pi / 2), n, "hv", seed=6)
    sigma = math.sqrt(0.25 * 0.75 / n)
    for count in series.counts:
        assert abs(count / n - 0.25) < 4.0 * sigma


def test_sixty_degree_series_antiparallel_fraction():
    n = 1_000_000
    series = run_series(Z, coplanar(math.pi / 3), n, "hv", seed=12)
    sigma = math.sqrt(0.75 * 0.25 / n)
    assert abs((series.counts[0] + series.counts[1]) / n - 0.75) < 4.0 * sigma


def test_quantum_sampler_channel_proportions():
    n = 1_000_000
    series = run_series(Z, coplanar(math.pi / 3), n, "quantum-sampler", seed=40)
    for count, weight in zip(series.counts, (0.375, 0.375, 0.125, 0.125)):
        sigma = math.sqrt(weight * (1.0 - weight) / n)
        assert abs(count / n - weight) < 4.0 * sigma


@pytest.mark.parametrize("model", harness.SAMPLED_MODELS)
def test_series_counts_do_not_depend_on_worker_count(model):
    kwargs = dict(model=model, seed=99, stream=2)
    reference = run_series(Z, coplanar(1.0), 10_001, **kwargs)
    for workers in (2, 3, 8):
        again = run_series(Z, coplanar(1.0), 10_001, workers=workers, **kwargs)
        assert again.counts == reference.counts


def test_series_are_keyed_by_stream_not_call_order():
    a, a_prime, b, b_prime = canonical_settings()
    pairs = [(a, b, 0), (a, b_prime, 1), (a_prime, b, 2), (a_prime, b_prime, 3)]
    forward = {s: run_series(x, y, 4000, "hv", 5, stream=s) for x, y, s in pairs}
    backward = {s: run_series(x, y, 4000, "hv", 5, stream=s) for x, y, s in reversed(pairs)}
    for s in range(4):
        assert forward[s].counts == backward[s].counts


def test_chsh_pairs_match_standalone_series():
    a, a_prime, b, b_prime = canonical_settings()
    report = run_chsh(a, a_prime, b, b_prime, 4000, "hv", seed=5)
    pairs = [(a, b, 0), (a, b_prime, 1), (a_prime, b, 2), (a_prime, b_prime, 3)]
    for pair, (x, y, s) in zip(report.pairs, pairs):
        assert pair.series.counts == run_series(x, y, 4000, "hv", 5, stream=s).counts


@pytest.mark.parametrize("model", ["hv", "quantum-sampler"])
def test_pair_k_draws_on_stream_plus_k(model):
    pairs = _sweep_pairs(0.3, 2.0, math.pi)
    for k, series in enumerate(harness.run_pairs(pairs, 3000, model, 4, stream=7)):
        assert series.counts == run_series(*pairs[k], 3000, model, 4, stream=7 + k).counts


# --- trial runner ---


def test_chunk_size_is_block_aligned():
    assert harness.CHUNK_TRIALS % BLOCK_DRAWS == 0


def _runner_counts(workers):
    settings = a, _, b, b_prime = canonical_settings()
    n = 1001
    return [
        run_series(a, b, n, "hv", seed=3, stream=1, workers=workers).counts,
        run_series(a, b_prime, n, "quantum-sampler", seed=3, stream=2, workers=workers).counts,
        [p.series.counts for p in run_transfer_baseline(*settings, n, 3, workers=workers).pairs],
        [p.series.counts for p in run_chsh(*settings, n, "quantum-sampler", 3, workers=workers).pairs],
        [s.counts for s in harness.run_pairs(_sweep_pairs(0.0, 0.4, 2.5), n, seed=3, workers=workers)],
    ]


@pytest.mark.parametrize("workers", [1, 3])
def test_small_chunks_reproduce_single_chunk_counts(monkeypatch, workers):
    reference = _runner_counts(1)
    monkeypatch.setattr(harness, "CHUNK_TRIALS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads interleave often, so a lost update would show
    try:
        assert _runner_counts(workers) == reference
    finally:
        sys.setswitchinterval(interval)


def test_one_pool_serves_every_job(monkeypatch):
    pools = []

    class Recorder(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", Recorder)
    monkeypatch.setattr(harness, "CHUNK_TRIALS", 8)
    run_chsh(*canonical_settings(), 101, "hv", seed=1, workers=2)
    harness.run_pairs(_sweep_pairs(*(0.1 * k for k in range(30))), 5, "hv", seed=1, workers=2)
    threads = min(2, os.cpu_count() or 1)
    assert pools == ([threads, threads] if threads > 1 else [])


@pytest.mark.parametrize("draws", [1, 2])
@pytest.mark.parametrize("workers", [1, 2])
def test_runner_hands_each_kernel_its_stream_chunks_once(monkeypatch, workers, draws):
    monkeypatch.setattr(harness, "CHUNK_TRIALS", 8)
    n, seed, stream = 29, 11, 5
    received = [[], [], []]

    def recorder(k):
        def kernel(u):
            received[k].append(u.copy())
            return np.array([len(u), 0, 0, 0])

        return kernel

    counts = harness._run([recorder(k) for k in range(3)], n, draws, seed, stream, workers)
    assert [c.tolist() for c in counts] == [[n, 0, 0, 0]] * 3
    for k, chunks in enumerate(received):
        expected = [
            substream(seed, stream + k, draw_offset=draws * lo).random((min(8, n - lo), draws))
            for lo in range(0, n, 8)
        ]
        assert len(chunks) == len(expected)
        for want in expected:
            assert sum(np.array_equal(got, want) for got in chunks) == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_runner_memory_does_not_grow_with_n(monkeypatch, workers):
    def no_draws(*args, **kwargs):
        raise RuntimeError("first chunk reached")

    monkeypatch.setattr(harness, "substream", no_draws)
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match="first chunk"):
            harness._run([harness._hv_counts], 1 << 34, 2, 0, 0, workers)  # 2^18 chunks
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "name,bad",
    [("workers", 0), ("workers", 1.5), ("workers", True), ("workers", np.float64(2.0)),
     ("n", 0), ("n", 1e3), ("n", True), ("seed", 1.9), ("stream", 0.5)],
)
def test_runner_rejects_nonpositive_workers(name, bad):
    # the runner takes Python or NumPy integers, never a bool or a float
    kwargs = {"n": 10, "seed": 1, "stream": 0, "workers": 1, name: bad}
    with pytest.raises(ValueError):
        run_series(Z, Z, **kwargs)


def test_hv_sweep_rejects_a_separation_out_of_range():
    with pytest.raises(ValueError):
        harness._plus_thresholds([4.0])


@pytest.mark.parametrize("bad", [-0.1, math.pi + 0.01, -math.inf, math.nan])
def test_hv_separation_outside_zero_pi_keeps_its_message(bad):
    with pytest.raises(ValueError, match=r"^separation angle must lie in \[0, pi\], got"):
        harness._plus_thresholds([0.5, bad])


# --- kernels ---


class _Recorded(Exception):
    pass


def _hv_separations(argv, monkeypatch, out) -> list[float]:
    """Separations a CLI run hands to the hv threshold search (none for other models)."""
    seen = []

    def record(separations):
        seen.extend(separations)
        raise _Recorded

    with monkeypatch.context() as patch:
        patch.setattr(harness, "_plus_thresholds", record)
        try:
            main([*argv, "--out", str(out)])
        except _Recorded:
            pass
    return seen


def test_hv_threshold_splits_the_lattice_where_sample_phi_does(monkeypatch, tmp_path):
    # the lattice points below the threshold are plus under sample_phi, the rest are not
    out = tmp_path / "doc"
    golden = [t for name, argv in CASES.items() if name.endswith(".csv")
              for t in _hv_separations(argv, monkeypatch, out)]
    sweep = _hv_separations(("sweep", "--grid", "0:180:0.1", "--deg", "--n", "1"), monkeypatch, out)
    assert {1.0, 1.2} <= set(golden) and len(sweep) == 1801
    rand = np.random.default_rng(2026).uniform(0.0, math.pi, 200)
    theta = np.array([*golden, *sweep, 0.0, 1e-9, math.pi - 1e-12, math.pi, *rand])
    lattice = 2.0**-53
    m = np.array(harness._plus_thresholds(theta)) / lattice
    assert np.array_equal(m, np.floor(m)) and m.min() >= 0.0 and m.max() <= 2.0**53
    steps = np.arange(-256, 256)
    points = np.clip(m[:, None] + steps, 0.0, 2.0**53)
    plus = sample_phi(points * lattice) < theta[:, None]
    assert np.array_equal(plus, points < m[:, None])
    assert harness._plus_thresholds([0.0, math.pi / 2, math.pi]) == [0.0, 0.5, 1.0]
    edges = [5e-324, 1e-300, 2.1e-8, 2.2e-8, 3e-8, math.pi - 1e-15, np.nextafter(math.pi, 0)]
    pinned = [lattice, lattice, lattice, 2 * lattice, 3 * lattice, 1.0, 1.0]
    assert harness._plus_thresholds(edges) == pinned


# channel weights at 0 and pi hold two zeros each
SAMPLER_WEIGHTS = [
    *(channel_weights(Z, coplanar(t)) for t in (0.0, 1e-9, math.pi / 3, math.pi / 2, 2.5, math.pi)),
    (0.5, 0.0, 0.0, 0.5),
    (0.0, 0.0, 0.0, 1.0),
    (1.0, 0.0, 0.0, 0.0),
    (0.0, 0.7, 0.3, 0.0),
]


@pytest.mark.parametrize("weights", SAMPLER_WEIGHTS)
def test_sampler_kernel_matches_searchsorted(weights):
    cum = np.cumsum(weights)
    u = np.concatenate([substream(31).random(10_000), cum, [0.0, np.nextafter(1.0, 0.0)]])[:, None]
    reference = np.bincount(np.minimum(np.searchsorted(cum, u[:, 0], side="right"), 3), minlength=4)
    assert harness._sampler_counts(cum, u).tolist() == reference.tolist()


# --- CHSH reports ---


def test_report_combines_estimates_with_fixed_signs():
    pairs = tuple(
        PairResult(Z, Z, estimate=e, std_error=0.01) for e in (0.1, 0.2, 0.3, 0.4)
    )
    report = ChshReport(pairs=pairs, model="quantum-exact")
    assert CHSH_SIGNS == (1, -1, 1, 1)
    assert report.s_value == 0.1 - 0.2 + 0.3 + 0.4
    assert report.s_std_error == pytest.approx(0.02, abs=1e-15)


@pytest.mark.parametrize("count", [1, 3, 5, 6])
def test_report_needs_exactly_four_pairs(count):
    pairs = tuple(PairResult(Z, Z, estimate=0.5, std_error=0.01) for _ in range(count))
    with pytest.raises(ValueError, match="exactly four pairs"):
        ChshReport(pairs=pairs, model="quantum-exact")


def test_quantum_exact_chsh_hits_the_tsirelson_value():
    report = run_chsh(*canonical_settings(), 1, "quantum-exact")
    assert report.s_value == pytest.approx(-2.0 * math.sqrt(2.0), abs=1e-12)
    assert report.s_std_error == 0.0


def test_all_equal_settings_give_s_of_minus_two():
    report = run_chsh(Z, Z, Z, Z, 1, "quantum-exact")
    assert report.s_value == pytest.approx(-2.0, abs=1e-12)


def test_hv_chsh_lands_near_the_quantum_value():
    report = run_chsh(*canonical_settings(), 100_000, "hv", seed=3)
    assert abs(report.s_value + 2.0 * math.sqrt(2.0)) < 5.0 * report.s_std_error
    assert abs(report.s_value) > 2.0


@pytest.mark.parametrize(
    "model,tag",
    [
        ("hv", "hv-per-setting"),
        ("quantum-sampler", "quantum-sampler-per-setting"),
        ("quantum-exact", "quantum-exact"),
        ("transfer-baseline", "transfer-baseline"),
    ],
)
def test_chsh_report_model_tag(model, tag):
    assert run_chsh(*canonical_settings(), 100, model, seed=1).model == tag


@pytest.mark.parametrize("model", harness.SAMPLED_MODELS)
def test_no_pairs_give_no_series(model):
    assert harness.run_pairs([], 1000, model, seed=3, workers=2) == []


def test_transfer_baseline_is_the_transfer_chsh_run():
    settings = canonical_settings()
    report = run_transfer_baseline(*settings, 1000, seed=6)
    again = run_chsh(*settings, 1000, "transfer-baseline", seed=6)
    assert report == again


def test_chsh_rejects_unknown_model():
    with pytest.raises(ValueError):
        run_chsh(Z, Z, Z, Z, 10, "transfer")


def test_chsh_workers_do_not_change_the_report():
    one = run_chsh(*canonical_settings(), 20_000, "hv", seed=8, workers=1)
    four = run_chsh(*canonical_settings(), 20_000, "hv", seed=8, workers=4)
    assert [p.series.counts for p in one.pairs] == [p.series.counts for p in four.pairs]
    assert one.s_value == four.s_value


# --- transfer baseline ---


def test_transfer_equal_settings_anticorrelate_exactly():
    series = run_series(Z, Z, 3000, "transfer-baseline", seed=2)
    estimate, _ = estimate_correlation(series)
    assert estimate == -1.0
    assert series.counts[2] == series.counts[3] == 0


def test_transfer_right_angle_is_uncorrelated():
    n = 1_000_000
    series = run_series(Z, coplanar(math.pi / 2), n, "transfer-baseline", seed=14)
    estimate, std_error = estimate_correlation(series)
    assert abs(estimate) < 4.0 * std_error


def test_transfer_correlation_is_linear_in_angle():
    n = 100_000
    for theta in (math.pi / 4, math.pi / 3, 3 * math.pi / 4):
        series = run_series(Z, coplanar(theta), n, "transfer-baseline", seed=21)
        estimate, std_error = estimate_correlation(series)
        assert abs(estimate - transfer_correlation_analytic(theta)) < 4.0 * std_error


def test_transfer_analytic_endpoints():
    assert transfer_correlation_analytic(0.0) == -1.0
    assert transfer_correlation_analytic(math.pi / 2) == 0.0
    assert transfer_correlation_analytic(math.pi) == 1.0
    with pytest.raises(ValueError):
        transfer_correlation_analytic(-0.2)


def test_transfer_baseline_saturates_the_bound_at_canonical_angles():
    report = run_transfer_baseline(*canonical_settings(), 50_000, seed=4)
    # at these angles every trial contributes exactly -2 to the combination
    assert report.s_value == pytest.approx(-2.0, abs=1e-12)


def test_transfer_baseline_respects_the_bound_on_random_settings():
    rng = np.random.default_rng(1234)
    for _ in range(25):
        dirs = [BlochDirection.from_vector(rng.normal(size=3)) for _ in range(4)]
        report = run_transfer_baseline(*dirs, 20_000, seed=int(rng.integers(1 << 32)))
        assert abs(report.s_value) <= 2.0 + 5.0 * report.s_std_error


def test_transfer_baseline_workers_invariance():
    one = run_transfer_baseline(*canonical_settings(), 30_000, seed=9, workers=1)
    three = run_transfer_baseline(*canonical_settings(), 30_000, seed=9, workers=3)
    assert [p.series.counts for p in one.pairs] == [p.series.counts for p in three.pairs]


def test_transfer_baseline_pairs_share_their_trials():
    # identical settings on both sides of each family collapse the four
    # pair series onto the same underlying per-trial outcomes
    report = run_transfer_baseline(Z, Z, Z, Z, 2000, seed=17)
    counts = [p.series.counts for p in report.pairs]
    assert counts[0] == counts[1] == counts[2] == counts[3]
    assert report.s_value == pytest.approx(-2.0, abs=1e-12)


def test_estimator_is_consistent_over_many_runs():
    # 5 sigma misses should be vanishingly rare across 1000 small runs
    hits = 0
    for k in range(1000):
        series = run_series(Z, coplanar(math.pi / 3), 10_000, "hv", seed=100, stream=k)
        estimate, std_error = estimate_correlation(series)
        if abs(estimate + 0.5) < 5.0 * std_error:
            hits += 1
    assert hits >= 990
