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
from test_acceptance import random_direction
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


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of every thread pool the runner starts, in order."""
    started = []

    class Recorder(ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", Recorder)
    return started


def test_sweep_of_short_series_runs_on_the_calling_thread(pools, tmp_path):
    argv = ["sweep", "--grid", "0:180:5", "--deg", "--n", "2000", "--seed", "3"]
    documents = []
    for workers in (1, 2):
        out = tmp_path / f"{workers}.csv"
        assert main([*argv, "--workers", str(workers), "--out", str(out)]) == 0
        documents.append(out.read_bytes())
    assert pools == []
    assert documents[0] == documents[1]


@pytest.mark.parametrize("chunk", [harness.CHUNK_TRIALS, 64])
def test_pool_starts_for_items_of_an_eighth_chunk_or_more(monkeypatch, pools, chunk):
    monkeypatch.setattr(harness, "CHUNK_TRIALS", chunk)
    pairs = _sweep_pairs(*(0.1 * k for k in range(30)))
    below = harness.run_pairs(pairs, chunk // 8 - 1, "hv", seed=1, workers=2)
    assert pools == []
    at = harness.run_pairs(pairs, chunk // 8, "hv", seed=1, workers=2)
    threads = min(2, os.cpu_count() or 1)
    assert pools == ([threads] if threads > 1 else [])
    assert at == harness.run_pairs(pairs, chunk // 8, "hv", seed=1, workers=1)
    assert below == harness.run_pairs(pairs, chunk // 8 - 1, "hv", seed=1, workers=1)


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


@pytest.mark.parametrize("model", ["hv", "quantum-sampler"])
@pytest.mark.parametrize(
    "stream,pairs", [(np.uint64(2**64 - 1), 2), (2**64 - 2, 4)], ids=["uint64", "int"]
)
def test_stream_range_past_u64_is_rejected_before_the_first_draw(monkeypatch, model, stream, pairs):
    # pair k draws on stream + k, so the last pair's stream must fit too, or a
    # NumPy stream wraps round to stream 0 and a Python one fails mid-run
    settings = _sweep_pairs(*(0.5 * k for k in range(pairs)))
    # transfer scores every pair on the base stream, which fits
    assert harness.run_pairs(settings, 10, "transfer-baseline", seed=1, stream=stream)
    calls = []
    monkeypatch.setattr(harness, "substream", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="last stream"):
        harness.run_pairs(settings, 100, model, seed=1, stream=stream)
    assert calls == []


@pytest.mark.parametrize("model", harness.SAMPLED_MODELS)
def test_numpy_integer_length_gives_the_python_int_counts(monkeypatch, model):
    monkeypatch.setattr(harness, "CHUNK_TRIALS", 64)
    pairs = _sweep_pairs(0.4, 2.0)
    want = harness.run_pairs(pairs, 201, model, seed=4)
    assert harness.run_pairs(pairs, np.int64(201), model, seed=np.uint64(4)) == want


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


# --- transfer kernel against its float64 formula ---

X_AXIS, Y_AXIS = BlochDirection(math.pi / 2), BlochDirection(math.pi / 2, math.pi / 2)


def hidden_vectors(u):
    """Each trial's float64 hidden unit vector: z = 2 u0 - 1, azimuth 2 pi u1."""
    z = 2.0 * u[:, 0] - 1.0
    az = 2.0 * math.pi * u[:, 1]
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack((s * np.cos(az), s * np.sin(az), z))


def float64_signs(directions, lam):
    """Each trial's hemisphere sign per direction, from the float64 hidden vectors lam,
    with the projection summed as (x0 lam0 + x1 lam1) + x2 lam2."""
    units = [x.unit_vector for x in directions]
    return np.array(
        [(x0 * lam[:, 0] + x1 * lam[:, 1]) + x2 * lam[:, 2] >= 0.0 for x0, x1, x2 in units]
    )


def float64_transfer_counts(pairs, lam):
    """The transfer tallies with every sign taken from the float64 formula."""
    directions = [x for pair in pairs for x in pair]
    up = dict(zip(directions, float64_signs(directions, lam)))
    return np.stack([harness._bin_channels(~up[x], up[x] ^ up[y]) for x, y in pairs])


def chsh_pairs(a, a_prime, b, b_prime):
    return ((a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime))


def test_transfer_kernel_matches_the_float64_formula_on_full_chunks():
    # criterion 7's 200 random quadruples, ten to a chunk, and the canonical
    # settings on the first eight chunks of one long run
    rng = np.random.default_rng(8675309)
    quadruples = [chsh_pairs(*(random_direction(rng) for _ in range(4))) for _ in range(200)]
    cases = [(seed, 0, quadruples[seed::20]) for seed in range(20)]
    cases += [(777, chunk, [chsh_pairs(*canonical_settings())]) for chunk in range(8)]
    for seed, chunk, family in cases:
        offset = 2 * chunk * harness.CHUNK_TRIALS
        u = substream(seed, draw_offset=offset).random((harness.CHUNK_TRIALS, 2))
        lam = hidden_vectors(u)
        for pairs in family:
            expected = float64_transfer_counts(pairs, lam)
            assert np.array_equal(harness._transfer_counts(pairs, u), expected)


@pytest.mark.parametrize("count", [1, 2, 3, 5, 1001])
def test_transfer_kernel_matches_the_float64_formula_on_short_chunks(count):
    # the last chunk of a series can hold a handful of trials
    pairs = chsh_pairs(*canonical_settings())
    for seed in range(20):
        u = substream(seed, 3).random((count, 2))
        expected = float64_transfer_counts(pairs, hidden_vectors(u))
        assert np.array_equal(harness._transfer_counts(pairs, u), expected)


def near_boundary_draws(count, seed):
    """Draws whose hidden vector lies within 1e-7 of the plane through 0 normal to
    the x, y or z axis: u[:, 1] near 1/4 or 1/2 puts the azimuth near pi/2 or pi,
    u[:, 0] near 1/2 puts z near 0.  Some offsets are exactly 0 or a few lattice steps."""
    rng = np.random.default_rng(seed)
    tiny = rng.uniform(-1e-8, 1e-8, count)
    tiny[::7] = rng.integers(-4, 5, len(tiny[::7])) * 2.0**-53
    u = rng.random((count, 2))
    kind = rng.integers(0, 4, count)
    u[kind == 0, 1] = 0.25 + tiny[kind == 0]
    u[kind == 1, 1] = 0.5 + tiny[kind == 1]
    u[kind == 2, 0] = 0.5 + tiny[kind == 2]
    u[kind == 3] = 0.5 + tiny[kind == 3, None]
    return u


def test_transfer_signs_near_the_hemisphere_boundary_are_the_float64_ones(monkeypatch):
    directions = [X_AXIS, Y_AXIS, Z, BlochDirection(1.0, 2.0)]
    u = near_boundary_draws(harness.CHUNK_TRIALS, seed=5)
    lam = hidden_vectors(u)
    nearest = np.abs(lam @ np.array([x.unit_vector for x in directions]).T).min(axis=1)
    assert np.count_nonzero(nearest < 1e-7) > harness.CHUNK_TRIALS // 2
    expected = float64_signs(directions, lam)
    assert np.array_equal(harness._hemisphere_signs(directions, u), expected)
    pairs = [(X_AXIS, Y_AXIS), (Y_AXIS, Z), (Z, X_AXIS), (directions[3], Z)]
    assert np.array_equal(harness._transfer_counts(pairs, u), float64_transfer_counts(pairs, lam))
    # the float32 signs alone get some of these trials wrong: the fallback is what keeps them
    monkeypatch.setattr(harness, "_SIGN_EPS", 0.0)
    assert not np.array_equal(harness._hemisphere_signs(directions, u), expected)


def test_a_lone_near_trial_gets_the_sign_of_the_whole_chunk():
    # a hidden vector normal to x projects on it to 0, so its sign is the rounding of
    # the float64 sum alone; the fallback sums each trial on its own in a fixed order,
    # so the trial gets the same sign alone, first or last in a chunk
    rng = np.random.default_rng(3)
    x = BlochDirection(1.443650125891709, 5.386267325318877)
    normal = np.cross(x.unit_vector, rng.normal(size=(300, 3)))
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    azimuth = np.arctan2(normal[:, 1], normal[:, 0]) % (2.0 * math.pi)
    on_circle = np.column_stack(((normal[:, 2] + 1.0) / 2.0, azimuth / (2.0 * math.pi)))
    background = substream(8).random((100, 2))
    for trial in on_circle:
        alone = harness._hemisphere_signs([x], trial[None])
        assert np.array_equal(alone, float64_signs([x], hidden_vectors(trial[None])))
        for u, at in ((np.vstack([trial, background]), 0), (np.vstack([background, trial]), -1)):
            signs = harness._hemisphere_signs([x], u)
            assert np.array_equal(signs, float64_signs([x], hidden_vectors(u)))
            assert signs[0, at] == alone[0, 0]


@pytest.mark.parametrize("block", [1, 5])
def test_transfer_counts_do_not_depend_on_the_sign_block(monkeypatch, block):
    angles = [(0.3, 1.0), (2.0, 0.5), (1.2, 4.0), (0.7, 2.5)]
    pairs = chsh_pairs(*(BlochDirection(*a) for a in angles))
    u = np.concatenate([near_boundary_draws(500, seed=9), substream(4).random((503, 2))])
    expected = float64_transfer_counts(pairs, hidden_vectors(u))
    default = run_transfer_baseline(*canonical_settings(), 2003, seed=12).pairs
    monkeypatch.setattr(harness, "_SIGN_BLOCK", block)
    assert np.array_equal(harness._transfer_counts(pairs, u), expected)
    patched = run_transfer_baseline(*canonical_settings(), 2003, seed=12).pairs
    assert [p.series.counts for p in patched] == [p.series.counts for p in default]


def test_float32_trig_stays_within_the_sign_bound():
    # _SIGN_EPS rests on numpy's float32 cos and sin erring by at most _TRIG32_ERROR
    # and on an azimuth rounding to float32 by at most 2^-22; a build with weaker
    # float32 trig fails here rather than risking a sign
    azimuth = 2.0 * math.pi * np.random.default_rng(31).random(1 << 19)
    grid = np.linspace(0.0, 2.0 * math.pi, 1 << 19, endpoint=False)
    az32 = np.concatenate([azimuth, grid]).astype(np.float32)
    assert np.abs(az32[: 1 << 19] - azimuth).max() <= 2.0**-22
    for trig in (np.cos, np.sin):
        error = np.abs(trig(az32).astype(np.float64) - trig(az32.astype(np.float64)))
        assert error.max() <= harness._TRIG32_ERROR


def test_estimator_is_consistent_over_many_runs():
    # 5 sigma misses should be vanishingly rare across 1000 small runs
    hits = 0
    for k in range(1000):
        series = run_series(Z, coplanar(math.pi / 3), 10_000, "hv", seed=100, stream=k)
        estimate, std_error = estimate_correlation(series)
        if abs(estimate + 0.5) < 5.0 * std_error:
            hits += 1
    assert hits >= 990
