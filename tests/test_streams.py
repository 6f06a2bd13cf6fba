import numpy as np
import pytest
from spincorr.harness import CHUNK_TRIALS
from spincorr.streams import BLOCK_DRAWS, substream


def test_same_key_reproduces():
    first = substream(7, 3).random(16)
    second = substream(7, 3).random(16)
    assert np.array_equal(first, second)
    # NumPy integers are key parts too
    assert np.array_equal(first, substream(np.uint64(7), np.int64(3)).random(16))


def test_distinct_streams_differ():
    assert not np.array_equal(substream(7, 0).random(8), substream(7, 1).random(8))


def test_distinct_seeds_differ():
    assert not np.array_equal(substream(1, 0).random(8), substream(2, 0).random(8))


@pytest.mark.parametrize("offset", [4, 8, 64, 4096, CHUNK_TRIALS, 2 * CHUNK_TRIALS])
def test_offset_skips_exactly_that_many_draws(offset):
    full = substream(123, 5).random(offset + 12)
    tail = substream(123, 5, draw_offset=offset).random(12)
    assert np.array_equal(tail, full[offset:])


def test_offset_must_be_block_aligned():
    with pytest.raises(ValueError):
        substream(1, 0, draw_offset=2)
    with pytest.raises(ValueError):
        substream(1, 0, draw_offset=-4)


@pytest.mark.parametrize(
    "seed,stream",
    [(-1, 0), (0, -1), (2**64, 0), (0, 2**64), (1.5, 0), (0, 0.5), (True, 0), (0, False),
     (np.float64(1.0), 0), ("1", 0)],
)
def test_key_parts_must_fit_u64(seed, stream):
    with pytest.raises(ValueError):
        substream(seed, stream)


def test_scalar_and_vector_draws_agree():
    # the samplers rely on one float64 costing one counter step either way
    vec = substream(42).random(10)
    rng = substream(42)
    assert [rng.random() for _ in range(10)] == vec.tolist()


@pytest.mark.parametrize("dpt", [1, 2])
@pytest.mark.parametrize("blocks", [2, 3, 5])
def test_chunked_draws_match_single_pass(dpt, blocks):
    # fixed-size chunks of trials, each drawn from its own block-aligned window
    n, chunk = 1001, blocks * BLOCK_DRAWS
    full = substream(9, 2).random(n * dpt)
    pieces = [
        substream(9, 2, draw_offset=dpt * lo).random((min(lo + chunk, n) - lo) * dpt)
        for lo in range(0, n, chunk)
    ]
    assert np.array_equal(np.concatenate(pieces), full)
