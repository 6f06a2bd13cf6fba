"""Counter-based random substreams for reproducible (parallel) Monte Carlo.

Every sampling routine in this package draws its uniforms from a Philox
counter-based generator keyed by ``(seed, stream)``.  Trial ``i`` of a run
owns a fixed window of draws in that keyed stream, and a generator can be
positioned at any block-aligned window in constant time.  A run can
therefore draw its trials in fixed-size chunks, in any order and on any
thread, and still get exactly the draws of a single pass.
"""

from __future__ import annotations

import numpy as np

# Philox emits 64-bit words in blocks of four; one block feeds four float64
# uniforms, so counter jumps are only exact at multiples of four draws.
BLOCK_DRAWS = 4

_U64_MAX = 2**64 - 1


def _is_int(value) -> bool:
    """A Python or NumPy integer; bool, though an int subclass, is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_int(name: str, value, lo: int = 0, hi: int | None = _U64_MAX) -> int:
    """value as a Python int, if it is an integer in [lo, hi] (unbounded above if hi is None):
    the one statement of every integer input rule; seeds and streams take the default range."""
    if _is_int(value) and lo <= int(value) and (hi is None or int(value) <= hi):
        return int(value)
    bound = f"of at least {lo}" if hi is None else f"in [{lo}, {hi}]"
    raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def substream(seed: int, stream: int = 0, draw_offset: int = 0) -> np.random.Generator:
    """Uniform generator for the ``(seed, stream)`` key, positioned at ``draw_offset``.

    ``draw_offset`` counts float64 draws already consumed and must be a
    multiple of :data:`BLOCK_DRAWS`.
    """
    key = np.array([_check_int("seed", seed), _check_int("stream", stream)], dtype=np.uint64)
    draw_offset = _check_int("draw_offset", draw_offset, hi=None)
    if draw_offset % BLOCK_DRAWS:
        raise ValueError(f"draw_offset must be a multiple of {BLOCK_DRAWS}, got {draw_offset}")
    bits = np.random.Philox(key=key)
    if draw_offset:
        bits.advance(draw_offset // BLOCK_DRAWS)
    return np.random.Generator(bits)

