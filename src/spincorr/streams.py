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


def substream(seed: int, stream: int = 0, draw_offset: int = 0) -> np.random.Generator:
    """Uniform generator for the ``(seed, stream)`` key, positioned at ``draw_offset``.

    ``draw_offset`` counts float64 draws already consumed and must be a
    multiple of :data:`BLOCK_DRAWS`.
    """
    for name, value in (("seed", seed), ("stream", stream)):
        if not (_is_int(value) and 0 <= value <= _U64_MAX):
            raise ValueError(f"{name} must fit in an unsigned 64-bit integer, got {value}")
    if not (_is_int(draw_offset) and draw_offset >= 0 and draw_offset % BLOCK_DRAWS == 0):
        raise ValueError(
            f"draw_offset must be a nonnegative integer multiple of {BLOCK_DRAWS}, got {draw_offset!r}"
        )
    bits = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    if draw_offset:
        bits.advance(draw_offset // BLOCK_DRAWS)
    return np.random.Generator(bits)

