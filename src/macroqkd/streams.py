"""Counter-based random streams for reproducible, order-independent sessions.

Contract: every draw of a session is a pure function of (session seed,
lane, pulse index), so a session gives the same results whether its pulses
are drawn one at a time, in chunks of any size, or in any order. Lanes
separate the independent uses of randomness inside one session.

Two forms share that contract:

* ``pulse_block`` gives pulse i a fixed block of ``BLOCK_WORDS`` raw
  Philox4x64 words (counter i) under the key (seed, lane), so the block
  of a whole range of pulses is one array draw (the Random123 idea, Salmon
  et al., SC'11). The session engine draws from these blocks.
* ``derive_stream`` gives a full ``Generator`` keyed by (seed, lane,
  index), for the per-pulse reference functions and for session-level
  draws such as the disclosed-error count.
"""

from __future__ import annotations

import numpy as np

LANE_PULSE = 0  # per-pulse transmission and measurement draws
LANE_DEFERRED = 1  # reference only: Eve's stored-pulse measurements (eve_deferred_measure)
LANE_SESSION = 2  # session-level draws: the disclosed-error count

BLOCK_WORDS = 4  # raw 64-bit words per pulse: one Philox4x64 counter

_MAX_INDEX = 1 << 48
_BLOCK_KEY = 1 << 63  # low-word flag: block keys never equal a derive_stream key


def _key(seed: int, lane: int, index: int) -> int:
    if not 0 <= index < _MAX_INDEX:
        raise ValueError(f"index must be in [0, 2^48) (got {index})")
    if not 0 <= lane < 8:
        raise ValueError(f"lane must be in [0, 8) (got {lane})")
    return ((seed & 0xFFFFFFFFFFFFFFFF) << 64) | (lane << 48) | index


def derive_stream(seed: int, lane: int, index: int = 0) -> np.random.Generator:
    """Independent Generator for (seed, lane, index).

    The 128-bit Philox key is seed in the high word and (lane << 48) | index
    in the low word, so distinct indices and lanes can never collide.
    """
    return np.random.Generator(np.random.Philox(key=_key(seed, lane, index)))


def pulse_block(seed: int, lane: int, lo: int, hi: int) -> np.ndarray:
    """Raw words of pulses [lo, hi) on a lane, shape (hi - lo, BLOCK_WORDS).

    Row i - lo is pulse i's block: counter i of the Philox stream keyed by
    (seed, lane), whatever range it is drawn in.
    """
    if not 0 <= lo <= hi <= _MAX_INDEX:
        raise ValueError(f"pulse range must satisfy 0 <= lo <= hi <= 2^48 (got {lo}, {hi})")
    bits = np.random.Philox(key=_key(seed, lane, 0) | _BLOCK_KEY)
    bits.advance(lo)
    return bits.random_raw((hi - lo) * BLOCK_WORDS).reshape(hi - lo, BLOCK_WORDS)

