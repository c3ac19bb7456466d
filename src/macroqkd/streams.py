"""Counter-based random streams for reproducible, order-independent sessions.

Contract: every draw of a session is a pure function of (session seed,
lane, pulse index), so a session gives the same results whether its pulses
are drawn one at a time, in chunks of any size, or in any order. Lanes
separate the independent uses of randomness inside one session.

Two forms share that contract:

* ``pulse_block`` gives pulse i a fixed block of ``BLOCK_WORDS`` 64-bit
  words, each a keyed hash of its counter, so the block of a whole range
  of pulses is a few array passes of plain NumPy integer arithmetic (the
  counter-based idea of Salmon et al., SC'11). Word w of pulse i on a lane
  is

      mix64(key(seed, lane) + (3i + w + 1) gamma)  (mod 2^64),
      key(seed, lane) = gamma (mix64(seed mod 2^64) + lane 2^61),

  with gamma = 0x9E3779B97F4A7C15 and mix64 SplitMix64's output function
  (Steele, Lea & Flood, OOPSLA 2014). The session engine and its
  session-level draw (the disclosed-error count) read these blocks.
* ``derive_stream`` gives a full Philox ``Generator`` keyed by (seed, lane,
  index), for the single-pulse reference functions and the tests.

Overlap. Because gamma is odd, word w of pulse i is term p + 3i + w + 1 of
the one SplitMix64 sequence x_j = mix64(j gamma), j mod 2^64, where the
stream starts at p = mix64(seed mod 2^64) + lane 2^61. A session reads at
most 3 * 10^9 < 2^32 words on a lane, so the lanes of one seed, 2^61 terms
apart, never share a word. Two distinct seeds start at unrelated points:
mix64 is a bijection, and modelling its values as independent uniform
64-bit numbers, two windows of W1 and W2 words share a term with
probability (W1 + W2 - 1) / 2^64, below 3.3e-10 for two 10^9-pulse
sessions. Any two of M sessions of n pulses each (LANE_PULSE and one word
block on LANE_SESSION) share a word with probability below
6 M^2 n / 2^64: 3.3e-4 for a thousand sessions of 10^9 pulses.
"""

from __future__ import annotations

import numpy as np

LANE_PULSE = 0  # per-pulse transmission and measurement draws
LANE_DEFERRED = 1  # reference only: Eve's stored-pulse measurements (eve_deferred_measure)
LANE_SESSION = 2  # session-level draws: the disclosed-error count

BLOCK_WORDS = 3  # 64-bit words per pulse

_MAX_INDEX = 1 << 48
_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment: 2^64 over the golden ratio, made odd
_MIX_ROUNDS = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))  # xor-shift, multiply; then z ^ z >> 31


def _key(seed: int, lane: int, index: int) -> int:
    if not 0 <= index < _MAX_INDEX:
        raise ValueError(f"index must be in [0, 2^48) (got {index})")
    if not 0 <= lane < 8:
        raise ValueError(f"lane must be in [0, 8) (got {lane})")
    return ((seed & _MASK) << 64) | (lane << 48) | index


def derive_stream(seed: int, lane: int, index: int = 0) -> np.random.Generator:
    """Independent Generator for (seed, lane, index).

    The 128-bit Philox key is seed in the high word and (lane << 48) | index
    in the low word, so distinct indices and lanes can never collide.
    """
    return np.random.Generator(np.random.Philox(key=_key(seed, lane, index)))


def _mix64(z: int) -> int:
    """SplitMix64's output function on a Python int in [0, 2^64)."""
    for shift, factor in _MIX_ROUNDS:
        z = (z ^ z >> shift) * factor & _MASK
    return z ^ z >> 31


def _mix64_inplace(z: np.ndarray, scratch: np.ndarray) -> None:
    """``_mix64`` on every element of a uint64 array, in place; uint64
    products wrap modulo 2^64, as the function needs."""
    for shift, factor in _MIX_ROUNDS:
        np.right_shift(z, shift, out=scratch)
        z ^= scratch
        z *= factor
    np.right_shift(z, 31, out=scratch)
    z ^= scratch


def pulse_block(seed: int, lane: int, lo: int, hi: int) -> np.ndarray:
    """Words of pulses [lo, hi) on a lane, shape (hi - lo, BLOCK_WORDS).

    Row i - lo is pulse i's block (see the module docstring), whatever
    range it is drawn in. The array is column-major, so each word's
    column is contiguous; the only scratch is one column long.
    """
    if not 0 <= lo <= hi <= _MAX_INDEX:
        raise ValueError(f"pulse range must satisfy 0 <= lo <= hi <= 2^48 (got {lo}, {hi})")
    if not 0 <= lane < 8:
        raise ValueError(f"lane must be in [0, 8) (got {lane})")
    key = (_mix64(seed & _MASK) + (lane << 61)) * _GAMMA
    words = np.empty((BLOCK_WORDS, hi - lo), dtype=np.uint64)
    scratch = np.arange(lo, hi, dtype=np.uint64)
    scratch *= 3 * _GAMMA & _MASK  # the counter 3i in units of gamma
    for w, column in enumerate(words):
        np.add(scratch, key + (w + 1) * _GAMMA & _MASK, out=column)
    for column in words:
        _mix64_inplace(column, scratch)
    return words.T
