"""CSV rows of float64 values written byte for byte as C's ``%.17g``
writes them, in one array pass per block of values.

For |x| = f·2**E (``frexp``) with decimal exponent X, the 17-digit
integer q = round(x·10**(16 - X)) is computed in double-double arithmetic
(Dekker's two-product with a 2**27 + 1 split), from a table of
10**k = (hi + lo)·2**b built exactly from Python integers. X starts as
floor(log10|x|) and moves by one where the unrounded product falls outside
[1e16, 1e17). The product's error is below 1e-14, so only values within
1e-9 of a rounding tie, infinities and NaN go through ``'%.17g'`` one at a
time. Exact decimal ties exist (2**50 + 0.25), and so do values about 1e-16
from one (6.680327267462135e39), which the product alone misrounds.

Each value gets six little-endian 64-bit words of byte slots; a slot left
0 (NUL) is dropped from the text at the end:

    word 0     sign, "0." and up to three "0" (-4 <= X < 0), digit 0, point
    words 1-4  digits 1-16, each followed by a point slot
    word 5     "e", exponent sign and 2-3 digits, separator

The digit and point slots follow %g: X in [-4, 17) is fixed-point, other
exponents scientific, and trailing zeros after the point are dropped with
the point itself when no digit follows it.
"""

from __future__ import annotations

import functools

import numpy as np

_BLOCK = 2048  # values per array pass; of 1024 to 8192, 2048 ran fastest
_KMIN, _KMAX = -310, 345  # powers of ten in the table: 10**k, _KMIN <= k < _KMAX
_XOFF = 330  # table index of decimal exponent X is X + _XOFF, |X| <= 324 + 1
_SPLIT = 134217729.0  # 2**27 + 1


def _slots(text: str, at: int = 0) -> int:
    """The word whose bytes from ``at`` on hold ``text``."""
    return int.from_bytes(text.encode(), "little") << 8 * at


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The lookup tables, built on first use (a few milliseconds)."""
    rows = []
    for k in range(_KMIN, _KMAX):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        b = num.bit_length() - den.bit_length()
        num, den = (num, den << b) if b >= 0 else (num << -b, den)
        if num < den:
            num, b = num << 1, b - 1
        hi = num / den  # 10**k / 2**b in [1, 2), correctly rounded
        lo = ((num << 52) - int(hi * 2.0**52) * den) / (den << 52)
        rows.append((hi, lo, b + 1023))
    hi, lo, biased_b = np.array(rows).T
    t = hi * _SPLIT
    hi_hi = t - (t - hi)
    pow10 = np.array([hi_hi, hi - hi_hi, lo, biased_b])

    # 4-digit groups from digit pairs: characters at bytes 0, 2, 4 and 6
    p = np.arange(100)
    pair = (48 + p // 10 | (48 + p % 10) << 16).astype(np.uint64)
    quad = (pair[:, None] | pair << np.uint64(32)).ravel()
    last = np.where(p % 10 > 0, 2, np.where(p > 0, 1, 0)).astype(np.uint8)  # 1-2: last nonzero digit
    last = np.where(p > 0, last + 2, last[:, None]).ravel()  # 1-4 for a group
    # by group j, the index of the last nonzero digit of the 17, or 0
    last = np.concatenate([np.where(last > 0, last + 4 * j, 0).astype(np.uint8) for j in range(4)])

    # by keep (index of the last digit written): digits kept in each word;
    # by point + 1 (0 for none): the point slot after that digit
    keep = np.zeros((5, 17), np.uint64)
    point = np.zeros((5, 18), np.uint64)
    keep[0] = 2**64 - 1
    point[0, 1] = _slots(".", 7)
    for c in range(1, 17):
        j, i = (c - 1) // 4 + 1, (c - 1) % 4
        point[j, c + 1] = _slots(".", 2 * i + 1)
        for n in range(1, 5):
            keep[n, c] = 2 ** (16 * min(c - 4 * (n - 1), 4) - 8) - 1 if c > 4 * (n - 1) else 0

    # by X + _XOFF: the digit the point follows (-1: the "0." prefix holds it)
    exps = range(-_XOFF, _XOFF)
    fixed_point = np.array([x if 0 <= x < 17 else -1 if -4 <= x < 0 else 0 for x in exps])
    prefix = np.array([_slots("0." + "0" * (-x - 1), 1) if -4 <= x < 0 else 0 for x in exps], np.uint64)
    exponent = np.array([0 if -4 <= x < 17 else _slots("e%+03d" % x) for x in exps], np.uint64)
    return pow10, quad, last, keep, point, fixed_point, prefix, exponent


_GROUP_OFFSETS = np.arange(0, 40_000, 10_000)[:, None]
_LEAD = (np.arange(10, dtype=np.uint64) + np.uint64(48)) << np.uint64(48)


def _scaled(f: np.ndarray, exp2: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f·2**exp2·10**k as the double-double (P, e), P + e exact to 2**-104."""
    hi_hi, hi_lo, lo, biased_b = np.take(_tables()[0], k - _KMIN, axis=1)
    hi = hi_hi + hi_lo
    p = f * hi
    t = f * _SPLIT
    f_hi = t - (t - f)
    f_lo = f - f_hi
    err = ((f_hi * hi_hi - p) + f_hi * hi_lo + f_lo * hi_hi) + f_lo * hi_lo + f * lo
    scale = ((exp2 + biased_b.astype(np.int64)) << 52).view(np.float64)
    return p * scale, err * scale


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, X, fallback): |x| rounds to q·10**(X - 16) with 10**16 <= q <
    10**17 (q = X = 0 for zeros), and the indices of the values that
    ``'%.17g'`` must write."""
    a = np.abs(x)
    zero = a == 0
    finite = np.isfinite(a)
    a = np.where(finite & ~zero, a, 1.0)
    f, exp2 = np.frexp(a)
    X = np.floor(np.log10(a)).astype(np.int64)
    P, e = _scaled(f, exp2, 16 - X)
    shift = ((P > 1e17) | ((P == 1e17) & (e >= 0))).astype(np.int64)
    shift -= (P < 1e16) | ((P == 1e16) & (e < 0))
    if shift.any():
        X += shift
        P, e = _scaled(f, exp2, 16 - X)
    rounded = np.rint(e)
    q = P.astype(np.int64) + rounded.astype(np.int64)
    carry = q == 10**17
    if carry.any():
        X += carry
        q[carry] = 10**16
    q[zero] = 0
    return q, X, np.flatnonzero(~finite | (np.abs(e - rounded) > 0.5 - 1e-9))


def _block(x: np.ndarray, separators: np.ndarray) -> bytes:
    """The text of the values ``x``, each followed by its separator slot in
    ``separators``."""
    _, quad, last, keep_mask, point_slot, fixed_point, prefix, exponent = _tables()
    q, X, fallback = _decimal(x)
    digits = np.empty((5, x.size), np.int64)  # digit 0; digits 1-4, 5-8, 9-12, 13-16
    for j, unit in enumerate((10**16, 10**12, 10**8, 10**4)):
        np.floor_divide(q, unit, out=digits[j])
        q -= digits[j] * unit
    digits[4] = q
    groups = digits[1:]
    last_nonzero = np.take(last, groups + _GROUP_OFFSETS).max(axis=0)
    X += _XOFF
    point = np.take(fixed_point, X)
    keep = np.maximum(last_nonzero, point)

    words = np.empty((6, x.size), np.uint64)
    words[0] = np.take(prefix, X) | np.take(_LEAD, digits[0]) | np.signbit(x) * np.uint64(45)
    np.take(quad, groups, out=words[1:5])
    words[:5] &= np.take(keep_mask, keep, axis=1)
    words[:5] |= np.take(point_slot, np.where(last_nonzero > point, point + 1, 0), axis=1)
    words[5] = np.take(exponent, X) | separators
    for i in fallback:
        words[:5, i] = np.frombuffer((b"%.17g" % x[i]).ljust(40, b"\0"), "<u8")
        words[5, i] = separators[i]
    return words.T.astype("<u8", copy=False).tobytes().translate(None, b"\0")


def format_rows(values: np.ndarray) -> bytes:
    """The ASCII CSV lines of a 2-D float64 array: a row per line, values
    joined by commas, each as ``'%.17g' % v`` writes it, every line ending
    in LF."""
    n_rows, n_cols = values.shape
    step = max(1, _BLOCK // n_cols)
    separators = np.full(n_cols, ord(","), np.uint64)
    separators[-1] = ord("\n")
    separators = np.tile(separators << np.uint64(40), step)
    parts = [
        _block(block, separators[: block.size])
        for block in (values[i : i + step].ravel() for i in range(0, n_rows, step))
    ]
    return b"".join(parts)
