"""Counter-based random words with random access by index.

Philox4x64-10 (Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as
easy as 1, 2, 3", SC'11) maps a 256-bit counter and a 128-bit key to four
64-bit words by ten rounds of multiply, swap and xor, so word i depends only
on (key, i) and any slice of the stream can be produced without generating
its prefix.  The stream is numpy's ``Philox(key=seed)`` word for word, but
computed here in numpy arrays: a counter of four 64-bit limbs (limb 0 low)
makes each block of four words, and the stream's block j takes counter j + 1,
carrying across limbs, so words [start, start+count) come from the counters
of blocks start // 4 on, dropping the in-block offset.

Uniform doubles use the top 53 bits of a word: u = (w >> 11) * 2^-53, giving
the standard dyadic grid on [0, 1).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

__all__ = ["raw_words", "uniforms"]

_KEY_MASK = (1 << 128) - 1
_LIMB = (1 << 64) - 1
_U53 = np.float64(2.0 ** -53)

#: Philox4x64's multipliers of counter limbs 0 and 2, and its key bumps.
_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_LO32 = np.uint64(0xFFFFFFFF)
_M_LO, _M_HI = _M & _LO32, _M >> 32
#: Blocks of four words made at a time, so raw_words holds its output and a
#: fixed number of blocks; the words do not depend on it.
_PHILOX_SLICE = 8192


def _checked(seed: int, start: int, count: int) -> tuple[int, int, int]:
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise InvalidInputError(f"seed must be an int, got {seed!r}")
    if not isinstance(start, int) or start < 0:
        raise InvalidInputError(f"start must be a nonnegative int, got {start!r}")
    if not isinstance(count, int) or count < 0:
        raise InvalidInputError(f"count must be a nonnegative int, got {count!r}")
    return seed & _KEY_MASK, start, count


def _philox_fill(blocks: np.ndarray, counter: int, key: int) -> None:
    """Fill the (size, 4) uint64 ``blocks`` with Philox4x64-10 of the counters
    [counter, counter+size), modulo 2^256: row j is the four words of block j."""
    size = blocks.shape[0]
    even, odd = np.empty((2, size), np.uint64), np.empty((2, size), np.uint64)  # (c0, c2), (c1, c3)
    low = counter & _LIMB
    np.add(np.arange(size, dtype=np.uint64), np.uint64(low), out=even[0])  # wraps, as limb 0 does
    carried = min(size, (1 << 64) - low)  # counters from here on carry into limb 1
    for part, upper in ((slice(None, carried), counter >> 64), (slice(carried, None), (counter >> 64) + 1)):
        odd[0, part], even[1, part], odd[1, part] = upper & _LIMB, (upper >> 64) & _LIMB, (upper >> 128) & _LIMB
    key = np.array([[key & _LIMB], [key >> 64]], dtype=np.uint64)
    lo, t, s, scratch = (np.empty_like(even) for _ in range(4))
    for r in range(10):
        if r:
            key += _W
        # lo and hi of the products M * (c0, c2), hi from 32-bit limbs x = xh * 2^32 + xl
        # and m = mh * 2^32 + ml: each partial product, and each sum below, fits in 64 bits.
        np.multiply(even, _M, out=lo)
        np.bitwise_and(even, _LO32, out=s)  # s = xl
        np.multiply(s, _M_LO, out=t)
        t >>= 32
        even >>= 32  # even = xh
        s *= _M_HI
        t += np.multiply(even, _M_LO, out=scratch)  # t = xh * ml + (xl * ml >> 32)
        s += np.bitwise_and(t, _LO32, out=scratch)  # s = xl * mh + (t & 0xFFFFFFFF)
        even *= _M_HI
        t >>= 32
        s >>= 32
        even += t
        even += s  # even = hi(M0 * c0), hi(M1 * c2)
        # (c0, c1, c2, c3) <- (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0))
        even = even[::-1]
        even ^= odd
        even ^= key
        odd, lo = lo[::-1], odd
    blocks[:, 0::2], blocks[:, 1::2] = even.T, odd.T


def raw_words(seed: int, start: int, count: int) -> np.ndarray:
    """Words [start, start+count) of the keyed Philox stream, as uint64."""
    key, start, count = _checked(seed, start, count)
    block, offset = divmod(start, 4)
    blocks = -(-(offset + count) // 4)
    words = np.empty((blocks, 4), dtype=np.uint64)
    for lo in range(0, blocks, _PHILOX_SLICE):
        _philox_fill(words[lo:lo + _PHILOX_SLICE], block + 1 + lo, key)
    return words.reshape(-1)[offset:offset + count]


def uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform [0, 1) doubles derived from :func:`raw_words`."""
    words = raw_words(seed, start, count)
    return (words >> np.uint64(11)).astype(np.float64) * _U53
