"""Counter-based random words with random access by index.

Philox generates a deterministic stream of 64-bit words from a key; word i
depends only on (key, i), so any slice of the stream can be produced without
generating its prefix.  Philox emits words in blocks of four and its counter
advances one block at a time (counter limb 0 is the low-order limb), so words
[start, start+count) come from seeking the counter to start // 4 and dropping
the in-block offset.

Uniform doubles use the top 53 bits of a word: u = (w >> 11) * 2^-53, giving
the standard dyadic grid on [0, 1).

``numpy.random`` is imported on the first draw, not with the module: only
drawing needs it, and it adds about 6 MB to a process (it loads OpenSSL's
libcrypto too), so ``lift`` and ``verify`` without samples never load it.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

__all__ = ["raw_words", "uniforms"]

_KEY_MASK = (1 << 128) - 1
_U53 = np.float64(2.0 ** -53)


def _checked(seed: int, start: int, count: int) -> tuple[int, int, int]:
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise InvalidInputError(f"seed must be an int, got {seed!r}")
    if not isinstance(start, int) or start < 0:
        raise InvalidInputError(f"start must be a nonnegative int, got {start!r}")
    if not isinstance(count, int) or count < 0:
        raise InvalidInputError(f"count must be a nonnegative int, got {count!r}")
    return seed & _KEY_MASK, start, count


def raw_words(seed: int, start: int, count: int) -> np.ndarray:
    """Words [start, start+count) of the keyed Philox stream, as uint64."""
    key, start, count = _checked(seed, start, count)
    if count == 0:
        return np.empty(0, dtype=np.uint64)
    from numpy.random import Philox  # loaded on the first draw: see the module docstring

    block, offset = divmod(start, 4)
    bits = Philox(key=key, counter=[block, 0, 0, 0])
    return bits.random_raw(offset + count)[offset:]


def uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform [0, 1) doubles derived from :func:`raw_words`."""
    words = raw_words(seed, start, count)
    return (words >> np.uint64(11)).astype(np.float64) * _U53
