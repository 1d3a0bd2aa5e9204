"""The one fast block transform.

The 32 rounds run as the cipher's own register loop: ``cipher.round_update``
with ``affine_gbox`` where ``cipher.crypt`` calls ``gbox``.  One definition
serves a single block of Python ints and a batch of columns of the width's
word dtype (``cipher.word_dtype``) alike, which wrap at w bits natively.
Block data is not the ``uint64`` arrays of ``nsabc.words``.  Decryption is the
same loop on reordered words, and the batch kernel runs either direction one
tile of ``TILE_BLOCKS`` blocks at a time.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .cipher import reverse_words, round_update, swap_all_halves

# Blocks per tile of the batch kernel and of the tweak rows (whose limbs need it below 2**32)
TILE_BLOCKS = 1 << 15


def resolve_backend() -> str:
    """Name of the batch kernel implementation; numpy is the only one."""
    return "numpy"


# ---------------------------------------------------------------------------
# the fast block transform
#
# A word is a Python int (one block) or a column of the word dtype (that word
# of many blocks), and only operators that mean the same on both are used.
# Shift and mask take the type of the schedule words (a Python int operand is
# slower on arrays) and are cached.


@cache
def _half_mask(word, w: int):
    return word(w >> 1), word((1 << w) - 1)


def affine_gbox(x, t, m0, m1, n0, n1, w: int):
    """G-box in affine form; equals gbox under the (m, n) correspondence.

    x and t are ints or word-dtype columns; m0, m1, n0, n1 ints or scalars of that dtype.
    """
    half, mask = _half_mask(type(m0), w)
    x = (x * m0 + n0) & mask
    x = (((x << half) | (x >> half)) & mask) ^ t
    x = (x * m1 + n1) & mask
    return ((x << half) | (x >> half)) & mask


def crypt_words(x, t, m, n, w: int) -> list:
    """The 32-round transform of the 4 words x under the 4 tweak words t."""
    x0, x1, x2, x3 = x
    for k in range(32):
        g = affine_gbox(x0, t[k & 3], m[2 * k], m[2 * k + 1], n[2 * k], n[2 * k + 1], w)
        x0, x1, x2, x3 = round_update(x0, x1, x2, x3, g, k)
    return [x0, x1, x2, x3]


def icrypt_words(y, t, m, n, w: int):
    """``crypt_words`` inverted, for an inverse schedule: the words reversed with halves
    swapped are encrypted, and the result, reordered alike, is the plaintext."""
    def rs(words):
        return swap_all_halves(reverse_words(words), w)

    return rs(crypt_words(rs(y), rs(t), m, n, w))


def crypt_batch(x, t, m, n, w: int, words=crypt_words) -> np.ndarray:
    """``words`` over an (nblocks, 4) array and tweak rows or one 4-word tweak, tile by tile, in one dtype."""
    m, n = list(np.array(m, dtype=x.dtype)), list(np.array(n, dtype=x.dtype))
    t = np.broadcast_to(t, x.shape)
    out = np.empty(x.shape, dtype=x.dtype)
    for start in range(0, x.shape[0], TILE_BLOCKS):
        tile = slice(start, start + TILE_BLOCKS)
        np.stack(words(list(x[tile].T), list(t[tile].T), m, n, w), axis=1, out=out[tile])
    return out
