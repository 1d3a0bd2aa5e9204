"""The one fast block transform.

The 32 rounds run as the cipher's own register loop: ``cipher.round_update``
with ``affine_gbox`` where ``cipher.crypt`` calls ``gbox``.  One definition
serves a single block of word-dtype scalars and a batch of word-dtype columns
(``cipher.word_dtype``) alike; that dtype wraps at w bits, which is all the
reduction mod 2**w the cipher needs.  Its steps are augmented assignments,
which update a column in place and rebind a scalar, so a batch's registers
are rewritten where they lie.  Decryption is the same loop on reordered
words: the word order reversed and each word's halves swapped.
``crypt_block`` runs either direction on one block of ints and
``crypt_batch`` on many, one tile of ``TILE_BLOCKS`` blocks at a time, on a
copy of the tile's columns and with that tile's tweak words only.  Both take
the schedule's m and n in a form that ``fastpath.AffineSchedule`` makes once
from its read-only word-dtype arrays: scalars for ``crypt_block``, 0-d arrays
for ``crypt_batch``.  Its callers check what they hand it: ``fastpath``'s
batch entry points the blocks and the tweak rows or tweak,
``tweakstream`` the blocks, tweak key and first index from which its tile
function derives each tile's tweak columns.
"""

from __future__ import annotations

import numpy as np

from .cipher import round_update

# Blocks per tile of the batch kernel, and so of the tweak words made per tile:
# i < 2**15 keeps every limb sum of tweakstream's tweak columns below 2**48
TILE_BLOCKS = 1 << 15


def resolve_backend() -> str:
    """Name of the batch kernel implementation; numpy is the only one."""
    return "numpy"


# ---------------------------------------------------------------------------
# the fast block transform
#
# A word is a word-dtype scalar (one block) or a word-dtype column (that word
# of many blocks), and only operators that mean the same on both are used.
# Augmented assignment writes a column in place and rebinds a scalar, so the
# loop allocates only the first product and the rotation's other half of each
# affine step; it writes into the registers it is given, never into a tweak.
# h, the half-word shift w/2, is an operand of the word dtype like the schedule
# words (a Python int operand is slower on arrays), made once per block or batch.
# On columns m, n and h are 0-d arrays: numpy takes a 0-d operand faster than a
# scalar, about 0.9 against 1.4 us for an in-place op on 16 blocks, and 8 of the
# 12 ops of a round have one.  The schedule makes its 128 once
# (``AffineSchedule.operands``, about 15 us), so ``crypt_batch`` builds only h per
# call; they are read-only, and the loop only ever reads them.  The scalar path
# keeps scalars, on which 0-d operands would be the slow side.


def affine_gbox(x, t, m0, m1, n0, n1, h):
    """G-box in affine form; equals gbox under the (m, n) correspondence.

    x and t are word-dtype scalars or columns, m0, m1, n0, n1 and the half-word shift h
    scalars or 0-d arrays of that dtype, whose wrap at w bits is the reduction mod 2**w;
    Python ints would give an unreduced, wrong value.
    """
    x = x * m0
    x += n0
    r = x << h
    x >>= h
    x |= r
    x ^= t
    x *= m1
    x += n1
    r = x << h
    x >>= h
    x |= r
    return x


def crypt_words(x, t, m, n, h) -> list:
    """The 32-round transform of the 4 words x under the 4 tweak words t.

    Columns in x are updated in place and returned among the 4 words, so the
    caller hands over columns it owns; t is only read.
    """
    x0, x1, x2, x3 = x
    for k in range(32):
        g = affine_gbox(x0, t[k & 3], m[2 * k], m[2 * k + 1], n[2 * k], n[2 * k + 1], h)
        x0, x1, x2, x3 = round_update(x0, x1, x2, x3, g, k)
    return [x0, x1, x2, x3]


def _reordered(words, h) -> list:
    """The words in reverse order with their halves swapped, as new words: a tile's
    tweak columns may be read-only, and a single tweak's words serve every tile."""
    out = []
    for x in reversed(words):
        r = x >> h
        r |= x << h  # the shifted copy is freed here, not with the next word
        out.append(r)
    return out


def icrypt_words(y, t, m, n, h):
    """``crypt_words`` inverted, for an inverse schedule: the words reversed with halves
    swapped are encrypted, and the result, reordered alike, is the plaintext."""
    return _reordered(crypt_words(_reordered(y, h), _reordered(t, h), m, n, h), h)


def crypt_block(x, t, m, n, w: int, words=crypt_words) -> tuple[int, ...]:
    """``words`` on 4 int words and 4 int tweak words as scalars of the dtype of m and n; ints back.

    numpy warns when scalar arithmetic wraps, but wrapping at w bits is the cipher's arithmetic.
    """
    word = type(m[0])
    with np.errstate(over="ignore"):
        return tuple(map(int, words(list(map(word, x)), list(map(word, t)), m, n, word(w >> 1))))


def crypt_batch(x, tweak, m, n, w: int, words=crypt_words) -> np.ndarray:
    """``words`` over an (nblocks, 4) array, tile by tile, in one dtype; x is never written.

    m and n are read-only 0-d arrays of the word dtype, made once per schedule
    (``AffineSchedule.operands``).  ``tweak(start, stop)`` gives the 4 tweak words of
    blocks start..stop-1 (columns, or scalars shared by all blocks).  ``words`` gets a
    contiguous copy of each tile's columns, m, n and the half-word shift as a 0-d array.
    """
    h = np.array(w >> 1, dtype=x.dtype)
    out = np.empty(x.shape, dtype=x.dtype)
    for start in range(0, x.shape[0], TILE_BLOCKS):
        stop = min(start + TILE_BLOCKS, x.shape[0])
        tile = list(x[start:stop].T.copy())
        np.stack(words(tile, tweak(start, stop), m, n, h), axis=1, out=out[start:stop])
    return out
