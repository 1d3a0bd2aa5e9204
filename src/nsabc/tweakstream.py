"""Tweak derivation for multi-block encryption.

Each block encrypted under one key gets its own tweak.  With tweak key T0
(a 4w-bit value) the tweak of block j is

    T(j) = T0 odot j = 2*T0*j + T0 + j      (mod 2**(4w))

which supports random access, and equivalently the running recurrence

    T(j+1) = T(j) + 2*T0 + 1                (mod 2**(4w))

for sequential work.  As odot is a group operation, j -> T(j) is injective,
so no tweak repeats before 2**(4w) blocks; that bound is documented, not
enforced.  Block indices live in a flat 4w-bit space; applications wanting
structured indices pack them into j themselves.

Wide values are ordinary Python ints reduced mod 2**(4w) and converted to and
from 4-word little-endian tuples at the block boundary.
"""

from __future__ import annotations

import numpy as np

from .cipher import decrypt, encrypt
from .fastpath import affine_expand, crypt_fast_batch, icrypt_fast_batch, invert_affine
from .schedules import check_tweak
from .words import check_cipher_width

WIDE_WORDS = 4


def wide_mask(w: int) -> int:
    return (1 << (4 * w)) - 1


def wide_from_words(words, w: int) -> int:
    """Pack a 4-word tweak (t0 least significant) into one 4w-bit integer."""
    t = check_tweak(words, w)
    return t[0] | (t[1] << w) | (t[2] << (2 * w)) | (t[3] << (3 * w))


def wide_to_words(value: int, w: int) -> tuple[int, int, int, int]:
    """Split a 4w-bit integer into the 4-word tweak form."""
    mask = (1 << w) - 1
    return (value & mask, (value >> w) & mask, (value >> (2 * w)) & mask, (value >> (3 * w)) & mask)


def tweak_at(tweak_key: int, index: int, w: int) -> tuple[int, int, int, int]:
    """Tweak of block ``index``: tweak_key odot index in 4w-bit arithmetic."""
    check_cipher_width(w)
    wm = wide_mask(w)
    t0 = tweak_key & wm
    j = index & wm
    return wide_to_words((2 * t0 * j + t0 + j) & wm, w)


def tweak_next(current: int, tweak_key: int, w: int) -> int:
    """Advance a wide tweak value by one block: current + 2*tweak_key + 1."""
    check_cipher_width(w)
    wm = wide_mask(w)
    return (current + 2 * tweak_key + 1) & wm


def _tweak_rows(tweak_key: int, first_index: int, nblocks: int, w: int, tweaking: bool) -> np.ndarray:
    """Tweak words for blocks first_index..first_index+nblocks-1 as (n, 4)."""
    rows = np.empty((nblocks, 4), dtype=np.uint64)
    if not tweaking:
        rows[:] = np.array(wide_to_words(tweak_key & wide_mask(w), w), dtype=np.uint64)
        return rows
    wm = wide_mask(w)
    step = (2 * tweak_key + 1) & wm
    value = (tweak_key & wm) if first_index == 0 else wide_from_words(tweak_at(tweak_key, first_index, w), w)
    for i in range(nblocks):
        rows[i] = wide_to_words(value, w)
        value = (value + step) & wm
    return rows


def _blocks_in(blocks) -> tuple[np.ndarray, bool]:
    if isinstance(blocks, np.ndarray):
        return blocks, True
    return np.array(list(blocks), dtype=object), False


def _blocks_out(arr: np.ndarray, as_array: bool):
    if as_array:
        return arr
    return [tuple(int(v) for v in row) for row in arr]


def encrypt_blocks(blocks, key, tweak_key: int, unit_key: int, w: int, *,
                   tweaking: bool = True, first_index: int = 0):
    """Encrypt a sequence of blocks; block j uses the tweak T0 odot (first_index+j).

    Key, unit and affine schedules are computed once and reused for the whole
    sequence.  With ``tweaking=False`` every block uses the tweak key as a
    constant tweak.  Accepts a list of 4-word tuples or an (n, 4) array and
    returns the same kind.
    """
    xs, as_array = _blocks_in(blocks)
    if xs.size == 0:
        return _blocks_out(np.empty((0, 4), dtype=np.uint64), as_array)
    schedule = affine_expand(key, unit_key, w)
    ts = _tweak_rows(tweak_key, first_index, xs.shape[0], w, tweaking)
    return _blocks_out(crypt_fast_batch(xs, ts, schedule), as_array)


def decrypt_blocks(blocks, key, tweak_key: int, unit_key: int, w: int, *,
                   tweaking: bool = True, first_index: int = 0):
    """Invert ``encrypt_blocks``; ``first_index`` gives random access to any slice."""
    ys, as_array = _blocks_in(blocks)
    if ys.size == 0:
        return _blocks_out(np.empty((0, 4), dtype=np.uint64), as_array)
    inverse = invert_affine(affine_expand(key, unit_key, w))
    ts = _tweak_rows(tweak_key, first_index, ys.shape[0], w, tweaking)
    return _blocks_out(icrypt_fast_batch(ys, ts, inverse), as_array)


def encrypt_block_at(block, key, tweak_key: int, unit_key: int, index: int, w: int):
    """Reference-path encryption of the single block at ``index``."""
    return encrypt(block, key, tweak_at(tweak_key, index, w), unit_key, w)


def decrypt_block_at(block, key, tweak_key: int, unit_key: int, index: int, w: int):
    """Reference-path decryption of the single block at ``index``."""
    return decrypt(block, key, tweak_at(tweak_key, index, w), unit_key, w)
