"""Tweak derivation for multi-block encryption.

Each block encrypted under one key gets its own tweak.  With tweak key T0
(a 4w-bit value) the tweak of block j is

    T(j) = T0 odot j = 2*T0*j + T0 + j      (mod 2**(4w))

``tweak_at`` gives random access to any T(j); the batch entry points build
the tweak rows of a run of blocks from its first T(j), adding 2*T0 + 1 per
block.  As odot is a group operation, j -> T(j) is injective, so no tweak
repeats before 2**(4w) blocks; that bound is documented, not enforced.
Block indices live in a flat 4w-bit space; applications wanting structured
indices pack them into j themselves.

Wide values are ordinary Python ints in [0, 2**(4w)), converted to and from
4-word little-endian tuples at the block boundary (``cipher.int_to_block``).
A tweak key or block index outside that range is refused, not reduced.
"""

from __future__ import annotations

import numpy as np

from .cipher import block_to_int, encrypt, int_to_block
from .fastpath import affine_expand, crypt_fast_batch, icrypt_fast_batch, invert_affine
from .words import check_cipher_width, odot


def tweak_at(tweak_key: int, index: int, w: int) -> tuple[int, int, int, int]:
    """Tweak of block ``index``: tweak_key odot index in 4w-bit arithmetic.

    Both must be integers in [0, 2**(4w)); anything else raises ValueError.
    """
    check_cipher_width(w)
    wm = (1 << (4 * w)) - 1
    for name, value in (("tweak key", tweak_key), ("block index", index)):
        # the message never quotes the value: a tweak key is key material
        if not isinstance(value, int) or not 0 <= value <= wm:
            raise ValueError(f"{name} must be an integer in [0, 2**{4 * w})")
    return int_to_block(odot(tweak_key, index, 4 * w), w)


def _tweak_rows(tweak_key: int, first_index: int, nblocks: int, w: int, tweaking: bool) -> np.ndarray:
    """Tweak words for blocks first_index..first_index+nblocks-1 as (n, 4); the (4,) key if not tweaking."""
    if not tweaking:
        return np.array(tweak_at(tweak_key, 0, w), dtype=np.uint64)
    value = block_to_int(tweak_at(tweak_key, first_index, w), w)
    wm = (1 << (4 * w)) - 1
    step = (2 * tweak_key + 1) & wm
    rows = np.empty((nblocks, 4), dtype=np.uint64)
    for i in range(nblocks):
        rows[i] = int_to_block(value, w)
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
    schedule = affine_expand(key, unit_key, w)
    ts = _tweak_rows(tweak_key, first_index, xs.shape[0], w, tweaking)
    return _blocks_out(crypt_fast_batch(xs, ts, schedule), as_array)


def decrypt_blocks(blocks, key, tweak_key: int, unit_key: int, w: int, *,
                   tweaking: bool = True, first_index: int = 0):
    """Invert ``encrypt_blocks``; ``first_index`` gives random access to any slice."""
    ys, as_array = _blocks_in(blocks)
    inverse = invert_affine(affine_expand(key, unit_key, w))
    ts = _tweak_rows(tweak_key, first_index, ys.shape[0], w, tweaking)
    return _blocks_out(icrypt_fast_batch(ys, ts, inverse), as_array)


def encrypt_block_at(block, key, tweak_key: int, unit_key: int, index: int, w: int):
    """Reference-path encryption of the single block at ``index``."""
    return encrypt(block, key, tweak_at(tweak_key, index, w), unit_key, w)
