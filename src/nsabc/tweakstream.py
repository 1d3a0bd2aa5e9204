"""Tweak derivation for multi-block encryption.

Each block encrypted under one key gets its own tweak.  With tweak key T0
(a 4w-bit value) the tweak of block j is

    T(j) = T0 odot j = 2*T0*j + T0 + j      (mod 2**(4w))

``tweak_at`` gives random access to any T(j).  Within a run the tweaks are
an affine progression, T(j + i) = T(j) + i*(2*T0 + 1), so the batch entry
points build the tweak rows with array arithmetic on 32-bit limbs, in the
kernel's tiles of ``TILE_BLOCKS`` blocks each based afresh on ``tweak_at``.
As odot is a group operation, j -> T(j) is injective, so no tweak repeats
before 2**(4w) blocks; that bound is documented, not enforced.
Block indices live in a flat 4w-bit space; applications wanting structured
indices pack them into j themselves.

Wide values are ordinary Python ints in [0, 2**(4w)), converted to and from
4-word little-endian tuples at the block boundary (``cipher.int_to_block``).
A tweak key or block index outside that range is refused, not reduced.
"""

from __future__ import annotations

import numpy as np

from ._kernels import TILE_BLOCKS
from .cipher import block_to_int, encrypt, int_to_block, word_dtype
from .fastpath import _as_block_array, affine_expand, crypt_fast_batch, icrypt_fast_batch, invert_affine
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


def _limbs(value: int, w: int) -> np.ndarray:
    """A 4w-bit int as a (w/8, 1) column of its little-endian 32-bit limbs, held in uint64."""
    return np.frombuffer(value.to_bytes(w // 2, "little"), dtype="<u4").astype(np.uint64)[:, None]


def _tweak_rows(tweak_key: int, first_index: int, nblocks: int, w: int, tweaking: bool) -> np.ndarray:
    """Tweak words for blocks first_index..first_index+nblocks-1 as (n, 4); the (4,) key if not tweaking.

    Row i of a tile is base + i*step mod 2**(4w), with base the tile's first
    tweak and step = 2*T0 + 1, both split into 32-bit limbs.  The limb sums
    base_b + i*step_b are formed limb-major in uint64; as i < TILE_BLOCKS =
    2**15, each stays below 2**48 with the carry it takes in, so one pass from
    the lowest limb up carries them all.  Truncating the limbs to 32 bits then
    reduces each limb and drops the carry out of the top one, the reduction
    mod 2**(4w); viewed as little-endian words they are the rows in ``word_dtype(w)``.
    """
    tweak_at(tweak_key, first_index, w)  # refuses a bad key or index, also untweaked or with no blocks
    if not tweaking:
        return np.array(tweak_at(tweak_key, 0, w), dtype=word_dtype(w))
    wm = (1 << (4 * w)) - 1
    step = _limbs((2 * tweak_key + 1) & wm, w)
    offsets = np.arange(min(nblocks, TILE_BLOCKS), dtype=np.uint64)
    rows = np.empty((nblocks, 4), dtype=word_dtype(w))
    for start in range(0, nblocks, TILE_BLOCKS):
        base = block_to_int(tweak_at(tweak_key, (first_index + start) & wm, w), w)
        acc = step * offsets[:nblocks - start] + _limbs(base, w)
        for lo, hi in zip(acc, acc[1:]):
            hi += lo >> 32
        rows[start:start + acc.shape[1]] = acc.T.astype("<u4", order="C").view(rows.dtype)
    return rows


def _crypt_blocks(batch_fn, schedule, blocks, tweak_key: int, first_index: int, tweaking: bool):
    """``batch_fn`` over the checked blocks and their tweak rows; a list back for a list."""
    w = schedule.width
    as_array = isinstance(blocks, np.ndarray)
    xs = _as_block_array(blocks if as_array else list(blocks), w)
    out = batch_fn(xs, _tweak_rows(tweak_key, first_index, xs.shape[0], w, tweaking), schedule)
    return out if as_array else [tuple(row) for row in out.tolist()]


def encrypt_blocks(blocks, key, tweak_key: int, unit_key: int, w: int, *,
                   tweaking: bool = True, first_index: int = 0):
    """Encrypt a sequence of blocks; block j uses the tweak T0 odot (first_index+j).

    Key, unit and affine schedules are computed once and reused for the whole
    sequence.  With ``tweaking=False`` every block uses the tweak key as a
    constant tweak.  Accepts a list of 4-word tuples or an (n, 4) array and
    returns the same kind.
    """
    schedule = affine_expand(key, unit_key, w)
    return _crypt_blocks(crypt_fast_batch, schedule, blocks, tweak_key, first_index, tweaking)


def decrypt_blocks(blocks, key, tweak_key: int, unit_key: int, w: int, *,
                   tweaking: bool = True, first_index: int = 0):
    """Invert ``encrypt_blocks``; ``first_index`` gives random access to any slice."""
    inverse = invert_affine(affine_expand(key, unit_key, w))
    return _crypt_blocks(icrypt_fast_batch, inverse, blocks, tweak_key, first_index, tweaking)


def encrypt_block_at(block, key, tweak_key: int, unit_key: int, index: int, w: int):
    """Reference-path encryption of the single block at ``index``."""
    return encrypt(block, key, tweak_at(tweak_key, index, w), unit_key, w)
