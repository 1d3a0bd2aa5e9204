"""Tweak derivation for multi-block encryption.

Each block encrypted under one key gets its own tweak.  With tweak key T0
(a 4w-bit value) the tweak of block j is

    T(j) = T0 odot j = 2*T0*j + T0 + j      (mod 2**(4w))

``tweak_at`` gives random access to any T(j).  Within a run the tweaks are
an affine progression, T(j + i) = T(j) + i*(2*T0 + 1), so the batch entry
points hand ``_kernels.crypt_batch`` a tile function that makes each tile's 4
tweak columns, into the worker's own columns, when the kernel reaches that
tile of ``_kernels.tile_blocks(w)`` blocks.
The first tile of a call is array arithmetic on limbs of min(w, 32) bits,
based on the tweak of its first block; two tiles differ by one 4w-bit
constant, so every later tile is the first plus that constant, one add with
carry over the 4 word columns.  No tweak array as large as the input is built.
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

from ._kernels import crypt_batch, crypt_tile, icrypt_tile
from .cipher import encrypt, int_to_block, word_dtype
from .fastpath import _as_block_array, _tile_tweak, affine_expand, invert_affine
from .words import check_cipher_width, check_word, odot


def tweak_at(tweak_key: int, index: int, w: int) -> tuple[int, int, int, int]:
    """Tweak of block ``index``: tweak_key odot index in 4w-bit arithmetic.

    Both must be integers in [0, 2**(4w)); anything else raises ValueError.
    """
    check_cipher_width(w)
    check_word(tweak_key, 4 * w, "tweak key")
    check_word(index, 4 * w, "block index")
    return int_to_block(odot(tweak_key, index, 4 * w), w)


def _limbs(value: int, w: int) -> np.ndarray:
    """A 4w-bit int as a column of its little-endian limbs of min(w, 32) bits, held in uint64."""
    return np.frombuffer(value.to_bytes(w // 2, "little"), dtype=word_dtype(min(w, 32))).astype(np.uint64)[:, None]


def _tile_tweaks(tweak_key: int, first_index: int, w: int, tweaking: bool):
    """The kernel's tile tweak for blocks first_index, first_index+1, ...; the key for all if not tweaking.

    ``tile(start, stop, out)`` writes the tile's 4 tweak columns into out, a
    (4, stop - start) array of ``word_dtype(w)``, and returns it; without out it
    returns a new array.  Block i of the tile from ``start`` gets base + i*step
    mod 2**(4w), with base the tweak of block first_index+start and
    step = 2*T0 + 1.  The first tile asked for is made from both, split into
    limbs of b = min(w, 32) bits: the limb sums base_b + i*step_b are formed
    limb-major in uint64.  A tile has i < ``tile_blocks(w)`` = 2**17 / 2**16 /
    2**15 at w=16/32/64, so i*step_b < 2**33 / 2**48 / 2**47, and each limb
    sum, with the carry it takes in from the limb below, stays below
    2**34 / 2**49 / 2**48: one pass from the lowest limb up carries them all.
    Reducing each limb to b bits then drops the carry out of the top one too,
    the reduction mod 2**(4w).  A limb is a word, or at w=64 half of one.

    Each later tile is that first tile advanced: block i of the tile from
    ``start`` is block i of the first tile plus (start - start_first)*step, one
    4w-bit constant for the whole tile, added to the 4 columns as words with
    carry, in two bool columns kept with the first tile, so that a later tile
    allocates no column.  A tile longer than the first one (a short tile came
    first) is made from limbs too and is kept as the one to advance, so any
    order of requests gives the closed form.  The function keeps state: it is
    not to be called from two threads at once.
    """
    tweak_at(tweak_key, first_index, w)  # refuses a bad key or index, also untweaked or with no blocks
    if not tweaking:
        return _tile_tweak(tweak_at(tweak_key, 0, w), 0, w)
    wm = (1 << (4 * w)) - 1
    step = (2 * tweak_key + 1) & wm
    step_limbs = _limbs(step, w)
    bits = min(w, 32)
    dtype = word_dtype(w)
    first = None  # (start, columns, carry flags) of the tile that later tiles advance from

    def limb_tile(start: int, stop: int) -> np.ndarray:
        acc = step_limbs * np.arange(stop - start, dtype=np.uint64)
        acc += _limbs(odot(tweak_key, (first_index + start) & wm, 4 * w), w)
        for lo, hi in zip(acc, acc[1:]):
            hi += lo >> bits
        if w == 64:  # the shift drops what passed bit 64, the mask the carry of the low limb
            lo = acc[0::2]
            lo &= 0xFFFFFFFF
            acc = acc[1::2] << 32  # a new array of 4 words: the limbs are not kept with the columns
            acc |= lo
        columns = acc.astype(dtype, copy=False)
        columns.flags.writeable = False  # later tiles are advanced from these
        return columns

    def tile(start: int, stop: int, out=None) -> np.ndarray:
        nonlocal first
        count = stop - start
        if out is None:
            out = np.empty((4, count), dtype)
        if first is None or count > first[1].shape[1]:
            first = start, limb_tile(start, stop), np.empty((2, count), bool)
            np.copyto(out, first[1])
            return out
        base_start, base, flags = first
        # word k is t + c (+ the carry in), its carry out found by comparison; word 3's falls off
        delta = np.array(int_to_block((start - base_start) * step & wm, w), dtype)
        np.add(base[:, :count], delta[:, None], out)
        carry, over = flags[:, :count]
        np.less(out[0], delta[0], carry)
        for s, c in zip(out[1:3], delta[1:3]):
            np.less(s, c, over)
            s += carry
            np.less(s, carry, carry)  # adding the carry in wrapped s to 0
            carry |= over
        out[3] += carry
        return out

    return tile


def _crypt_blocks(words, schedule, blocks, tweak_key: int, first_index: int, tweaking: bool):
    """The kernel's ``words`` over the checked blocks and their tweaks; a list back for a list."""
    w = schedule.width
    as_array = isinstance(blocks, np.ndarray)
    xs = _as_block_array(blocks if as_array else list(blocks), w)
    out = crypt_batch(xs, _tile_tweaks(tweak_key, first_index, w, tweaking), *schedule.operands, w, words)
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
    return _crypt_blocks(crypt_tile, schedule, blocks, tweak_key, first_index, tweaking)


def decrypt_blocks(blocks, key, tweak_key: int, unit_key: int, w: int, *,
                   tweaking: bool = True, first_index: int = 0):
    """Invert ``encrypt_blocks``; ``first_index`` gives random access to any slice."""
    inverse = invert_affine(affine_expand(key, unit_key, w))
    return _crypt_blocks(icrypt_tile, inverse, blocks, tweak_key, first_index, tweaking)


def encrypt_block_at(block, key, tweak_key: int, unit_key: int, index: int, w: int):
    """Reference-path encryption of the single block at ``index``."""
    return encrypt(block, key, tweak_at(tweak_key, index, w), unit_key, w)
