"""Tweak derivation for multi-block encryption.

Each block encrypted under one key gets its own tweak.  With tweak key T0
(a 4w-bit value) the tweak of block j is

    T(j) = T0 odot j = 2*T0*j + T0 + j      (mod 2**(4w))

``tweak_at`` gives random access to any T(j).  Within a run the tweaks are
an affine progression, T(j + i) = T(j) + i*(2*T0 + 1), so the batch entry
points hand ``_kernels.crypt_batch`` a tile function that writes each tile's 4
tweak columns into the worker's own columns when the kernel reaches that tile
of ``_kernels.tile_blocks(w)`` blocks.
The first ``SEED_BLOCKS`` blocks of a call's first tile are array arithmetic
on limbs of min(w, 32) bits, based on the tweak of its first block, and the
rest of that tile is doubled from them; two runs of blocks differ by one
4w-bit constant, so every later tile is the tile before it plus that constant,
one add with carry over the 4 word columns.  No tweak array as large as the
input, or as a tile, is built.
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


#: Blocks of a first tile made from limbs; the rest of it is doubled from them.
#: Seeds from 2**9 to 2**13 made a full first tile in about the same time, 0.25 to
#: 0.36 ms at every width on a 2-core Xeon, against 0.6 to 1.4 ms from limbs alone.
SEED_BLOCKS = 1 << 10


def _tile_tweaks(tweak_key: int, first_index: int, w: int, tweaking: bool):
    """The kernel's tile tweak for blocks first_index, first_index+1, ...; the key for all if not tweaking.

    ``tile(start, stop, out)`` writes the tile's 4 tweak columns into out, a
    (4, stop - start) array of ``word_dtype(w)``.  Block i of the tile from
    ``start`` gets base + i*step mod 2**(4w), with base the tweak of block
    first_index+start and step = 2*T0 + 1.

    The first tile asked for is seeded from both: its first s = min(count,
    ``SEED_BLOCKS``) blocks are split into limbs of b = min(w, 32) bits, and
    the limb sums base_b + i*step_b are formed limb-major in uint64.  As
    i < 2**10, i*step_b < 2**26 / 2**42 / 2**42 at w=16/32/64, and each limb
    sum, with the carry it takes in from the limb below, stays below
    2**27 / 2**43 / 2**43: one pass from the lowest limb up carries them all.
    Reducing each limb to b bits then drops the carry out of the top one too,
    the reduction mod 2**(4w).  A limb is a word, or at w=64 half of one.  The
    rest of the tile is doubled from the seed: the columns [s, 2s) are the
    columns [0, s) plus s*step, and so on until the tile is full.

    Each later tile is the tile asked for before it advanced: block i of the
    tile from ``start`` is block i of the one before plus (start - its
    start)*step.  So the columns of the tile before must be unchanged when the
    next is asked for, as ``_kernels.crypt_batch`` keeps them.  Doubling and
    advancing are one add of a 4w-bit constant to 4 columns as words with carry
    (``advance``), in two bool columns made with the seeded tile, so that a
    later tile allocates no column.  A tile longer than the one before (a short
    tile came first) is seeded too, so any order of requests gives the closed
    form.  The function keeps state: it is not to be called from two threads
    at once.
    """
    tweak_at(tweak_key, first_index, w)  # refuses a bad key or index, also untweaked or with no blocks
    if not tweaking:
        return _tile_tweak(tweak_at(tweak_key, 0, w), 0, w)
    wm = (1 << (4 * w)) - 1
    step = (2 * tweak_key + 1) & wm
    step_limbs = _limbs(step, w)
    bits = min(w, 32)
    dtype = word_dtype(w)
    last = flags = None  # (start, columns) of the tile made last, and the carry flags

    def advance(columns, blocks: int, out) -> None:
        """Write the tweaks ``blocks`` blocks after the columns into out, of their shape."""
        # word k is t + c (+ the carry in), its carry out found by comparison; word 3's falls off
        delta = np.array(int_to_block(blocks * step & wm, w), dtype)
        np.add(columns, delta[:, None], out)
        carry, over = flags[:, :out.shape[1]]
        np.less(out[0], delta[0], carry)
        for s, c in zip(out[1:3], delta[1:3]):
            np.less(s, c, over)
            s += carry
            np.less(s, carry, carry)  # adding the carry in wrapped s to 0
            carry |= over
        out[3] += carry

    def tile(start: int, stop: int, out) -> None:
        nonlocal last, flags
        count = stop - start
        if last is not None and count <= last[1].shape[1]:
            advance(last[1][:, :count], start - last[0], out)
        else:  # seeded
            flags = np.empty((2, count), bool)
            seed = min(count, SEED_BLOCKS)
            acc = step_limbs * np.arange(seed, dtype=np.uint64)
            acc += _limbs(odot(tweak_key, (first_index + start) & wm, 4 * w), w)
            for lo, hi in zip(acc, acc[1:]):
                hi += lo >> bits
            if w == 64:  # the shift drops what passed bit 64, the mask the carry of the low limb
                lo = acc[0::2]
                lo &= 0xFFFFFFFF
                acc = acc[1::2] << 32
                acc |= lo
            out[:, :seed] = acc
            while seed < count:
                more = min(seed, count - seed)
                advance(out[:, :more], seed, out[:, seed:seed + more])
                seed += more
        last = start, out

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
