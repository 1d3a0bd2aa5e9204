"""Tweak derivation for multi-block encryption.

Each block encrypted under one key gets its own tweak.  With tweak key T0
(a 4w-bit value) the tweak of block j is

    T(j) = T0 odot j = 2*T0*j + T0 + j      (mod 2**(4w))

``tweak_at`` gives random access to any T(j).  Within a run the tweaks are
an affine progression, T(j + i) = T(j) + i*(2*T0 + 1), so the batch entry
points hand ``_kernels.crypt_batch`` a tile function that writes the 4 tweak
columns of a tile of ``_kernels.tile_blocks(w)`` blocks into the columns of
the worker that took it.  A worker's first tile is seeded from limbs of
min(w, 32) bits, and each later one is its tile before plus one 4w-bit
constant, one add with carry over the 4 word columns.  No tweak array as
large as the input, or as a tile, is built.
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


#: Blocks of a seeded tile made from limbs; the rest of it is added to them.
#: Seeds from 2**9 to 2**13 made a full tile in about the same time, 0.30 to 0.49 ms
#: alone and 0.66 to 1.07 ms two at once, at every width on a 2-core Xeon, against
#: 0.6 to 1.4 ms from limbs alone.
SEED_BLOCKS = 1 << 10


def _tile_tweaks(tweak_key: int, first_index: int, w: int, tweaking: bool):
    """The kernel's tile tweak for blocks first_index, first_index+1, ...; the key for all if not tweaking.

    ``tile(start, stop, out, prev, scratch)`` writes the tile's tweak words into
    out, a (4, stop - start) array of ``word_dtype(w)``, with the 2 rows of
    scratch, of its dtype and at least its length, as carries.  Block i of the
    tile gets base + i*step mod 2**(4w), with base the tweak of block
    first_index+start and step = 2*T0 + 1.  It keeps no state, so calls on
    separate columns may run at once.

    With prev None the tile is seeded: its first s = min(count, ``SEED_BLOCKS``)
    blocks are limb sums (``sums``), and block k*s + i is block i plus k*s*step,
    whose multiples are limb sums too, in one add over a grid of rows of s blocks
    and one more for a part row.  Otherwise out holds the tile from ``prev``, at
    least as long, and is advanced in place by (start - prev)*step.
    """
    tweak_at(tweak_key, first_index, w)  # refuses a bad key or index, also untweaked or with no blocks
    if not tweaking:
        return _tile_tweak(tweak_at(tweak_key, 0, w), 0, w)
    wm = (1 << (4 * w)) - 1
    step = (2 * tweak_key + 1) & wm
    bits = min(w, 32)
    dtype = word_dtype(w)

    def sums(base: int, step: int, count: int) -> np.ndarray:
        """base + i*step for i < count as 4 rows of words held in uint64; cast to the word
        dtype, they are reduced mod 2**(4w).

        The limb sums base_b + i*step_b of b = min(w, 32) bits are formed
        limb-major.  As i < 2**10, i*step_b < 2**26 / 2**42 / 2**42 at
        w=16/32/64, and each, with the carry it takes in from the limb below,
        stays below 2**27 / 2**43 / 2**43: one pass from the lowest limb up
        carries them all.  A limb is a word, or at w=64 half of one.
        """
        acc = _limbs(step, w) * np.arange(count, dtype=np.uint64)
        acc += _limbs(base, w)
        for lo, hi in zip(acc, acc[1:]):
            hi += lo >> bits
        if w == 64:  # the shift drops what passed bit 64, the mask the carry of the low limb
            lo = acc[0::2]
            lo &= 0xFFFFFFFF
            acc = acc[1::2] << 32
            acc |= lo
        return acc

    def add(columns, delta, out, carries) -> None:
        """out = columns + delta, 4 rows of words as 4w-bit numbers, with 2 bool rows of carries."""
        # word k is t + c (+ the carry in), its carry out found by comparison; word 3's falls off.
        # Row by row, as numpy copies the input of a 2-D add between column ranges of one array
        for s, t, c in zip(out, columns, delta):
            np.add(t, c, s)
        carry, over = carries
        np.less(out[0], delta[0], carry)
        for s, c in zip(out[1:3], delta[1:3]):
            np.less(s, c, over)
            s += carry
            np.less(s, carry, carry)  # adding the carry in wrapped s to 0
            carry |= over
        out[3] += carry

    def tile(start: int, stop: int, out, prev, scratch) -> None:
        count = stop - start
        carries = scratch.view(bool)[:, :count]  # not word rows: a full-tile advance is 10-20 % faster
        if prev is not None:
            add(out, np.array(int_to_block((start - prev) * step & wm, w), dtype), out, carries)
            return
        seed = min(count, SEED_BLOCKS)
        out[:, :seed] = sums(odot(tweak_key, (first_index + start) & wm, 4 * w), step, seed)
        if count == seed:
            return
        # one add for all rows, not one per doubling: seeds on two threads at once wait
        # on each other for the interpreter lock at each numpy call
        rows, part = divmod(count, seed)
        multiples = sums(0, seed * step & wm, rows + 1).astype(dtype)[:, :, None]
        grid = [word[:rows * seed].reshape(rows, seed) for word in out]
        add([g[:1] for g in grid], multiples[:, 1:rows], [g[1:] for g in grid],
            [c[:(rows - 1) * seed].reshape(rows - 1, seed) for c in carries])
        if part:
            add(out[:, :part], multiples[:, rows], out[:, rows * seed:], carries[:, :part])

    return tile


def _crypt_blocks(words, schedule, blocks, tweak_key: int, first_index: int, tweaking: bool, out):
    """The kernel's ``words`` over the checked blocks and their tweaks, written in place
    if out is the block array, or into a fresh array if it is None; a list back for a list."""
    w = schedule.width
    as_array = isinstance(blocks, np.ndarray)
    xs = _as_block_array(blocks if as_array else list(blocks), w)
    ys = crypt_batch(xs, _tile_tweaks(tweak_key, first_index, w, tweaking), schedule, words, out)
    return ys if as_array else [tuple(row) for row in ys.tolist()]


def encrypt_blocks(blocks, key, tweak_key: int, unit_key: int, w: int, *,
                   tweaking: bool = True, first_index: int = 0, out=None):
    """Encrypt a sequence of blocks; block j uses the tweak T0 odot (first_index+j).

    Key, unit and affine schedules are computed once and reused for the whole
    sequence.  With ``tweaking=False`` every block uses the tweak key as a
    constant tweak.  Accepts a list of 4-word tuples or an (n, 4) array and
    returns the same kind.  The words go into a fresh array, or with ``out``
    the block array itself, a writable (n, 4) array of ``word_dtype(w)``,
    into that array in place; any other ``out`` raises ValueError.
    """
    schedule = affine_expand(key, unit_key, w)
    return _crypt_blocks(crypt_tile, schedule, blocks, tweak_key, first_index, tweaking, out)


def decrypt_blocks(blocks, key, tweak_key: int, unit_key: int, w: int, *,
                   tweaking: bool = True, first_index: int = 0, out=None):
    """Invert ``encrypt_blocks``, into ``out`` as it does; ``first_index`` gives random access to any slice."""
    inverse = invert_affine(affine_expand(key, unit_key, w))
    return _crypt_blocks(icrypt_tile, inverse, blocks, tweak_key, first_index, tweaking, out)


def encrypt_block_at(block, key, tweak_key: int, unit_key: int, index: int, w: int):
    """Reference-path encryption of the single block at ``index``."""
    return encrypt(block, key, tweak_at(tweak_key, index, w), unit_key, w)
