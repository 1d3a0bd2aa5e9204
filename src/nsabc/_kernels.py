"""The one fast block transform.

The 32 rounds run as the cipher's own register loop: ``cipher.round_update``
with an affine G-box where ``cipher.crypt`` calls ``gbox``.  ``crypt_words``
runs it on one block of Python ints, masked to w bits; ``crypt_batch`` runs
it on many, as columns of the dtype ``cipher.word_dtype``, which wraps at w
bits, all the reduction mod 2**w the cipher needs, one tile at a time
(``crypt_tile``, ``icrypt_tile``).  Each takes the schedule and reads from it
the form it runs on.  Decryption, under an inverse schedule, is the same loop
on reordered words, in both engines: the word order reversed (R) and each
word's halves swapped (S), the tweak words too.  S is linear over XOR,
S(a) ^ S(b) = S(a ^ b), and its own inverse.  So the registers can hold S of
the reordered words, which is R(y) itself: where the reordered loop XORs g or
x0 into a register, these registers take S(g) or S(x0), and ``round_update``
runs on them unchanged if G hands it S(g).  With A(x) = x*m + n for a
half-round's affine form, round k's G in the reordered loop is
G(x) = S(A1(S(A0(x)) ^ S(t[3 - k % 4]))), as its tweak words are S(R(t)), so

    S(G(S(x))) = A1(S(A0(S(x))) ^ S(t[3 - k % 4])) = A1(S(A0(S(x)) ^ t[3 - k % 4])):

the steps of encryption's G in another order (rotate, multiply-add, XOR the
tweak word, rotate, multiply-add; ``affine_igbox``, ``_igbox_into``), on the
tweak words reversed and never rotated.  At the end the registers hold S of
the reordered result, so the plaintext is the registers in reverse order.
A tile of one block runs on ``crypt_words`` or ``icrypt_words`` instead.

A tile holds ``TILE_BYTES`` per word column, ``tile_blocks(w)`` blocks.  A
call's tweaks are two 4w-bit ints, first and step: block i has the tweak
first + i*step mod 2**(4w), so tiles are independent, and a call of 2 or
more tiles runs on ``worker_count`` threads: the calling thread and helpers
it starts and joins before it returns.  numpy releases the interpreter lock
inside its loops, so the two threads can overlap, but they do not always: on
a 2-core Xeon, the CPU time of 4 MiB calls was 1.6-1.8 times their wall time
in 62 of 72 loops of 12 calls, and 0.95-1.13 times in the other 10.  The
calling thread allocates each worker's workspace, one array for all, before
any worker starts, and the workers allocate no column: they write a tile's
tweak words into their own tweak columns (``tile_tweaks``), copy the tile
into their registers, update them in place with ``out=`` ufunc calls, and
write the result into the caller's output.  Workers take tiles under one
lock and make each tile's tweak words outside it: in the compiled set-up
(``_native``), which holds no interpreter lock while it writes them, or in
numpy, from those of their own tile before.  The calling thread loads the
compiled set-up, if no call did before, before it starts a helper.  Workers
call ``words`` and ``tile_tweaks`` only, never an entry point that
perfbench's tracer wraps, since its span stack is single-threaded.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from . import _native
from .cipher import int_to_block, round_update, word_dtype

#: Bytes per word column of a tile: 2**17 / 2**16 / 2**15 blocks at w=16/32/64.
#: 64 KiB and 128 KiB columns ran slower.
TILE_BYTES = 1 << 18

#: Most threads a call runs on; the hosts measured have 2 cores.
MAX_WORKERS = 2

#: Rows of a worker's workspace: 4 registers, the column G writes into, a
#: rotation scratch (the 6 that ``words`` gets), then the tile's 4 tweak columns.
WORKSPACE_COLUMNS = 10


def tile_blocks(w: int) -> int:
    """Blocks per tile of the batch kernel at width w, and so of the tweak words made per tile."""
    return TILE_BYTES * 8 // w


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count(tiles: int) -> int:
    """Threads a call of ``tiles`` tiles runs on: min(MAX_WORKERS, usable CPUs, tiles); one tile runs inline."""
    return min(MAX_WORKERS, usable_cpus(), tiles) if tiles > 1 else tiles


def resolve_backend() -> str:
    """Name of the batch kernel implementation; numpy is the only one."""
    return "numpy"


# ---------------------------------------------------------------------------
# one block: Python ints, masked to w bits


def affine_gbox(x, t, m0, m1, n0, n1, h, mask):
    """G-box in affine form on int words; equals gbox under the (m, n) correspondence.

    h is the half-word shift w/2 and mask 2**w - 1, the reduction mod 2**w, made once
    per block by ``crypt_words``: made in each call they cost it 8-10 %.  The first
    rotation is not masked: its bits above w only reach bits above w of the product,
    which the next mask drops.  ``crypt_batch`` runs ``_gbox_into``, the same steps
    on columns whose dtype wraps at w bits.
    """
    x = (x * m0 + n0) & mask
    x = (((x << h | x >> h) ^ t) * m1 + n1) & mask
    return (x << h | x >> h) & mask


def affine_igbox(x, t, m0, m1, n0, n1, h, mask):
    """S(G(S(x))), G being ``affine_gbox`` under the tweak word S(t) and S the half-word rotation,
    as the module docstring derives; its rotations, like ``affine_gbox``'s first, are not masked."""
    x = ((x << h | x >> h) * m0 + n0) & mask ^ t
    return ((x << h | x >> h) * m1 + n1) & mask


def crypt_words(x, t, schedule, gbox=affine_gbox) -> tuple[int, ...]:
    """The 32-round transform of the 4 int words x under the 4 int tweak words t."""
    m, n, w = schedule.m, schedule.n, schedule.width
    h, mask = w >> 1, (1 << w) - 1
    x0, x1, x2, x3 = x
    for k in range(32):
        g = gbox(x0, t[k & 3], m[2 * k], m[2 * k + 1], n[2 * k], n[2 * k + 1], h, mask)
        x0, x1, x2, x3 = round_update(x0, x1, x2, x3, g, k)
    return x0, x1, x2, x3


def icrypt_words(y, t, schedule) -> tuple[int, ...]:
    """``crypt_words`` inverted, for an inverse schedule, on the words and tweak words
    reversed with ``affine_igbox`` as G; the result reversed is the plaintext."""
    return crypt_words(y[::-1], t[::-1], schedule, affine_igbox)[::-1]


# ---------------------------------------------------------------------------
# a tile: word-dtype columns, updated in place
#
# Every step writes into a column it is given (ufuncs take out as a positional
# argument, the cheaper form), so a tile allocates no column.  m, n and h are
# 0-d arrays: numpy takes a 0-d operand faster than a scalar, about 0.9 against
# 1.4 us for an in-place op on 16 blocks, and 8 of the 12 ops of a round have
# one.  ``_rounds`` makes h once per tile and each of the 128 words of m and
# n as a 0-d view of the schedule's read-only arrays where a G takes it,
# 15-21 us a tile; a list of them made per tile left more heap to fault in
# again on each 4 MiB call.


def _gbox_into(g, r, x, t, m0, m1, n0, n1, h):
    """``affine_gbox`` of the column x written into the column g, with r as the rotation scratch."""
    np.multiply(x, m0, g)
    g += n0
    np.left_shift(g, h, r)
    g >>= h
    g |= r
    g ^= t
    g *= m1
    g += n1
    np.left_shift(g, h, r)
    g >>= h
    g |= r
    return g


def _igbox_into(g, r, x, t, m0, m1, n0, n1, h):
    """S(G(S(x))), G being ``affine_gbox`` under the tweak word S(t) and S the half-word
    rotation, written into the column g with r as the rotation scratch: ``_gbox_into``'s
    steps in another order, as the module docstring derives."""
    np.left_shift(x, h, r)
    np.right_shift(x, h, g)
    g |= r
    g *= m0
    g += n0
    g ^= t
    np.left_shift(g, h, r)
    g >>= h
    g |= r
    g *= m1
    g += n1
    return g


def _rounds(work, t, schedule, gbox) -> list:
    """The 32 rounds on the registers work[:4] with the G ``gbox`` (``_gbox_into`` or
    ``_igbox_into``) and the schedule's words as 0-d views of its arrays; work[4] takes the
    first G output, work[5] is scratch.

    Each G writes into the column of the register the round before dropped: a
    type-B round reads x0 in ``round_update``, and only the next G overwrites it.
    """
    m, n = schedule.arrays
    h = np.array(schedule.width >> 1, work.dtype)
    x0, x1, x2, x3, free, r = work
    t = list(t)  # rows of an array would be made anew on each index
    for k in range(32):
        g = gbox(free, r, x0, t[k & 3], m[2 * k, ...], m[2 * k + 1, ...], n[2 * k, ...], n[2 * k + 1, ...], h)
        free = x0
        x0, x1, x2, x3 = round_update(x0, x1, x2, x3, g, k)
    return [x0, x1, x2, x3]


def crypt_tile(x, y, work, t, schedule) -> None:
    """Encrypt the block rows x into the rows y under the tweak words t.

    work is a (6, len(x)) array of the word dtype, the columns of ``_rounds``.  One
    block runs on ``crypt_words`` instead: 18-27 us on a 2.1 GHz Xeon, against 174-191
    us for the ~400 ufunc calls of a numpy tile on the block twice, as two lanes.
    """
    if len(x) == 1:
        y[0] = crypt_words(x[0].tolist(), t[:, 0].tolist(), schedule)
        return
    np.copyto(work[:4], x.T)
    np.stack(_rounds(work, t, schedule, _gbox_into), axis=1, out=y)


def icrypt_tile(y, x, work, t, schedule) -> None:
    """``crypt_tile`` inverted, for an inverse schedule, as ``icrypt_words``: on the words and
    tweak words reversed with ``_igbox_into`` as G, so no tweak word is written; one block
    runs on ``icrypt_words``."""
    if len(y) == 1:
        x[0] = icrypt_words(y[0].tolist(), t[:, 0].tolist(), schedule)
        return
    np.copyto(work[:4], y.T[::-1])
    np.stack(_rounds(work, t[::-1], schedule, _igbox_into)[::-1], axis=1, out=x)


# ---------------------------------------------------------------------------
# a tile's tweak columns: block i of a call has the tweak first + i*step mod 2**(4w)


#: Blocks of a seeded tile made from limbs; the rest of it is added to them.
#: Seeds from 2**9 to 2**13 made a full tile in about the same time, 0.30 to 0.49 ms
#: alone and 0.66 to 1.07 ms two at once, at every width on a 2-core Xeon, against
#: 0.6 to 1.4 ms from limbs alone.
SEED_BLOCKS = 1 << 10


def _limbs(value: int, w: int) -> np.ndarray:
    """A 4w-bit int as a column of its little-endian limbs of min(w, 32) bits, held in uint64."""
    return np.frombuffer(value.to_bytes(w // 2, "little"), dtype=word_dtype(min(w, 32))).astype(np.uint64)[:, None]


def _sums(base: int, step: int, count: int, w: int) -> np.ndarray:
    """base + i*step for i < count as 4 rows of words held in uint64; cast to the word
    dtype, they are reduced mod 2**(4w).

    The limb sums base_b + i*step_b of b = min(w, 32) bits are formed
    limb-major.  As i < 2**10, i*step_b < 2**26 / 2**42 / 2**42 at
    w=16/32/64, and each, with the carry it takes in from the limb below,
    stays below 2**27 / 2**43 / 2**43: one pass from the lowest limb up
    carries them all.  A limb is a word, or at w=64 half of one.
    """
    bits = min(w, 32)
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


def _add(columns, delta, out, carries) -> None:
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


def tile_tweaks(t, scratch, first: int, step: int, start: int, prev) -> None:
    """Write into t, the (4, count) tweak columns of a tile, the tweak words of blocks
    start..start+count-1 of a call whose block i has the tweak first + i*step mod 2**(4w).

    t is of the word dtype, each row contiguous, and scratch is 2 rows of it, at
    least as long.  The compiled set-up (``_native``) seeds every tile and reads
    neither scratch nor prev; where it is not in use, ``numpy_tile_tweaks`` makes
    the tile.  It keeps no state, so calls on separate columns may run at once.
    """
    native = _native.library()
    if native is None:
        numpy_tile_tweaks(t, scratch, first, step, start, prev)
    else:
        native.tweaks(t, (first + start * step) % (1 << (4 * t.itemsize * 8)), step)


def numpy_tile_tweaks(t, scratch, first: int, step: int, start: int, prev) -> None:
    """``tile_tweaks`` in numpy: the fallback of the compiled set-up and its cross-check.

    scratch is used as carries.  With step 0 every block has the tweak first, and its 4 words
    fill t.  With prev None the tile is seeded: its first s = min(count,
    ``SEED_BLOCKS``) blocks are limb sums (``_sums``), and block k*s + i is
    block i plus k*s*step, whose multiples are limb sums too, in one add over a
    grid of rows of s blocks and one more for a part row.  Otherwise t holds
    the tile from block prev, an earlier and no shorter one, and is advanced in
    place by (start - prev)*step.  It keeps no state, so calls on separate
    columns may run at once.
    """
    w = t.dtype.itemsize * 8
    if not step:
        np.copyto(t, np.array(int_to_block(first, w), t.dtype)[:, None])
        return
    wm = (1 << (4 * w)) - 1
    count = t.shape[1]
    carries = scratch.view(bool)[:, :count]  # not word rows: a full-tile advance is 10-20 % faster
    if prev is not None:
        _add(t, np.array(int_to_block((start - prev) * step & wm, w), t.dtype), t, carries)
        return
    seed = min(count, SEED_BLOCKS)
    t[:, :seed] = _sums((first + start * step) & wm, step, seed, w)
    if count == seed:
        return
    # one add for all rows, not one per doubling: seeds on two threads at once wait
    # on each other for the interpreter lock at each numpy call
    rows, part = divmod(count, seed)
    multiples = _sums(0, seed * step & wm, rows + 1, w).astype(t.dtype)[:, :, None]
    grid = [word[:rows * seed].reshape(rows, seed) for word in t]
    _add([g[:1] for g in grid], multiples[:, 1:rows], [g[1:] for g in grid],
         [c[:(rows - 1) * seed].reshape(rows - 1, seed) for c in carries])
    if part:
        _add(t[:, :part], multiples[:, rows], t[:, rows * seed:], carries[:, :part])


def crypt_batch(x, first: int, step: int, schedule, words=crypt_tile, out=None) -> np.ndarray:
    """``words`` over an (nblocks, 4) array, tile by tile, in one dtype, written into out
    and returned; x is never written unless it is out.

    Block i has the tweak first + i*step mod 2**(4w), two 4w-bit ints; one
    tweak for all is (tweak, 0).  out is None, for a fresh array, or x itself
    if x is writable: each tile is copied into its worker's registers before
    any of its rows is written.  Any other out raises ValueError.

    Each worker writes a tile's tweak words into its own tweak columns t with
    ``tile_tweaks``, advancing them from its tile before.
    ``words(x, y, work, t, schedule)`` writes the tile x into the output rows y
    under those columns t, which it must not write, with work as
    ``crypt_tile`` takes it, and reads from the schedule the form of its words
    that it runs on.

    The tiles run on ``worker_count`` threads; an exception in any of them stops
    the others at their next tile and is raised here once all have stopped.
    """
    nblocks = x.shape[0]
    if out is None:
        y = np.empty(x.shape, dtype=x.dtype)
    elif out is x and x.flags.writeable:
        y = x
    else:
        raise ValueError("out must be None or the blocks themselves, writable")
    length = tile_blocks(schedule.width)
    starts = iter(range(0, nblocks, length))
    workers = worker_count(-(-nblocks // length))
    if not workers:
        return y
    lock = threading.Lock()
    failed = []

    def work(space):
        """Run tiles, each under its tweak words in space, until all are taken or a worker failed."""
        prev = None  # start of the tile whose tweak words space[6:] holds
        try:
            while True:
                with lock:
                    start = None if failed else next(starts, None)
                if start is None:
                    return
                stop = min(start + length, nblocks)
                columns, t = space[:6, :stop - start], space[6:, :stop - start]
                tile_tweaks(t, columns[4:], first, step, start, prev)
                words(x[start:stop], y[start:stop], columns, t, schedule)
                prev = start
        except BaseException as exc:  # re-raised by the calling thread
            failed.append(exc)

    _native.library()  # built and loaded on this thread, before any helper starts
    spaces = np.empty((workers, WORKSPACE_COLUMNS, min(length, nblocks)), dtype=x.dtype)
    helpers = [threading.Thread(target=work, args=(space,)) for space in spaces[1:]]
    try:
        for thread in helpers:
            thread.start()
        work(spaces[0])
    finally:  # also when a thread cannot be started: the ones that were finish the tiles
        for thread in helpers:
            if thread.is_alive():
                thread.join()
    if failed:
        raise failed[0]
    return y
