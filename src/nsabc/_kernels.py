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

A tile holds ``TILE_BYTES`` per word column, ``tile_blocks(w)`` blocks.  The
tweak of block j depends on j alone, so tiles are independent, and a call of
2 or more tiles runs on ``worker_count`` threads: the calling thread and
helpers it starts and joins before it returns.  numpy releases the
interpreter lock inside its loops, and a tile's columns are long enough for
the two threads to overlap.  The calling thread allocates each worker's
workspace, one array for all, before any worker starts, and the workers
allocate no column: they have a tile's tweak words written into their own
tweak columns, copy the tile into their registers, update them in place with
``out=`` ufunc calls, and write the result into the caller's output.  Workers
take tiles under one lock and make each tile's tweak words outside it, from
those of their own tile before.  Workers call ``words`` and the tile function
only, never an entry point that perfbench's tracer wraps, since its span
stack is single-threaded.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .cipher import round_update

#: Bytes per word column of a tile: 2**17 / 2**16 / 2**15 blocks at w=16/32/64.
#: Columns this long let 2 threads overlap at w=16; 128 KiB ones gained nothing.
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
# argument, the cheaper form), so a tile allocates nothing.  m, n and h are 0-d
# arrays: numpy takes a 0-d operand faster than a scalar, about 0.9 against
# 1.4 us for an in-place op on 16 blocks, and 8 of the 12 ops of a round have
# one.  The schedule makes its 128 once (``AffineSchedule.operands``), so
# ``_rounds`` builds only h per tile; they are read-only, and only read.


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
    ``_igbox_into``) and the schedule's operands; work[4] takes the first G output, work[5] is scratch.

    Each G writes into the column of the register the round before dropped: a
    type-B round reads x0 in ``round_update``, and only the next G overwrites it.
    """
    m, n = schedule.operands
    h = np.array(schedule.width >> 1, work.dtype)
    x0, x1, x2, x3, free, r = work
    t = list(t)  # rows of an array would be made anew on each index
    for k in range(32):
        g = gbox(free, r, x0, t[k & 3], m[2 * k], m[2 * k + 1], n[2 * k], n[2 * k + 1], h)
        free = x0
        x0, x1, x2, x3 = round_update(x0, x1, x2, x3, g, k)
    return [x0, x1, x2, x3]


def crypt_tile(x, y, work, t, schedule) -> None:
    """Encrypt the block rows x into the rows y under the tweak words t.

    work is a (6, len(x)) array of the word dtype, the columns of ``_rounds``.
    """
    np.copyto(work[:4], x.T)
    np.stack(_rounds(work, t, schedule, _gbox_into), axis=1, out=y)


def icrypt_tile(y, x, work, t, schedule) -> None:
    """``crypt_tile`` inverted, for an inverse schedule, as ``icrypt_words``: on the words and
    tweak words reversed with ``_igbox_into`` as G, so no tweak word is written."""
    np.copyto(work[:4], y.T[::-1])
    np.stack(_rounds(work, t[::-1], schedule, _igbox_into)[::-1], axis=1, out=x)


def crypt_batch(x, tweak, schedule, words=crypt_tile) -> np.ndarray:
    """``words`` over an (nblocks, 4) array, tile by tile, in one dtype; x is never written.

    ``tweak(start, stop, out, prev, scratch)`` writes the 4 tweak words of
    blocks start..stop-1 into out, a (4, stop - start) array of the word dtype:
    the tweak columns of the worker that took the tile, which hold those of its
    tile from prev, an earlier and no shorter one, or None at its first.
    scratch is the 2 rows that ``words`` uses as G output and rotation scratch,
    idle between tiles.  ``words(x, y, work, t, schedule)`` writes the tile x
    into the output rows y under those columns t, which it must not write,
    with work as ``crypt_tile`` takes it, and reads from the schedule the form
    of its words that it runs on.

    The tiles run on ``worker_count`` threads; an exception in any of them stops
    the others at their next tile and is raised here once all have stopped.
    """
    nblocks = x.shape[0]
    y = np.empty(x.shape, dtype=x.dtype)
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
                tweak(start, stop, t, prev, columns[4:])
                words(x[start:stop], y[start:stop], columns, t, schedule)
                prev = start
        except BaseException as exc:  # re-raised by the calling thread
            failed.append(exc)

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
