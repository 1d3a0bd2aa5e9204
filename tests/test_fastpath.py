"""Fast path: affine schedules, the register loop, inversion, batching."""

import ast
import enum
import importlib
import random
import re
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import lift, random_tuple, random_words
from nsabc import _kernels
from nsabc._kernels import (
    _gbox_into,
    _igbox_into,
    affine_gbox,
    affine_igbox,
    crypt_batch,
    crypt_tile,
    icrypt_tile,
    resolve_backend,
    tile_blocks,
)
from nsabc.cipher import block_to_int, crypt, decrypt, gbox, int_to_block, round_update, word_dtype
from nsabc.fastpath import (
    AffineSchedule,
    affine_expand,
    crypt_fast,
    crypt_fast_batch,
    icrypt_fast,
    icrypt_fast_batch,
    invert_affine,
)
from nsabc.kat import standard_trace, trace_matches_reference
from nsabc.schedules import key_expand, tweak_expand, unit_expand
from nsabc.tweakstream import decrypt_blocks, encrypt_block_at, encrypt_blocks, tweak_at
from nsabc.words import mod_inverse, swap_halves

Z16 = (0x0000, 0x0005, 0x0066, 0x0777, 0x8888)
T16 = (0x4444, 0x0333, 0x0022, 0x0001)
U16 = 0x1998
X16 = (0xCDEF, 0x89AB, 0x4567, 0x0123)


def shift_and_mask(w):
    """``affine_gbox``'s last two arguments: the half-word shift and the w-bit mask."""
    return w >> 1, (1 << w) - 1


def edge_key_material(w):
    """All-zero and all-ones key and unit words, where 2(K-L)+1 and (2L-1)(K-L) wrap."""
    top = (1 << w) - 1
    return [(z, u) for z in ((0,) * 5, (top,) * 5) for u in (0, top)]


# ---------------------------------------------------------------------------
# the register loop against the reference trace


def test_fast_rounds_match_reference_trace():
    # the published w=16 vector, then seeded random vectors at every width
    vectors = [(16, (X16, Z16, T16, U16))]
    for w in (16, 32, 64):
        rng = random.Random(w * 3)
        vectors += [(w, random_tuple(rng, w)) for _ in range(8)]
    for w, (x, z, t, u) in vectors:
        trace = []
        crypt(x, key_expand(z, w), unit_expand(u, w), tweak_expand(t, w), w, trace=trace)
        s = affine_expand(z, u, w)
        m, n = s.m, s.n
        for k, state, g in trace[:32]:
            assert affine_gbox(state[0], t[k & 3], m[2 * k], m[2 * k + 1], n[2 * k], n[2 * k + 1],
                               *shift_and_mask(w)) == g, f"w={w} round {k}"
        y = crypt_fast(x, t, s)
        assert y == trace[32][1], f"w={w}"
        assert all(type(v) is int for v in y)


# ---------------------------------------------------------------------------
# affine schedule and affine G


def test_affine_expand_reference_entry():
    s = affine_expand(Z16, U16, 16)
    k0, l0 = 0x0777, 0x1998
    assert s.m[0] == (2 * (k0 - l0) + 1) & 0xFFFF
    assert s.n[0] == ((2 * l0 - 1) * (k0 - l0)) & 0xFFFF


def test_affine_pair_is_identity_when_key_word_equals_unit_word():
    # whenever a key word coincides with its unit word the derived pair is
    # (m, n) = (1, 0), i.e. that half-round is the identity map
    mask = 0xFFFF
    for e in (0, 1, 0x1998, 0xFFFF):
        assert (2 * (e - e) + 1) & mask == 1
        assert ((2 * e - 1) * (e - e)) & mask == 0
    # with every half-round the identity and a zero tweak the XOR network
    # cancels itself out and the whole transform is the identity
    ident = AffineSchedule(16, (1,) * 64, (0,) * 64)
    assert crypt_fast(X16, (0, 0, 0, 0), ident) == X16
    assert affine_gbox(0xABCD, 0, 1, 1, 0, 0, *shift_and_mask(16)) == 0xABCD


@pytest.mark.parametrize("w", [16, 32, 64])
def test_affine_multipliers_always_odd(w, rng):
    for _ in range(10):
        _, z, _, u = random_tuple(rng, w)
        s = affine_expand(z, u, w)
        assert all(m & 1 for m in s.m)


@pytest.mark.parametrize("w", [16, 32, 64])
def test_affine_expand_matches_the_word_formula(w, rng):
    # the array derivation equals the per-word formula, hashes like the schedule built
    # by hand from it, and holds m and n as read-only arrays of the word dtype, which
    # one schedule reuses unchanged across batch calls
    mask = (1 << w) - 1
    xs = random_block_array(rng, 5, w)
    for z, u in edge_key_material(w) + [random_tuple(rng, w)[1::2]]:
        ks, ls = key_expand(z, w), unit_expand(u, w)
        ref = AffineSchedule(w, [(2 * (k - e) + 1) & mask for k, e in zip(ks, ls)],
                             [((2 * e - 1) * (k - e)) & mask for k, e in zip(ks, ls)])
        s = affine_expand(z, u, w)
        assert s == ref and hash(s) == hash(ref)
        assert all(type(v) is int for v in (*s.m, *s.n))
        for sched in (s, ref, invert_affine(s)):
            for a in sched.arrays:
                assert a.dtype == word_dtype(w) and not a.flags.writeable
            assert [a.tolist() for a in sched.arrays] == [list(sched.m), list(sched.n)]
        inv = invert_affine(s)
        first, again = crypt_fast_batch(xs, (1, 2, 3, 4), s), crypt_fast_batch(xs, (1, 2, 3, 4), s)
        assert np.array_equal(first, again)
        assert np.array_equal(icrypt_fast_batch(first, (1, 2, 3, 4), inv), xs)
        assert np.array_equal(icrypt_fast_batch(again, (1, 2, 3, 4), inv), xs)
        assert [a.tolist() for a in s.arrays] == [list(ref.m), list(ref.n)]  # the calls wrote no word


@pytest.mark.threads
@pytest.mark.parametrize("w", [16, 32, 64])
def test_no_transform_writes_its_schedule(w, rng, monkeypatch, started):
    # derived words are not checked again, and the kernel hands each tile the schedule
    # itself, from which the tile reads the form it runs on.  No transform writes to
    # the schedule or its inverse: not the int loop, not the numpy tiles of 2-tile calls
    # on 2 workers in both directions, not a tile that reads only ``arrays``, as a
    # compiled one would
    def scan_again(self):
        raise AssertionError("a derived schedule was scanned again")

    _, z, t, u = random_tuple(rng, w)
    with monkeypatch.context() as patch:
        patch.setattr(AffineSchedule, "__post_init__", scan_again)
        s = affine_expand(z, u, w)
        inv = invert_affine(s)
    monkeypatch.setattr(_kernels, "usable_cpus", lambda: 2)
    kept = [(sched, dict(vars(sched)), [a.tobytes() for a in sched.arrays]) for sched in (s, inv)]
    handed = []

    def handing(tile):
        def words(x, y, work, tw, schedule):
            handed.append(schedule)
            tile(x, y, work, tw, schedule)
        return words

    @handing
    def arrays_tile(x, y, work, tw, schedule):
        m, n = schedule.arrays
        regs = list(x.T.copy())
        for k in range(32):
            g = affine_gbox(regs[0], tw[k & 3], m[2 * k], m[2 * k + 1], n[2 * k], n[2 * k + 1], w >> 1, (1 << w) - 1)
            regs = list(round_update(*regs, g, k))
        np.stack(regs, axis=1, out=y)

    count = tile_blocks(w) + 3
    xs = random_block_array(rng, count, w)
    tweak = block_to_int(t, w)
    out = crypt_batch(xs, tweak, 0, s, handing(crypt_tile))
    assert np.array_equal(crypt_batch(out, tweak, 0, inv, handing(icrypt_tile)), xs)
    assert np.array_equal(crypt_batch(xs, tweak, 0, s, arrays_tile), out)
    assert len(started) == 3
    assert len(handed) == 6 and all(a is b for a, b in zip(handed, (s, s, inv, inv, s, s)))
    for i in tile_edge_rows(rng, count, w):
        assert crypt_fast(xs[i].tolist(), t, s) == tuple(out[i].tolist()), i
        assert icrypt_fast(out[i].tolist(), t, inv) == tuple(xs[i].tolist()), i
    for sched, attrs, arrays in kept:
        assert vars(sched).keys() == attrs.keys()
        assert all(vars(sched)[name] is value for name, value in attrs.items())
        assert [a.tobytes() for a in sched.arrays] == arrays
        assert not any(a.flags.writeable for a in sched.arrays)


def test_schedule_operands_are_made_once(monkeypatch, rng):
    # the schedule's words are made once, when it is derived, and not checked again;
    # the kernel hands every tile the schedule, and each numpy G takes its words as
    # read-only 0-d views of the schedule's arrays, never as copies
    def scan_again(self):
        raise AssertionError("a derived schedule was scanned again")

    w = 32
    _, z, t, u = random_tuple(rng, w)
    monkeypatch.setattr(AffineSchedule, "__post_init__", scan_again)
    s = affine_expand(z, u, w)
    inv = invert_affine(s)
    monkeypatch.undo()
    monkeypatch.setattr(_kernels, "usable_cpus", lambda: 1)
    seen, operands = [], []

    def words(x, y, work, tw, schedule):
        seen.append(schedule)
        crypt_tile(x, y, work, tw, schedule)

    def spying(gbox):
        def spy(g, r, x, tw, m0, m1, n0, n1, h):
            operands.append((m0, m1, n0, n1))
            return gbox(g, r, x, tw, m0, m1, n0, n1, h)
        return spy

    monkeypatch.setattr(_kernels, "_gbox_into", spying(_gbox_into))
    monkeypatch.setattr(_kernels, "_igbox_into", spying(_igbox_into))
    xs = random_block_array(rng, 2 * tile_blocks(w) + 1, w)
    for _ in range(2):
        out = crypt_batch(xs, block_to_int(t, w), 0, s, words)
        assert np.array_equal(out, crypt_fast_batch(xs, t, s))
    assert len(seen) == 6 and all(schedule is s for schedule in seen)
    assert np.array_equal(icrypt_fast_batch(out, t, inv), xs)
    # on one worker: 12 encrypting tiles, then 3 decrypting ones, each G of rounds 0..31
    assert len(operands) == 15 * 32
    for i, words_of_g in enumerate(operands):
        sched, k = (s if i < 12 * 32 else inv), i % 32
        m, n = sched.arrays
        assert [int(v) for v in words_of_g] == [sched.m[2 * k], sched.m[2 * k + 1], sched.n[2 * k], sched.n[2 * k + 1]]
        for v, a in zip(words_of_g, (m, m, n, n)):
            assert v.shape == () and v.dtype == word_dtype(w) and not v.flags.writeable
            assert np.shares_memory(v, a)


def test_only_the_numpy_tiles_make_operands(monkeypatch, rng):
    # the kernel hands each tile the schedule itself, from which the tile reads the form
    # it runs on: a tile that reads only ``arrays``, as a compiled one would, and the int
    # loop in both directions make no numpy G operands, and the schedule keeps none
    w = 32
    _, z, t, u = random_tuple(rng, w)
    s = affine_expand(z, u, w)
    inv = invert_affine(s)
    count = tile_blocks(w) + 3
    xs = random_block_array(rng, count, w)
    expected = crypt_fast_batch(xs, t, s)
    monkeypatch.setattr(_kernels, "usable_cpus", lambda: 1)

    def no_operands(*args):
        raise AssertionError("a numpy G ran")

    monkeypatch.setattr(_kernels, "_gbox_into", no_operands)
    monkeypatch.setattr(_kernels, "_igbox_into", no_operands)
    handed = []

    def words(x, y, work, tw, schedule):
        handed.append(schedule)
        m, n = schedule.arrays
        regs = list(x.T.copy())
        for k in range(32):
            g = affine_gbox(regs[0], tw[k & 3], m[2 * k], m[2 * k + 1], n[2 * k], n[2 * k + 1], w >> 1, (1 << w) - 1)
            regs = list(round_update(*regs, g, k))
        np.stack(regs, axis=1, out=y)

    out = crypt_batch(xs, block_to_int(t, w), 0, s, words)
    assert len(handed) == 2 and all(schedule is s for schedule in handed)
    assert np.array_equal(out, expected)
    for i in tile_edge_rows(rng, count, w):
        assert crypt_fast(xs[i].tolist(), t, s) == tuple(out[i].tolist()), i
        assert icrypt_fast(out[i].tolist(), t, inv) == tuple(xs[i].tolist()), i
    assert not hasattr(s, "operands") and not hasattr(inv, "operands")


def test_affine_gbox_identity_and_reference_value():
    assert affine_gbox(0x1234, 0, 1, 1, 0, 0, *shift_and_mask(16)) == 0x1234
    s = affine_expand(Z16, U16, 16)
    assert affine_gbox(0xCDEF, 0x4444, *s.m[:2], *s.n[:2], *shift_and_mask(16)) == 0x3884


@pytest.mark.parametrize("w", [16, 32, 64])
def test_affine_gbox_equals_gbox(w):
    # vectorized over 10**5 random cases per width
    rng = np.random.default_rng(w)
    n = 100_000
    mask = (1 << w) - 1

    def words(count):
        return rng.integers(0, 1 << w, size=count, dtype=np.uint64)

    xs = words(n)
    k0, k1, l0, l1, c0 = (int(words(1)[0]) for _ in range(5))
    m0 = (2 * (k0 - l0) + 1) & mask
    n0 = ((2 * l0 - 1) * (k0 - l0)) & mask
    m1 = (2 * (k1 - l1) + 1) & mask
    n1 = ((2 * l1 - 1) * (k1 - l1)) & mask
    # the tiles' G-boxes, on a text and a tweak column of the word dtype with the constants
    # and half-word shift as 0-d operands, as ``crypt_batch`` hands them over:
    # ``_gbox_into`` is G, and ``_igbox_into`` is S(G(S(x))) under the tweak word S(c)
    dtype = word_dtype(w)
    cs = words(n)
    xcol, tcol = xs.astype(dtype), cs.astype(dtype)
    g, r = np.empty_like(xcol), np.empty_like(xcol)
    consts = [np.array(v, dtype) for v in (m0, m1, n0, n1, w >> 1)]
    keys = list(map(lift, (k0, k1, l0, l1)))
    assert np.array_equal(_gbox_into(g, r, xcol, tcol, *consts), gbox(xs, *keys, cs, w))
    assert np.array_equal(_igbox_into(g, r, xcol, tcol, *consts),
                          swap_halves(gbox(swap_halves(xs, w), *keys, swap_halves(cs, w), w), w))
    # spot checks of the same correspondences on int words
    sr = random.Random(w)
    for _ in range(50):
        x = sr.randrange(1 << w)
        assert affine_gbox(x, c0, m0, m1, n0, n1, *shift_and_mask(w)) == gbox(x, k0, k1, l0, l1, c0, w)
        assert affine_igbox(x, c0, m0, m1, n0, n1, *shift_and_mask(w)) == \
            swap_halves(gbox(swap_halves(x, w), k0, k1, l0, l1, swap_halves(c0, w), w), w)


def test_affine_schedule_validation():
    with pytest.raises(ValueError):
        AffineSchedule(16, (2,) * 64, (0,) * 64)          # even multiplier
    with pytest.raises(ValueError):
        AffineSchedule(16, (1,) * 63, (0,) * 63)          # wrong length
    with pytest.raises(ValueError):
        AffineSchedule(8, (1,) * 64, (0,) * 64)           # not a cipher width
    # every word is an int in [0, 2**w); the message never quotes it
    for w, field, bad in ((16, "m", 1 + (1 << 16)), (16, "n", -1), (64, "m", 1 + (1 << 64)),
                          (32, "n", (1 << 32) + 12345), (16, "n", 0.5), (16, "m", np.uint64(12345))):
        words = {"m": [1] * 64, "n": [0] * 64}
        words[field][0] = bad
        with pytest.raises(ValueError) as ex:
            AffineSchedule(w, tuple(words["m"]), tuple(words["n"]))
        assert str(bad) not in str(ex.value)
    for w in (16, 32, 64):
        top = (1 << w) - 1
        assert AffineSchedule(w, (top,) * 64, (top,) * 64).m[0] == top
    # words given as lists are stored as tuples: the checked schedule cannot
    # change afterwards, and the frozen dataclass hashes
    s = AffineSchedule(16, [1] * 64, [0] * 64)
    with pytest.raises(TypeError):
        s.m[0] = 1 + (1 << 20)
    assert s == AffineSchedule(16, (1,) * 64, (0,) * 64)
    assert hash(s) == hash(AffineSchedule(16, (1,) * 64, (0,) * 64))
    # the (m, n) pairs give away the key and unit words, so repr shows none of them
    rng = random.Random(0x5EED)
    for w in (16, 32, 64):
        _, z, _, u = random_tuple(rng, w)
        s = affine_expand(z, u, w)
        assert not set(re.findall(r"\d+", repr(s))) & set(map(str, (*s.m, *s.n))), w


# ---------------------------------------------------------------------------
# crypt_fast against the reference path


def test_crypt_fast_known_answer():
    s = affine_expand(Z16, U16, 16)
    y = crypt_fast(X16, T16, s)
    assert y == (0x921E, 0x0F51, 0x4E70, 0x88B1)


@pytest.mark.parametrize("w", [16, 32, 64])
def test_crypt_fast_equals_crypt(w):
    rng = random.Random(w * 7)
    vectors = [random_tuple(rng, w) for _ in range(150)]
    # the int masks at their limits: all-zero and all-ones key and unit words, blocks
    # and tweaks, where every multiply-add and rotation wraps
    top = (1 << w) - 1
    edges = [(v,) * 4 for v in (0, top)]
    vectors += [(x, z, t, u) for z, u in edge_key_material(w) + [random_tuple(rng, w)[1::2]]
                for x in edges for t in edges]
    for x, z, t, u in vectors:
        ref = crypt(x, key_expand(z, w), unit_expand(u, w), tweak_expand(t, w), w)
        s = affine_expand(z, u, w)
        y = crypt_fast(x, t, s)
        assert y == ref
        back = icrypt_fast(y, t, invert_affine(s))
        assert back == x
        assert all(type(v) is int for v in (*y, *back))


def test_unrolled_transliteration_w32(rng):
    # golden cross-check: the literal 20-step unrolling with named locals
    w = 32
    mask = (1 << w) - 1

    def G(x, t, m0, m1, n0, n1):
        x = (x * m0 + n0) & mask
        x = ((x << 16) | (x >> 16)) & mask
        x ^= t
        x = (x * m1 + n1) & mask
        return ((x << 16) | (x >> 16)) & mask

    def unrolled(X, T, M, N):
        # step 1
        g0 = G(X[0], T[0], M[0], M[1], N[0], N[1])
        # step 2
        g1 = G(X[1] ^ g0, T[1], M[2], M[3], N[2], N[3])
        # step 3
        g2 = G(X[2] ^ g1, T[2], M[4], M[5], N[4], N[5])
        # step 4
        g3 = G(X[3] ^ g2, T[3], M[6], M[7], N[6], N[7])
        # step 5
        g4 = G(g0 ^ g3, T[0], M[8], M[9], N[8], N[9])
        # step 6
        g5 = G(g1 ^ g4, T[1], M[10], M[11], N[10], N[11])
        g11 = G(g4, T[3], M[22], M[23], N[22], N[23])
        # step 7
        g6 = G(g2 ^ g5, T[2], M[12], M[13], N[12], N[13])
        g9 = G(g5, T[1], M[18], M[19], N[18], N[19])
        # step 8
        g7 = G(g3 ^ g6, T[3], M[14], M[15], N[14], N[15])
        g10 = G(g6, T[2], M[20], M[21], N[20], N[21])
        g13 = G(g6 ^ g9, T[1], M[26], M[27], N[26], N[27])
        # step 9
        g8 = G(g4 ^ g7, T[0], M[16], M[17], N[16], N[17])
        g14 = G(g4 ^ g10, T[2], M[28], M[29], N[28], N[29])
        # step 10
        g12 = G(g5 ^ g8, T[0], M[24], M[25], N[24], N[25])
        g15 = G(g5 ^ g8 ^ g11, T[3], M[30], M[31], N[30], N[31])
        # step 11
        g16 = G(g6 ^ g9 ^ g12, T[0], M[32], M[33], N[32], N[33])
        # step 12
        g17 = G(g4 ^ g10 ^ g13 ^ g16, T[1], M[34], M[35], N[34], N[35])
        # step 13
        g18 = G(g5 ^ g8 ^ g11 ^ g14 ^ g17, T[2], M[36], M[37], N[36], N[37])
        # step 14
        g19 = G(g15 ^ g18, T[3], M[38], M[39], N[38], N[39])
        # step 15
        g20 = G(g16 ^ g19, T[0], M[40], M[41], N[40], N[41])
        # step 16
        g21 = G(g17 ^ g20, T[1], M[42], M[43], N[42], N[43])
        g27 = G(g20, T[3], M[54], M[55], N[54], N[55])
        # step 17
        g22 = G(g18 ^ g21, T[2], M[44], M[45], N[44], N[45])
        g25 = G(g21, T[1], M[50], M[51], N[50], N[51])
        # step 18
        g23 = G(g19 ^ g22, T[3], M[46], M[47], N[46], N[47])
        g26 = G(g22, T[2], M[52], M[53], N[52], N[53])
        g29 = G(g22 ^ g25, T[1], M[58], M[59], N[58], N[59])
        # step 19
        g24 = G(g20 ^ g23, T[0], M[48], M[49], N[48], N[49])
        g30 = G(g20 ^ g26, T[2], M[60], M[61], N[60], N[61])
        y1 = g20 ^ g26 ^ g29
        # step 20
        g28 = G(g21 ^ g24, T[0], M[56], M[57], N[56], N[57])
        g31 = G(g21 ^ g24 ^ g27, T[3], M[62], M[63], N[62], N[63])
        y2 = g21 ^ g24 ^ g27 ^ g30
        # final assembly
        y0 = g22 ^ g25 ^ g28
        y3 = g31
        return (y0, y1, y2, y3)

    for _ in range(100):
        x, z, t, u = random_tuple(rng, w)
        s = affine_expand(z, u, w)
        assert unrolled(x, t, s.m, s.n) == crypt_fast(x, t, s)
        assert unrolled(x, t, s.m, s.n) == crypt(
            x, key_expand(z, w), unit_expand(u, w), tweak_expand(t, w), w)


# ---------------------------------------------------------------------------
# inversion


def test_invert_affine_identity():
    ident = AffineSchedule(16, (1,) * 64, (0,) * 64)
    inv = invert_affine(ident)
    assert inv.m == (1,) * 64 and inv.n == (0,) * 64


def test_invert_affine_per_index(rng):
    w = 32
    _, z, _, u = random_tuple(rng, w)
    s = affine_expand(z, u, w)
    inv = invert_affine(s)
    mask = (1 << w) - 1
    for k in range(0, 64, 9):
        for x in random_words(rng, 5, w):
            fwd = (x * s.m[63 - k] + s.n[63 - k]) & mask
            assert (fwd * inv.m[k] + inv.n[k]) & mask == x
    # fresh schedule, source untouched
    assert s.m != inv.m or s.n != inv.n


@pytest.mark.parametrize("w", [16, 32, 64])
def test_icrypt_fast_inverts_and_matches_decrypt(w):
    rng = random.Random(w * 13)
    mask = (1 << w) - 1
    vectors = [random_tuple(rng, w) for _ in range(100)]
    vectors += [(x, z, t, u) for (x, _, t, _), (z, u) in zip(vectors, edge_key_material(w))]
    for x, z, t, u in vectors:
        s = affine_expand(z, u, w)
        inv = invert_affine(s)
        # the array inversion equals inverting each word on its own, for a derived
        # schedule and for one built by hand from lists
        im = tuple(mod_inverse(s.m[63 - k], w) for k in range(64))
        expected = AffineSchedule(w, im, tuple((-s.n[63 - k] * im[k]) & mask for k in range(64)))
        assert inv == expected
        assert invert_affine(AffineSchedule(w, list(s.m), list(s.n))) == expected
        y = crypt_fast(x, t, s)
        assert icrypt_fast(y, t, inv) == x
        assert icrypt_fast(y, t, inv) == decrypt(y, z, t, u, w)


def test_icrypt_fast_known_answer():
    s = affine_expand(Z16, U16, 16)
    y = (0x921E, 0x0F51, 0x4E70, 0x88B1)
    assert icrypt_fast(y, T16, invert_affine(s)) == X16


# ---------------------------------------------------------------------------
# batch kernel


def tile_edge_counts(w):
    """Batch sizes one short of a tile, one tile, one past it, and across two tile edges."""
    length = tile_blocks(w)
    return length - 1, length, length + 1, 2 * length + 5


def random_block_array(rng, count, w):
    """(count, 4) random words of the width's word dtype."""
    np_rng = np.random.default_rng(rng.randrange(1 << 32))
    return np_rng.integers(0, 1 << w, size=(count, 4), dtype=np.uint64).astype(word_dtype(w))


def tile_edge_rows(rng, count, w):
    """The first and last row of every tile of ``count`` blocks at width w, and a few at random."""
    length = tile_blocks(w)
    edges = {r for start in range(0, count, length) for r in (start, min(start + length, count) - 1)}
    return sorted(edges | {rng.randrange(count) for _ in range(4)})


@pytest.mark.parametrize("w", [16, 32, 64])
def test_batch_matches_scalar(w):
    # every block's tweak differs: tweak-derived runs under random tweak keys from random
    # first indices, each block checked against the scalar path under its own tweak
    rng = random.Random(w + 5)
    _, z, _, u = random_tuple(rng, w)
    s = affine_expand(z, u, w)
    inv = invert_affine(s)
    top = 1 << (4 * w)

    def check_rows(xa, out, t0, first, rows):
        for i in rows:
            tweak = tweak_at(t0, (first + i) % top, w)
            assert tuple(out[i].tolist()) == crypt_fast(xa[i].tolist(), tweak, s), i
            assert icrypt_fast(out[i].tolist(), tweak, inv) == tuple(xa[i].tolist()), i

    xs = np.array([random_words(rng, 4, w) for _ in range(40)], dtype=np.uint64)
    t0, first = rng.randrange(top), rng.randrange(top)
    out = encrypt_blocks(xs, z, t0, u, w, first_index=first)
    check_rows(xs, out, t0, first, range(40))
    assert np.array_equal(decrypt_blocks(out, z, t0, u, w, first_index=first), xs)
    # batches around the kernel's tile edges
    for count in tile_edge_counts(w):
        xa = random_block_array(rng, count, w)
        t0, first = rng.randrange(top), rng.randrange(top)
        out = encrypt_blocks(xa, z, t0, u, w, first_index=first)
        check_rows(xa, out, t0, first, tile_edge_rows(rng, count, w))
        assert np.array_equal(decrypt_blocks(out, z, t0, u, w, first_index=first), xa)
    # all-zero and all-ones blocks and tweaks across two tile edges: every row of
    # a batch is the one block the scalar path gives, in both directions
    length = tile_blocks(w)
    for xv, tv in ((0, 0), (0, (1 << w) - 1), ((1 << w) - 1, 0), ((1 << w) - 1, (1 << w) - 1)):
        xa = np.full((2 * length + 1, 4), xv, dtype=word_dtype(w))
        for fn, scalar, sched in ((crypt_fast_batch, crypt_fast, s), (icrypt_fast_batch, icrypt_fast, inv)):
            block = np.array(scalar([xv] * 4, [tv] * 4, sched), dtype=word_dtype(w))
            assert (fn(xa, [tv] * 4, sched) == block).all(), (fn.__name__, xv, tv)
        assert np.array_equal(icrypt_fast_batch(crypt_fast_batch(xa, [tv] * 4, s), [tv] * 4, inv), xa)
    # read-only inputs: the kernel updates its registers in place, so a write
    # into caller data instead of the tile copy would raise here
    xa = random_block_array(rng, length + 1, w)
    xa.setflags(write=False)
    t0, first = rng.randrange(top), rng.randrange(top)
    out = encrypt_blocks(xa, z, t0, u, w, first_index=first)
    out.setflags(write=False)
    check_rows(xa, out, t0, first, tile_edge_rows(rng, length + 1, w))
    assert np.array_equal(decrypt_blocks(out, z, t0, u, w, first_index=first), xa)
    # a tweak-derived run that crosses a tile edge and the wrap of the block index at 2**(4w)
    t0, count = rng.randrange(top), length + 5
    first = top - length // 2
    xa = random_block_array(rng, count, w)
    out = encrypt_blocks(xa, z, t0, u, w, first_index=first)
    for i in (0, length // 2 - 1, length // 2, length - 1, length, count - 1):
        index = (first + i) % top
        assert tuple(out[i].tolist()) == encrypt_block_at(xa[i].tolist(), z, t0, u, index, w)
    assert np.array_equal(decrypt_blocks(out, z, t0, u, w, first_index=first), xa)


@pytest.mark.parametrize("w", [16, 32, 64])
def test_batch_broadcasts_single_tweak(w, rng):
    _, z, t, u = random_tuple(rng, w)
    s = affine_expand(z, u, w)
    inv = invert_affine(s)
    xs = [random_words(rng, 4, w) for _ in range(10)]
    out = crypt_fast_batch(np.array(xs, dtype=np.uint64), np.array(t, dtype=np.uint64), s)
    for i, x in enumerate(xs):
        assert tuple(int(v) for v in out[i]) == crypt_fast(x, t, s)
    assert np.array_equal(icrypt_fast_batch(out, t, inv), np.array(xs, dtype=np.uint64))
    for count in tile_edge_counts(w):
        xa = random_block_array(rng, count, w)
        out = crypt_fast_batch(xa, t, s)
        for i in tile_edge_rows(rng, count, w):
            assert tuple(out[i].tolist()) == crypt_fast(xa[i].tolist(), t, s)
        assert np.array_equal(icrypt_fast_batch(out, t, inv), xa)
    # an empty batch keeps its shape
    for fn, sched in ((crypt_fast_batch, s), (icrypt_fast_batch, inv)):
        assert fn(np.zeros((0, 4), dtype=np.uint64), t, sched).shape == (0, 4)


# ---------------------------------------------------------------------------
# threads over tiles


def batch_calls(w, rng):
    """Each batch path, as a function of the blocks: both directions, tweak-derived
    from a first index whose tweaks wrap 2**(4w) or untweaked, and one tweak."""
    _, z, t, u = random_tuple(rng, w)
    s = affine_expand(z, u, w)
    inv = invert_affine(s)
    t0 = rng.randrange(1 << (4 * w))
    first = (1 << (4 * w)) - tile_blocks(w) - 3
    return [lambda xs: encrypt_blocks(xs, z, t0, u, w, first_index=first),
            lambda xs: decrypt_blocks(xs, z, t0, u, w, first_index=first),
            lambda xs: encrypt_blocks(xs, z, t0, u, w, tweaking=False),
            lambda xs: decrypt_blocks(xs, z, t0, u, w, tweaking=False),
            lambda xs: crypt_fast_batch(xs, t, s),
            lambda xs: icrypt_fast_batch(xs, t, inv)]


@pytest.fixture
def started(monkeypatch):
    """The threads the kernel starts, recorded as they start."""
    threads = []

    class Recorded(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    return threads


@pytest.mark.threads
@pytest.mark.parametrize("w", [16, 32, 64])
def test_threads_match_one_worker(w, rng, monkeypatch, started):
    # tiles on 2 threads give the bits one worker gives, at 1, 2 and 3 tiles and
    # with an odd tail; a call of 2 or more tiles starts one helper thread
    length = tile_blocks(w)
    for count in (length, 2 * length, 3 * length, 3 * length + 77):
        xs = random_block_array(rng, count, w)
        for call in batch_calls(w, rng):
            monkeypatch.setattr(_kernels, "usable_cpus", lambda: 1)
            alone = call(xs)
            assert started == []
            monkeypatch.setattr(_kernels, "usable_cpus", lambda: 2)
            assert np.array_equal(call(xs), alone), count
            assert len(started) == (count > length) and not any(t.is_alive() for t in started)
            started.clear()


@pytest.mark.threads
def test_one_tile_call_starts_no_thread(rng, monkeypatch, started):
    # a call of one tile, as every short message, runs inline
    monkeypatch.setattr(_kernels, "usable_cpus", lambda: 2)
    for w in (16, 32, 64):
        for count in (1, 100, tile_blocks(w)):
            xs = random_block_array(rng, count, w)
            for call in batch_calls(w, rng):
                call(xs)
    assert started == []


@pytest.mark.threads
def test_threads_under_stress(rng, monkeypatch):
    # more workers than cores, switching threads every microsecond: a tile lost,
    # run twice or given another tile's tweaks would change the output
    w = 64
    xs = random_block_array(rng, 6 * tile_blocks(w) + 5, w)
    calls = batch_calls(w, rng)[:2]
    monkeypatch.setattr(_kernels, "usable_cpus", lambda: 1)
    alone = [call(xs) for call in calls]
    monkeypatch.setattr(_kernels, "usable_cpus", lambda: 4)
    monkeypatch.setattr(_kernels, "MAX_WORKERS", 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for call, expected in zip(calls, alone):
            assert np.array_equal(call(xs), expected)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.threads
def test_failing_tile_function_stops_every_thread(rng, monkeypatch, started):
    # a ``words`` that raises on its 2nd tile makes crypt_batch raise that exception,
    # once every thread has stopped, whichever thread ran the tile
    monkeypatch.setattr(_kernels, "usable_cpus", lambda: 2)
    w = 64
    length = tile_blocks(w)
    _, z, _, u = random_tuple(rng, w)
    s = affine_expand(z, u, w)
    xs = random_block_array(rng, 4 * length, w)
    asked, boom = [], RuntimeError("no output for this tile")

    def words(x, y, work, t, schedule):
        asked.append((x.ctypes.data - xs.ctypes.data) // xs.strides[0])  # the tile's first block
        if len(asked) == 2:
            raise boom
        crypt_tile(x, y, work, t, schedule)

    with pytest.raises(RuntimeError) as raised:
        crypt_batch(xs, 5, 7, s, words)
    assert raised.value is boom
    # the workers take tiles 0 and 1 in order, under the lock, but make their tweaks and
    # run them outside it, so either may run first
    assert sorted(asked[:2]) == [0, length] and len(asked) <= 3
    assert len(started) == 1 and not started[0].is_alive()


def test_batch_memory_bounded_by_a_tile(rng):
    # the kernel works tile by tile, so beyond its output it holds at most a
    # tile's 4 registers and their temporaries, whatever the input size;
    # tracemalloc sees numpy's buffers
    w, count = 64, 8 * tile_blocks(64)
    _, z, t, u = random_tuple(rng, w)
    s = affine_expand(z, u, w)
    xs = random_block_array(rng, count, w)
    word_columns_of_a_tile = 24 * tile_blocks(w) * word_dtype(w).itemsize
    for fn, sched in ((crypt_fast_batch, s), (icrypt_fast_batch, invert_affine(s))):
        tracemalloc.start()
        try:
            out = fn(xs, t, sched)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (count, 4)
        assert peak - out.nbytes < word_columns_of_a_tile, fn.__name__


def test_block_memory_does_not_grow_with_the_input(rng):
    # the tweaks are made a tile at a time, each into the tweak columns of its worker's
    # workspace, so beyond its output a tweaked encrypt_blocks / decrypt_blocks call
    # holds its workspaces and less than 512 KiB more (the limb seeds of the first tiles
    # of up to worker_count workers at once), as much at 16 tiles as at 1
    for w in (16, 32, 64):
        _, z, _, u = random_tuple(rng, w)
        t0 = rng.randrange(1 << (4 * w))
        length = tile_blocks(w)
        blocks = random_block_array(rng, 16 * length + 3, w)
        for fn in (encrypt_blocks, decrypt_blocks):
            extra = []
            for tiles in (1, 4, 16):
                xs = blocks[:tiles * length + 3]
                tracemalloc.start()
                try:
                    out = fn(xs, z, t0, u, w)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert out.shape == xs.shape
                # the 3 blocks past the last full tile make one more, short tile
                workspaces = (_kernels.worker_count(tiles + 1) * _kernels.WORKSPACE_COLUMNS
                              * min(length, len(xs)) * word_dtype(w).itemsize)
                assert peak - out.nbytes <= workspaces + (512 << 10), (fn.__name__, w, tiles, peak - out.nbytes)
                extra.append(peak - out.nbytes)
            assert extra[2] < extra[0] + (1 << 20), (fn.__name__, w, extra)


@pytest.mark.parametrize("w", [16, 32, 64])
def test_batch_never_writes_caller_arrays(w, rng):
    # the kernel updates its registers in place, on copies of each tile: the
    # caller's writable block and tweak arrays, already in the word dtype and so
    # handed on without a conversion copy, stay as they were
    _, z, t, u = random_tuple(rng, w)
    s = affine_expand(z, u, w)
    inv = invert_affine(s)
    t0 = rng.randrange(1 << (4 * w))
    count = tile_blocks(w) + 1
    xa = random_block_array(rng, count, w)
    single = np.array(t, dtype=word_dtype(w))
    calls = (lambda: crypt_fast_batch(xa, single, s), lambda: icrypt_fast_batch(xa, single, inv),
             lambda: encrypt_blocks(xa, z, t0, u, w), lambda: decrypt_blocks(xa, z, t0, u, w),
             lambda: encrypt_blocks(xa, z, t0, u, w, tweaking=False))
    kept = [a.copy() for a in (xa, single)]
    for i, call in enumerate(calls):
        out = call()
        assert not np.shares_memory(out, xa), i
        for a, before in zip((xa, single), kept):
            assert np.array_equal(a, before), i
    # a read-only tweak is taken as readily as a writable one
    single.setflags(write=False)
    out = crypt_fast_batch(xa, single, s)
    for i in tile_edge_rows(rng, count, w):
        assert tuple(out[i].tolist()) == crypt_fast(xa[i].tolist(), t, s)
    assert np.array_equal(icrypt_fast_batch(out, single, inv), xa)
    # the same round update still serves the reference path on Python ints
    trace = standard_trace(16)
    assert trace_matches_reference(trace)
    assert all(type(v) is int for state in trace.text_rows for v in state)


@pytest.mark.threads
@pytest.mark.parametrize("w", [16, 32, 64])
@pytest.mark.parametrize("tiles, extra", [(0, 1), (0, 255), (0, 256), (0, 257), (1, 3), (2, 3), (3, 3)])
def test_out_equals_the_allocating_call(w, tiles, extra, rng, monkeypatch):
    # encrypt_blocks / decrypt_blocks written into the blocks themselves give the bits
    # of the allocating call; from 2 tiles on, the workers write in place on threads,
    # each tile copied into its registers first
    monkeypatch.setattr(_kernels, "usable_cpus", lambda: 2)
    _, z, _, u = random_tuple(rng, w)
    t0 = rng.randrange(1 << (4 * w))
    xs = random_block_array(rng, tiles * tile_blocks(w) + extra, w)
    for fn in (encrypt_blocks, decrypt_blocks):
        expected = fn(xs, z, t0, u, w, first_index=7)
        inplace = xs.copy()
        assert fn(inplace, z, t0, u, w, first_index=7, out=inplace) is inplace
        assert np.array_equal(inplace, expected)


def test_out_must_be_the_blocks(rng):
    # out is None or the block array itself, writable: any other array, even one of
    # the right shape and dtype or another view of the blocks, raises
    w = 32
    _, z, _, u = random_tuple(rng, w)
    s = affine_expand(z, u, w)
    xs = random_block_array(rng, 10, w)
    kept = xs.copy()
    read_only = xs.copy()
    read_only.setflags(write=False)
    bad = [np.empty_like(xs), np.empty((10, 5), dtype=word_dtype(w)), np.empty((10, 4), dtype=np.uint64),
           xs.tolist(), xs[:], xs[::-1]]
    for fn in (encrypt_blocks, decrypt_blocks):
        for out in bad:
            with pytest.raises(ValueError):
                fn(xs, z, 5, u, w, out=out)
        with pytest.raises(ValueError):
            fn(read_only, z, 5, u, w, out=read_only)
    assert np.array_equal(xs, kept)
    with pytest.raises(ValueError):
        crypt_batch(read_only, 5, 0, s, out=read_only)


@pytest.mark.parametrize("w", [16, 32, 64])
def test_decrypt_reorder_writes_no_tweak(w, rng):
    # icrypt_tile reverses the tweak words and never writes them: tweak columns marked
    # read-only before each tile, on which a write would raise, writable columns,
    # unchanged after each tile, and one tweak's words all give the same plaintext
    _, z, t, u = random_tuple(rng, w)
    inv = invert_affine(affine_expand(z, u, w))
    top = 1 << (4 * w)
    count = 2 * tile_blocks(w) + 5
    ya = random_block_array(rng, count, w)
    first, step = rng.randrange(top), rng.randrange(top)

    def read_only(y, x, work, tw, schedule):
        tw.flags.writeable = False
        icrypt_tile(y, x, work, tw, schedule)

    out = crypt_batch(ya, first, step, inv, read_only)
    rows = tile_edge_rows(rng, count, w)
    for i in rows:
        tweak = int_to_block((first + i * step) % top, w)
        assert tuple(out[i].tolist()) == icrypt_fast(ya[i].tolist(), tweak, inv), i
    seen = []

    def words(y, x, work, tw, schedule):
        kept = tw.copy()
        icrypt_tile(y, x, work, tw, schedule)
        seen.append(np.array_equal(tw, kept) and tw.flags.writeable)

    assert np.array_equal(crypt_batch(ya, first, step, inv, words), out)
    assert seen == [True] * 3
    single = np.array(t, dtype=word_dtype(w))
    single.setflags(write=False)
    for tweak in (t, single):  # Python ints, and a read-only array of the word dtype
        out = icrypt_fast_batch(ya, tweak, inv)
        for i in rows:
            assert tuple(out[i].tolist()) == icrypt_fast(ya[i].tolist(), t, inv), (type(tweak), i)


@pytest.mark.parametrize("w", [16, 32, 64])
def test_batch_dtype_contract(w, rng):
    # whatever integer dtype the words come in, the batch paths return the same
    # values as an array of the width's word dtype
    _, z, _, u = random_tuple(rng, w)
    s = affine_expand(z, u, w)
    inv = invert_affine(s)
    t0 = rng.randrange(1 << (4 * w))
    xs = [random_words(rng, 4, w - 1) for _ in range(6)]  # below 2**(w-1), so int64 holds them
    ts = random_words(rng, 4, w - 1)
    # an unsigned dtype narrower than the word (uint8 at w=16, uint16 at w=32, uint32 at
    # w=64) holds only words, so the batch paths take it without scanning its range
    narrow = np.dtype(f"u{w // 16}")
    small_xs = [random_words(rng, 4, 8 * narrow.itemsize) for _ in range(6)]
    small_ts = random_words(rng, 4, 8 * narrow.itemsize)
    calls = (lambda b, tw: crypt_fast_batch(b, tw, s), lambda b, tw: icrypt_fast_batch(b, tw, inv),
             lambda b, _: encrypt_blocks(b, z, t0, u, w), lambda b, _: decrypt_blocks(b, z, t0, u, w))
    for call in calls:
        native = call(np.array(xs, dtype=word_dtype(w)), np.array(ts, dtype=word_dtype(w)))
        assert native.dtype == word_dtype(w) and native.shape == (6, 4)
        for dtype in (np.uint64, np.int64):
            out = call(np.array(xs, dtype=dtype), np.array(ts, dtype=dtype))
            assert out.dtype == word_dtype(w) and np.array_equal(out, native)
        small = call(np.array(small_xs, dtype=word_dtype(w)), np.array(small_ts, dtype=word_dtype(w)))
        out = call(np.array(small_xs, dtype=narrow), np.array(small_ts, dtype=narrow))
        assert out.dtype == word_dtype(w) and np.array_equal(out, small)
        listed = call(xs, ts)  # the block sequences give a list back for a list
        assert isinstance(listed, list) or listed.dtype == word_dtype(w)
        assert np.array_equal(np.array(listed, dtype=object), native)


def test_batch_shape_validation(rng):
    _, z, t, u = random_tuple(rng, 16)
    s = affine_expand(z, u, 16)
    with pytest.raises(ValueError):
        crypt_fast_batch(np.zeros((3, 5), dtype=np.uint64), np.array(t, dtype=np.uint64), s)
    with pytest.raises(ValueError):
        crypt_fast_batch(np.zeros((3, 4), dtype=np.uint64), np.zeros((2, 4), dtype=np.uint64), s)


@pytest.mark.parametrize("w", [16, 32, 64])
def test_batch_refuses_tweak_rows(w, rng):
    # the batch entry points take one 4-word tweak: tweak rows, one per block or not,
    # and 4 words in another shape raise ValueError
    _, z, t, u = random_tuple(rng, w)
    s = affine_expand(z, u, w)
    inv = invert_affine(s)
    xs = random_block_array(rng, 3, w)
    for fn, sched in ((crypt_fast_batch, s), (icrypt_fast_batch, inv)):
        for tweaks in (random_block_array(rng, 3, w), [t] * 3, np.array([t], dtype=word_dtype(w)),
                       np.array(t, dtype=word_dtype(w)).reshape(2, 2)):
            with pytest.raises(ValueError):
                fn(xs, tweaks, sched)


@pytest.mark.parametrize("w", [16, 32, 64])
def test_constant_tweak_through_crypt_batch(w, rng):
    # step 0 gives every block the first tweak: crypt_batch under (tweak, 0) equals
    # crypt_fast / icrypt_fast under that tweak block by block, for every block of a
    # short call and at the tile edges of a long one, also for all-zero and all-ones tweaks
    _, z, t, u = random_tuple(rng, w)
    s = affine_expand(z, u, w)
    inv = invert_affine(s)
    for count in (40, 2 * tile_blocks(w) + 5):
        xs = random_block_array(rng, count, w)
        rows = range(count) if count == 40 else tile_edge_rows(rng, count, w)
        for tweak in (t, (0,) * 4, ((1 << w) - 1,) * 4):
            first = block_to_int(tweak, w)
            out, back = crypt_batch(xs, first, 0, s), crypt_batch(xs, first, 0, inv, icrypt_tile)
            for i in rows:
                assert tuple(out[i].tolist()) == crypt_fast(xs[i].tolist(), tweak, s), (tweak, i)
                assert tuple(back[i].tolist()) == icrypt_fast(xs[i].tolist(), tweak, inv), (tweak, i)
            assert np.array_equal(crypt_batch(out, first, 0, inv, icrypt_tile), xs)


@pytest.mark.parametrize("w", [16, 32, 64])
def test_batch_rejects_bad_words(w):
    # the batch and array entry points reject what the scalar path rejects,
    # instead of truncating or masking it
    rng = random.Random(w)
    x, z, t, u = random_tuple(rng, w)
    s = affine_expand(z, u, w)
    inv = invert_affine(s)
    t0 = rng.randrange(1 << (4 * w))
    over = (1 << w) + 1
    bad_blocks = [
        [[over, 0, 0, 0]],                         # word >= 2**w
        np.array([[1.7, 0, 0, 0]]),                # not an integer
        np.array([[-1, 0, 0, 0]], dtype=np.int64),  # negative word
    ]
    if w < 64:  # a wider unsigned dtype holding a word >= 2**w
        bad_blocks.append(np.array([[over, 0, 0, 0]], dtype={16: np.uint32, 32: np.uint64}[w]))
    batch_calls = ((crypt_fast_batch, s), (icrypt_fast_batch, inv))
    for blocks in bad_blocks:
        for fn, sched in batch_calls:
            with pytest.raises(ValueError):
                fn(blocks, t, sched)
        for fn in (encrypt_blocks, decrypt_blocks):
            with pytest.raises(ValueError):
                fn(blocks, z, t0, u, w)
    calls = []

    def tile(start, stop):  # a function for a tweak, with an out-of-range word in 1-element columns
        calls.append((start, stop))
        return [np.array([over], dtype=np.uint64)] * 4

    for fn, sched in batch_calls:
        with pytest.raises(ValueError):
            fn([x], (over, 0, 0, 0), sched)          # tweak word >= 2**w
        for tweaks in (tile, [tile] * 4, None, "tweak", object()):  # only words get in
            with pytest.raises(ValueError):
                fn([x], tweaks, sched)
    assert calls == []
    # lists whose rows are not 4 words are refused, not re-chunked into blocks
    for blocks in ([(1, 2, 3)] * 4, [tuple(range(1, 9))]):
        for fn in (encrypt_blocks, decrypt_blocks):
            with pytest.raises(ValueError):
                fn(blocks, z, t0, u, w)
    with pytest.raises(ValueError):
        crypt_fast((over, 0, 0, 0), t, s)            # the scalar path agrees


BOOL_ENTRY_POINTS = {
    "key": lambda v: affine_expand((v, 2, 3, 4, 5), 7, 16),
    "tweak": lambda v: crypt_fast(X16, (v, 0, 0, 0), affine_expand(Z16, U16, 16)),
    "unit key": lambda v: affine_expand(Z16, v, 16),
    "tweak_at key": lambda v: tweak_at(v, 0, 16),
    "tweak_at index": lambda v: tweak_at(1, v, 16),
    "scalar block": lambda v: crypt_fast((v, 0, 0, 0), T16, affine_expand(Z16, U16, 16)),
    "list batch": lambda v: crypt_fast_batch([[v, 0, 0, 0]], T16, affine_expand(Z16, U16, 16)),
    "object array": lambda v: crypt_fast_batch(np.array([[v, 0, 0, 0]], dtype=object), T16,
                                               affine_expand(Z16, U16, 16)),
    "block list": lambda v: encrypt_blocks([(v, 0, 0, 0)], Z16, 1, U16, 16),
    "affine schedule": lambda v: AffineSchedule(16, (1,) * 64, (v,) + (0,) * 63),
}


class Word(enum.IntEnum):
    ONE = 1


@pytest.mark.parametrize("entry", BOOL_ENTRY_POINTS)
def test_bool_is_not_a_word(entry):
    # Python counts True and an IntEnum member as ints, but a word is an exact int
    # (``words.check_word``): every entry point refuses such a value with the message
    # it gives for a word out of range
    call = BOOL_ENTRY_POINTS[entry]
    call(1)
    with pytest.raises(ValueError) as out_of_range:
        call(-1)
    for subclassed in (True, False, Word.ONE):
        with pytest.raises(ValueError) as ex:
            call(subclassed)
        assert str(ex.value) == str(out_of_range.value)


def test_backend_resolution():
    assert resolve_backend() == "numpy"


#: the names under which perfbench's sources refer to nsabc and its modules
PERFBENCH_MODULES = {name: "nsabc" if name == "nsabc" else f"nsabc.{name}"
                     for name in ("nsabc", "container", "tweakstream", "kat", "_kernels")}


def test_traced_entry_points_exist():
    # perfbench wraps the tracer's ENTRY_POINTS by reference, calls more functions of
    # nsabc and its modules and reads constants off them; a missing one would otherwise
    # surface only as a failed benchmark subprocess
    used, called = set(), set()
    for source in (Path(__file__).parents[1] / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "ENTRY_POINTS":
                called.update((f"nsabc.{module}", name)
                              for module, names in ast.literal_eval(node.value).items() for name in names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nsabc."):
                used.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in PERFBENCH_MODULES:
                used.add((PERFBENCH_MODULES[node.value.id], node.attr))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and getattr(node.func.value, "id", None) in PERFBENCH_MODULES:
                called.add((PERFBENCH_MODULES[node.func.value.id], node.func.attr))
    assert set(PERFBENCH_MODULES.values()) <= {module for module, _ in used}  # the walk still finds them
    for module, name in sorted(used | called):
        value = getattr(importlib.import_module(module), name, None)
        assert value is not None and (callable(value) or (module, name) not in called), f"{module}.{name}"
