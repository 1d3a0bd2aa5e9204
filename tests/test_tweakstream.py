"""Tweak derivation and multi-block encryption."""

import hashlib
import itertools
import random
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import random_tuple, random_words, tile_tweak_rows, tweak_progression
from nsabc._kernels import SEED_BLOCKS, tile_blocks, tile_tweaks
from nsabc.cipher import block_to_int, decrypt, encrypt, int_to_block, word_dtype
from nsabc.container import decrypt_bytes, encrypt_bytes
from nsabc.tweakstream import decrypt_blocks, encrypt_blocks, tweak_at

T0_16 = 0x0001002203334444


def test_wide_word_packing():
    words = int_to_block(T0_16, 16)
    assert words == (0x4444, 0x0333, 0x0022, 0x0001)
    assert block_to_int(words, 16) == T0_16


def test_tweak_at_index_zero_is_the_tweak_key():
    assert tweak_at(T0_16, 0, 16) == int_to_block(T0_16, 16)
    # one block on, the tweak is 3*T0 + 1
    assert tweak_at(T0_16, 1, 16) == int_to_block((3 * T0_16 + 1) % (1 << 64), 16)


def test_tweak_at_zero_key_yields_index():
    for j in (0, 1, 7, 12345, 1 << 63):
        assert tweak_at(0, j, 16) == int_to_block(j, 16)


@pytest.mark.parametrize("w", [16, 32, 64])
def test_closed_form_equals_recurrence(w, rng):
    # the tweaks the batch paths encrypt under, made tile by tile by ``tile_tweaks``
    # from the first tweak and step ``tweakstream`` hands the kernel, are the closed
    # form of each block index, also for a run that crosses the wrap at 2**(4w)
    top = 1 << (4 * w)
    # a random key, the extreme keys, and one whose bits are all ones above
    # the lowest 32; key 0 from top - 1000 ripples a carry through every limb
    for t0 in (rng.randrange(top), 0, top - 1, top - (1 << 32)):
        for first in (0, top - 1000, top - 1):
            expected = [tweak_at(t0, (first + j) % top, w) for j in range(2000)]
            assert np.array_equal(tile_tweak_rows(t0, first, 2000, w), np.array(expected, dtype=np.uint64))
        for count in (0, 1):
            rows = tile_tweak_rows(t0, top - 1, count, w)
            assert rows.shape == (count, 4) and rows.dtype == word_dtype(w)
            assert [tuple(r) for r in rows.tolist()] == [tweak_at(t0, top - 1, w)][:count]
    # runs across the tile boundary, sampled around it and at random; with key
    # top - 1 every bit of every step limb is set, so the limb sums of a full tile
    # reach about 2**33 / 2**48 / 2**47 at w=16/32/64 (the one-pass carry bound
    # of ``_kernels._sums``), and from index 0 every base
    # limb is all ones too, while from top - 1 a carry crosses every limb
    length = tile_blocks(w)
    count = length + 77
    for t0, first in ((rng.randrange(top), rng.randrange(top)), (top - 1, top - 1), (top - 1, 0)):
        rows = tile_tweak_rows(t0, first, count, w)
        assert rows.shape == (count, 4)
        sample = [0, count - 1, *range(length - 3, length + 3), *(rng.randrange(count) for _ in range(50))]
        for j in sample:
            assert tuple(rows[j].tolist()) == tweak_at(t0, (first + j) % top, w)
    # first tiles: limb sums of their first s = SEED_BLOCKS blocks, then one add over
    # a grid of rows of s blocks, row k being row 0 plus k*s*step, and one more for a
    # part row.  Short tiles are compared in full; in a full tile and in one 3 blocks
    # short of it, whose part row starts s blocks before its end, every row edge is
    # sampled.  Key 0 from top - s - 1 makes block s + 1 the sum (top - s) + s of
    # row 1, whose carry crosses all 4 words; with key top - 1 the step is all ones,
    # so adding k*s*step wraps every word of each row
    seed = SEED_BLOCKS
    for t0, first in ((0, top - seed - 1), (top - 1, top - seed - 1), (top - 1, 0),
                      (rng.randrange(top), rng.randrange(top))):
        for count in (1, seed - 1, seed, seed + 1, 2 * seed, 2 * seed + 1, 3 * seed + 5):
            expected = [tweak_at(t0, (first + j) % top, w) for j in range(count)]
            assert np.array_equal(tile_tweak_rows(t0, first, count, w), np.array(expected, dtype=np.uint64))
        for count in (length, length - 3):
            rows = tile_tweak_rows(t0, first, count, w)
            sample = {count - 1, *(j for e in range(seed, count, seed) for j in range(e - 2, min(e + 3, count))),
                      *(rng.randrange(count) for _ in range(20))}
            for j in sorted(sample):
                assert tuple(rows[j].tolist()) == tweak_at(t0, (first + j) % top, w), (t0, first, count, j)


@pytest.mark.parametrize("w", [16, 32, 64])
def test_advanced_tiles_equal_the_closed_form(w, rng):
    # every tile after the first is the first advanced by one 4w-bit add with
    # carry; rows of 3 full tiles and a short one agree with tweak_at at both
    # sides of every tile edge.  With key 2**(4w) - 1 the step is all ones; key 0
    # from index top - length - 1 makes the second tile's block 1 the sum
    # (top - length) + length, whose carry crosses all 4 words
    top = 1 << (4 * w)
    length = tile_blocks(w)
    count = 3 * length + 77
    edges = range(0, count, length)
    for t0, first in ((top - 1, 0), (0, top - length - 1), (top - 1, top - length - 2),
                      (rng.randrange(top), rng.randrange(top))):
        rows = tile_tweak_rows(t0, first, count, w)
        sample = {count - 1, *(j for e in edges for j in range(max(e - 3, 0), e + 3)),
                  *(rng.randrange(count) for _ in range(20))}
        for j in sorted(sample):
            assert tuple(rows[j].tolist()) == tweak_at(t0, (first + j) % top, w), (t0, first, j)


@pytest.mark.threads
@pytest.mark.parametrize("w", [16, 32, 64])
def test_tiles_advanced_from_any_earlier_tile_equal_fresh_tiles(w, rng):
    # ``tile_tweaks`` keeps no state: columns that hold tile p, advanced in place
    # to any later tile k, equal tile k seeded afresh and the tweaks of its ends.  The
    # pairs include tiles that are not adjacent (a worker's tiles, when another took
    # the ones between) and the short last tile advanced from a full one.  Scratch rows
    # all ones show that no carry is read before it is written
    top = 1 << (4 * w)
    length = tile_blocks(w)
    count = 3 * length + 77
    spans = [(start, min(start + length, count)) for start in range(0, count, length)]
    dtype = word_dtype(w)
    for t0, first in ((top - 1, top - 5), (rng.randrange(top), rng.randrange(top))):
        base, step = tweak_progression(t0, first, w)

        def ends_match(columns, start, stop):
            return all(tuple(int(c[j - start]) for c in columns) == tweak_at(t0, (first + j) % top, w)
                       for j in (start, stop - 1))

        fresh = []
        for start, stop in spans:
            space = np.full((6, stop - start), np.iinfo(dtype).max, dtype)
            tile_tweaks(space[2:], space[:2], base, step, start, None)
            assert ends_match(space[2:], start, stop), start
            fresh.append(space[2:])
        for p, k in itertools.combinations(range(len(spans)), 2):
            (prev, _), (start, stop) = spans[p], spans[k]
            space = np.full((6, length), np.iinfo(dtype).max, dtype)
            space[2:] = fresh[p]
            columns = space[2:, :stop - start]
            tile_tweaks(columns, space[:2, :stop - start], base, step, start, prev)
            assert np.array_equal(columns, fresh[k]) and ends_match(columns, start, stop), (p, k)

        # ``tile_tweaks`` on two threads at once, each seeding its first tile and
        # advancing it through every other tile in its own columns, as two workers do
        got = [None] * len(spans)
        barrier = threading.Barrier(2, timeout=60)

        def worker(ks):
            space, prev = np.empty((6, length), dtype), None
            barrier.wait()
            for k in ks:
                start, stop = spans[k]
                tile_tweaks(space[2:, :stop - start], space[:2, :stop - start], base, step, start, prev)
                got[k] = space[2:, :stop - start].copy()
                prev = start

        with ThreadPoolExecutor(2) as pool:
            for done in [pool.submit(worker, (0, 2)), pool.submit(worker, (1, 3))]:
                done.result(timeout=60)
        for k in range(len(spans)):
            assert np.array_equal(got[k], fresh[k]), k


# SHA-256 of the tweaked container of a seeded payload of 2 * 2**15 + 99 blocks
# and 3 octets, computed before later tiles were advanced from the first and
# before tiles ran on threads: 3 tiles at w=64, the last one short, 2 at w=32, 1 at w=16
GOLDEN_MULTI_TILE_CONTAINERS = {
    16: "ab0225947a7a96271188296bddc79653dad1c6db15c301f544d7754a5d5cb8fd",
    32: "9df5eef55646540aa455192595a8cba3ab48492540193dd84fe21eb69112b088",
    64: "c5cdd85253d3a3bc699fff36a91d2af93cc3f826937f7e520e7500f244a8e57d",
}


@pytest.mark.parametrize("w", sorted(GOLDEN_MULTI_TILE_CONTAINERS))
def test_golden_multi_tile_container_digest(w):
    seeded = random.Random(20261019 + w)
    payload = seeded.randbytes((2 * tile_blocks(64) + 99) * (w // 2) + 3)
    key = tuple(seeded.randrange(1 << w) for _ in range(5))
    tweak_key, unit_key = seeded.randrange(1 << (4 * w)), seeded.randrange(1 << w)
    blob = encrypt_bytes(payload, key, tweak_key, unit_key, w)
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_MULTI_TILE_CONTAINERS[w]
    assert decrypt_bytes(blob, key, tweak_key, unit_key) == payload


def test_tweak_injective_prefix(rng):
    w = 16
    t0 = rng.randrange(1 << (4 * w))
    seen = {tweak_at(t0, j, w) for j in range(10_000)}
    assert len(seen) == 10_000


def test_wraparound_is_modular():
    w = 16
    top = (1 << (4 * w)) - 1
    assert tweak_at(1, top, w) == int_to_block((2 * top + 1 + top) & top, w)


@pytest.mark.parametrize("w", [16, 32, 64])
def test_tweak_key_and_index_must_fit(w, rng):
    # a tweak key or block index outside [0, 2**(4w)) is refused, not reduced
    # mod 2**(4w) into some other key's tweaks
    x, z, _, u = random_tuple(rng, w)
    top = 1 << (4 * w)
    data = bytes(range(40))
    for t in (6 + top, 6 - top, 6 + 2**300, 6.0, -1):
        with pytest.raises(ValueError) as err:
            tweak_at(t, 0, w)
        assert str(t) not in str(err.value)
        for tweaking in (True, False):
            for call in (lambda: encrypt_bytes(data, z, t, u, w, tweaking=tweaking),
                         lambda: encrypt_blocks([x], z, t, u, w, tweaking=tweaking),
                         lambda: decrypt_blocks([x], z, t, u, w, tweaking=tweaking)):
                with pytest.raises(ValueError):
                    call()
        blob = encrypt_bytes(data, z, 6, u, w)
        with pytest.raises(ValueError):
            decrypt_bytes(blob, z, t, u)
    for j in (-1, top, 1.0):
        with pytest.raises(ValueError):
            tweak_at(6, j, w)
        for tweaking in (True, False):
            for fn in (encrypt_blocks, decrypt_blocks):
                with pytest.raises(ValueError):
                    fn([x], z, 6, u, w, tweaking=tweaking, first_index=j)
    # the largest key and index are still accepted
    assert tweak_at(top - 1, top - 1, w) == int_to_block((2 * (top - 1) ** 2 + 2 * (top - 1)) % top, w)


# ---------------------------------------------------------------------------
# block sequences


def test_single_block_matches_reference(rng):
    for w in (16, 32, 64):
        x, z, _, u = random_tuple(rng, w)
        t0 = rng.randrange(1 << (4 * w))
        ct = encrypt_blocks([x], z, t0, u, w)
        assert ct[0] == encrypt(x, z, int_to_block(t0, w), u, w)
        # a flat 4-word block is one block in both tweak modes
        for tweaking in (True, False):
            assert encrypt_blocks(list(x), z, t0, u, w, tweaking=tweaking) == ct
            assert decrypt_blocks(list(ct[0]), z, t0, u, w, tweaking=tweaking) == [x]


def test_roundtrip_and_per_block_tweaks(rng):
    w = 32
    _, z, _, u = random_tuple(rng, w)
    t0 = rng.randrange(1 << (4 * w))
    blocks = [random_words(rng, 4, w) for _ in range(25)]
    ct = encrypt_blocks(blocks, z, t0, u, w)
    assert decrypt_blocks(ct, z, t0, u, w) == blocks
    # each block agrees with the reference path under its own derived tweak
    for j in (0, 1, 13, 24):
        assert ct[j] == encrypt(blocks[j], z, tweak_at(t0, j, w), u, w)
        assert decrypt(ct[j], z, tweak_at(t0, j, w), u, w) == blocks[j]


def test_random_access_decryption(rng):
    w = 16
    _, z, _, u = random_tuple(rng, w)
    t0 = rng.randrange(1 << (4 * w))
    blocks = [random_words(rng, 4, w) for _ in range(12)]
    ct = encrypt_blocks(blocks, z, t0, u, w)
    # decrypting any slice out of order gives the in-order result
    assert decrypt_blocks(ct[7:9], z, t0, u, w, first_index=7) == blocks[7:9]
    assert decrypt_blocks([ct[3]], z, t0, u, w, first_index=3) == [blocks[3]]


def test_per_block_independence(rng):
    w = 16
    _, z, _, u = random_tuple(rng, w)
    t0 = rng.randrange(1 << (4 * w))
    blocks = [random_words(rng, 4, w) for _ in range(10)]
    ct = encrypt_blocks(blocks, z, t0, u, w)
    corrupted = list(ct)
    corrupted[4] = tuple(wv ^ 1 for wv in corrupted[4])
    out = decrypt_blocks(corrupted, z, t0, u, w)
    assert [i for i in range(10) if out[i] != blocks[i]] == [4]


def test_disabled_tweaking_uses_constant_tweak(rng):
    w = 16
    _, z, _, u = random_tuple(rng, w)
    t0 = rng.randrange(1 << (4 * w))
    blocks = [random_words(rng, 4, w) for _ in range(6)]
    ct = encrypt_blocks(blocks, z, t0, u, w, tweaking=False)
    tw = int_to_block(t0, w)
    assert all(ct[j] == encrypt(blocks[j], z, tw, u, w) for j in range(6))
    assert decrypt_blocks(ct, z, t0, u, w, tweaking=False) == blocks


def test_array_in_array_out(rng):
    w = 64
    _, z, _, u = random_tuple(rng, w)
    t0 = rng.randrange(1 << (4 * w))
    xs = np.array([random_words(rng, 4, w) for _ in range(8)], dtype=np.uint64)
    ct = encrypt_blocks(xs, z, t0, u, w)
    assert isinstance(ct, np.ndarray)
    back = decrypt_blocks(ct, z, t0, u, w)
    assert np.array_equal(back, xs)


def test_empty_sequence(rng):
    _, z, _, u = random_tuple(rng, 16)
    assert encrypt_blocks([], z, 5, u, 16) == []
    assert decrypt_blocks([], z, 5, u, 16) == []
    empty = np.empty((0, 4), dtype=np.uint64)
    assert encrypt_blocks(empty, z, 5, u, 16).shape == (0, 4)
    # no blocks is no reason to accept a bad key, tweak key or unit key
    for key, tweak_key, unit_key in (("junk", 5, u), ((1, 2, 3), 5, u), (z, 2**300, u), (z, -5, u),
                                     (z, 5, 2**40), (z, 5, -1)):
        for fn in (encrypt_blocks, decrypt_blocks):
            for blocks in ([], empty):
                with pytest.raises(ValueError):
                    fn(blocks, key, tweak_key, unit_key, 16)
