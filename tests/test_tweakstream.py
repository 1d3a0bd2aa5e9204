"""Tweak derivation and multi-block encryption."""

import numpy as np
import pytest

from conftest import random_tuple, random_words
from nsabc.cipher import block_to_int, decrypt, encrypt, int_to_block
from nsabc.container import decrypt_bytes, encrypt_bytes
from nsabc.tweakstream import _tweak_rows, decrypt_blocks, encrypt_blocks, tweak_at

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
    # the rows the batch paths encrypt under are the closed form of each block
    # index, also for a run that crosses the wrap at 2**(4w)
    t0 = rng.randrange(1 << (4 * w))
    top = 1 << (4 * w)
    for first in (0, top - 1000):
        expected = [tweak_at(t0, (first + j) % top, w) for j in range(2000)]
        assert np.array_equal(_tweak_rows(t0, first, 2000, w, True), np.array(expected, dtype=np.uint64))


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
        for fn in (encrypt_blocks, decrypt_blocks):
            with pytest.raises(ValueError):
                fn([x], z, 6, u, w, first_index=j)
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
