"""Acceptance criteria.

Each test implements one criterion at its stated tolerance (everything here
is bit-exact) and prints one PASS line; run with ``pytest -s`` to see them.
Stated runtime budgets are asserted where the criterion carries one.
"""

import random
import time

import numpy as np

from conftest import lift, random_tuple, tile_tweak_rows
from nsabc.bench import bench_width, estimate_cpu_hz, render_report
from nsabc.cipher import block_to_int, crypt, decrypt, encrypt, gbox, int_to_block
from nsabc.container import HEADER_LEN, decrypt_bytes, encrypt_bytes, parse_header
from nsabc.fastpath import affine_expand, crypt_fast, icrypt_fast, invert_affine
from nsabc.kat import standard_trace, trace_matches_reference
from nsabc.schedules import key_expand, tweak_expand, unit_expand
from nsabc.tweakstream import tweak_at
from nsabc.words import boxdot, boxdot_e, inv_e, mod_inverse, odot, odot_e

WIDTHS = (16, 32, 64)

X16 = int_to_block(0x0123456789ABCDEF, 16)
Z16 = (0x0000, 0x0005, 0x0066, 0x0777, 0x8888)
T16 = (0x4444, 0x0333, 0x0022, 0x0001)
U16 = 0x1998
Y16 = 0x88B14E700F51921E


def report(n, text, elapsed, limit=None):
    print(f"criterion {n}: PASS - {text} ({elapsed:.2f} s)")
    if limit is not None:
        assert elapsed < limit, f"criterion {n} exceeded its {limit} s budget"


def test_criterion_1_known_answer_and_full_trace():
    start = time.perf_counter()
    y = encrypt(X16, Z16, T16, U16, 16)
    assert block_to_int(y, 16) == Y16
    trace = standard_trace(16)
    assert trace_matches_reference(trace)
    assert len(trace.text_rows) == 33 and len(trace.unit_rows) == 65
    assert len(trace.key_rows) == 65 and len(trace.tweak_rows) == 33
    report(1, "published encipherment bit-exact incl. all 65/33-row register traces",
           time.perf_counter() - start, limit=1.0)


def test_criterion_2_roundtrip_10k_per_width():
    start = time.perf_counter()
    for w in WIDTHS:
        rng = random.Random(0xD0 + w)
        for _ in range(10_000):
            x, z, t, u = random_tuple(rng, w)
            assert decrypt(encrypt(x, z, t, u, w), z, t, u, w) == x
    report(2, "decrypt(encrypt) identity on 10^4 random tuples each at w=16/32/64",
           time.perf_counter() - start, limit=30.0)


def test_criterion_3_dual_path_equivalence():
    start = time.perf_counter()
    for w in WIDTHS:
        rng = random.Random(0xFA + w)
        # 10^4 independent random tuples: fast == reference, inverse undoes
        for _ in range(10_000):
            x, z, t, u = random_tuple(rng, w)
            s = affine_expand(z, u, w)
            fast = crypt_fast(x, t, s)
            ref = crypt(x, key_expand(z, w), unit_expand(u, w), tweak_expand(t, w), w)
            assert fast == ref
            back = icrypt_fast(fast, t, invert_affine(s))
            assert back == x and all(type(v) is int for v in back)
        # 100-fold re-encryption chains on 100 of them
        for _ in range(100):
            x, z, t, u = random_tuple(rng, w)
            s = affine_expand(z, u, w)
            inv = invert_affine(s)
            ks, ls, cs = key_expand(z, w), unit_expand(u, w), tweak_expand(t, w)
            fast = ref = x
            for _ in range(100):
                fast = crypt_fast(fast, t, s)
                ref = crypt(ref, ks, ls, cs, w)
            assert fast == ref
            back = fast
            for _ in range(100):
                back = icrypt_fast(back, t, inv)
            assert back == x
    report(3, "crypt_fast == crypt and icrypt_fast inverts, 10^4 tuples + 100x100 chains per width",
           time.perf_counter() - start, limit=60.0)


def test_criterion_4_algebra_suite():
    start = time.perf_counter()
    w8 = 8
    m8 = np.uint64(0xFF)
    all8 = np.arange(256, dtype=np.uint64)
    gx, gy = np.meshgrid(all8, all8, indexing="ij")
    neg = (-gx) & m8

    # sign relations, exhaustive
    assert np.array_equal(odot(gx, gy, w8), (-boxdot(neg, gy, w8)) & m8)
    assert np.array_equal(boxdot(gx, gy, w8), (-odot(neg, gy, w8)) & m8)

    # complement relations, exhaustive (plain and e-family)
    assert np.array_equal(odot(~gx & m8, gy, w8), ~odot(gx, gy, w8) & m8)
    assert np.array_equal(boxdot((1 - gx) & m8, gy, w8), (1 - boxdot(gx, gy, w8)) & m8)
    for e in range(256):
        c = np.uint64((1 - 2 * e) & 0xFF)
        assert np.array_equal(boxdot_e((c - gx) & m8, gy, lift(e), w8),
                              (c - boxdot_e(gx, gy, lift(e), w8)) & m8)

    # mixed associativity, exhaustive
    bd = boxdot(gx, gy, w8)
    for z in range(256):
        assert np.array_equal(boxdot(bd, z, w8), boxdot(gx, odot(gy, z, w8), w8))

    # e-family right-inverse law, exhaustive over (x, y, e)
    for e in range(256):
        y_inv = inv_e(all8, lift(e), w8)
        assert np.array_equal(
            boxdot_e(boxdot_e(gx, gy, lift(e), w8), y_inv[None, :], lift(e), w8), gx)

    # e-family associativity law, exhaustive over all 2**32 quadruples via the
    # affine reduction: first pin x bd[e] y == m(y,e)x + n(y,e) for every
    # (x, y, e), then compare the x-coefficients of both sides for every
    # (y, z, e); affine maps equal in coefficients are equal at every x
    two, one = np.uint64(2), np.uint64(1)
    with np.errstate(over="ignore"):
        for e in range(256):
            eu = np.uint64(e)
            m_of = lambda y: (two * (y - eu) + one) & m8
            n_of = lambda y: ((two * eu - one) * (y - eu)) & m8
            assert np.array_equal(boxdot_e(gx, gy, lift(e), w8),
                                  (gx * m_of(all8)[None, :] + n_of(all8)[None, :]) & m8)
            yz = odot_e(gx, gy, lift(e), w8)
            my, ny = m_of(all8)[:, None], n_of(all8)[:, None]
            mz, nz = m_of(all8)[None, :], n_of(all8)[None, :]
            assert np.array_equal((mz * my) & m8, m_of(yz))
            assert np.array_equal((mz * ny + nz) & m8, n_of(yz))

    # isomorphism congruence: exhaustive at w=8, sampled at larger widths
    for x in range(256):
        for y in range(256):
            assert (2 * odot(x, y, w8) + 1) % 512 == ((2 * x + 1) * (2 * y + 1)) % 512

    # sampled 10^5 cases at w=64 for every identity
    w = 64
    rng = random.Random(0xA1)
    mod = 1 << (w + 1)
    for _ in range(100_000):
        x, y, z, e = (rng.randrange(1 << w) for _ in range(4))
        mask = (1 << w) - 1
        assert odot(x, y, w) == (-boxdot((-x) & mask, y, w)) & mask
        assert boxdot(x, y, w) == (-odot((-x) & mask, y, w)) & mask
        assert boxdot(boxdot(x, y, w), z, w) == boxdot(x, odot(y, z, w), w)
        assert boxdot_e(boxdot_e(x, y, e, w), z, e, w) == boxdot_e(x, odot_e(y, z, e, w), e, w)
        assert boxdot_e(boxdot_e(x, y, e, w), inv_e(y, e, w), e, w) == x
        assert (2 * odot(x, y, w) + 1) % mod == ((2 * x + 1) * (2 * y + 1)) % mod
    report(4, "all word-algebra identities exhaustive at w=8 and 10^5 samples at w=64",
           time.perf_counter() - start, limit=60.0)


def test_criterion_5_mod_inverse():
    start = time.perf_counter()
    odd = np.arange(1, 1 << 16, 2, dtype=np.uint64)
    assert odd.size == 1 << 15
    assert np.all((odd * mod_inverse(odd, 16)) & np.uint64(0xFFFF) == 1)
    # same property through the scalar Newton lifting on an odd slice
    for x in range(1, 4096, 34):
        assert (x * mod_inverse(x, 16)) & 0xFFFF == 1
    rng = random.Random(0xE5)
    mask = (1 << 64) - 1
    for _ in range(100_000):
        x = rng.randrange(1 << 64) | 1
        assert (x * mod_inverse(x, 64)) & mask == 1
    report(5, "x * mod_inverse(x) == 1 for all 2^15 odd x at w=16 and 10^5 odd x at w=64",
           time.perf_counter() - start)


def test_criterion_6_gbox_structural_notes():
    start = time.perf_counter()
    w = 16
    half = w // 2
    rng = random.Random(0xB0)
    sweep = np.arange(1 << w, dtype=np.uint64)
    for _ in range(8):
        k0, k1, l0, l1, c0 = (lift(rng.randrange(1 << w)) for _ in range(5))
        # bijective in the text word and in the first key word
        assert np.unique(gbox(sweep, k0, k1, l0, l1, c0, w)).size == 1 << w
        x0 = lift(rng.randrange(1 << w))
        assert np.unique(gbox(x0, sweep, k1, l0, l1, c0, w)).size == 1 << w
        # diffusion bound: flipping input bit v never touches output bits
        # half..v-1, for every v strictly between w/2 and w
        base = gbox(sweep, k0, k1, l0, l1, c0, w)
        for v in range(half + 1, w):
            flipped = gbox(sweep ^ np.uint64(1 << v), k0, k1, l0, l1, c0, w)
            protected = np.uint64(((1 << (v - half)) - 1) << half)
            assert not np.any((base ^ flipped) & protected)
    # identity case over exhaustive x for sampled parameter pairs
    for _ in range(8):
        c, c2 = lift(rng.randrange(1 << w)), lift(rng.randrange(1 << w))
        assert np.all(gbox(sweep, c, c2, c, c2, lift(0), w) == sweep)
    report(6, "G-box bijectivity (x and K0), identity case, and diffusion bound, exhaustive at w=16",
           time.perf_counter() - start)


def test_criterion_7_tweak_derivation():
    start = time.perf_counter()
    for w in WIDTHS:
        rng = random.Random(0x70 + w)
        t0 = rng.randrange(1 << (4 * w))
        top = 1 << (4 * w)
        # the tweaks the batch paths encrypt under, made tile by tile, from block 0 and across the wrap
        for first, count in ((0, 10_000), (top - 1000, 2000)):
            expected = [tweak_at(t0, (first + j) % top, w) for j in range(count)]
            assert np.array_equal(tile_tweak_rows(t0, first, count, w), np.array(expected, dtype=np.uint64))
        for j in (0, 1, 999, 10_000, (1 << (4 * w)) - 1):
            assert tweak_at(0, j, w) == int_to_block(j, w)
    report(7, "closed-form tweak == batch tweak rows for j < 10^4 and across the wrap per width; "
           "zero key yields the index", time.perf_counter() - start)


def test_criterion_8_container_roundtrip():
    start = time.perf_counter()
    for w in WIDTHS:
        rng = random.Random(0xC0 + w)
        _, z, _, u = random_tuple(rng, w)
        t0 = rng.randrange(1 << (4 * w))
        bb = w // 2
        payload = np.random.default_rng(w).integers(0, 256, size=1 << 20, dtype=np.uint8).tobytes()
        for size in (0, 1, bb - 1, bb, bb + 1, 1 << 20):
            data = payload[:size]
            for tweaking in (True, False):
                blob = encrypt_bytes(data, z, t0, u, w, tweaking=tweaking)
                assert parse_header(blob).plaintext_length == size
                assert len(blob) == HEADER_LEN + ((size + bb - 1) // bb) * bb
                assert decrypt_bytes(blob, z, t0, u) == data
    report(8, "container byte-exact for lengths 0/1/block-1/block/block+1/1MiB, tweaked and not",
           time.perf_counter() - start)


def test_criterion_9_fastpath_not_slower_than_reference():
    start = time.perf_counter()
    all_results = []
    for w in (16, 32, 64):
        results = bench_width(w, seconds=0.15)
        all_results.extend(results)
        by_path = {r.path: r.bytes_per_second for r in results}
        fast_best = max(v for k, v in by_path.items() if k != "reference")
        assert fast_best >= by_path["reference"], f"fast path slower than reference at w={w}"
    print()
    print(render_report(all_results, estimate_cpu_hz()))
    report(9, "fast-path throughput >= reference on repeated-key bulk encryption (w=16, 32 and 64)",
           time.perf_counter() - start)
