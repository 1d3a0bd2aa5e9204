"""Fast path: affine schedules, the 20-step evaluation, inversion, batching."""

import random

import numpy as np
import pytest

from conftest import random_tuple, random_words
from nsabc._kernels import (
    PARALLEL_STEPS,
    ROUND_G_TERMS,
    ROUND_TEXT_TERMS,
    affine_gbox,
    g_values,
    resolve_backend,
    v_gbox,
)
from nsabc.cipher import crypt, decrypt, gbox
from nsabc.fastpath import (
    AffineSchedule,
    affine_expand,
    crypt_fast,
    crypt_fast_batch,
    icrypt_fast,
    icrypt_fast_batch,
    invert_affine,
)
from nsabc.schedules import key_expand, tweak_expand, unit_expand
from nsabc.tweakstream import decrypt_blocks, encrypt_blocks

Z16 = (0x0000, 0x0005, 0x0066, 0x0777, 0x8888)
T16 = (0x4444, 0x0333, 0x0022, 0x0001)
U16 = 0x1998
X16 = (0xCDEF, 0x89AB, 0x4567, 0x0123)


# ---------------------------------------------------------------------------
# dependency tables


def test_step_grouping_is_a_valid_topological_partition():
    seen = set()
    scheduled = set()
    for step in PARALLEL_STEPS:
        for k in step:
            # all dependencies must come from strictly earlier steps
            assert set(ROUND_G_TERMS[k]) <= scheduled
        seen.update(step)
        scheduled.update(step)
    assert seen == set(range(32))
    assert sum(len(s) for s in PARALLEL_STEPS) == 32
    assert len(PARALLEL_STEPS) == 20


def test_fast_g_values_match_reference_trace():
    # the published w=16 vector, then seeded random vectors at every width
    vectors = [(16, (X16, Z16, T16, U16))]
    for w in (16, 32, 64):
        rng = random.Random(w * 3)
        vectors += [(w, random_tuple(rng, w)) for _ in range(8)]
    for w, (x, z, t, u) in vectors:
        trace = []
        crypt(x, key_expand(z, w), unit_expand(u, w), tweak_expand(t, w), w, trace=trace)
        ref_g = [g for _, _, g in trace[:32]]
        s = affine_expand(z, u, w)
        assert g_values(x, t, s.m, s.n, w) == ref_g, f"w={w}"


def test_permuting_in_step_evaluations_is_inert():
    # evaluate the steps with each step's members in reverse order; the
    # members are independent, so nothing may change
    s = affine_expand(Z16, U16, 16)
    g = [0] * 32
    for step in PARALLEL_STEPS:
        for k in reversed(step):
            acc = 0
            for i in ROUND_TEXT_TERMS[k]:
                acc ^= X16[i]
            for j in ROUND_G_TERMS[k]:
                acc ^= g[j]
            g[k] = affine_gbox(acc, T16[k & 3], s.m[2 * k], s.m[2 * k + 1],
                               s.n[2 * k], s.n[2 * k + 1], 16)
    assert g == g_values(X16, T16, s.m, s.n, 16)


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
    assert affine_gbox(0xABCD, 0, 1, 1, 0, 0, 16) == 0xABCD


@pytest.mark.parametrize("w", [16, 32, 64])
def test_affine_multipliers_always_odd(w, rng):
    for _ in range(10):
        _, z, _, u = random_tuple(rng, w)
        s = affine_expand(z, u, w)
        assert all(m & 1 for m in s.m)


def test_affine_gbox_identity_and_reference_value():
    assert affine_gbox(0x1234, 0, 1, 1, 0, 0, 16) == 0x1234
    s = affine_expand(Z16, U16, 16)
    assert affine_gbox(0xCDEF, 0x4444, s.m[0], s.m[1], s.n[0], s.n[1], 16) == 0x3884


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
    # the array form: uint64 text column, np.uint64 tweak and constants
    m0u, m1u, n0u, n1u, c0u = (np.uint64(v) for v in (m0, m1, n0, n1, c0))
    assert np.array_equal(v_gbox(xs, k0, k1, l0, l1, c0, w),
                          affine_gbox(xs, c0u, m0u, m1u, n0u, n1u, w))
    # scalar spot checks of the same correspondence
    sr = random.Random(w)
    for _ in range(50):
        x = sr.randrange(1 << w)
        assert gbox(x, k0, k1, l0, l1, c0, w) == affine_gbox(x, c0, m0, m1, n0, n1, w)


def test_affine_schedule_validation():
    with pytest.raises(ValueError):
        AffineSchedule(16, (2,) * 64, (0,) * 64)          # even multiplier
    with pytest.raises(ValueError):
        AffineSchedule(16, (1,) * 63, (0,) * 63)          # wrong length
    with pytest.raises(ValueError):
        AffineSchedule(8, (1,) * 64, (0,) * 64)           # not a cipher width


# ---------------------------------------------------------------------------
# crypt_fast against the reference path


def test_crypt_fast_known_answer():
    s = affine_expand(Z16, U16, 16)
    y = crypt_fast(X16, T16, s)
    assert y == (0x921E, 0x0F51, 0x4E70, 0x88B1)


@pytest.mark.parametrize("w", [16, 32, 64])
def test_crypt_fast_equals_crypt(w):
    rng = random.Random(w * 7)
    for _ in range(150):
        x, z, t, u = random_tuple(rng, w)
        ref = crypt(x, key_expand(z, w), unit_expand(u, w), tweak_expand(t, w), w)
        assert crypt_fast(x, t, affine_expand(z, u, w)) == ref


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
    for _ in range(100):
        x, z, t, u = random_tuple(rng, w)
        s = affine_expand(z, u, w)
        inv = invert_affine(s)
        y = crypt_fast(x, t, s)
        assert icrypt_fast(y, t, inv) == x
        assert icrypt_fast(y, t, inv) == decrypt(y, z, t, u, w)


def test_icrypt_fast_known_answer():
    s = affine_expand(Z16, U16, 16)
    y = (0x921E, 0x0F51, 0x4E70, 0x88B1)
    assert icrypt_fast(y, T16, invert_affine(s)) == X16


# ---------------------------------------------------------------------------
# batch kernel


@pytest.mark.parametrize("w", [16, 32, 64])
def test_batch_matches_scalar(w):
    rng = random.Random(w + 5)
    _, z, t, u = random_tuple(rng, w)
    s = affine_expand(z, u, w)
    xs = [random_words(rng, 4, w) for _ in range(40)]
    ts = [random_words(rng, 4, w) for _ in range(40)]
    out = crypt_fast_batch(np.array(xs, dtype=np.uint64), np.array(ts, dtype=np.uint64), s)
    for i in range(40):
        assert tuple(int(v) for v in out[i]) == crypt_fast(xs[i], ts[i], s)
    back = icrypt_fast_batch(out, np.array(ts, dtype=np.uint64), invert_affine(s))
    assert np.array_equal(back, np.array(xs, dtype=np.uint64))


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
    # an empty batch keeps its shape
    for fn, sched in ((crypt_fast_batch, s), (icrypt_fast_batch, inv)):
        assert fn(np.zeros((0, 4), dtype=np.uint64), t, sched).shape == (0, 4)


def test_batch_shape_validation(rng):
    _, z, t, u = random_tuple(rng, 16)
    s = affine_expand(z, u, 16)
    with pytest.raises(ValueError):
        crypt_fast_batch(np.zeros((3, 5), dtype=np.uint64), np.array(t, dtype=np.uint64), s)
    with pytest.raises(ValueError):
        crypt_fast_batch(np.zeros((3, 4), dtype=np.uint64), np.zeros((2, 4), dtype=np.uint64), s)


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
    batch_calls = ((crypt_fast_batch, s), (icrypt_fast_batch, inv))
    for blocks in bad_blocks:
        for fn, sched in batch_calls:
            with pytest.raises(ValueError):
                fn(blocks, t, sched)
        for fn in (encrypt_blocks, decrypt_blocks):
            with pytest.raises(ValueError):
                fn(blocks, z, t0, u, w)
    for fn, sched in batch_calls:
        with pytest.raises(ValueError):
            fn([x], (over, 0, 0, 0), sched)          # tweak word >= 2**w
    # lists whose rows are not 4 words are refused, not re-chunked into blocks
    for blocks in ([(1, 2, 3)] * 4, [tuple(range(1, 9))]):
        for fn in (encrypt_blocks, decrypt_blocks):
            with pytest.raises(ValueError):
                fn(blocks, z, t0, u, w)
    with pytest.raises(ValueError):
        crypt_fast((over, 0, 0, 0), t, s)            # the scalar path agrees


def test_backend_resolution():
    assert resolve_backend() == "numpy"
