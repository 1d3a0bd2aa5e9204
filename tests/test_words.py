"""Word algebra: the defining formulas, group laws and identities.

Each operation has one definition that takes Python ints or unsigned arrays
of one dtype at least w bits wide: the width's word dtype, which the library
passes, or uint64, which the sweeps at w=8 use as that width has no word
dtype.  Exhaustive sweeps run at w=8 (and w=16 where stated) as array calls;
array calls are pinned to int calls of the same functions exhaustively at w=8
and sampled at w=16/32/64 in both dtypes first, so the sweeps test the int
semantics.
"""

import random

import numpy as np
import pytest

from conftest import lift
from nsabc.cipher import gbox, word_dtype
from nsabc.words import (
    boxdot,
    boxdot_e,
    inv_e,
    mod_inverse,
    odot,
    odot_e,
    odot_inverse,
    swap_halves,
)

W8 = 8
ALL8 = np.arange(256, dtype=np.uint64)
GX, GY = np.meshgrid(ALL8, ALL8, indexing="ij")  # all (x, y) pairs at w=8


def sample_words(rng, n, w):
    return [rng.randrange(1 << w) for _ in range(n)]


# ---------------------------------------------------------------------------
# int <-> array agreement (array calls back all big sweeps)


def test_vector_ops_match_scalar_exhaustive_w8():
    e = 0xA7
    assert np.array_equal(odot(GX, GY, W8).ravel(),
                          np.array([odot(x, y, W8) for x in range(256) for y in range(256)], dtype=np.uint64))
    assert np.array_equal(boxdot(GX, GY, W8).ravel(),
                          np.array([boxdot(x, y, W8) for x in range(256) for y in range(256)], dtype=np.uint64))
    assert np.array_equal(boxdot_e(GX, GY, lift(e), W8).ravel(),
                          np.array([boxdot_e(x, y, e, W8) for x in range(256) for y in range(256)], dtype=np.uint64))
    assert np.array_equal(odot_e(GX, GY, lift(e), W8).ravel(),
                          np.array([odot_e(x, y, e, W8) for x in range(256) for y in range(256)], dtype=np.uint64))
    assert np.array_equal(inv_e(ALL8, lift(e), W8),
                          np.array([inv_e(x, e, W8) for x in range(256)], dtype=np.uint64))
    assert np.array_equal(swap_halves(ALL8, W8),
                          np.array([swap_halves(x, W8) for x in range(256)], dtype=np.uint64))


@pytest.mark.parametrize("w", [16, 32, 64])
def test_vector_ops_match_scalar_sampled(w, rng):
    xs = sample_words(rng, 500, w)
    ys = sample_words(rng, 500, w)
    es = sample_words(rng, 500, w)
    expected = {
        odot: [odot(x, y, w) for x, y in zip(xs, ys)],
        boxdot_e: [boxdot_e(x, y, e, w) for x, y, e in zip(xs, ys, es)],
        inv_e: [inv_e(x, e, w) for x, e in zip(xs, es)],
        mod_inverse: [mod_inverse(x | 1, w) for x in xs],
        gbox: [gbox(x, y, e, x, y, e, w) for x, y, e in zip(xs, ys, es)],
    }
    for dtype in (np.uint64, word_dtype(w)):
        xa, ya, ea = (np.array(v, dtype=dtype) for v in (xs, ys, es))
        got = {
            odot: odot(xa, ya, w),
            boxdot_e: boxdot_e(xa, ya, ea, w),
            inv_e: inv_e(xa, ea, w),
            mod_inverse: mod_inverse(xa | 1, w),
            gbox: gbox(xa, ya, ea, xa, ya, ea, w),
        }
        for fn, values in got.items():
            assert values.dtype == dtype, (fn.__name__, dtype)
            assert values.tolist() == expected[fn], (fn.__name__, dtype)


# ---------------------------------------------------------------------------
# defining values and the published/derived examples


def test_odot_examples():
    assert odot(0x1998, 1, 16) == 0x4CC9
    assert odot(3, 5, 8) == 38
    for x in (0, 1, 77, 255):
        assert odot(x, 0, 8) == x


def test_boxdot_examples():
    # right unit is 0: x boxdot 0 must be x itself (the defining polynomial
    # gives 2x*0 + x - 0 = x)
    for x in (0, 1, 77, 255):
        assert boxdot(x, 0, 8) == x
    assert boxdot(3, 5, 8) == 28


def test_boxdot_right_inverse_ey():
    for w in (8, 16, 64):
        rng = random.Random(w)
        for x, y in zip(sample_words(rng, 50, w), sample_words(rng, 50, w)):
            assert boxdot(boxdot(x, y, w), odot_inverse(y, w), w) == x


def test_odot_inverse_exhaustive_w16():
    sweep = np.arange(1 << 16, dtype=np.uint64)
    assert np.all(odot(sweep, odot_inverse(sweep, 16), 16) == 0)


def test_odot_inverse_brute_force_w8():
    # independent oracle: search the unique y with 1 odot y == 0
    expected = next(y for y in range(256) if odot(1, y, W8) == 0)
    assert expected == 85
    assert odot_inverse(1, W8) == 85
    assert odot_inverse(0, W8) == 0


def test_mod_inverse_values():
    assert mod_inverse(1, 16) == 1
    assert mod_inverse((1 << 16) - 1, 16) == (1 << 16) - 1
    assert mod_inverse(3, 32) == 0xAAAAAAAB
    with pytest.raises(ValueError):
        mod_inverse(4, 16)
    with pytest.raises(ValueError):
        mod_inverse(0, 8)
    # an array is refused if any element is even, and the value is not quoted
    for even in ([0xBEEE], [3, 0xBEEE, 5]):
        with pytest.raises(ValueError) as ex:
            mod_inverse(np.array(even, dtype=np.uint64), 16)
        assert "48878" not in str(ex.value) and "BEEE" not in str(ex.value).upper()


def test_mod_inverse_exhaustive_w16():
    odd = np.arange(1, 1 << 16, 2, dtype=np.uint64)
    assert np.all((odd * mod_inverse(odd, 16)) & np.uint64(0xFFFF) == 1)


def test_newton_step_counts():
    from nsabc.words import newton_steps

    # the start value is exact to 5 bits, and each step doubles that
    assert newton_steps(16) == 2
    assert newton_steps(32) == 3
    assert newton_steps(64) == 4
    assert newton_steps(8) == 1
    assert [newton_steps(w) for w in (2, 4, 6, 10, 12, 20, 22, 40, 42)] == [0, 0, 1, 1, 2, 2, 3, 3, 4]


def test_mod_inverse_sampled_w64(rng):
    for _ in range(2000):
        x = rng.randrange(1 << 64) | 1
        assert (x * mod_inverse(x, 64)) & ((1 << 64) - 1) == 1


def test_swap_halves():
    assert swap_halves(0x1234, 16) == 0x3412
    assert swap_halves(0xCD, 8) == 0xDC
    for x in (0, 0x12, 0xAB, 0xFF):
        assert swap_halves(swap_halves(x, 8), 8) == x


def test_array_contract():
    # operands are never written, not even their bits above w
    x = np.array([0x1FFFF, 3], dtype=np.uint64)
    assert np.array_equal(swap_halves(x, 16), [0xFFFF, 0x0300])
    assert np.array_equal(x, [0x1FFFF, 3])
    params = [lift(v) for v in (0x5A, 0xC3, 0x17, 0xE8, 0x3D)]
    xs = ALL8.copy()
    out = gbox(xs, *params, W8)
    assert np.array_equal(xs, ALL8)
    assert [int(p[0]) for p in params] == [0x5A, 0xC3, 0x17, 0xE8, 0x3D]
    assert out.tolist() == [gbox(v, 0x5A, 0xC3, 0x17, 0xE8, 0x3D, W8) for v in range(256)]
    # mixing kinds gives the exact result or an OverflowError, never a wrong value
    assert np.array_equal(odot(ALL8, 0xA7, W8), odot(ALL8, lift(0xA7), W8))
    with pytest.raises(OverflowError):
        boxdot_e(ALL8, ALL8, 0xA7, W8)


# ---------------------------------------------------------------------------
# group laws for odot at w=8, exhaustive


def test_odot_group_laws_exhaustive_w8():
    table = odot(GX, GY, W8)
    # commutativity and unit
    assert np.array_equal(table, table.T)
    assert np.array_equal(table[:, 0], ALL8)
    # inverses
    assert np.all(odot(ALL8, odot_inverse(ALL8, W8), W8) == 0)
    # associativity, one z slice at a time over the full (x, y) grid
    for z in range(256):
        lhs = odot(table, z, W8)
        rhs = odot(GX, odot(GY, z, W8), W8)
        assert np.array_equal(lhs, rhs)


def test_quasigroup_translations_bijective_exhaustive_w8():
    bd = boxdot(GX, GY, W8)
    # for every fixed y, x -> x boxdot y is a permutation (sort each column)
    assert np.all(np.sort(bd, axis=0) == GX)
    # for every fixed x, y -> x boxdot y is a permutation (sort each row)
    assert np.all(np.sort(bd, axis=1) == GY)


def test_isomorphism_congruence():
    # 2*(x odot y) + 1 == (2x+1)(2y+1) mod 2**(w+1)
    for x in range(256):
        for y in range(256):
            assert (2 * odot(x, y, 8) + 1) % 512 == ((2 * x + 1) * (2 * y + 1)) % 512
    for w in (16, 32, 64):
        rng = random.Random(w)
        m = (1 << (w + 1))
        for x, y in zip(sample_words(rng, 300, w), sample_words(rng, 300, w)):
            assert (2 * odot(x, y, w) + 1) % m == ((2 * x + 1) * (2 * y + 1)) % m


# ---------------------------------------------------------------------------
# sign, complement and mixed-associativity identities, exhaustive at w=8


def test_sign_relations_exhaustive_w8():
    neg = (-GX) & np.uint64(0xFF)
    assert np.array_equal(odot(GX, GY, W8), (-boxdot(neg, GY, W8)) & np.uint64(0xFF))
    assert np.array_equal(boxdot(GX, GY, W8), (-odot(neg, GY, W8)) & np.uint64(0xFF))


def test_complement_relations_exhaustive_w8():
    m = np.uint64(0xFF)
    assert np.array_equal(odot(~GX & m, GY, W8), ~odot(GX, GY, W8) & m)
    assert np.array_equal(boxdot((1 - GX) & m, GY, W8), (1 - boxdot(GX, GY, W8)) & m)
    for e in range(256):
        c = np.uint64((1 - 2 * e) & 0xFF)
        assert np.array_equal(boxdot_e((c - GX) & m, GY, lift(e), W8),
                              (c - boxdot_e(GX, GY, lift(e), W8)) & m)


def test_mixed_associativity():
    # (x boxdot y) boxdot z == x boxdot (y odot z), exhaustive at w=8
    bd = boxdot(GX, GY, W8)
    for z in range(256):
        assert np.array_equal(boxdot(bd, z, W8),
                              boxdot(GX, odot(GY, z, W8), W8))
    rng = random.Random(64)
    for x, y, z in zip(*(sample_words(rng, 200, 64) for _ in range(3))):
        assert boxdot(boxdot(x, y, 64), z, 64) == boxdot(x, odot(y, z, 64), 64)


# ---------------------------------------------------------------------------
# e-parametrized family


def test_e_family_units():
    for w in (8, 16, 64):
        rng = random.Random(w)
        for x, e in zip(sample_words(rng, 100, w), sample_words(rng, 100, w)):
            assert odot_e(x, e, e, w) == x
            assert boxdot_e(x, e, e, w) == x
            assert odot_e(x, 0, 0, w) == x
            assert inv_e(e, e, w) == e
    # e=0 degenerations
    for x in range(256):
        for y in (0, 1, 200):
            assert odot_e(x, y, 0, 8) == odot(x, y, 8)
            assert boxdot_e(x, y, 0, 8) == boxdot(x, y, 8)
        assert inv_e(x, 0, 8) == odot_inverse(x, 8)


def test_e_family_composition_form_exhaustive_w8():
    # the family members are the base operations conjugated by +/- e:
    # x od[e] y == (x-e) od (y-e) + e and x bd[e] y == (x+e) bd (y-e) - e
    m = 0xFF
    for e in range(0, 256, 3):
        for x in range(0, 256, 5):
            for y in range(0, 256, 7):
                assert odot_e(x, y, e, W8) == (odot((x - e) & m, (y - e) & m, W8) + e) & m
                assert boxdot_e(x, y, e, W8) == (boxdot((x + e) & m, (y - e) & m, W8) - e) & m
    assert odot_e(7, 9, 3, W8) == (odot((7 - 3) & m, (9 - 3) & m, W8) + 3) & m


def test_e_sign_relations_exhaustive_w8():
    m = np.uint64(0xFF)
    neg = (-GX) & m
    for e in range(256):
        assert np.array_equal(odot_e(GX, GY, lift(e), W8), (-boxdot_e(neg, GY, lift(e), W8)) & m)
        assert np.array_equal(boxdot_e(GX, GY, lift(e), W8), (-odot_e(neg, GY, lift(e), W8)) & m)


def test_e_right_inverse_exhaustive_w8():
    # (x bd[e] y) bd[e] inv_e(y, e) == x over all (x, y, e)
    for e in range(256):
        y_inv = inv_e(ALL8, lift(e), W8)
        assert np.array_equal(boxdot_e(boxdot_e(GX, GY, lift(e), W8), y_inv[None, :], lift(e), W8), GX)


def test_e_right_inverse_sampled():
    for w in (16, 32, 64):
        rng = random.Random(w)
        for a, x, e in zip(*(sample_words(rng, 200, w) for _ in range(3))):
            assert boxdot_e(boxdot_e(a, x, e, w), inv_e(x, e, w), e, w) == a


def _affine_pair(y, e, w):
    mask = np.uint64((1 << w) - 1)
    y = np.asarray(y, dtype=np.uint64)
    e = np.uint64(e)
    with np.errstate(over="ignore"):
        m = (np.uint64(2) * (y - e) + np.uint64(1)) & mask
        n = ((np.uint64(2) * e - np.uint64(1)) * (y - e)) & mask
    return m, n


def test_boxdot_e_is_affine_exhaustive_w8():
    # x bd[e] y == m(y,e)*x + n(y,e) for every (x, y, e); this pins the
    # affine reduction the associativity proof below relies on
    mask = np.uint64(0xFF)
    for e in range(256):
        m, n = _affine_pair(ALL8, e, W8)
        assert np.array_equal(boxdot_e(GX, GY, lift(e), W8), (GX * m[None, :] + n[None, :]) & mask)


def test_e_associativity_exhaustive_w8_by_affine_reduction():
    # (x bd[e] y) bd[e] z == x bd[e] (y od[e] z) quantifies over 2**32
    # quadruples; with bd[e] exhaustively affine in x (previous test), the
    # two sides are affine maps of x, equal for all x iff their coefficients
    # match.  Checking coefficient equality over all (y, z, e) therefore
    # covers every quadruple.
    mask = np.uint64(0xFF)
    for e in range(256):
        my, ny = _affine_pair(ALL8, e, W8)   # per y
        for_y = my[:, None], ny[:, None]
        yz = odot_e(GX, GY, lift(e), W8)      # (y, z) grid
        mz, nz = _affine_pair(ALL8, e, W8)   # per z
        m_comp = (mz[None, :] * for_y[0]) & mask
        n_comp = (mz[None, :] * for_y[1] + nz[None, :]) & mask
        m_rhs, n_rhs = _affine_pair(yz, e, W8)
        assert np.array_equal(m_comp, m_rhs)
        assert np.array_equal(n_comp, n_rhs)


def test_e_associativity_direct_slices_w8(rng):
    # belt and braces: the same law checked pointwise over the full (x, y, z)
    # cube for a handful of e values
    for e in [0, 1, 255] + sample_words(rng, 5, W8):
        yz = odot_e(GX, GY, lift(e), W8)
        bxy = boxdot_e(GX, GY, lift(e), W8)
        for z in sample_words(rng, 32, W8):
            lhs = boxdot_e(bxy, z, lift(e), W8)
            rhs = boxdot_e(GX, odot_e(GY, z, lift(e), W8), lift(e), W8)
            assert np.array_equal(lhs, rhs)


def test_e_associativity_sampled_wide():
    for w in (16, 32, 64):
        rng = random.Random(w + 1)
        for x, y, z, e in zip(*(sample_words(rng, 300, w) for _ in range(4))):
            assert boxdot_e(boxdot_e(x, y, e, w), z, e, w) == boxdot_e(x, odot_e(y, z, e, w), e, w)


def test_boxdot_e_affine_sampled_w16(rng):
    for _ in range(300):
        x, y, e = (rng.randrange(1 << 16) for _ in range(3))
        m = (2 * (y - e) + 1) & 0xFFFF
        n = ((2 * e - 1) * (y - e)) & 0xFFFF
        assert boxdot_e(x, y, e, 16) == (m * x + n) & 0xFFFF
