"""Schedules: published reference values, closed forms, validation."""

import pytest

from nsabc.schedules import (
    check_key,
    check_tweak,
    check_unit_key,
    key_expand,
    tweak_expand,
    unit_expand,
)

# the standard w=16 vector, low-first word tuples
Z16 = (0x0000, 0x0005, 0x0066, 0x0777, 0x8888)
T16 = (0x4444, 0x0333, 0x0022, 0x0001)
U16 = 0x1998


def test_key_schedule_reference_prefix():
    k = key_expand(Z16, 16)
    assert k[:6] == (0x0777, 0x8888, 0x0000, 0x0005, 0x0066, 0x0777)


def test_tweak_schedule_reference_prefix():
    c = tweak_expand(T16, 16)
    assert c[:5] == (0x4444, 0x0333, 0x0022, 0x0001, 0x4444)


def test_unit_schedule_reference_values():
    l = unit_expand(U16, 16)
    assert l[:5] == (0x1998, 0x4CC9, 0x7FFA, 0xB32B, 0xE65C)
    assert l[63] == 0xB2A7


def test_key_schedule_closed_form():
    for w in (16, 32, 64):
        z = tuple((i * 0x1357 + 11) & ((1 << w) - 1) for i in range(5))
        k = key_expand(z, w)
        assert len(k) == 64
        assert all(k[i] == z[(3 + i) % 5] for i in range(64))
        assert all(k[i] == k[i + 5] for i in range(59))


def test_tweak_schedule_closed_form():
    for w in (16, 32, 64):
        t = tuple((i * 0xBEEF + 3) & ((1 << w) - 1) for i in range(4))
        c = tweak_expand(t, w)
        assert len(c) == 32
        assert all(c[i] == t[i % 4] for i in range(32))
        assert all(c[i] == c[i + 4] for i in range(28))
    assert tweak_expand((0, 0, 0, 0), 16) == (0,) * 32


def test_constant_key_is_rotation_invariant():
    c = 0x4242
    assert key_expand((c,) * 5, 16) == (c,) * 64


def test_unit_schedule_closed_form(rng):
    for w in (16, 32, 64):
        mask = (1 << w) - 1
        for _ in range(20):
            u = rng.randrange(1 << w)
            l = unit_expand(u, w)
            assert len(l) == 64
            assert all(l[k] == ((2 * k + 1) * u + k) & mask for k in range(64))
    assert unit_expand(0, 16) == tuple(range(64))


def test_input_validation():
    with pytest.raises(ValueError):
        check_key((1, 2, 3), 16)
    with pytest.raises(ValueError):
        check_key((1, 2, 3, 4, 1 << 16), 16)
    with pytest.raises(ValueError):
        check_tweak((1, 2, 3, 4, 5), 16)
    with pytest.raises(ValueError):
        check_unit_key(-1, 16)
    with pytest.raises(ValueError):
        check_key((1, 2, 3, 4, 5), 8)  # not a cipher width
