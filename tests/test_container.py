"""Container format: header fields, padding, rejection of malformed input."""

import pytest

from conftest import random_tuple
from nsabc.container import (
    HEADER_LEN,
    MAGIC,
    ContainerFormatError,
    ContainerHeader,
    decrypt_bytes,
    encrypt_bytes,
    pack_header,
    parse_header,
)


def keys(rng, w):
    _, z, _, u = random_tuple(rng, w)
    t0 = rng.randrange(1 << (4 * w))
    return z, t0, u


def test_header_roundtrip():
    for w in (16, 32, 64):
        for tweaking in (False, True):
            h = ContainerHeader(width=w, tweaking=tweaking, plaintext_length=12345)
            packed = pack_header(h)
            assert len(packed) == HEADER_LEN
            assert packed[:6] == MAGIC
            assert parse_header(packed) == h


def test_header_field_layout():
    h = ContainerHeader(width=16, tweaking=True, plaintext_length=8)
    packed = pack_header(h)
    assert packed == MAGIC + bytes([16, 1]) + (8).to_bytes(8, "little") + b"\x00" * 8


def test_parse_rejects_malformed():
    good = pack_header(ContainerHeader(16, True, 64))
    with pytest.raises(ContainerFormatError):
        parse_header(good[:10])                                  # truncated header
    with pytest.raises(ContainerFormatError):
        parse_header(b"XSABC1" + good[6:])                       # magic
    with pytest.raises(ContainerFormatError):
        parse_header(good[:6] + bytes([17]) + good[7:])          # width
    with pytest.raises(ContainerFormatError):
        parse_header(good[:7] + bytes([0x82]) + good[8:])        # unknown flags
    with pytest.raises(ContainerFormatError):
        parse_header(good[:16] + b"\x01" + good[17:])            # reserved not zero


def test_body_length_must_match_header(rng):
    z, t0, u = keys(rng, 16)
    blob = encrypt_bytes(b"0123456789", z, t0, u, 16)
    with pytest.raises(ContainerFormatError):
        decrypt_bytes(blob[:-1], z, t0, u)                       # truncated ciphertext
    with pytest.raises(ContainerFormatError):
        decrypt_bytes(blob + b"\x00", z, t0, u)                  # trailing junk
    # header claims more data than present
    h = pack_header(ContainerHeader(16, True, 100))
    with pytest.raises(ContainerFormatError):
        decrypt_bytes(h + b"\x00" * 8, z, t0, u)


@pytest.mark.parametrize("w", [16, 32, 64])
@pytest.mark.parametrize("tweaking", [True, False])
def test_roundtrip_various_lengths(w, tweaking, rng):
    z, t0, u = keys(rng, w)
    bb = w // 2
    for size in (0, 1, bb - 1, bb, bb + 1, 3 * bb, 1000):
        data = bytes(rng.randrange(256) for _ in range(size))
        blob = encrypt_bytes(data, z, t0, u, w, tweaking=tweaking)
        header = parse_header(blob)
        assert header.width == w and header.tweaking == tweaking
        assert header.plaintext_length == size
        assert len(blob) == HEADER_LEN + header.block_count() * bb
        assert decrypt_bytes(blob, z, t0, u) == data


def test_empty_input_produces_header_only(rng):
    z, t0, u = keys(rng, 16)
    blob = encrypt_bytes(b"", z, t0, u, 16)
    assert len(blob) == HEADER_LEN
    assert parse_header(blob).plaintext_length == 0
    assert decrypt_bytes(blob, z, t0, u) == b""
    # no octets is no reason to accept a bad key, tweak key or unit key
    for key, tweak_key, unit_key in (("junk", t0, u), ((1, 2, 3, 4, 5), 2**300, u), (z, -5, u),
                                     (z, t0, 2**40), (z, t0, -1)):
        with pytest.raises(ValueError):
            encrypt_bytes(b"", key, tweak_key, unit_key, 16)
        with pytest.raises(ValueError):
            decrypt_bytes(blob, key, tweak_key, unit_key)


def test_tweak_mode_recorded_in_header(rng):
    # decryption follows the header flag, so a container written without
    # tweaking decrypts correctly regardless of what the caller would prefer
    z, t0, u = keys(rng, 16)
    blob = encrypt_bytes(b"some bytes here", z, t0, u, 16, tweaking=False)
    assert parse_header(blob).tweaking is False
    assert decrypt_bytes(blob, z, t0, u) == b"some bytes here"


def test_wrong_key_garbles_but_wrong_format_raises(rng):
    z, t0, u = keys(rng, 16)
    blob = encrypt_bytes(b"payload.payload!", z, t0, u, 16)
    z_bad = tuple(v ^ 1 for v in z)
    assert decrypt_bytes(blob, z_bad, t0, u) != b"payload.payload!"
