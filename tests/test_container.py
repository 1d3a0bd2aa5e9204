"""Container format: header fields, padding, rejection of malformed input."""

import hashlib
import random
from array import array

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
            # a buffer of 4-octet items is measured in octets, as decrypt_bytes measures it
            assert parse_header(array("I", packed + bytes(24))) == h


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
        # any bytes-like input counts in octets, whatever its item size; a
        # container is a whole number of 4-octet items
        words = array("I", data[:size - size % 4])
        for plain in (bytearray(data), memoryview(data), words):
            assert encrypt_bytes(plain, z, t0, u, w, tweaking=tweaking) == encrypt_bytes(
                bytes(plain), z, t0, u, w, tweaking=tweaking)
        held = array("I", blob)
        for container in (bytearray(blob), memoryview(blob), held):
            assert decrypt_bytes(container, z, t0, u) == data


# SHA-256 of the container of a seeded 64 KiB + 5 octet payload; pinned so any
# change of the ciphertext bits, the padding or the header shows
GOLDEN_CONTAINERS = {
    (16, True): "3b864032a4c07147885fa6cbe4e32f7f79cebeb2245697cbdeded9f6679a333c",
    (16, False): "7ec4031a9dff93d762e63151037948823f63d3082e9c82e040b77d1dede2520d",
    (32, True): "78e4d4bc3ae3617bdba940a309d37303a48e7558583bae29ac3fb2574c37a8a6",
    (32, False): "6ae1111ed69b0f06b941d7705c1f0c49980c5c1c0a7143a62234cfedea457510",
    (64, True): "2ec5d0713efde6052cce3f9655aad52b29d04e179eb2ae6f4304e521ddf4cdb3",
    (64, False): "b6e47065e551a694b7a15bf0dacf6699fc9cc5d5ef6f377528327d597641c10b",
}


@pytest.mark.parametrize("w, tweaking", sorted(GOLDEN_CONTAINERS))
def test_golden_container_digest(w, tweaking):
    seeded = random.Random(20261018 + w)
    payload = seeded.randbytes(64 * 1024 + 5)
    key = tuple(seeded.randrange(1 << w) for _ in range(5))
    tweak_key, unit_key = seeded.randrange(1 << (4 * w)), seeded.randrange(1 << w)
    blob = encrypt_bytes(payload, key, tweak_key, unit_key, w, tweaking=tweaking)
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_CONTAINERS[w, tweaking]
    assert decrypt_bytes(blob, key, tweak_key, unit_key) == payload


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
