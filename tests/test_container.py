"""Container format: header fields, padding, rejection of malformed input."""

import hashlib
import io
import random
import tracemalloc
from array import array

import pytest

from conftest import random_tuple
from nsabc import _kernels
from nsabc.cipher import word_dtype
from nsabc.cli import EXIT_FORMAT, EXIT_OK, main
from nsabc.container import (
    HEADER_LEN,
    MAGIC,
    STREAM_TILES,
    ContainerFormatError,
    ContainerHeader,
    decrypt_bytes,
    decrypt_stream,
    encrypt_bytes,
    encrypt_stream,
    pack_header,
    parse_header,
    read_header,
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


@pytest.mark.parametrize("w", [16, 32, 64])
def test_call_memory_is_its_result_and_the_workspaces(w, rng):
    # each call allocates one payload-sized buffer, the one it returns: beyond it an
    # 8-tile call holds the kernel's workspaces and less than 512 KiB more (the limb
    # seeds of the workers' first tiles), where a second payload-sized copy was 8 MiB
    z, t0, u = keys(rng, w)
    tiles = 8
    payload = random.Random(w).randbytes(tiles * _kernels.tile_blocks(w) * w // 2 - 3)
    workspaces = (_kernels.worker_count(tiles) * _kernels.WORKSPACE_COLUMNS
                  * _kernels.tile_blocks(w) * word_dtype(w).itemsize)

    def traced(call):
        tracemalloc.start()
        try:
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert type(result) is bytearray
        assert peak - len(result) <= workspaces + (512 << 10), (call, w, peak - len(result))
        return result

    blob = traced(lambda: encrypt_bytes(payload, z, t0, u, w))
    assert traced(lambda: decrypt_bytes(blob, z, t0, u)) == payload


@pytest.mark.parametrize("w", [16, 32, 64])
def test_streams_make_the_containers_of_the_in_memory_calls(w, rng, monkeypatch):
    # with tiles of 16 blocks, the streams read and write chunks of STREAM_TILES
    # tiles: sizes around chunk edges give the container encrypt_bytes makes and
    # the plaintext decrypt_bytes recovers, the last chunk padded or truncated
    monkeypatch.setattr(_kernels, "TILE_BYTES", 2 * w)
    z, t0, u = keys(rng, w)
    bb = w // 2
    chunk = STREAM_TILES * _kernels.tile_blocks(w) * bb
    for tweaking in (True, False):
        for size in (0, 1, bb, chunk - 1, chunk, chunk + 1, 2 * chunk + bb - 1, 3 * chunk + 5):
            data = rng.randbytes(size)
            blob = encrypt_bytes(data, z, t0, u, w, tweaking=tweaking)
            dst = io.BytesIO()
            encrypt_stream(io.BytesIO(data), dst, size, z, t0, u, w, tweaking=tweaking)
            assert dst.getvalue() == blob, (tweaking, size)
            src, dst = io.BytesIO(blob), io.BytesIO()
            decrypt_stream(src, dst, read_header(src, len(blob)), z, t0, u)
            assert dst.getvalue() == data, (tweaking, size)
    # a source shorter or longer than its stated length is refused: a plaintext
    # as an I/O error, a body as a malformed container, also when its size is
    # found only as it ends
    for stated in (size - 1, size + 1):
        with pytest.raises(OSError):
            encrypt_stream(io.BytesIO(data), io.BytesIO(), stated, z, t0, u, w)
    header = read_header(io.BytesIO(blob))
    assert header == read_header(io.BytesIO(blob), len(blob))
    for body in (blob[HEADER_LEN:-1], blob[HEADER_LEN:] + b"x"):
        with pytest.raises(ContainerFormatError):
            decrypt_stream(io.BytesIO(body), io.BytesIO(), header, z, t0, u)
    with pytest.raises(ContainerFormatError):
        read_header(io.BytesIO(blob), len(blob) + 1)
    # bad key material is refused before anything is written, also with no blocks
    for length in (0, 5):
        dst = io.BytesIO()
        with pytest.raises(ValueError):
            encrypt_stream(io.BytesIO(bytes(length)), dst, length, z, 2**300, u, w)
        assert dst.getvalue() == b""


def _well_formed(header, body_len):
    """Whether a header of the layout in the container docstring describes a body of body_len octets."""
    width, flags, length = header[6], header[7], int.from_bytes(header[8:16], "little")
    return (header[:6] == MAGIC and width in (16, 32, 64) and flags in (0, 1) and header[16:] == bytes(8)
            and -(-length // (width // 2)) * (width // 2) == body_len)


@pytest.mark.parametrize("w", [16, 32, 64])
def test_malformed_containers_raise_only_format_errors(w, tmp_path):
    # every single-octet change of the header, and every truncation and some
    # extensions of the container: decrypt_bytes raises ContainerFormatError for each
    # malformed one and nothing else, and returns the plaintext length of the others;
    # nsabc decrypt exits 3 on a seeded sample of them and leaves no output file
    seeded = random.Random(20261020 + w)
    key = tuple(seeded.randrange(1 << w) for _ in range(5))
    tweak_key, unit_key = seeded.randrange(1 << (4 * w)), seeded.randrange(1 << w)
    bb = w // 2
    blob = bytes(encrypt_bytes(seeded.randbytes(3 * bb + 3), key, tweak_key, unit_key, w))
    body_len = len(blob) - HEADER_LEN
    changed = [blob[:pos] + bytes([value]) + blob[pos + 1:]
               for pos in range(HEADER_LEN) for value in range(256) if value != blob[pos]]
    truncated = [blob[:n] for n in range(len(blob))]
    extended = [blob + seeded.randbytes(n) for n in range(1, 2 * bb + 1)]
    accepted = 0
    for data in changed + truncated + extended:
        well_formed = len(data) >= HEADER_LEN and _well_formed(data[:HEADER_LEN], len(data) - HEADER_LEN)
        try:
            plain = decrypt_bytes(data, key, tweak_key, unit_key)
        except ContainerFormatError:
            assert not well_formed, data[:HEADER_LEN].hex()
        else:
            assert well_formed and len(plain) == int.from_bytes(data[8:16], "little")
            accepted += 1
    assert 0 < accepted < 40 and len(changed) == HEADER_LEN * 255
    # a change of the body alone still decrypts, to other octets of the same length
    for pos in range(HEADER_LEN, len(blob)):
        flipped = bytearray(blob)
        flipped[pos] ^= 1 << seeded.randrange(8)
        plain = decrypt_bytes(flipped, key, tweak_key, unit_key)
        assert len(plain) == 3 * bb + 3 and plain != decrypt_bytes(blob, key, tweak_key, unit_key)
    src, out = tmp_path / "in.nsabc", tmp_path / "out.bin"
    keys_hex = ["--key", f"{sum(k << (i * w) for i, k in enumerate(key)):0{5 * w // 4}x}",
                "--tweak-key", f"{tweak_key:0{w}x}", "--unit-key", f"{unit_key:0{w // 4}x}"]
    for data in seeded.sample(changed, 48) + truncated + extended[::3]:
        src.write_bytes(data)
        well_formed = len(data) >= HEADER_LEN and _well_formed(data[:HEADER_LEN], len(data) - HEADER_LEN)
        code = main(["decrypt", *keys_hex, "--in", str(src), "--out", str(out)])
        assert code == (EXIT_OK if well_formed else EXIT_FORMAT) and out.exists() == well_formed
        if well_formed:
            out.unlink()
