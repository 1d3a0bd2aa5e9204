"""Minimal file container for demonstration encryption.

Layout (24-octet header, then ciphertext blocks):

    offset  size  field
         0     6  magic "NSABC1"
         6     1  word width (16, 32 or 64)
         7     1  flags; bit 0 = per-block tweak derivation enabled
         8     8  plaintext length in octets, little-endian
        16     8  reserved, must be zero

The plaintext is zero-padded to whole blocks (a block is 4 words = w/2
octets); the true length lives in the header and decryption truncates to it.
Octet strings map to words little-endian: the first octet is the least
significant.  The container is unauthenticated and meant for demonstrating
the cipher, not for protecting data against tampering.

``encrypt_bytes`` and ``decrypt_bytes`` each allocate one payload-sized
buffer, the ``bytearray`` they return, and run the batch kernel in place on
its blocks.  ``encrypt_stream`` and ``decrypt_stream`` make the same
containers from files, ``STREAM_TILES`` tiles of blocks at a time in one
reused buffer, each chunk from its first block index: a block's tweak
depends on its index alone.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ._kernels import tile_blocks
from .cipher import word_dtype
from .tweakstream import decrypt_blocks, encrypt_blocks
from .words import CIPHER_WIDTHS, check_cipher_width

MAGIC = b"NSABC1"
HEADER_LEN = 24
FLAG_TWEAKING = 0x01

_HEADER_STRUCT = struct.Struct("<6sBBQ8s")

#: Tiles of blocks the streaming calls read, run and write at a time: 4 MiB at every
#: width, 2 tiles for each of the kernel's workers.
STREAM_TILES = 4


class ContainerFormatError(ValueError):
    """Raised for malformed containers (bad magic, fields, or truncation)."""


@dataclass(frozen=True)
class ContainerHeader:
    width: int
    tweaking: bool
    plaintext_length: int

    def block_bytes(self) -> int:
        return self.width // 2

    def block_count(self) -> int:
        bb = self.block_bytes()
        return (self.plaintext_length + bb - 1) // bb

    def body_length(self) -> int:
        """Octets of ciphertext after the header: the plaintext zero-padded to whole blocks."""
        return self.block_count() * self.block_bytes()


def pack_header(header: ContainerHeader) -> bytes:
    check_cipher_width(header.width)
    flags = FLAG_TWEAKING if header.tweaking else 0
    return _HEADER_STRUCT.pack(MAGIC, header.width, flags, header.plaintext_length, b"\x00" * 8)


def parse_header(data: bytes) -> ContainerHeader:
    """The header at the start of ``data`` (any bytes-like object), checked field by field."""
    data = memoryview(data).cast("B")  # counts octets, whatever the item size
    if len(data) < HEADER_LEN:
        raise ContainerFormatError(f"container too short for header ({len(data)} octets)")
    magic, width, flags, length, reserved = _HEADER_STRUCT.unpack(data[:HEADER_LEN])
    if magic != MAGIC:
        raise ContainerFormatError(f"bad magic {magic!r}")
    if width not in CIPHER_WIDTHS:
        raise ContainerFormatError(f"unsupported width {width}")
    if flags & ~FLAG_TWEAKING:
        raise ContainerFormatError(f"unknown flag bits 0x{flags:02x}")
    if reserved != b"\x00" * 8:
        raise ContainerFormatError("reserved header octets must be zero")
    return ContainerHeader(width=width, tweaking=bool(flags & FLAG_TWEAKING), plaintext_length=length)


def _check_body_length(header: ContainerHeader, body_len: int) -> None:
    """Refuse a body of ``body_len`` octets that is not the one ``header`` describes."""
    expected = header.body_length()
    if body_len != expected:
        raise ContainerFormatError(
            f"ciphertext length {body_len} does not match header ({expected} octets expected)")


def _bytes_to_words(data, w: int, offset: int = 0) -> np.ndarray:
    """The (n, 4) block words of ``data`` from ``offset`` on, as a view of its octets."""
    return np.frombuffer(data, dtype=word_dtype(w), offset=offset).reshape(-1, 4)


def encrypt_bytes(plaintext, key, tweak_key: int, unit_key: int, w: int, *,
                  tweaking: bool = True) -> bytearray:
    """Produce header + ciphertext for arbitrary plaintext octets (any bytes-like object).

    Header, plaintext and zero pad are joined in one pass into the result, whose
    body is then encrypted in place.
    """
    check_cipher_width(w)
    data = memoryview(plaintext).cast("B")  # counts octets, whatever the item size
    header = ContainerHeader(width=w, tweaking=tweaking, plaintext_length=len(data))
    # not bytearray(n) filled in, which zeroes the payload first, nor a slice
    # assignment of a memoryview, which copies the payload once more
    buf = bytearray().join((pack_header(header), data, bytes(header.body_length() - len(data))))
    body = _bytes_to_words(buf, w, HEADER_LEN)
    encrypt_blocks(body, key, tweak_key, unit_key, w, tweaking=tweaking, out=body)
    return buf


def decrypt_bytes(blob, key, tweak_key: int, unit_key: int) -> bytearray:
    """Validate a container (any bytes-like object) and recover the exact original octets.

    The body is copied once, into the result, decrypted there in place and
    truncated to the plaintext length.
    """
    blob = memoryview(blob).cast("B")  # counts octets, whatever the item size
    header = parse_header(blob)
    _check_body_length(header, len(blob) - HEADER_LEN)
    buf = bytearray(blob[HEADER_LEN:])
    body = _bytes_to_words(buf, header.width)
    decrypt_blocks(body, key, tweak_key, unit_key, header.width, tweaking=header.tweaking, out=body)
    del body  # a bytearray that a view exports cannot be resized
    del buf[header.plaintext_length:]
    return buf


def _stream(src, dst, header: ContainerHeader, crypt, encrypting: bool) -> None:
    """Run crypt(blocks, first_index) in place over the blocks of the container ``header``
    describes, read from src, and write them to dst, ``STREAM_TILES`` tiles at a time.

    Encrypting reads the plaintext and zero-pads its last block, and writes the
    header and every block; decrypting reads every block after the header and
    writes the plaintext.  A source that ends early or runs on raises OSError
    when encrypting, and ContainerFormatError, a body of the wrong length, when
    decrypting.
    """
    mismatch = OSError if encrypting else ContainerFormatError
    body, bb = header.body_length(), header.block_bytes()
    read_len, write_len = (header.plaintext_length, body) if encrypting else (body, header.plaintext_length)
    step = STREAM_TILES * tile_blocks(header.width) * bb
    chunk = bytearray(min(body, step))
    view, words = memoryview(chunk), _bytes_to_words(chunk, header.width)
    crypt(words[:0], 0)  # refuses bad key material before anything is written
    if encrypting:
        dst.write(pack_header(header))
    for pos in range(0, body, step):
        size = min(step, body - pos)
        got = min(size, read_len - pos)
        if src.readinto(view[:got]) != got:
            raise mismatch("input ended before its stated length")
        view[got:size] = bytes(size - got)
        crypt(words[:size // bb], pos // bb)
        dst.write(view[:min(size, write_len - pos)])
    if src.read(1):
        raise mismatch("input runs on past its stated length")


def encrypt_stream(src, dst, length: int, key, tweak_key: int, unit_key: int, w: int, *,
                   tweaking: bool = True) -> None:
    """Write to the binary file dst the container ``encrypt_bytes`` makes of the ``length``
    octets that the binary file src holds from its position on."""
    check_cipher_width(w)
    header = ContainerHeader(width=w, tweaking=tweaking, plaintext_length=length)

    def crypt(blocks, first_index):
        encrypt_blocks(blocks, key, tweak_key, unit_key, w, tweaking=tweaking, first_index=first_index, out=blocks)

    _stream(src, dst, header, crypt, True)


def read_header(src, size: int | None = None) -> ContainerHeader:
    """The header of a container read from the binary file src, checked field by
    field and, if its ``size`` in octets is known, against that size."""
    header = parse_header(src.read(HEADER_LEN))
    if size is not None:
        _check_body_length(header, size - HEADER_LEN)
    return header


def decrypt_stream(src, dst, header: ContainerHeader, key, tweak_key: int, unit_key: int) -> None:
    """Write to the binary file dst the plaintext of the container whose header
    ``read_header`` has read from the binary file src."""

    def crypt(blocks, first_index):
        decrypt_blocks(blocks, key, tweak_key, unit_key, header.width, tweaking=header.tweaking,
                       first_index=first_index, out=blocks)

    _stream(src, dst, header, crypt, False)
