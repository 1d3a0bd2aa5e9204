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
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .cipher import word_dtype
from .tweakstream import decrypt_blocks, encrypt_blocks
from .words import CIPHER_WIDTHS, check_cipher_width

MAGIC = b"NSABC1"
HEADER_LEN = 24
FLAG_TWEAKING = 0x01

_HEADER_STRUCT = struct.Struct("<6sBBQ8s")


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


def pack_header(header: ContainerHeader) -> bytes:
    check_cipher_width(header.width)
    flags = FLAG_TWEAKING if header.tweaking else 0
    return _HEADER_STRUCT.pack(MAGIC, header.width, flags, header.plaintext_length, b"\x00" * 8)


def parse_header(data: bytes) -> ContainerHeader:
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


def _bytes_to_words(data: bytes, w: int, offset: int = 0) -> np.ndarray:
    """The (n, 4) block words of ``data`` from ``offset`` on, as a read-only view of its octets."""
    return np.frombuffer(data, dtype=word_dtype(w), offset=offset).reshape(-1, 4)


def encrypt_bytes(plaintext: bytes, key, tweak_key: int, unit_key: int, w: int, *,
                  tweaking: bool = True) -> bytes:
    """Produce header + ciphertext for arbitrary plaintext octets (any bytes-like object)."""
    check_cipher_width(w)
    data = memoryview(plaintext).cast("B")  # counts octets, whatever the item size
    header = ContainerHeader(width=w, tweaking=tweaking, plaintext_length=len(data))
    pad = -len(data) % header.block_bytes()
    padded = b"".join((data, bytes(pad))) if pad else data  # whole blocks are not copied
    ys = encrypt_blocks(_bytes_to_words(padded, w), key, tweak_key, unit_key, w, tweaking=tweaking)
    # ys is C-contiguous in the little-endian word dtype, so its buffer is the ciphertext octets
    return b"".join((pack_header(header), ys.data))


def decrypt_bytes(blob: bytes, key, tweak_key: int, unit_key: int) -> bytes:
    """Validate a container (any bytes-like object) and recover the exact original octets."""
    blob = memoryview(blob).cast("B")  # counts octets, whatever the item size
    header = parse_header(blob)
    body_len = len(blob) - HEADER_LEN
    expected = header.block_count() * header.block_bytes()
    if body_len != expected:
        raise ContainerFormatError(
            f"ciphertext length {body_len} does not match header ({expected} octets expected)")
    ys = _bytes_to_words(blob, header.width, HEADER_LEN)
    xs = decrypt_blocks(ys, key, tweak_key, unit_key, header.width, tweaking=header.tweaking)
    return xs.reshape(-1).view(np.uint8)[: header.plaintext_length].tobytes()
