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


def _bytes_to_words(data: bytes, w: int) -> np.ndarray:
    dtype = {16: "<u2", 32: "<u4", 64: "<u8"}[w]
    return np.frombuffer(data, dtype=dtype).reshape(-1, 4).astype(np.uint64)


def _words_to_bytes(arr: np.ndarray, w: int) -> bytes:
    dtype = {16: "<u2", 32: "<u4", 64: "<u8"}[w]
    return arr.astype(dtype).tobytes()


def encrypt_bytes(plaintext: bytes, key, tweak_key: int, unit_key: int, w: int, *,
                  tweaking: bool = True) -> bytes:
    """Produce header + ciphertext for arbitrary plaintext octets."""
    check_cipher_width(w)
    header = ContainerHeader(width=w, tweaking=tweaking, plaintext_length=len(plaintext))
    bb = header.block_bytes()
    pad = (-len(plaintext)) % bb
    padded = plaintext + b"\x00" * pad
    xs = _bytes_to_words(padded, w)
    ys = encrypt_blocks(xs, key, tweak_key, unit_key, w, tweaking=tweaking)
    return pack_header(header) + _words_to_bytes(ys, w)


def decrypt_bytes(blob: bytes, key, tweak_key: int, unit_key: int) -> bytes:
    """Validate a container and recover the exact original octets."""
    header = parse_header(blob)
    bb = header.block_bytes()
    body = blob[HEADER_LEN:]
    expected = header.block_count() * bb
    if len(body) != expected:
        raise ContainerFormatError(
            f"ciphertext length {len(body)} does not match header ({expected} octets expected)")
    ys = _bytes_to_words(body, header.width)
    xs = decrypt_blocks(ys, key, tweak_key, unit_key, header.width, tweaking=header.tweaking)
    return _words_to_bytes(xs, header.width)[: header.plaintext_length]
