"""Reference encryption and decryption path.

A block is a tuple of four words (x0 least significant); in hex strings the
most significant word is written first, so the value 0x0123456789ABCDEF at
w=16 is the block (0xCDEF, 0x89AB, 0x4567, 0x0123).

The G-box is the keyed word permutation

    G(x, (K0,K1), (L0,L1), C0) = ((x bd[L0] K0)^S xor C0) bd[L1] K1)^S

where bd[e] is the quasi-group operation with right unit e and ^S swaps word
halves.  CRYPT runs 32 rounds in four passes (8 type-A, 8 type-B, repeated):
a type-A round sends x0 through G and XORs the result into x1, a type-B round
first XORs x0 into x3 and then sends x0 through G; every round ends by
rotating the text register one word toward the least significant position.

Decryption reuses CRYPT: encrypt the ciphertext in reverse half-word order
under the word-reversed unit schedule, the tweak in reverse half-word order,
and the key schedule obtained by expanding the word-reversed key and
inverting each word in the quasi-group whose right unit is the index-matching
reversed unit word.  The result is the plaintext in reverse half-word order.
"""

from __future__ import annotations

import numpy as np

from .schedules import (
    KEY_SCHEDULE_LEN,
    TWEAK_SCHEDULE_LEN,
    UNIT_SCHEDULE_LEN,
    check_key,
    check_tweak,
    check_unit_key,
    key_expand,
    tweak_expand,
    unit_expand,
)
from .words import CIPHER_WIDTHS, boxdot_e, check_cipher_width, check_words, inv_e, split_words, swap_halves

BLOCK_WORDS = 4

Block = tuple[int, int, int, int]


def check_block(x, w: int) -> Block:
    check_cipher_width(w)
    return check_words(x, BLOCK_WORDS, w, "block", "x")


def block_to_int(x, w: int) -> int:
    """Pack a block into one 4w-bit integer (x0 least significant)."""
    x0, x1, x2, x3 = x
    return x0 | (x1 << w) | (x2 << (2 * w)) | (x3 << (3 * w))


def int_to_block(value: int, w: int) -> Block:
    """Split a 4w-bit integer into four words, least significant first."""
    return split_words(value, BLOCK_WORDS, w)


def block_to_bytes(x, w: int) -> bytes:
    """Serialize a block as little-endian octets (first octet least significant)."""
    return block_to_int(x, w).to_bytes(w // 2, "little")


_WORD_DTYPES = {w: np.dtype(f"<u{w // 8}") for w in CIPHER_WIDTHS}


def word_dtype(w: int) -> np.dtype:
    """Dtype of batch block data: w-bit words, little-endian like ``block_to_bytes``;
    one dtype object per width, looked up rather than parsed on each call."""
    return _WORD_DTYPES[check_cipher_width(w)]


def bytes_to_block(data: bytes, w: int) -> Block:
    if len(data) != w // 2:
        raise ValueError(f"block at width {w} needs {w // 2} octets, got {len(data)}")
    return int_to_block(int.from_bytes(data, "little"), w)


def gbox(x: int, k0: int, k1: int, l0: int, l1: int, c0: int, w: int) -> int:
    """Two quasi-group half-rounds with half-word swaps and a tweak XOR between;
    all operands are ints, or all arrays of one dtype, as ``words`` states."""
    x = swap_halves(boxdot_e(x, k0, l0, w), w) ^ c0
    return swap_halves(boxdot_e(x, k1, l1, w), w)


def round_update(x0, x1, x2, x3, g, k: int):
    """Text register after round k, whose G output (of x0) is g.

    A type-A round XORs g into x1, a type-B round XORs x0 into x3; both then
    put g in x0's place and rotate the register one word down.  The XOR is an
    augmented assignment: it rebinds a Python int in ``crypt`` and
    ``_kernels.crypt_words``, and updates a word-dtype column in place in
    ``_kernels._rounds``, so callers hand over columns they own.
    """
    # (k & 8) == 0 selects type A exactly on passes 1 and 3, i.e. k in [0,8) u [16,24)
    if k & 8 == 0:
        x1 ^= g
    else:
        x3 ^= x0
    return x1, x2, x3, g


def crypt(block, key_schedule, unit_schedule, tweak_schedule, w: int, trace=None) -> Block:
    """32-round core transform of a block under expanded schedules.

    ``trace``, when given, is a list that receives ``(k, state, g)`` with the
    text register at the start of round k and that round's G output, for
    k = 0..31, followed by ``(32, final_state, None)``.
    """
    check_cipher_width(w)
    if len(key_schedule) != KEY_SCHEDULE_LEN:
        raise ValueError(f"key schedule must have {KEY_SCHEDULE_LEN} words")
    if len(unit_schedule) != UNIT_SCHEDULE_LEN:
        raise ValueError(f"unit schedule must have {UNIT_SCHEDULE_LEN} words")
    if len(tweak_schedule) != TWEAK_SCHEDULE_LEN:
        raise ValueError(f"tweak schedule must have {TWEAK_SCHEDULE_LEN} words")

    x0, x1, x2, x3 = block
    K, L, C = key_schedule, unit_schedule, tweak_schedule
    for k in range(32):
        g = gbox(x0, K[2 * k], K[2 * k + 1], L[2 * k], L[2 * k + 1], C[k], w)
        if trace is not None:
            trace.append((k, (x0, x1, x2, x3), g))
        x0, x1, x2, x3 = round_update(x0, x1, x2, x3, g, k)
    if trace is not None:
        trace.append((32, (x0, x1, x2, x3), None))
    return (x0, x1, x2, x3)


def encrypt(block, key, tweak, unit_key, w: int) -> Block:
    """Encrypt one block: CRYPT under the three expanded schedules."""
    x = check_block(block, w)
    z = check_key(key, w)
    t = check_tweak(tweak, w)
    u = check_unit_key(unit_key, w)
    return crypt(x, key_expand(z, w), unit_expand(u, w), tweak_expand(t, w), w)


def reverse_words(words) -> tuple[int, ...]:
    """Word-order reversal of a non-empty word string (an involution)."""
    words = tuple(words)
    if not words:
        raise ValueError("cannot reverse an empty word string")
    return words[::-1]


def swap_all_halves(words, w: int) -> tuple[int, ...]:
    """Half-word swap applied to every word of a word string."""
    return tuple(swap_halves(word, w) for word in words)


def schedule_inverse(key_schedule, unit_schedule, w: int) -> tuple[int, ...]:
    """Word-wise quasi-group inversion of a key schedule.

    Entry k is the inverse of key_schedule[k] in the group whose unit is
    unit_schedule[k]; feeding the result back into boxdot_e undoes the
    original key word.
    """
    if len(key_schedule) != len(unit_schedule):
        raise ValueError("key and unit schedules must have equal length")
    return tuple(inv_e(k, e, w) for k, e in zip(key_schedule, unit_schedule))


def decrypt(block, key, tweak, unit_key, w: int) -> Block:
    """Invert ``encrypt`` for the same (key, tweak, unit key).

    Runs CRYPT forward on reordered inputs: the unit schedule word-reversed,
    the key schedule expanded from the word-reversed key and inverted
    word-wise against those units, and ciphertext/tweak in reverse half-word
    order.  The output, un-reordered the same way, is the plaintext.
    """
    y = check_block(block, w)
    z = check_key(key, w)
    t = check_tweak(tweak, w)
    u = check_unit_key(unit_key, w)

    units_r = reverse_words(unit_expand(u, w))
    keys_inv = schedule_inverse(key_expand(reverse_words(z), w), units_r, w)
    y_rs = swap_all_halves(reverse_words(y), w)
    t_rs = swap_all_halves(reverse_words(t), w)
    x_rs = crypt(y_rs, keys_inv, units_r, tweak_expand(t_rs, w), w)
    return swap_all_halves(reverse_words(x_rs), w)
