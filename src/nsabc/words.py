"""Word-level modular arithmetic and the quasi-group operations of the cipher.

Everything here operates on unsigned words of an explicit even bit width
``w``.  Additive/multiplicative operations are reduced mod 2**w and bit
operations act on w bits.

One definition serves single words and many words at once, here and in
``cipher.gbox``.  In one call, either every operand is a Python int, or every
operand is an unsigned numpy array of one dtype at least w bits wide, with at
least one dimension (arrays broadcast): ``cipher.word_dtype(w)``, which the
library passes, or ``uint64``, which also serves the widths below 16.  Only
ring operations, masks and right shifts of masked values are used, so the
dtype's wrap followed by the w-bit mask is exact.  Mixing the two kinds gives
the exact result or numpy's ``OverflowError`` (say, when ``1 - 2*e`` is
negative): lift an int to a 1-element array instead.  0-d arrays and numpy
scalars are not allowed: numpy warns when their arithmetic wraps.

A word of key material, a block or a tweak is an exact int in [0, 2**w)
(``check_word``, N at a time ``check_words``); ``split_words`` alone turns a
wide int into words, least significant first.

The two core operations are

    odot(x, y)   = 2xy + x + y   (mod 2**w)
    boxdot(x, y) = 2xy + x - y   (mod 2**w)

``odot`` is a commutative group operation with unit 0 (it is multiplication of
odd numbers mod 2**(w+1) transported through x -> 2x+1).  ``boxdot`` is a
quasi-group operation with right unit 0.  Both extend to families with an
arbitrary unit word ``e`` (``odot_e`` / ``boxdot_e``); the cipher's rounds use
one ``boxdot_e`` instance per half-round.

Width 2..64 (even) is accepted here so small widths stay available for
exhaustive property checks; the cipher layer restricts itself to 16/32/64.
"""

from __future__ import annotations

import numpy as np

# widths the block cipher itself is instantiated at
CIPHER_WIDTHS = (16, 32, 64)


def check_cipher_width(w: int) -> int:
    """Validate a word width for cipher instantiation (16, 32 or 64)."""
    if w not in CIPHER_WIDTHS:
        raise ValueError(f"cipher word width must be one of {CIPHER_WIDTHS}, got {w!r}")
    return w


def word_mask(w: int) -> int:
    return (1 << w) - 1


def check_word(x: int, w: int, name: str = "word") -> int:
    """x if it is an int in [0, 2**w); an int subclass such as bool, which
    Python counts as 0 or 1, or an ``enum.IntEnum`` member, is not a word."""
    if type(x) is not int or x < 0 or x > word_mask(w):
        # the message never quotes the value: key and unit-key words are key material
        raise ValueError(f"{name} must be an integer in [0, 2**{w})")
    return x


def check_words(values, count: int, w: int, what: str, letter: str) -> tuple[int, ...]:
    """``values`` as a tuple of exactly ``count`` words; word i is named "{what} word {letter}{i}"."""
    values = tuple(values)
    if len(values) != count:
        raise ValueError(f"{what} must be exactly {count} words, got {len(values)}")
    for i, x in enumerate(values):
        check_word(x, w, f"{what} word {letter}{i}")
    return values


def split_words(value: int, count: int, w: int) -> tuple[int, ...]:
    """The low ``count`` w-bit words of the int ``value``, least significant first."""
    mask = word_mask(w)
    return tuple([(value >> (i * w)) & mask for i in range(count)])


def odot(x: int, y: int, w: int) -> int:
    """Group operation 2xy + x + y mod 2**w (unit 0)."""
    return (2 * x * y + x + y) & ((1 << w) - 1)


def boxdot(x: int, y: int, w: int) -> int:
    """Quasi-group operation 2xy + x - y mod 2**w (right unit 0)."""
    return (2 * x * y + x - y) & ((1 << w) - 1)


def newton_steps(w: int) -> int:
    """Iterations needed by mod_inverse: the start value is exact mod 2**5 and
    every step doubles the number of correct low bits."""
    return ((w - 1) // 5).bit_length()


def mod_inverse(x: int, w: int) -> int:
    """Multiplicative inverse of odd x mod 2**w by Newton-Hensel lifting.

    Starts from y = (3*x) xor 2, exact mod 2**5 for odd x, and applies
    y <- y*(2 - x*y), which doubles the correct bit count each time.  Even x
    has no inverse and is rejected rather than silently mis-inverted:
    decryption depends on it.  An array is rejected if any element is even.
    """
    if not (np.all(x & 1) if isinstance(x, np.ndarray) else x & 1):
        raise ValueError(f"no inverse mod 2**{w} for an even value")
    mask = (1 << w) - 1
    y = ((3 * x) ^ 2) & mask
    for _ in range(newton_steps(w)):
        y = (y * (2 - x * y)) & mask
    return y


def odot_inverse(x: int, w: int) -> int:
    """Inverse of x in the odot group: -x * (2x+1)**-1 mod 2**w."""
    mask = (1 << w) - 1
    return (-x * mod_inverse((2 * x + 1) & mask, w)) & mask


def odot_e(x: int, y: int, e: int, w: int) -> int:
    """Member of the odot family with unit e: (x-e) odot (y-e) + e."""
    return (2 * x * y + (1 - 2 * e) * (x + y - e)) & ((1 << w) - 1)


def boxdot_e(x: int, y: int, e: int, w: int) -> int:
    """Member of the boxdot family with right unit e: (x+e) boxdot (y-e) - e."""
    return (2 * x * y + (1 - 2 * e) * (x - y + e)) & ((1 << w) - 1)


def inv_e(x: int, e: int, w: int) -> int:
    """Inverse of x in the unit-e group; right inverse w.r.t. boxdot_e."""
    mask = (1 << w) - 1
    return (odot_inverse((x - e) & mask, w) + e) & mask


def swap_halves(x: int, w: int) -> int:
    """Rotate by w/2, i.e. exchange the high and low order halves."""
    h = w >> 1
    half = (1 << h) - 1
    return ((x & half) << h) | ((x >> h) & half)
