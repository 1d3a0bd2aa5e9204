"""Word-level modular arithmetic and the quasi-group operations of the cipher.

Everything here operates on plain Python ints interpreted as unsigned words of
an explicit even bit width ``w``.  Additive/multiplicative operations are
reduced mod 2**w, bit operations act on w bits, rotation is cyclic on w bits.

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

MIN_WIDTH = 2
MAX_WIDTH = 64

# widths the block cipher itself is instantiated at
CIPHER_WIDTHS = (16, 32, 64)


def check_width(w: int) -> int:
    """Validate a word width for the algebra layer (any even 2..64)."""
    if not isinstance(w, int) or w < MIN_WIDTH or w > MAX_WIDTH or w % 2:
        raise ValueError(f"word width must be an even integer in [2, 64], got {w!r}")
    return w


def check_cipher_width(w: int) -> int:
    """Validate a word width for cipher instantiation (16, 32 or 64)."""
    if w not in CIPHER_WIDTHS:
        raise ValueError(f"cipher word width must be one of {CIPHER_WIDTHS}, got {w!r}")
    return w


def word_mask(w: int) -> int:
    return (1 << w) - 1


def check_word(x: int, w: int, name: str = "word") -> int:
    if not isinstance(x, int) or x < 0 or x > word_mask(w):
        # the message never quotes the value: key and unit-key words are key material
        raise ValueError(f"{name} must be an integer in [0, 2**{w})")
    return x


def odot(x: int, y: int, w: int) -> int:
    """Group operation 2xy + x + y mod 2**w (unit 0)."""
    return (2 * x * y + x + y) & ((1 << w) - 1)


def boxdot(x: int, y: int, w: int) -> int:
    """Quasi-group operation 2xy + x - y mod 2**w (right unit 0)."""
    return (2 * x * y + x - y) & ((1 << w) - 1)


def newton_steps(w: int) -> int:
    """Iterations needed by mod_inverse: the start value is exact mod 4 and
    every step doubles the number of correct low bits."""
    return (w - 1).bit_length() - 1


def mod_inverse(x: int, w: int) -> int:
    """Multiplicative inverse of odd x mod 2**w by Newton-Hensel lifting.

    Starts from y = 2 - x (exact mod 4) and applies y <- y*(2 - x*y), which
    doubles the correct bit count each time.  Even x has no inverse and is
    rejected rather than silently mis-inverted: decryption depends on it.
    """
    if not x & 1:
        raise ValueError(f"no inverse mod 2**{w} for even value {x!r}")
    mask = (1 << w) - 1
    y = (2 - x) & mask
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
    mask = (1 << w) - 1
    x &= mask
    return ((x << h) | (x >> h)) & mask
