"""Key, unit and tweak schedules.

A primary key Z is five words (z0 least significant), a tweak T four words,
a unit key U one word.  The paper derives each schedule with a tiny register
machine; ``*_expand`` returns the closed form of the words that machine taps:

  * key schedule   K[0..63]: (Z3, Z4, Z0, Z1, Z2) repeated, K[k] = Z[(k+3) mod 5]
  * tweak schedule C[0..31]: T repeated, C[k] = T[k mod 4]
  * unit schedule  L[0..63]: L[k] = U odot k = U + k(2U + 1)  (mod 2**w)

The register machines themselves run in the independent test oracle
(``tests/reference_oracle.py``), which every path is checked against.
"""

from __future__ import annotations

from .words import check_cipher_width, check_word, check_words

KEY_WORDS = 5
TWEAK_WORDS = 4
KEY_SCHEDULE_LEN = 64
UNIT_SCHEDULE_LEN = 64
TWEAK_SCHEDULE_LEN = 32


def check_key(z: tuple[int, ...] | list[int], w: int) -> tuple[int, ...]:
    """Validate a 5-word primary key (z0 least significant)."""
    check_cipher_width(w)
    return check_words(z, KEY_WORDS, w, "key", "z")


def check_tweak(t: tuple[int, ...] | list[int], w: int) -> tuple[int, ...]:
    """Validate a 4-word tweak (t0 least significant)."""
    check_cipher_width(w)
    return check_words(t, TWEAK_WORDS, w, "tweak", "t")


def check_unit_key(u: int, w: int) -> int:
    check_cipher_width(w)
    return check_word(u, w, "unit key")


def key_expand(z: tuple[int, ...], w: int) -> tuple[int, ...]:
    """64-word key schedule; equals (Z3, Z4, Z0, Z1, Z2) repeated."""
    z = check_key(z, w)
    return ((z[3:] + z[:3]) * 13)[:KEY_SCHEDULE_LEN]  # 13 repeats of 5 words cover 64


def tweak_expand(t: tuple[int, ...], w: int) -> tuple[int, ...]:
    """32-word tweak schedule; C[k] = T[k mod 4]."""
    t = check_tweak(t, w)
    return t * (TWEAK_SCHEDULE_LEN // TWEAK_WORDS)


def unit_expand(u: int, w: int) -> tuple[int, ...]:
    """64-word unit schedule; L[k] = U odot k = (2k+1)U + k mod 2**w."""
    u = check_unit_key(u, w)
    mask = (1 << w) - 1
    step = 2 * u + 1
    return tuple([v & mask for v in range(u, u + UNIT_SCHEDULE_LEN * step, step)])
