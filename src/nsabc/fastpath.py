"""Optimized encryption path: precomputed affine schedules and the scalar and
batch entry points of the fast block transform.

For a fixed key word z and unit word e, the half-round ``x bd[e] z`` is the
affine map ``m*x + n`` with ``m = 2(z-e)+1`` (always odd) and
``n = (2e-1)(z-e)``.  Expanding the key and unit schedules once into the 64
(m, n) pairs turns every G-box evaluation into two multiply-adds plus the
swaps and the tweak XOR.

The 32-round register loop lives in ``_kernels``.  Every entry point here
hands it checked blocks and the schedule, from which it reads the form it
runs on.  The scalar functions call ``_kernels.crypt_words`` /
``icrypt_words``, which run one block of Python ints on the int words m and
n; the batch functions call ``_kernels.crypt_batch``, which runs their
blocks tile by tile on words of ``cipher.word_dtype``, under one checked
tweak, handed to it as a 4w-bit int with step 0 (``tweakstream`` hands it
the first tweak of a run and its step).

An ``AffineSchedule`` holds its m and n as tuples of ints and once more as
read-only arrays of that dtype, and no transform writes to it.
``affine_expand`` and ``invert_affine`` derive those arrays with word-dtype
arithmetic, whose wrap does every reduction; their words are not scanned
again, while a schedule built by hand is checked word by word.
Key and unit key are validated by the schedule expansions they feed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .cipher import block_to_int, check_block, word_dtype
from .schedules import check_tweak, key_expand, unit_expand
from .words import check_cipher_width, check_word, mod_inverse


@dataclass(frozen=True)
class AffineSchedule:
    """Precomputed (m, n) pairs for the 64 half-rounds; every m is odd.

    The scalar path runs on the int tuples m and n.  ``arrays`` holds them once
    more, as read-only arrays of the word dtype, which the numpy tiles read.
    The pairs give away the key and unit words, so ``repr`` leaves them out.
    """

    width: int
    m: tuple[int, ...] = field(repr=False)
    n: tuple[int, ...] = field(repr=False)
    arrays: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # stored as tuples, so the checked words cannot change and the schedule hashes
        object.__setattr__(self, "m", tuple(self.m))
        object.__setattr__(self, "n", tuple(self.n))
        check_cipher_width(self.width)
        if len(self.m) != 64 or len(self.n) != 64:
            raise ValueError("affine schedule needs exactly 64 (m, n) pairs")
        for word in (*self.m, *self.n):
            check_word(word, self.width, "affine schedule word")
        if any(not mi & 1 for mi in self.m):
            raise ValueError("every affine multiplier must be odd")
        dtype = word_dtype(self.width)
        self._hold(np.array(self.m, dtype), np.array(self.n, dtype))

    @classmethod
    def _derived(cls, w: int, m: np.ndarray, n: np.ndarray) -> AffineSchedule:
        """The schedule of 64 word-dtype words m (all odd) and n derived from checked key material.

        Their dtype holds only words and the derivation makes every m odd, so the
        checks of ``__post_init__`` would find nothing and are not run.
        """
        schedule = object.__new__(cls)
        for name, value in (("width", w), ("m", tuple(m.tolist())), ("n", tuple(n.tolist()))):
            object.__setattr__(schedule, name, value)
        schedule._hold(m, n)
        return schedule

    def _hold(self, m: np.ndarray, n: np.ndarray) -> None:
        m.setflags(write=False)
        n.setflags(write=False)
        object.__setattr__(self, "arrays", (m, n))


def affine_expand(key, unit_key, w: int) -> AffineSchedule:
    """Expand key material straight into the affine half-round constants.

    ``key_expand`` and ``unit_expand`` check the key and unit key; m and n are
    then word-dtype array arithmetic, whose wrap at w bits does every reduction.
    """
    dtype = word_dtype(w)
    k = np.array(key_expand(key, w), dtype)
    e = np.array(unit_expand(unit_key, w), dtype)
    d = k - e
    return AffineSchedule._derived(w, d * 2 + 1, (e * 2 - 1) * d)


def crypt_fast(block, tweak, schedule: AffineSchedule):
    """Optimized-path equivalent of the reference 32-round transform."""
    w = schedule.width
    x, t = check_block(block, w), check_tweak(tweak, w)
    return _kernels.crypt_words(x, t, schedule)


def invert_affine(schedule: AffineSchedule) -> AffineSchedule:
    """Affine schedule of the inverse transform.

    The inverse of x -> m*x + n is x -> m'*x + n' with m' = m**-1 and
    n' = -n * m**-1; decryption consumes the half-rounds in reverse order,
    so entry k inverts entry 63-k.  A fresh schedule is returned, which makes
    the in-place aliasing hazard of overlapping inputs impossible.
    """
    m, n = (a[::-1] for a in schedule.arrays)
    im = mod_inverse(m, schedule.width)
    return AffineSchedule._derived(schedule.width, im, -n * im)


def icrypt_fast(block, tweak, inverse_schedule: AffineSchedule):
    """Decrypt with the fast register loop on the words reversed (``_kernels.icrypt_words``).

    ``inverse_schedule`` must come from ``invert_affine`` of the schedule the
    block was encrypted under.
    """
    w = inverse_schedule.width
    y, t = check_block(block, w), check_tweak(tweak, w)
    return _kernels.icrypt_words(y, t, inverse_schedule)


# ---------------------------------------------------------------------------
# batch entry points (hot path)


def _words(values, w: int, what: str) -> np.ndarray:
    """``values`` as an array of the word dtype, rejecting anything but w-bit integer words."""
    # Sequences go through an object array: numpy would turn Python ints
    # >= 2**63 into floats, and the check must see the exact values.
    arr = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    top = 1 << w
    if arr.dtype == object:
        # an exact int as ``words.check_word`` asks (no bool or IntEnum), or a numpy integer
        ok = all((type(v) is int or isinstance(v, np.integer)) and 0 <= v < top for v in arr.flat)
    elif arr.dtype.kind == "u" and arr.dtype.itemsize * 8 <= w:
        ok = True  # holds only words, so there is nothing to scan for
    else:
        ok = arr.dtype.kind in "iu" and (arr.size == 0 or (int(arr.min()) >= 0 and int(arr.max()) < top))
    if not ok:
        raise ValueError(f"{what} must be integers in [0, 2**{w})")
    return arr.astype(word_dtype(w), copy=False)


def _as_block_array(blocks, w: int) -> np.ndarray:
    arr = _words(blocks, w, "block words")
    if arr.shape in ((4,), (0,)):
        arr = arr.reshape(-1, 4)  # one block, or an empty sequence
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError(f"expected an (nblocks, 4) array of words, got shape {arr.shape}")
    return arr


def _one_tweak(tweak, w: int) -> int:
    """One checked 4-word tweak as the 4w-bit int ``_kernels.crypt_batch`` takes."""
    arr = _words(tweak, w, "tweak words")
    if arr.shape != (4,):
        raise ValueError(f"expected one 4-word tweak, got shape {arr.shape}")
    return block_to_int(arr.tolist(), w)


def crypt_fast_batch(blocks, tweak, schedule: AffineSchedule) -> np.ndarray:
    """Encrypt many blocks under one schedule and one tweak.

    ``blocks`` is an (nblocks, 4) array of words (or anything convertible),
    ``tweak`` 4 words; tweak rows raise ValueError.
    Every word must be an integer in [0, 2**w).  Neither is written.
    Returns the ciphertext words as an (nblocks, 4) array of the width's word dtype.
    """
    w = schedule.width
    x = _as_block_array(blocks, w)
    return _kernels.crypt_batch(x, _one_tweak(tweak, w), 0, schedule)


def icrypt_fast_batch(blocks, tweak, inverse_schedule: AffineSchedule) -> np.ndarray:
    """Decrypt many blocks; the batch counterpart of ``icrypt_fast``."""
    w = inverse_schedule.width
    y = _as_block_array(blocks, w)
    return _kernels.crypt_batch(y, _one_tweak(tweak, w), 0, inverse_schedule, _kernels.icrypt_tile)
