"""Optimized encryption path: precomputed affine schedules and the scalar and
batch entry points of the fast block transform.

For a fixed key word z and unit word e, the half-round ``x bd[e] z`` is the
affine map ``m*x + n`` with ``m = 2(z-e)+1`` (always odd) and
``n = (2e-1)(z-e)``.  Expanding the key and unit schedules once into the 64
(m, n) pairs turns every G-box evaluation into two multiply-adds plus the
swaps and the tweak XOR.

Because each round's G input is an XOR of plaintext words and earlier G
outputs, the 32 rounds form a dependency graph that can be evaluated in 20
steps, half of them running two or three independent G evaluations.  The
graph tables, ``affine_gbox`` and the one evaluator live in ``_kernels``; the
scalar functions here hand it Python ints and the batch functions uint64
arrays.  Key and unit key are validated by the schedule expansions they feed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .cipher import check_block
from .schedules import check_tweak, key_expand, unit_expand
from .words import check_cipher_width, mod_inverse


@dataclass(frozen=True)
class AffineSchedule:
    """Precomputed (m, n) pairs for the 64 half-rounds; every m is odd."""

    width: int
    m: tuple[int, ...]
    n: tuple[int, ...]

    def __post_init__(self):
        check_cipher_width(self.width)
        if len(self.m) != 64 or len(self.n) != 64:
            raise ValueError("affine schedule needs exactly 64 (m, n) pairs")
        if any(not mi & 1 for mi in self.m):
            raise ValueError("every affine multiplier must be odd")


def affine_expand(key, unit_key, w: int) -> AffineSchedule:
    """Expand key material straight into the affine half-round constants."""
    mask = (1 << w) - 1
    ks = key_expand(key, w)
    ls = unit_expand(unit_key, w)
    m = tuple((2 * (k - e) + 1) & mask for k, e in zip(ks, ls))
    n = tuple(((2 * e - 1) * (k - e)) & mask for k, e in zip(ks, ls))
    return AffineSchedule(w, m, n)


def crypt_fast(block, tweak, schedule: AffineSchedule):
    """Optimized-path equivalent of the reference 32-round transform."""
    w = schedule.width
    x, t = check_block(block, w), check_tweak(tweak, w)
    return tuple(_kernels.crypt_words(x, t, schedule.m, schedule.n, w))


def invert_affine(schedule: AffineSchedule) -> AffineSchedule:
    """Affine schedule of the inverse transform.

    The inverse of x -> m*x + n is x -> m'*x + n' with m' = m**-1 and
    n' = -n * m**-1; decryption consumes the half-rounds in reverse order,
    so entry k inverts entry 63-k.  A fresh schedule is returned, which makes
    the in-place aliasing hazard of overlapping inputs impossible.
    """
    w = schedule.width
    mask = (1 << w) - 1
    im = tuple(mod_inverse(schedule.m[63 - k], w) for k in range(64))
    inn = tuple((-schedule.n[63 - k] * im[k]) & mask for k in range(64))
    return AffineSchedule(w, im, inn)


def icrypt_fast(block, tweak, inverse_schedule: AffineSchedule):
    """Decrypt via the forward fast path on reordered inputs.

    ``inverse_schedule`` must come from ``invert_affine`` of the schedule the
    block was encrypted under.
    """
    w = inverse_schedule.width
    y_rs = _kernels.reversed_swapped(check_block(block, w), w)
    t_rs = _kernels.reversed_swapped(check_tweak(tweak, w), w)
    x_rs = _kernels.crypt_words(y_rs, t_rs, inverse_schedule.m, inverse_schedule.n, w)
    return tuple(_kernels.reversed_swapped(x_rs, w))


# ---------------------------------------------------------------------------
# batch entry points (hot path)


def _words(values, w: int, what: str) -> np.ndarray:
    """``values`` as a uint64 array, rejecting anything but w-bit integer words."""
    # Sequences go through an object array: numpy would turn Python ints
    # >= 2**63 into floats, and the check must see the exact values.
    arr = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    top = 1 << w
    if arr.dtype == object:
        ok = all(isinstance(v, (int, np.integer)) and 0 <= v < top for v in arr.flat)
    else:
        ok = arr.dtype.kind in "iu" and (arr.size == 0 or (int(arr.min()) >= 0 and int(arr.max()) < top))
    if not ok:
        raise ValueError(f"{what} must be integers in [0, 2**{w})")
    return arr.astype(np.uint64, copy=False)


def _as_block_array(blocks, w: int) -> np.ndarray:
    arr = _words(blocks, w, "block words")
    if arr.shape in ((4,), (0,)):
        arr = arr.reshape(-1, 4)  # one block, or an empty sequence
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError(f"expected an (nblocks, 4) array of words, got shape {arr.shape}")
    return arr


def _as_tweak_array(tweaks, nblocks: int, w: int) -> np.ndarray:
    arr = _words(tweaks, w, "tweak words")
    if arr.shape not in ((4,), (nblocks, 4)):
        raise ValueError(f"expected one 4-word tweak or tweak rows of shape ({nblocks}, 4), got {arr.shape}")
    return arr


def crypt_fast_batch(blocks, tweaks, schedule: AffineSchedule) -> np.ndarray:
    """Encrypt many blocks under one schedule; tweaks may vary per block.

    ``blocks`` is an (nblocks, 4) array of words (or anything convertible),
    ``tweaks`` either one 4-word tweak or an (nblocks, 4) array.  Every word
    must be an integer in [0, 2**w).  Returns the ciphertext words as an
    (nblocks, 4) uint64 array.
    """
    w = schedule.width
    x = _as_block_array(blocks, w)
    t = _as_tweak_array(tweaks, x.shape[0], w)
    return _kernels.crypt_batch(x, t, schedule.m, schedule.n, w)


def icrypt_fast_batch(blocks, tweaks, inverse_schedule: AffineSchedule) -> np.ndarray:
    """Decrypt many blocks; the batch counterpart of ``icrypt_fast``."""
    w = inverse_schedule.width
    y = _as_block_array(blocks, w)
    t = _as_tweak_array(tweaks, y.shape[0], w)
    y_rs, t_rs = _kernels.reversed_swapped(y, w), _kernels.reversed_swapped(t, w)
    x_rs = _kernels.crypt_batch(y_rs, t_rs, inverse_schedule.m, inverse_schedule.n, w)
    return _kernels.reversed_swapped(x_rs, w)
