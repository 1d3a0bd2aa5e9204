"""Optimized encryption path: precomputed affine schedules and the unrolled
round dependency graph.

For a fixed key word z and unit word e, the half-round ``x bd[e] z`` is the
affine map ``m*x + n`` with ``m = 2(z-e)+1`` (always odd) and
``n = (2e-1)(z-e)``.  Expanding the key and unit schedules once into the 64
(m, n) pairs turns every G-box evaluation into two multiply-adds plus the
swaps and the tweak XOR.

Because each round's G input is an XOR of plaintext words and earlier G
outputs, the 32 rounds form a dependency graph that can be evaluated in 20
steps, half of them running two or three independent G evaluations.  The
graph is derived at import by running the cipher's round relation on XOR-sets
of symbols - per round the contributing plaintext words and earlier rounds,
the step grouping, and the XOR combinations assembling the ciphertext words -
so all widths share a single definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import xor

import numpy as np

from . import _kernels
from .cipher import check_block, reverse_words, round_update, swap_all_halves
from .schedules import check_key, check_tweak, check_unit_key, key_expand, unit_expand
from .words import check_cipher_width, mod_inverse, swap_halves


def _derive_round_graph():
    """Run ``round_update`` over symbols ("x", i) and ("g", k) for 32 rounds.

    Each register holds the set of symbols XORed into it: plaintext word i or
    the G output of round k.  Round k's G input is register x0 at its start.
    A round's step is one past the latest step among the rounds it reads.
    """
    regs = tuple(frozenset({("x", i)}) for i in range(4))
    text_terms, g_terms, level = [], [], []
    for k in range(32):
        text_terms.append(tuple(sorted(i for kind, i in regs[0] if kind == "x")))
        g_terms.append(tuple(sorted(j for kind, j in regs[0] if kind == "g")))
        level.append(1 + max((level[j] for j in g_terms[k]), default=-1))
        regs = round_update(*regs, frozenset({("g", k)}), k)
    assert all(kind == "g" for reg in regs for kind, _ in reg), "ciphertext must not hold plaintext terms"
    out_terms = tuple(tuple(sorted(j for _, j in reg)) for reg in regs)
    steps = tuple(tuple(k for k in range(32) if level[k] == s) for s in range(max(level) + 1))
    return tuple(text_terms), tuple(g_terms), steps, out_terms


# ROUND_TEXT_TERMS[k] / ROUND_G_TERMS[k]: plaintext words / earlier rounds whose
# G outputs XOR together into round k's G input.  PARALLEL_STEPS: the rounds
# grouped into evaluation steps; every round in a step depends only on rounds
# from earlier steps, so the members of a step are independent.
# OUTPUT_G_TERMS[i]: the rounds whose G outputs XOR into ciphertext word i.
ROUND_TEXT_TERMS, ROUND_G_TERMS, PARALLEL_STEPS, OUTPUT_G_TERMS = _derive_round_graph()


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

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.array(self.m, dtype=np.uint64), np.array(self.n, dtype=np.uint64))


def affine_expand(key, unit_key, w: int) -> AffineSchedule:
    """Expand key material straight into the affine half-round constants."""
    z = check_key(key, w)
    u = check_unit_key(unit_key, w)
    mask = (1 << w) - 1
    ks = key_expand(z, w)
    ls = unit_expand(u, w)
    m = tuple((2 * (k - e) + 1) & mask for k, e in zip(ks, ls))
    n = tuple(((2 * e - 1) * (k - e)) & mask for k, e in zip(ks, ls))
    return AffineSchedule(w, m, n)


def affine_gbox(x: int, t: int, m0: int, m1: int, n0: int, n1: int, w: int) -> int:
    """G-box in affine form; equals gbox under the (m, n) correspondence."""
    mask = (1 << w) - 1
    x = swap_halves((x * m0 + n0) & mask, w) ^ t
    return swap_halves((x * m1 + n1) & mask, w)


def _fast_g_values(block, tweak, schedule: AffineSchedule) -> list[int]:
    """Evaluate all 32 G outputs following the 20-step grouping."""
    w = schedule.width
    m, n = schedule.m, schedule.n
    g = [0] * 32
    for step in PARALLEL_STEPS:
        # members of one step are mutually independent G evaluations
        for k in step:
            acc = 0
            for i in ROUND_TEXT_TERMS[k]:
                acc ^= block[i]
            for j in ROUND_G_TERMS[k]:
                acc ^= g[j]
            g[k] = affine_gbox(acc, tweak[k & 3], m[2 * k], m[2 * k + 1], n[2 * k], n[2 * k + 1], w)
    return g


def crypt_fast(block, tweak, schedule: AffineSchedule):
    """Optimized-path equivalent of the reference 32-round transform."""
    w = schedule.width
    g = _fast_g_values(check_block(block, w), check_tweak(tweak, w), schedule)
    return tuple(reduce(xor, [g[j] for j in terms]) for terms in OUTPUT_G_TERMS)


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
    y = check_block(block, w)
    t = check_tweak(tweak, w)
    y_rs = swap_all_halves(reverse_words(y), w)
    t_rs = swap_all_halves(reverse_words(t), w)
    x_rs = crypt_fast(y_rs, t_rs, inverse_schedule)
    return swap_all_halves(reverse_words(x_rs), w)


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
    if arr.shape == (4,):
        arr = arr.reshape(1, 4)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError(f"expected an (nblocks, 4) array of words, got shape {arr.shape}")
    return arr


def _tweak_rows(tweaks, nblocks: int, w: int) -> np.ndarray:
    arr = _words(tweaks, w, "tweak words")
    if arr.shape == (4,):
        arr = np.broadcast_to(arr, (nblocks, 4))
    if arr.shape != (nblocks, 4):
        raise ValueError(f"expected tweak rows of shape ({nblocks}, 4), got {arr.shape}")
    return arr


def _crypt_batch(x, t, schedule: AffineSchedule) -> np.ndarray:
    return _kernels.crypt_batch(x, t, *schedule.as_arrays(), ROUND_TEXT_TERMS, ROUND_G_TERMS,
                                OUTPUT_G_TERMS, schedule.width)


def crypt_fast_batch(blocks, tweaks, schedule: AffineSchedule) -> np.ndarray:
    """Encrypt many blocks under one schedule; tweaks may vary per block.

    ``blocks`` is an (nblocks, 4) array of words (or anything convertible),
    ``tweaks`` either one 4-word tweak or an (nblocks, 4) array.  Every word
    must be an integer in [0, 2**w).  Returns the ciphertext words as an
    (nblocks, 4) uint64 array.
    """
    w = schedule.width
    x = _as_block_array(blocks, w)
    return _crypt_batch(x, _tweak_rows(tweaks, x.shape[0], w), schedule)


def icrypt_fast_batch(blocks, tweaks, inverse_schedule: AffineSchedule) -> np.ndarray:
    """Decrypt many blocks; the batch counterpart of ``icrypt_fast``."""
    w = inverse_schedule.width
    y = _as_block_array(blocks, w)
    t = _tweak_rows(tweaks, y.shape[0], w)
    half = np.uint64(w >> 1)
    msk = np.uint64((1 << w) - 1)

    def rs(a):
        rev = a[:, ::-1]
        return (((rev << half) | (rev >> half)) & msk)

    x_rs = _crypt_batch(np.ascontiguousarray(rs(y)), np.ascontiguousarray(rs(t)), inverse_schedule)
    return np.ascontiguousarray(rs(x_rs))
