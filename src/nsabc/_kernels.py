"""Vectorized numpy kernels: the word algebra and the batch block transform.

All kernels work on ``uint64`` arrays regardless of the cipher width: values
are kept masked to w bits and every operation is a ring operation, so doing
the arithmetic mod 2**64 and masking afterwards is exact for every supported
width (and at w=64 the masking is the native wraparound itself).
"""

from __future__ import annotations

import numpy as np


def resolve_backend() -> str:
    """Name of the batch kernel implementation; numpy is the only one."""
    return "numpy"


def _u64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.uint64)


def _wrapping():
    # Wraparound mod 2**64 is the intended semantics of every kernel, but
    # numpy warns when it occurs on 0-d (scalar-like) operands; silence that.
    return np.errstate(over="ignore")


def v_mask(w: int) -> np.uint64:
    return np.uint64((1 << w) - 1)


# ---------------------------------------------------------------------------
# vectorized word algebra (numpy; used by analysis and the exhaustive sweeps)

_ONE = np.uint64(1)
_TWO = np.uint64(2)


def v_swap_halves(x, w: int):
    half = np.uint64(w >> 1)
    msk = v_mask(w)
    x = _u64(x) & msk
    return ((x << half) | (x >> half)) & msk


def v_odot(x, y, w: int):
    x, y = _u64(x), _u64(y)
    with _wrapping():
        return (_TWO * x * y + x + y) & v_mask(w)


def v_boxdot(x, y, w: int):
    x, y = _u64(x), _u64(y)
    with _wrapping():
        return (_TWO * x * y + x - y) & v_mask(w)


def v_odot_e(x, y, e, w: int):
    x, y, e = _u64(x), _u64(y), _u64(e)
    with _wrapping():
        return (_TWO * x * y + (_ONE - _TWO * e) * (x + y - e)) & v_mask(w)


def v_boxdot_e(x, y, e, w: int):
    x, y, e = _u64(x), _u64(y), _u64(e)
    with _wrapping():
        return (_TWO * x * y + (_ONE - _TWO * e) * (x - y + e)) & v_mask(w)


def v_mod_inverse(x, w: int):
    """Newton-Hensel inverse of odd x; callers guarantee oddness."""
    msk = v_mask(w)
    x = _u64(x)
    with _wrapping():
        y = (_TWO - x) & msk
        for _ in range((w - 1).bit_length() - 1):
            y = (y * (_TWO - x * y)) & msk
    return y


def v_odot_inverse(x, w: int):
    x = _u64(x)
    msk = v_mask(w)
    with _wrapping():
        return (-x * v_mod_inverse((_TWO * x + _ONE) & msk, w)) & msk


def v_inv_e(x, e, w: int):
    x, e = _u64(x), _u64(e)
    msk = v_mask(w)
    with _wrapping():
        return (v_odot_inverse((x - e) & msk, w) + e) & msk


def v_gbox(x, k0, k1, l0, l1, c0, w: int):
    """G-box over an array of text words with broadcastable parameters."""
    x = v_swap_halves(v_boxdot_e(x, k0, l0, w), w)
    x = x ^ _u64(c0)
    return v_swap_halves(v_boxdot_e(x, k1, l1, w), w)


def v_affine_gbox(x, t, m0, m1, n0, n1, w: int):
    """Affine form of the G-box: each half-round is one multiply and one add."""
    msk = v_mask(w)
    with _wrapping():
        x = (_u64(x) * _u64(m0) + _u64(n0)) & msk
        x = v_swap_halves(x, w) ^ _u64(t)
        x = (x * _u64(m1) + _u64(n1)) & msk
    return v_swap_halves(x, w)


# ---------------------------------------------------------------------------
# batch block transform
#
# x: (nblocks, 4) uint64, t: (nblocks, 4) uint64, m/n: (64,) uint64.
# text_terms[k] and g_terms[k] give the plaintext words and the earlier G
# outputs that XOR together into round k's G input; out_terms[i] gives the G
# outputs assembled into ciphertext word i.  Rounds only ever depend on
# lower-numbered rounds, so evaluating k = 0..31 in order is a valid
# topological order of the dependency graph.


def crypt_batch(x, t, m, n, text_terms, g_terms, out_terms, w: int) -> np.ndarray:
    """Run the 32-round transform over a batch of blocks; returns (nblocks, 4)."""
    x = np.ascontiguousarray(x, dtype=np.uint64)
    t = np.ascontiguousarray(t, dtype=np.uint64)
    m = np.ascontiguousarray(m, dtype=np.uint64)
    n = np.ascontiguousarray(n, dtype=np.uint64)
    half = np.uint64(w >> 1)
    msk = v_mask(w)
    # XORs accumulate in place into preallocated buffers: fresh temporaries
    # per XOR raise the process's peak memory on large batches
    g = np.empty((32, x.shape[0]), dtype=np.uint64)
    acc = np.empty(x.shape[0], dtype=np.uint64)
    for k in range(32):
        terms = [x[:, i] for i in text_terms[k]] + [g[j] for j in g_terms[k]]
        np.copyto(acc, terms[0])
        for term in terms[1:]:
            acc ^= term
        v = (acc * m[2 * k] + n[2 * k]) & msk
        v = ((v << half) | (v >> half)) & msk
        v ^= t[:, k & 3]
        v = (v * m[2 * k + 1] + n[2 * k + 1]) & msk
        g[k] = ((v << half) | (v >> half)) & msk
    y = np.zeros((x.shape[0], 4), dtype=np.uint64)
    for i, terms in enumerate(out_terms):
        for j in terms:
            y[:, i] ^= g[j]
    return y
