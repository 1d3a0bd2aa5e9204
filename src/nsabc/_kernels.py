"""Vectorized numpy word algebra and the one fast block transform.

The word algebra works on ``uint64`` arrays regardless of the cipher width:
values are kept masked to w bits and every operation is a ring operation, so
doing the arithmetic mod 2**64 and masking afterwards is exact for every
supported width (and at w=64 the masking is the native wraparound itself).

The block transform evaluates the 32 rounds through their dependency graph in
20 steps.  The graph is derived at import by running the cipher's round
relation on XOR-sets of symbols, so all widths share a single definition, and
one evaluator walks it for a single block of Python ints and for a batch of
uint64 columns alike.
"""

from __future__ import annotations

from functools import cache, reduce
from operator import xor

import numpy as np

from .cipher import round_update


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


# ---------------------------------------------------------------------------
# the fast block transform
#
# One evaluator walks the round graph.  A word is a Python int (one block) or
# a uint64 column (that word of many blocks), and only operators that mean the
# same on both are used.  Shift and mask take the type of the schedule words,
# as a Python int operand is slower on arrays and, before NEP 50, turned
# np.uint64 scalars into floats; they are cached, as np.uint64() is slow too.


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


@cache
def _half_mask(word, w: int):
    return word(w >> 1), word((1 << w) - 1)


def affine_gbox(x, t, m0, m1, n0, n1, w: int):
    """G-box in affine form; equals gbox under the (m, n) correspondence.

    x and t are ints or uint64 arrays; m0, m1, n0, n1 are ints or np.uint64.
    """
    half, mask = _half_mask(type(m0), w)
    x = (x * m0 + n0) & mask
    x = (((x << half) | (x >> half)) & mask) ^ t
    x = (x * m1 + n1) & mask
    return ((x << half) | (x >> half)) & mask


def g_values(x, t, m, n, w: int) -> list:
    """All 32 G outputs for block words x, tweak words t and affine constants m, n."""
    zero = type(m[0])(0)
    g = [None] * 32
    for step in PARALLEL_STEPS:
        # members of one step are mutually independent G evaluations
        for k in step:
            acc = zero  # a scalar, so the first ^= makes a fresh word and x, g are never written
            for i in ROUND_TEXT_TERMS[k]:
                acc ^= x[i]
            for j in ROUND_G_TERMS[k]:
                acc ^= g[j]
            g[k] = affine_gbox(acc, t[k & 3], m[2 * k], m[2 * k + 1], n[2 * k], n[2 * k + 1], w)
    return g


def crypt_words(x, t, m, n, w: int) -> list:
    """The 32-round transform of the 4 words x under the 4 tweak words t."""
    g = g_values(x, t, m, n, w)
    return [reduce(xor, [g[j] for j in terms]) for terms in OUTPUT_G_TERMS]


def reversed_swapped(words, w: int):
    """Words reversed with halves swapped, the reordering under which decryption is encryption.

    ``words`` is a sequence of 4 ints, giving a list, or a uint64 array whose
    last axis holds the 4 words, giving an array of the same shape.
    """
    if isinstance(words, np.ndarray):
        half, mask = _half_mask(np.uint64, w)
        v = words[..., ::-1]
        return ((v << half) | (v >> half)) & mask
    half, mask = _half_mask(int, w)
    return [((v << half) | (v >> half)) & mask for v in reversed(words)]


def crypt_batch(x, t, m, n, w: int) -> np.ndarray:
    """Transform an (nblocks, 4) array under (nblocks, 4) tweaks or one 4-word tweak."""
    m, n = list(np.array(m, dtype=np.uint64)), list(np.array(n, dtype=np.uint64))
    return np.stack(crypt_words(list(x.T), list(t.T), m, n, w), axis=1)
