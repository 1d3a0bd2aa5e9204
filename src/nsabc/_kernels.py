"""The one fast block transform.

The 32 rounds are evaluated through their dependency graph in 20 steps.  The
graph is derived at import by running the cipher's round relation on XOR-sets
of symbols, so all widths share a single definition, and one evaluator walks
it for a single block of Python ints and for a batch of columns of the
width's word dtype (``cipher.word_dtype``) alike, which wrap at w bits
natively.  Block data is not the ``uint64`` arrays of ``nsabc.words``.
Decryption is the same walk on reordered words, and the batch kernel runs
either direction one tile of ``TILE_BLOCKS`` blocks at a time.
"""

from __future__ import annotations

from functools import cache, reduce
from operator import xor

import numpy as np

from .cipher import reverse_words, round_update, swap_all_halves

# Blocks per tile of the batch kernel and of the tweak rows (whose limbs need it below 2**32)
TILE_BLOCKS = 1 << 15


def resolve_backend() -> str:
    """Name of the batch kernel implementation; numpy is the only one."""
    return "numpy"


# ---------------------------------------------------------------------------
# the fast block transform
#
# One evaluator walks the round graph.  A word is a Python int (one block) or
# a column of the word dtype (that word of many blocks), and only operators
# that mean the same on both are used.  Shift and mask take the type of the
# schedule words (a Python int operand is slower on arrays) and are cached.


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

    x and t are ints or word-dtype columns; m0, m1, n0, n1 ints or scalars of that dtype.
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


def icrypt_words(y, t, m, n, w: int):
    """``crypt_words`` inverted, for an inverse schedule: the words reversed with halves
    swapped are encrypted, and the result, reordered alike, is the plaintext."""
    def rs(words):
        return swap_all_halves(reverse_words(words), w)

    return rs(crypt_words(rs(y), rs(t), m, n, w))


def crypt_batch(x, t, m, n, w: int, words=crypt_words) -> np.ndarray:
    """``words`` over an (nblocks, 4) array and tweak rows or one 4-word tweak, tile by tile, in one dtype."""
    m, n = list(np.array(m, dtype=x.dtype)), list(np.array(n, dtype=x.dtype))
    t = np.broadcast_to(t, x.shape)
    out = np.empty(x.shape, dtype=x.dtype)
    for start in range(0, x.shape[0], TILE_BLOCKS):
        tile = slice(start, start + TILE_BLOCKS)
        np.stack(words(list(x[tile].T), list(t[tile].T), m, n, w), axis=1, out=out[tile])
    return out
