"""Structural property checks for the G-box and the full cipher.

The exhaustive G-box checks run at w=16 where the whole 2**16 input space is
swept per sampled parameter set:

  * bijectivity of x -> G(x, ...) and of K0 -> G(...) with everything else
    fixed (the G-box permutes its first key word, not just the text word);
  * the incomplete-diffusion bound: flipping input bit v, w/2 < v < w, can
    affect the low half and bits v..w-1 of the output but never bits
    w/2..v-1;
  * the identity case (K0,K1) = (L0,L1) and C0 = 0, where G collapses to the
    identity map.

The avalanche estimator Monte-Carlos the full cipher: per sample it draws
fresh key material and a base block, then flips each plaintext bit in turn
and accumulates, for every (input bit, output bit) pair, how often the output
bit flips.  For a well-mixing permutation every cell should sit near 1/2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .cipher import gbox, word_dtype
from .fastpath import affine_expand, crypt_fast_batch

AVALANCHE_LOW, AVALANCHE_HIGH = 0.45, 0.55
#: below this sample count a cell outside the band is noise, not a finding
AVALANCHE_FLAG_MIN_SAMPLES = 10_000


@dataclass
class AnalysisReport:
    name: str
    width: int
    ok: bool
    lines: list[str] = field(default_factory=list)

    def render(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        body = "\n".join(f"  {line}" for line in self.lines)
        return f"[{status}] {self.name} (w={self.width})\n{body}"


def _seeded(samples: int, seed: int | None) -> random.Random:
    """The random source of a check; a check with no samples would test nothing."""
    if samples < 1:
        raise ValueError("samples must be positive")
    return random.Random(seed)


def _exhaustive(name: str, w: int, samples: int, seed: int | None) -> tuple[random.Random, np.ndarray, AnalysisReport]:
    """The random source, every w-bit word and an empty passing report of a check that
    sweeps the whole word space, which it does only at w=16."""
    if w != 16:
        raise ValueError(f"{name} sweeps the full word space exhaustively and needs --width 16")
    return _seeded(samples, seed), np.arange(1 << w, dtype=word_dtype(w)), AnalysisReport(name, w, True)


def _lift(w: int, *words) -> np.ndarray:
    """Int words as 1-element arrays of the word dtype, to pass alongside a swept array."""
    return np.array(words, dtype=word_dtype(w))[:, None]


def _param_sets(rng: random.Random, w: int, count: int):
    top = 1 << w
    return [tuple(rng.randrange(top) for _ in range(5)) for _ in range(count)]


def _params_text(k0: int, k1: int, l0: int, l1: int, c0: int) -> str:
    return f"params K=({k0:04X},{k1:04X}) L=({l0:04X},{l1:04X}) C={c0:04X}"


def gbox_bijectivity(w: int = 16, samples: int = 8, seed: int | None = None) -> AnalysisReport:
    """Exhaustively verify G permutes both the text word and the key word K0."""
    rng, sweep, report = _exhaustive("gbox-bijectivity", w, samples, seed)
    for params in _param_sets(rng, w, samples):
        x0 = rng.randrange(1 << w)
        words = _lift(w, x0, *params)
        x_perm = np.unique(gbox(sweep, *words[1:], w)).size == 1 << w
        k_perm = np.unique(gbox(words[0], sweep, *words[2:], w)).size == 1 << w
        report.ok &= x_perm and k_perm
        report.lines.append(f"{_params_text(*params)}: x-permutation={x_perm} K0-permutation={k_perm}")
    return report


def gbox_diffusion(w: int = 16, samples: int = 8, seed: int | None = None) -> AnalysisReport:
    """Exhaustively verify the unaffected output bit range w/2..v-1 per input bit v."""
    rng, sweep, report = _exhaustive("gbox-diffusion", w, samples, seed)
    half = w // 2
    for params in _param_sets(rng, w, samples):
        lifted = _lift(w, *params)
        base = gbox(sweep, *lifted, w)
        worst = []
        for v in range(half + 1, w):
            flipped = gbox(sweep ^ (1 << v), *lifted, w)
            protected = ((1 << (v - half)) - 1) << half
            hit = bool(np.any((base ^ flipped) & protected))
            if hit:
                worst.append(v)
        report.ok &= not worst
        report.lines.append(f"{_params_text(*params)}: "
                            + ("all protected ranges clean" if not worst else f"leaks at input bits {worst}"))
    return report


def gbox_identity(w: int = 16, samples: int = 8, seed: int | None = None) -> AnalysisReport:
    """Exhaustively verify G is the identity when (K0,K1)=(L0,L1) and C0=0."""
    rng, sweep, report = _exhaustive("gbox-identity", w, samples, seed)
    for _ in range(samples):
        c = rng.randrange(1 << w)
        c2 = rng.randrange(1 << w)
        is_id = bool(np.all(gbox(sweep, *_lift(w, c, c2, c, c2, 0), w) == sweep))
        report.ok &= is_id
        report.lines.append(f"K=L=({c:04X},{c2:04X}) C=0: identity={is_id}")
    return report


def avalanche(w: int = 16, samples: int = 10_000, seed: int | None = None) -> AnalysisReport:
    """Estimate per-bit flip probabilities of the full cipher.

    Returns the mean/min/max over the (4w x 4w) matrix of probabilities that
    flipping plaintext bit v flips ciphertext bit b, and flags cells outside
    [0.45, 0.55] once at least 10**4 samples back each cell.
    """
    rng = _seeded(samples, seed)
    bits = 4 * w
    dtype = word_dtype(w)

    # row v of this matrix XORed onto a block flips plaintext bit v
    flip_words = np.zeros((bits, 4), dtype=dtype)
    for v in range(bits):
        flip_words[v, v // w] = 1 << (v % w)

    # each sample folds into the counts as it is made, so memory is bounded by w, not by
    # samples: a block diff's bytes, little-endian in the word dtype, unpack low bit first
    # into its 4w bits
    flips = np.zeros((bits, bits), dtype=np.int64)
    for _ in range(samples):
        z = tuple(rng.randrange(1 << w) for _ in range(5))
        t = tuple(rng.randrange(1 << w) for _ in range(4))
        u = rng.randrange(1 << w)
        x = np.array([rng.randrange(1 << w) for _ in range(4)], dtype=dtype)
        xs = np.vstack((x[None, :], x[None, :] ^ flip_words))
        ys = crypt_fast_batch(xs, t, affine_expand(z, u, w))
        flips += np.unpackbits((ys[1:] ^ ys[0]).view(np.uint8), axis=1, bitorder="little")

    probs = flips / samples
    flagged = int(np.count_nonzero((probs < AVALANCHE_LOW) | (probs > AVALANCHE_HIGH))) \
        if samples >= AVALANCHE_FLAG_MIN_SAMPLES else 0
    ok = flagged == 0
    report = AnalysisReport("avalanche", w, ok)
    report.lines.append(f"samples={samples} matrix={bits}x{bits}")
    report.lines.append(f"flip probability mean={probs.mean():.4f} min={probs.min():.4f} max={probs.max():.4f}")
    if samples >= AVALANCHE_FLAG_MIN_SAMPLES:
        report.lines.append(f"cells outside [{AVALANCHE_LOW}, {AVALANCHE_HIGH}]: {flagged}")
    else:
        report.lines.append(f"fewer than {AVALANCHE_FLAG_MIN_SAMPLES} samples: band check skipped")
    return report


SUBCOMMANDS = {
    "gbox-bijectivity": gbox_bijectivity,
    "gbox-diffusion": gbox_diffusion,
    "gbox-identity": gbox_identity,
    "avalanche": avalanche,
}
