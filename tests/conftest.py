import random
import sys
from pathlib import Path

import numpy as np
import pytest

from nsabc._kernels import tile_blocks
from nsabc.cipher import word_dtype
from nsabc.tweakstream import _tile_tweaks

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return random.Random(0x15ABC)


def random_words(rng, count, w):
    return tuple(rng.randrange(1 << w) for _ in range(count))


def random_tuple(rng, w):
    """One random (block, key, tweak, unit key) tuple."""
    return (random_words(rng, 4, w), random_words(rng, 5, w),
            random_words(rng, 4, w), rng.randrange(1 << w))


def lift(word):
    """An int word as a 1-element uint64 array, to pass alongside array operands."""
    return np.array([word], dtype=np.uint64)


def tile_tweak_rows(tweak_key, first_index, count, w):
    """The tweaks of ``count`` blocks from ``first_index`` as (count, 4) rows, made tile by
    tile from ``tweakstream._tile_tweaks`` the way one worker of ``_kernels.crypt_batch``
    asks for them: the first seeded, each later one advanced in place from the one before."""
    tile = _tile_tweaks(tweak_key, first_index, w, True)
    length = tile_blocks(w)
    space = np.empty((6, min(length, count)), dtype=word_dtype(w))
    rows, prev = [np.empty((0, 4), dtype=word_dtype(w))], None
    for start in range(0, count, length):
        stop = min(start + length, count)
        columns = space[2:, :stop - start]
        tile(start, stop, columns, prev, space[:2, :stop - start])
        rows.append(columns.T.copy())
        prev = start
    return np.concatenate(rows)
