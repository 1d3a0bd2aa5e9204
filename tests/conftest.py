import random
import sys
from pathlib import Path

import numpy as np
import pytest

from nsabc import _native
from nsabc._kernels import numpy_tile_tweaks, tile_blocks, tile_tweaks
from nsabc.cipher import word_dtype
from nsabc.words import odot

sys.path.insert(0, str(Path(__file__).parent))


#: ``_native.cache_dir`` itself, which ``native_cache`` replaces for the session
real_cache_dir = _native.cache_dir


@pytest.fixture(scope="session", autouse=True)
def native_cache(tmp_path_factory):
    """The compiled set-up built into a temporary directory, for the whole session, and loaded
    afresh from it on first use."""
    directory = tmp_path_factory.mktemp("native") / "cache"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_native, "cache_dir", lambda: directory)
        patch.setattr(_native, "_route", None)
        yield directory


@pytest.fixture
def rng():
    return random.Random(0x15ABC)


def random_words(rng, count, w):
    return tuple(rng.randrange(1 << w) for _ in range(count))


def random_tuple(rng, w):
    """One random (block, key, tweak, unit key) tuple."""
    return (random_words(rng, 4, w), random_words(rng, 5, w),
            random_words(rng, 4, w), rng.randrange(1 << w))


def edge_key_material(w):
    """All-zero and all-ones key and unit words, where 2(K-L)+1 and (2L-1)(K-L) wrap."""
    top = (1 << w) - 1
    return [(z, u) for z in ((0,) * 5, (top,) * 5) for u in (0, top)]


def lift(word):
    """An int word as a 1-element uint64 array, to pass alongside array operands."""
    return np.array([word], dtype=np.uint64)


def tweak_progression(tweak_key, first_index, w):
    """The first tweak and the step ``tweakstream`` hands ``_kernels.crypt_batch`` for the
    blocks first_index, first_index+1, ... under tweak_key: T(first_index) and 2*T0 + 1."""
    return odot(tweak_key, first_index, 4 * w), (2 * tweak_key + 1) % (1 << (4 * w))


def tile_tweak_rows(tweak_key, first_index, count, w):
    """The tweaks of ``count`` blocks from ``first_index`` as (count, 4) rows, made tile by
    tile by ``_kernels.tile_tweaks`` the way one worker of ``_kernels.crypt_batch`` makes
    them: the first seeded, each later one advanced in place from the one before, or
    seeded too on the compiled route.  ``numpy_tile_tweaks``, the numpy fallback and
    cross-check, makes the same tiles beside it, and they must be equal."""
    first, step = tweak_progression(tweak_key, first_index, w)
    length = tile_blocks(w)
    rows = []
    for tweaks in (tile_tweaks, numpy_tile_tweaks):
        space = np.empty((6, min(length, count)), dtype=word_dtype(w))
        made, prev = [np.empty((0, 4), dtype=word_dtype(w))], None
        for start in range(0, count, length):
            stop = min(start + length, count)
            columns = space[2:, :stop - start]
            tweaks(columns, space[:2, :stop - start], first, step, start, prev)
            made.append(columns.T.copy())
            prev = start
        rows.append(np.concatenate(made))
    assert np.array_equal(*rows)
    return rows[0]
