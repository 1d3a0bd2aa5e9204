import random
import sys
from pathlib import Path

import numpy as np
import pytest

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
