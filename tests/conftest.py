import random

import pytest

from polyzeta import Precision


@pytest.fixture
def prec30():
    return Precision(30)


@pytest.fixture
def prec40():
    return Precision(40)


@pytest.fixture
def prec50():
    return Precision(50)


def random_z_entries(rng: random.Random, max_weight: int = 8, max_depth: int = 4):
    """A convergent signed exponent string (no leading unsigned 1)."""
    while True:
        depth = rng.randint(1, max_depth)
        exps = []
        budget = max_weight
        for j in range(depth):
            hi = budget - (depth - j - 1)
            if hi < 1:
                break
            exps.append(rng.randint(1, min(hi, 4)))
            budget -= exps[-1]
        if len(exps) < depth:
            continue
        entries = tuple(e * rng.choice((1, -1)) for e in exps)
        if entries[0] != 1:
            return entries

