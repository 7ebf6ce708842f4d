"""Shared test helpers."""

import numpy as np
import pytest

from curvlab import sde
from curvlab.potentials import as_points


def _paths_at(potential, x0, t, dt, n_paths, seed, functionals):
    """(positions, integrals) of `sde._walk`'s paths from the points x0 at
    each time of t, in t's order, copied out of the walk: positions
    (k, n_paths, n) and each integral (k, n_paths)."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    out = [None] * len(ts)
    for j, x, ints in sde._walk(potential, as_points(x0, potential.n), ts,
                                dt, n_paths, np.random.SeedSequence(seed),
                                functionals):
        out[j] = x.copy(), {name: v.copy() for name, v in ints.items()}
    return out


@pytest.fixture
def paths_at():
    return _paths_at
