"""Euler-Maruyama paths for dX = -grad V(X) dt + sqrt(2) dW.

Sampling is blocked and seeded per block, so results are bit-identical for a
given seed no matter how many worker threads run (set CURVLAB_THREADS).
Functional accumulators integrate phi(X_s) ds along each path with the
left-endpoint rule, matching the order of the Euler step itself.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import ParameterError, SimulationError
from .potentials import Potential

__all__ = ["PathBatch", "simulate", "BLOCK_SIZE", "EXPLOSION_RADIUS"]

BLOCK_SIZE = 8192
EXPLOSION_RADIUS = 1e8
EXPLOSION_TOLERANCE = 1e-4


@dataclass
class PathBatch:
    """Terminal positions and path integrals; k starts add a leading axis."""

    positions: np.ndarray          # ([k,] n_paths, n)
    integrals: dict                # name -> ([k,] n_paths) of int_0^t phi(X_s) ds
    t: float
    dt: float
    n_steps: int
    seed: int
    exploded: np.ndarray = field(default=None)  # bool mask, frozen paths

    @property
    def n_paths(self) -> int:
        """Paths over all start points."""
        return self.positions.size // self.positions.shape[-1]

    @property
    def exploded_fraction(self) -> float:
        """The exploded fraction of the worst start point."""
        return float(np.max(np.mean(self.exploded, axis=-1)))


def _step_plan(t: float, dt: float):
    """Full steps of dt, then one partial step for the remainder."""
    n_full = int(t / dt)
    rem = t - n_full * dt
    if rem < 1e-12 * max(1.0, t):
        rem = 0.0
    return n_full, rem


def _run_block(potential: Potential, x0_block: np.ndarray, t: float, dt: float,
               rng: np.random.Generator,
               functionals: Mapping[str, Callable[[np.ndarray], np.ndarray]]):
    # x0_block is (k, block, n): one (block, n) draw per step drives every start
    x = x0_block.copy()
    n_full, rem = _step_plan(t, dt)
    acc = {name: np.zeros(x.shape[:-1]) for name in functionals}
    alive = np.ones(x.shape[:-1], dtype=bool)

    def advance(h):
        nonlocal x
        for name, phi in functionals.items():
            v = phi(x)
            acc[name][alive] += h * v[alive]
        noise = rng.standard_normal(x.shape[1:])
        x_new = x + np.sqrt(2.0 * h) * noise - potential.gradient(x) * h
        # frozen paths keep their last finite position
        x = np.where(alive[..., None], x_new, x)
        r = np.linalg.norm(x, axis=-1)
        blow = alive & ((r > EXPLOSION_RADIUS) | ~np.isfinite(r))
        if np.any(blow):
            x[blow] = x0_block[blow]
            alive[blow] = False

    for _ in range(n_full):
        advance(dt)
    if rem > 0.0:
        advance(rem)
    return x, acc, ~alive


def simulate(potential: Potential, x0, t: float, dt: float = 1e-3,
             n_paths: int = 8192, seed: int = 0,
             functionals: Optional[Mapping[str, Callable]] = None) -> PathBatch:
    """Run n_paths Euler-Maruyama paths from x0, one point (n,) or k start
    points (k, n) that all see the same noise: each start's slice is bitwise
    equal to a run from that point alone.

    By default the curvature integral int_0^t rho(X_s) ds is accumulated
    under the name "rho".  Raises SimulationError if, from any start, more
    than a 1e-4 fraction of paths leaves |x| = 1e8 or turns non-finite.
    """
    if not (0.0 <= t < math.inf and 0.0 < dt < math.inf):
        raise ParameterError(f"need finite t >= 0 and dt > 0, got t={t}, "
                             f"dt={dt}")
    if n_paths < 1:
        raise ParameterError(f"n_paths must be positive, got {n_paths}")
    n = potential.n
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,) and (x0.ndim != 2 or x0.shape[1] != n or len(x0) == 0):
        raise ParameterError(f"x0 shape {x0.shape}: need ({n},) or (k, {n})")
    shape = x0.shape[:-1] + (n_paths,)  # no start axis for a single point
    x0 = np.broadcast_to(x0.reshape(-1, 1, n), (x0.size // n, n_paths, n))
    if functionals is None:
        functionals = {"rho": potential.curvature_at}

    n_blocks = (n_paths + BLOCK_SIZE - 1) // BLOCK_SIZE
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    slices = [slice(i * BLOCK_SIZE, min((i + 1) * BLOCK_SIZE, n_paths))
              for i in range(n_blocks)]

    positions = np.empty(shape + (n,))
    exploded = np.empty(shape, dtype=bool)
    integrals = {name: np.empty(shape) for name in functionals}

    def work(i):
        # each block fills its own slice, so no second copy of the paths lives
        sl, rng = slices[i], np.random.default_rng(children[i])
        xb, accb, deadb = _run_block(potential, x0[:, sl], t, dt, rng,
                                     functionals)
        positions[..., sl, :] = xb
        exploded[..., sl] = deadb
        for name in functionals:
            integrals[name][..., sl] = accb[name]

    n_threads = int(os.environ.get("CURVLAB_THREADS", "1"))
    if n_threads > 1 and n_blocks > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(work, range(n_blocks)))
    else:
        for i in range(n_blocks):
            work(i)

    n_full, rem = _step_plan(t, dt)
    batch = PathBatch(positions, integrals, t, dt, n_full + (rem > 0.0), seed, exploded)
    if batch.exploded_fraction > EXPLOSION_TOLERANCE:
        raise SimulationError(
            f"{batch.exploded_fraction:.2e} of paths exploded "
            f"(limit {EXPLOSION_TOLERANCE:.0e})",
            exploded_fraction=batch.exploded_fraction)
    return batch
