"""Euler-Maruyama paths for dX = -grad V(X) dt + sqrt(2) dW.

Sampling is blocked and seeded per block, so results are bit-identical for a
given seed no matter how many worker threads run (set CURVLAB_THREADS).
One path set serves several start points and several checkpoint times.
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


@dataclass
class PathBatch:
    """Positions and path integrals at time t.  A sequence of times adds a
    leading time axis, and k starts a start axis after it."""

    positions: np.ndarray          # ([T,] [k,] n_paths, n)
    integrals: dict                # name -> ([T,] [k,] n_paths) of int_0^t phi(X_s) ds
    t: float                       # or the sequence of times, as given
    dt: float
    n_steps: int                   # steps to the latest time
    seed: int
    exploded: np.ndarray = field(default=None)  # bool mask, all False once returned

    @property
    def n_paths(self) -> int:
        """Paths over all start points."""
        return math.prod(self.positions.shape[np.ndim(self.t):-1])

    @property
    def exploded_fraction(self) -> float:
        """The exploded fraction of the worst start point at any time."""
        return float(np.max(np.mean(self.exploded, axis=-1)))


def _times(t) -> np.ndarray:
    """t, one time or a sequence of times, as a 1-D float array; each time
    must be finite and >= 0, and a sequence must not be empty."""
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1 or ts.size == 0 \
            or not np.all((0.0 <= ts) & (ts < math.inf)):
        raise ParameterError(f"need one finite time t >= 0 or a non-empty "
                             f"sequence of them, got t={t}")
    return ts.reshape(-1)


def _step_plan(t: float, dt: float):
    """Full steps of dt, then one partial step for the remainder."""
    n_full = int(t / dt)
    rem = t - n_full * dt
    if rem < 1e-12 * max(1.0, t):
        rem = 0.0
    return n_full, rem


def _run_block(potential: Potential, x0_block: np.ndarray, plans: list,
               dt: float, rng: np.random.Generator,
               functionals: Mapping[str, Callable[[np.ndarray], np.ndarray]]):
    """Yield (j, positions, integrals) of one block at each checkpoint j,
    whose step plan is plans[j], in time order."""
    # x0_block is (k, block, n): one (block, n) draw per step drives every start
    x = x0_block.copy()
    acc = {name: np.zeros(x.shape[:-1]) for name in functionals}

    def draw():
        # what a step from x needs; a partial step shares it with the next
        # full step, as a run straight to the partial step's time draws it
        return ({name: phi(x) for name, phi in functionals.items()},
                rng.standard_normal(x.shape[1:]), potential.gradient(x))

    def advance(x, acc, h, values, noise, drift):
        for name, v in values.items():
            acc[name] += h * v
        return x + np.sqrt(2.0 * h) * noise - drift * h

    done, pending = 0, None
    for j in sorted(range(len(plans)), key=plans.__getitem__):
        n_full, rem = plans[j]
        for _ in range(done, n_full):
            x = advance(x, acc, dt, *(pending or draw()))
            pending = None
        done = n_full
        if rem > 0.0:
            # the partial step runs on a copy; the march goes on from x
            pending = pending or draw()
            part_acc = {name: a.copy() for name, a in acc.items()}
            yield j, advance(x, part_acc, rem, *pending), part_acc
        else:
            yield j, x, acc


def simulate(potential: Potential, x0, t, dt: float = 1e-3,
             n_paths: int = 8192, seed: int = 0,
             functionals: Optional[Mapping[str, Callable]] = None) -> PathBatch:
    """Run n_paths Euler-Maruyama paths from x0 to each time of t.

    x0 is one point (n,) or k start points (k, n) that all see the same
    noise.  t is one time or a sequence of times in any order, repeats
    allowed; a sequence adds a leading time axis, in the given order.  One
    path set serves every time: each time keeps the step plan of a run
    straight to it, so each (time, start) slice is bitwise equal to a run
    from that start alone to that time alone.

    By default the curvature integral int_0^t rho(X_s) ds is accumulated
    under the name "rho".  Any path that, at a checkpoint, lies beyond
    |x| = 1e8 or has a non-finite position or path integral raises
    SimulationError; its exploded_fraction is that of the worst start.
    """
    ts = _times(t)
    if not 0.0 < dt < math.inf:
        raise ParameterError(f"need a finite dt > 0, got dt={dt}")
    if n_paths < 1:
        raise ParameterError(f"n_paths must be positive, got {n_paths}")
    n = potential.n
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,) and (x0.ndim != 2 or x0.shape[1] != n or len(x0) == 0):
        raise ParameterError(f"x0 shape {x0.shape}: need ({n},) or (k, {n})")
    # no time axis for one time, no start axis for a single point
    shape = np.shape(t) + x0.shape[:-1] + (n_paths,)
    k = x0.size // n
    x0 = np.broadcast_to(x0.reshape(-1, 1, n), (k, n_paths, n))
    if functionals is None:
        functionals = {"rho": potential.curvature_at}
    plans = [_step_plan(float(s), dt) for s in ts]

    n_blocks = (n_paths + BLOCK_SIZE - 1) // BLOCK_SIZE
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    slices = [slice(i * BLOCK_SIZE, min((i + 1) * BLOCK_SIZE, n_paths))
              for i in range(n_blocks)]

    full = (len(ts), k, n_paths)
    positions = np.empty(full + (n,))
    exploded = np.empty(full, dtype=bool)
    integrals = {name: np.empty(full) for name in functionals}

    def work(i):
        # each block fills its own slices, so no second copy of the paths lives
        sl, rng = slices[i], np.random.default_rng(children[i])
        # overflow stays quiet; the checkpoints catch it (NaN fails r <= R)
        with np.errstate(over="ignore", invalid="ignore"):
            for j, xb, accb in _run_block(potential, x0[:, sl], plans, dt,
                                          rng, functionals):
                positions[j, :, sl] = xb
                lost = ~(np.linalg.norm(xb, axis=-1) <= EXPLOSION_RADIUS)
                for name in functionals:
                    integrals[name][j, :, sl] = accb[name]
                    lost |= ~np.isfinite(accb[name])
                exploded[j, :, sl] = lost

    n_threads = int(os.environ.get("CURVLAB_THREADS", "1"))
    if n_threads > 1 and n_blocks > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(work, range(n_blocks)))
    else:
        for i in range(n_blocks):
            work(i)

    batch = PathBatch(positions.reshape(shape + (n,)),
                      {name: v.reshape(shape) for name, v in integrals.items()},
                      t, dt, max(m + (rem > 0.0) for m, rem in plans), seed,
                      exploded.reshape(shape))
    if np.any(exploded):
        raise SimulationError(
            f"{batch.exploded_fraction:.2e} of paths exploded",
            exploded_fraction=batch.exploded_fraction)
    return batch
