"""Euler-Maruyama paths for dX = -grad V(X) dt + sqrt(2) dW; means over them.

Sampling is blocked and seeded per block, so results are bit-identical for a
given seed no matter how many worker threads run (set CURVLAB_THREADS).
Each block draws its normals CHUNK_BYTES at a time, the same stream as one
draw per step, and each step is three array passes: shift = grad V(y) dt,
y += sqrt(2 dt) normals (scaled once per chunk), y -= shift.
One path set serves several start points and several checkpoint times.
The walk advances every block to one checkpoint at a time and hands that
time's positions, one contiguous array of all paths, to `multilevel_mean`,
which reduces them at once.  Besides the paths' own state, one time's
positions are live, whatever the number of times.
Functional accumulators integrate phi(X_s) ds along each path with the
left-endpoint rule, matching the order of the Euler step itself; each
functional is called as phi(x, drift), with the step's drift grad V(x).
`multilevel_mean`, the one mean over paths, is multilevel Monte Carlo, each
level's coarse twins driven by the sums of their fine paths' normals."""

from __future__ import annotations

import contextlib
import math
import os
from typing import Callable, Mapping

# numpy loads numpy.random at the first np.random; the Monte Carlo engine
# loads it when it is built, so that no check pays for it
import numpy as np

from .errors import NumericalError, ParameterError, SimulationError
from .potentials import Potential, as_points

__all__ = ["multilevel_mean", "BLOCK_SIZE", "CHUNK_BYTES", "EXPLOSION_RADIUS"]

BLOCK_SIZE = 8192
CHUNK_BYTES = 1 << 16   # a block's normals are drawn this many bytes at a time
EXPLOSION_RADIUS = 1e8
LEVEL_RATIO = 5         # steps of an Euler level per step of the next coarser
COARSEST_STEP = 1 / 40  # the largest step of a multilevel estimate


def _times(t) -> np.ndarray:
    """t, one time or a sequence of times, as a 1-D float array; each time
    must be finite and >= 0, and a sequence must not be empty."""
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1 or ts.size == 0 \
            or not np.all((0.0 <= ts) & (ts < math.inf)):
        raise ParameterError(f"need one finite time t >= 0 or a non-empty "
                             f"sequence of them, got t={t}")
    return ts.reshape(-1)


def _check_dt(dt: float) -> None:
    if not 0.0 < dt < math.inf:
        raise ParameterError(f"need a finite dt > 0, got dt={dt}")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")


def _check_paths(n_paths: int) -> None:
    # the floor of every mean over paths that carries a stderr
    if n_paths < 100:
        raise ParameterError(f"need at least 100 paths, got {n_paths}")


def _step_plan(t: float, dt: float):
    """Full steps of dt, then one partial step for the remainder; a time
    within 1e-12 max(1, t) of a whole number of steps takes that many."""
    n = round(t / dt)
    if abs(t - n * dt) <= 1e-12 * max(1.0, t):
        return n, 0.0
    return int(t / dt), t - int(t / dt) * dt


def _path_mean(values, twins=None) -> tuple:
    """Mean and stderr (ddof = 1) over paths, the last axis of values, or
    of values - twins.  Overflow is quiet; a mean or stderr that is not
    finite raises."""
    v = np.ascontiguousarray(values if twins is None else values - twins)
    with np.errstate(over="ignore", invalid="ignore"):
        out = v.mean(axis=-1), v.std(axis=-1, ddof=1) / math.sqrt(v.shape[-1])
    if not all(np.all(np.isfinite(a)) for a in out):
        raise NumericalError(f"a mean over {v.shape[-1]} paths or its stderr "
                             f"is not finite")
    return out


def _run_block(potential: Potential, x0_block: np.ndarray, plans: list,
               dt: float, rng: np.random.Generator,
               functionals: Mapping[str, Callable], twin: bool = False):
    """Yield (j, positions, integrals) of one block at each checkpoint j,
    whose step plan is plans[j], in time order.  With twin, the k starts
    are followed on the start axis by their k coarse twins: each steps by
    LEVEL_RATIO dt once per LEVEL_RATIO steps, driven by the sum of those
    steps' normals, so twins need plans of whole coarse steps.  The
    yielded arrays are overwritten by later steps: copy them before
    resuming."""
    # x0_block is (k, block, n): one (block, n) draw per step drives every start
    k = len(x0_block)
    x = np.concatenate([x0_block] * (1 + twin))
    acc = {name: np.zeros(x.shape[:-1]) for name in functionals}
    fine, fine_acc = x[:k], {name: a[:k] for name, a in acc.items()}
    coarse, coarse_acc = x[k:], {name: a[k:] for name, a in acc.items()}
    n_steps = max(m + (rem > 0.0) for m, rem in plans)
    # the normals of a chunk of c steps, a twin's chunk whole coarse steps;
    # steps write into these buffers, as a fresh temporary of this size
    # would be mapped and unmapped by the allocator at every step
    c = max(1, min(n_steps, CHUNK_BYTES // (8 * x[0].size)))
    c = max(LEVEL_RATIO, c - c % LEVEL_RATIO) if twin else c
    noise, scaled = np.empty((2, c) + x.shape[1:])
    summed = np.empty((c // LEVEL_RATIO,) + x.shape[1:])
    first = -c  # the step of the chunk's first row

    def row(i):
        # the row of step i's normals, drawing i's chunk when i opens it
        nonlocal first
        if i >= first + c:
            first, rows = i, slice(min(c, n_steps - i))
            rng.standard_normal(out=noise[rows])
            np.multiply(math.sqrt(2.0 * dt), noise[rows], out=scaled[rows])
            if twin:  # each coarse step's normals, summed in step order
                sums = summed[:rows.stop // LEVEL_RATIO]
                np.copyto(sums, noise[0:rows.stop:LEVEL_RATIO])
                for r in range(1, LEVEL_RATIO):
                    sums += noise[r:rows.stop:LEVEL_RATIO]
                sums *= LEVEL_RATIO ** -0.5
                sums *= math.sqrt(2.0 * (LEVEL_RATIO * dt))
        return i - first

    def draw(y):
        # the functionals see the step's drift, so none evaluates grad V again
        drift = potential.gradient(y)
        return {name: phi(y, drift) for name, phi in functionals.items()}, drift

    def advance(y, acc, h, values, drift, step):
        # y += step - drift h, step being sqrt(2h) normals, in that order;
        # drift h comes first, as drift may share memory with y
        for name, v in values.items():
            acc[name] += np.multiply(h, v, out=hv)
        np.multiply(drift, h, out=shift)
        y += step
        return np.subtract(y, shift, out=y)

    done, pending = 0, None
    for j in sorted(range(len(plans)), key=plans.__getitem__):
        # the steps' scratch lives until the checkpoint, so a block waiting
        # at one holds only its paths, integrals and normals
        shift, hv = np.empty(x0_block.shape), np.empty(x0_block.shape[:-1])
        n_full, rem = plans[j]
        for i in range(done, n_full):
            # a partial step shares its values and drift with this step,
            # as a run straight to the partial step's time draws them
            advance(fine, fine_acc, dt, *(pending or draw(fine)),
                    scaled[row(i)])
            pending = None
            if twin and (i + 1) % LEVEL_RATIO == 0:
                advance(coarse, coarse_acc, LEVEL_RATIO * dt, *draw(coarse),
                        summed[row(i) // LEVEL_RATIO])
        done = n_full
        if rem > 0.0:
            # the partial step runs into a copy; the march goes on from x
            pending = pending or draw(fine)
            part_acc = {name: a.copy() for name, a in acc.items()}
            step = math.sqrt(2.0 * rem) * noise[row(n_full)]
            at = advance(fine.copy(), part_acc, rem, *pending, step), part_acc
        else:
            at = x, acc
        shift = hv = None
        yield (j, *at)


def _walk(potential: Potential, x0: np.ndarray, ts: np.ndarray, dt: float,
          n_paths: int, seq: np.random.SeedSequence,
          functionals: Mapping[str, Callable], twin: bool = False):
    """Yield (j, positions, integrals) of n_paths Euler-Maruyama paths of
    step dt from the (k, n) points x0 at each time j of the 1-D ts, in time
    order, its blocks seeded by children of seq; with twin, the start axis
    holds 2k starts, the paths' coarse twins (see _run_block) after the k
    starts.  The starts share their noise, and each time keeps the step
    plan of a run straight to it, so each (time, start) slice is bitwise a
    walk from that start alone to that time alone.

    Every block reaches time j before it is yielded, in parallel under
    CURVLAB_THREADS, so positions is one contiguous (starts, n_paths, n)
    array of all paths and each integral one (starts, n_paths) array.  Both
    are overwritten by the next time: copy them before resuming.  The first
    time at which a path lies beyond |x| = EXPLOSION_RADIUS or has a
    non-finite position or integral raises SimulationError naming the
    step, the twins' LEVEL_RATIO dt if a twin exploded, with the worst
    start's exploded fraction at that time.
    """
    n, k = potential.n, len(x0)
    plans = [_step_plan(float(s), dt) for s in ts]
    n_blocks = (n_paths + BLOCK_SIZE - 1) // BLOCK_SIZE
    slices = [slice(i * BLOCK_SIZE, min((i + 1) * BLOCK_SIZE, n_paths))
              for i in range(n_blocks)]
    x0 = np.broadcast_to(x0[:, None, :], (k, n_paths, n))
    blocks = [_run_block(potential, x0[:, sl], plans, dt,
                         np.random.default_rng(child), functionals, twin)
              for sl, child in zip(slices, seq.spawn(n_blocks))]
    positions = np.empty((k * (1 + twin), n_paths, n))
    integrals = {name: np.empty(positions.shape[:-1]) for name in functionals}

    def advance(i):
        # block i to its next time, into its slices; its lost paths per start
        sl = slices[i]
        # overflow stays quiet; the checkpoints catch it (NaN fails r <= R)
        with np.errstate(over="ignore", invalid="ignore"):
            j, xb, accb = next(blocks[i])
            positions[:, sl] = xb
            lost = ~(np.linalg.norm(xb, axis=-1) <= EXPLOSION_RADIUS)
            for name in functionals:
                integrals[name][:, sl] = accb[name]
                lost |= ~np.isfinite(accb[name])
        return j, np.count_nonzero(lost, axis=-1)

    n_threads = int(os.environ.get("CURVLAB_THREADS", "1"))
    threaded = n_threads > 1 and n_blocks > 1
    if threaded:
        from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=n_threads) if threaded \
            else contextlib.nullcontext() as pool:
        for _ in plans:
            reached = list((pool.map if threaded else map)(
                advance, range(n_blocks)))
            lost = np.sum([counts for _, counts in reached], axis=0)
            if np.any(lost):
                # a coarse twin's explosion names the twins' step
                h = LEVEL_RATIO * dt if np.any(lost[k:]) else dt
                fraction = float(np.max(lost) / n_paths)
                raise SimulationError(
                    f"{fraction:.2e} of paths exploded at step {h:g}",
                    exploded_fraction=fraction)
            yield reached[0][0], positions, integrals


def _level_count(ts: np.ndarray, dt: float, n_paths: int) -> int:
    """The largest L with dt M^L <= COARSEST_STEP such that every time is a
    whole number of steps dt M^l, l <= L, by the step plan's rule, and no
    level l runs fewer than 100 of its ceil(n_paths M^(-3l/2)) paths."""
    L = 0
    while dt * LEVEL_RATIO ** (L + 1) <= COARSEST_STEP * (1.0 + 1e-12) \
            and math.ceil(n_paths / LEVEL_RATIO ** (1.5 * (L + 1))) >= 100 \
            and all(_step_plan(float(s), dt * LEVEL_RATIO ** l)[1] == 0.0
                    for s in ts for l in range(L + 2)):
        L += 1
    return L


def multilevel_mean(potential: Potential, x0, t, payoff: Callable,
                    dt: float, n_paths: int, seed: int,
                    functionals: Mapping[str, Callable]) -> tuple:
    """Means and stderrs, over the Euler chain of step dt from the points
    x0, of payoff(j, positions, integrals) at each time j of t.

    payoff reads one time of a walk, as `_walk` yields it, and returns an
    array with the paths on its last axis, or an iterable of such arrays,
    each reduced before the next is drawn.  Each mean and stderr has the
    array's shape without the path axis, after a time axis if t is a
    sequence; an iterable payoff gives tuples of them.

    Multilevel Monte Carlo (Giles 2008) over Euler levels l = 0..L of step
    dt M^(L-l), M = LEVEL_RATIO, L from `_level_count`; L = 0 is plain Monte
    Carlo, bitwise the mean over one walk.  Level l, seeded by its own child
    of SeedSequence(seed), runs ceil(n_paths M^(-3l/2)) paths; above level
    0 payoff reads them and their coarse twins separately, each on the k
    starts of x0, and averages payoff(path) - payoff(twin).  Means add over
    levels and stderrs in quadrature.  An exploded path raises
    SimulationError naming its level's step.
    """
    ts = _times(t)
    _check_dt(dt)
    _check_paths(n_paths)
    _check_seed(seed)
    x0 = as_points(x0, potential.n)
    k = len(x0)
    L = _level_count(ts, dt, n_paths)
    root = np.random.SeedSequence(seed)
    levels = []
    for l, seq in enumerate([root] if L == 0 else root.spawn(L + 1)):
        # each time's payoff is reduced as soon as the walk reaches it
        at = [None] * len(ts)
        for j, x, ints in _walk(potential, x0, ts, dt * LEVEL_RATIO ** (L - l),
                                math.ceil(n_paths / LEVEL_RATIO ** (1.5 * l)),
                                seq, functionals, twin=l > 0):
            parts = [payoff(j, x[s], {name: a[s] for name, a in ints.items()})
                     for s in ([slice(k)] if l == 0
                               else [slice(k), slice(k, None)])]
            many = not isinstance(parts[0], np.ndarray)
            # map frees each array once reduced: a generator holds one
            at[j] = list(map(_path_mean, *(p if many else [p]
                                            for p in parts)))
        # per payoff array, its means and its stderrs, each ([T,] *shape)
        levels.append([[np.reshape(a, np.shape(t) + np.shape(a[0]))
                        for a in zip(*pairs)] for pairs in zip(*at)])
    # per payoff array, means add over levels and stderrs in quadrature
    sums = [(np.sum(m, axis=0), np.hypot.reduce(s, axis=0))
            for m, s in (zip(*array) for array in zip(*levels))]
    means, stderrs = zip(*sums)
    return (means, stderrs) if many else (means[0], stderrs[0])
