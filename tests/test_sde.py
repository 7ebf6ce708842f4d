"""Path sampler: reproducibility, thread independence, weak accuracy."""

import os
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from curvlab import sde
from curvlab.errors import ParameterError, SimulationError
from curvlab.potentials import (make_double_well, make_example_potential,
                                make_lyapunov)
from curvlab.sde import (BLOCK_SIZE, CHUNK_BYTES, LEVEL_RATIO, _step_plan,
                         multilevel_mean)
from curvlab.semigroup import MonteCarloEngine
from curvlab.suite import get
from curvlab.verify import Schedule


def _rho(P):
    # the curvature integral int_0^t rho(X_s) ds
    return {"rho": lambda x, drift: P.curvature(x)}


def _mean_x(P, x0, t, dt, n_paths=100, seed=0):
    return multilevel_mean(P, x0, t, lambda j, x, _: x[..., 0], dt, n_paths,
                           seed, {})


def test_bit_reproducible(paths_at):
    P = make_example_potential("gaussian", n=2)
    [(a, ai)], [(b, bi)], [(c, _)] = (
        paths_at(P, [0.5, -0.5], 0.25, 1e-2, 3000, seed, _rho(P))
        for seed in (7, 7, 8))
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(ai["rho"], bi["rho"])
    assert not np.array_equal(a, c)


def test_thread_count_does_not_change_bits(monkeypatch, paths_at):
    P = make_example_potential("spherical", 1.5, 1)
    n = 2 * BLOCK_SIZE + 100  # force several blocks
    monkeypatch.delenv("CURVLAB_THREADS", raising=False)
    [(a, ai)] = paths_at(P, [0.0], 0.1, 1e-2, n, 3, _rho(P))
    monkeypatch.setenv("CURVLAB_THREADS", "4")
    [(b, bi)] = paths_at(P, [0.0], 0.1, 1e-2, n, 3, _rho(P))
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(ai["rho"], bi["rho"])


def test_partial_final_step(paths_at):
    P = make_example_potential("gaussian", n=1)
    # t = 0.25, dt = 0.1 -> 2 full steps plus a 0.05 remainder
    n_full, rem = _step_plan(0.25, 0.1)
    assert n_full + (rem > 0.0) == 3
    one = {"one": lambda x, drift: np.ones(x.shape[:-1])}
    [(_, ints)] = paths_at(P, [1.0], 0.25, 0.1, 16, 0, one)
    np.testing.assert_allclose(ints["one"], 0.25, atol=1e-12)
    # step count exact when dt divides t
    assert _step_plan(0.3, 0.1) == (3, 0.0)


def test_zero_time_is_identity(paths_at):
    P = make_example_potential("gaussian", n=2)
    [(x, ints)] = paths_at(P, [1.0, 2.0], 0.0, 1e-3, 64, 0, _rho(P))
    np.testing.assert_array_equal(x, np.broadcast_to([1.0, 2.0], (1, 64, 2)))
    np.testing.assert_array_equal(ints["rho"], np.zeros((1, 64)))


def test_ou_mean_and_variance():
    # gaussian potential: X_t ~ N(x0 e^-t, 1 - e^-2t); weak error O(dt).
    # The first two moments as payoffs of one multilevel mean
    P = make_example_potential("gaussian", n=1)
    t, x0 = 0.5, 2.0
    (m1, m2), (se1, _) = multilevel_mean(
        P, [x0], t, lambda j, x, _: (x[..., 0], x[..., 0] ** 2), 5e-4,
        200_000, 11, {})
    mean_exact = x0 * np.exp(-t)
    var_exact = 1.0 - np.exp(-2.0 * t)
    assert m1[0] == pytest.approx(mean_exact, abs=4.0 * se1[0])
    assert m2[0] - m1[0] ** 2 == pytest.approx(var_exact, rel=2e-2)


def test_rho_integral_for_gaussian_is_time(paths_at):
    # rho = 1 identically, so the accumulator equals t for every path
    P = make_example_potential("gaussian", n=2)
    [(_, ints)] = paths_at(P, [0.3, 0.3], 0.37, 1e-2, 128, 1, _rho(P))
    np.testing.assert_allclose(ints["rho"], 0.37, atol=1e-12)


def test_custom_functionals(paths_at):
    P = make_example_potential("gaussian", n=1)
    [(_, ints)] = paths_at(
        P, [0.0], 0.2, 1e-2, 256, 5,
        {"one": lambda x, drift: np.ones(x.shape[:-1]),
         "x2": lambda x, drift: x[..., 0] ** 2})
    np.testing.assert_allclose(ints["one"], 0.2, atol=1e-12)
    assert np.all(ints["x2"] >= 0.0)


def test_explosion_guard_raises(paths_at):
    # an expanding drift: V = -|x|^2 pushes mass out exponentially fast
    bad = make_example_potential("gaussian", n=1)
    bad = type(bad)(n=1, value=lambda x: -0.5 * np.sum(x * x, -1),
                    gradient=lambda x: -np.asarray(x, float) * 1e5,
                    hessian=bad.hessian, label="expanding", family="custom",
                    curvature=bad.curvature)
    with pytest.raises(SimulationError) as exc:
        paths_at(bad, [1.0], 1.5, 0.5, 64, 0, _rho(bad))
    assert exc.value.exploded_fraction > 0.9


def test_double_well_paths_stay_bounded(paths_at):
    W = make_double_well()
    [(x, _)] = paths_at(W, [0.0], 1.0, 1e-2, 4096, 2, _rho(W))
    assert np.max(np.abs(x)) < 10.0


def test_parameter_errors():
    P = make_example_potential("gaussian", n=1)
    with pytest.raises(ParameterError):
        _mean_x(P, [0.0], -1.0, 1e-3)
    with pytest.raises(ParameterError):
        _mean_x(P, [0.0], 1.0, 0.0)
    with pytest.raises(ParameterError):
        _mean_x(P, [0.0], 1.0, 1e-3, n_paths=0)
    # x0 is read by as_points: in n = 1 a scalar is one start and a 1-D
    # array k starts, so only these shapes, and a non-finite start, fail
    for x0 in (np.zeros((2, 3, 1)), np.zeros((3, 2)), np.zeros((0, 1)),
               [np.nan]):
        with pytest.raises(ParameterError):
            _mean_x(P, x0, 1.0, 1e-3)


def test_negative_seed_is_a_parameter_error():
    # numpy's SeedSequence would raise a bare ValueError
    P = make_example_potential("gaussian", n=1)
    with pytest.raises(ParameterError, match="seed"):
        _mean_x(P, [0.0], 0.1, 1e-2, seed=-1)


@pytest.mark.parametrize("threads", ["1", "4"])
@pytest.mark.parametrize("kind,n", [("gaussian", 2), ("spherical", 3)])
def test_start_points_match_single_runs(monkeypatch, paths_at, threads, kind,
                                        n):
    # several blocks and a partial final step (t = 0.25 at dt = 0.1)
    P = make_example_potential(kind, None if kind == "gaussian" else 1.5, n)
    monkeypatch.setenv("CURVLAB_THREADS", threads)
    starts = np.random.default_rng(0).normal(size=(3, n))
    n_paths = 2 * BLOCK_SIZE + 17
    [(x, ints)] = paths_at(P, starts, 0.25, 0.1, n_paths, 4, _rho(P))
    assert x.shape == (3, n_paths, n)
    for k, x0 in enumerate(starts):
        # a single start keeps its start axis
        [(one, one_ints)] = paths_at(P, x0, 0.25, 0.1, n_paths, 4, _rho(P))
        assert one.shape == (1, n_paths, n)
        np.testing.assert_array_equal(x[k:k + 1], one)
        np.testing.assert_array_equal(ints["rho"][k:k + 1], one_ints["rho"])


def test_blocks_fill_their_slices_under_thread_contention(monkeypatch,
                                                          paths_at):
    # more workers than cores, switching threads as often as possible: a
    # block that lost its write would leave a slice unlike the serial run
    P = make_example_potential("gaussian", n=1)
    starts = np.array([[-1.0], [0.0], [2.0]])
    n_paths = 8 * BLOCK_SIZE + 5
    monkeypatch.setenv("CURVLAB_THREADS", "1")
    [(serial, serial_ints)] = paths_at(P, starts, 0.05, 1e-2, n_paths, 9,
                                       _rho(P))
    monkeypatch.setenv("CURVLAB_THREADS", "8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        [(threaded, threaded_ints)] = paths_at(P, starts, 0.05, 1e-2,
                                               n_paths, 9, _rho(P))
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(serial, threaded)
    np.testing.assert_array_equal(serial_ints["rho"], threaded_ints["rho"])


def test_explosion_guard_is_per_start(paths_at):
    # the drift expands only above x = 0.5: no path from -1000 explodes and
    # every path from 1 does, so the worst start's fraction is reported, not
    # the pooled 0.5
    P = make_example_potential("gaussian", n=1)
    bad = type(P)(n=1, value=P.value,
                  gradient=lambda x: np.where(x > 0.5, -1e5 * x, x),
                  hessian=P.hessian, label="expanding", family="custom",
                  curvature=P.curvature)
    paths_at(bad, [-1000.0], 1.5, 0.5, 64, 0, _rho(bad))
    with pytest.raises(SimulationError) as exc:
        paths_at(bad, [[-1000.0], [1.0]], 1.5, 0.5, 64, 0, _rho(bad))
    assert exc.value.exploded_fraction == 1.0


def test_one_exploded_path_in_twenty_thousand_raises(paths_at):
    # from 0 the first step is the draw itself; the drift expands only above
    # a threshold between the two largest draws, so exactly one path explodes
    P = make_example_potential("gaussian", n=1)
    first = paths_at(P, [0.0], 0.5, 0.5, 20000, 0, {})[0][0][0, :, 0]
    c = np.mean(np.sort(first)[-2:])
    bad = type(P)(n=1, value=P.value,
                  gradient=lambda x: np.where(x > c, -1e9 * x, x),
                  hessian=P.hessian, label="expanding", family="custom",
                  curvature=P.curvature)
    with pytest.raises(SimulationError) as exc:
        paths_at(bad, [0.0], 1.0, 0.5, 20000, 0, _rho(bad))
    assert exc.value.exploded_fraction == 1 / 20000


def test_overflowing_paths_raise_without_warnings(paths_at):
    # from x0 = 50 at dt = 1 the double well's cubic drift overflows to inf
    # and then to NaN; the run fails before any RuntimeWarning escapes
    W = make_double_well()
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(SimulationError) as exc:
            paths_at(W, [50.0], 20.0, 1.0, 200, 0, _rho(W))
    assert exc.value.exploded_fraction == 1.0
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("threads", ["1", "4"])
def test_explosion_is_raised_at_the_first_time_it_happens(monkeypatch,
                                                          paths_at, threads):
    # the drift expands only above x = 1: no path has exploded at t = 0.5,
    # the paths above 1 there have by t = 1, and more by t = 1.5; three
    # times, unsorted, on two blocks raise at t = 1 with t = 1's fraction
    monkeypatch.setenv("CURVLAB_THREADS", threads)
    P = make_example_potential("gaussian", n=1)
    bad = type(P)(n=1, value=P.value,
                  gradient=lambda x: np.where(x > 1.0, -1e9 * x, x),
                  hessian=P.hessian, label="expanding", family="custom",
                  curvature=P.curvature)
    def run(t):
        return paths_at(bad, [0.0], t, 0.5, BLOCK_SIZE + 100, 0, _rho(bad))

    run(0.5)
    fractions = []
    for t in (1.0, 1.5):
        with pytest.raises(SimulationError) as exc:
            run(t)
        fractions.append(exc.value.exploded_fraction)
    assert 0.0 < fractions[0] < fractions[1]
    with pytest.raises(SimulationError, match="at step 0.5") as exc:
        run((1.5, 0.5, 1.0))
    assert exc.value.exploded_fraction == fractions[0]


def _one_draw_per_step(potential, x0_block, plans, dt, rng, functionals,
                       twin=False):
    """The Euler loop as it was before chunked draws: one standard_normal
    call per step, a partial step sharing the next full step's normals."""
    k = len(x0_block)
    x = np.concatenate([x0_block] * (1 + twin))
    acc = {name: np.zeros(x.shape[:-1]) for name in functionals}
    draws = []

    def normals(i):
        while len(draws) <= i:
            draws.append(rng.standard_normal(x.shape[1:]))
        return draws[i]

    def step(y, acc, h, noise):
        drift = potential.gradient(y)
        for name, phi in functionals.items():
            acc[name] += h * phi(y, drift)
        return y + np.sqrt(2.0 * h) * noise - drift * h

    done = 0
    for j in sorted(range(len(plans)), key=plans.__getitem__):
        n_full, rem = plans[j]
        for i in range(done, n_full):
            x[:k] = step(x[:k], {n: a[:k] for n, a in acc.items()}, dt,
                         normals(i))
            if twin and (i + 1) % LEVEL_RATIO == 0:
                summed = np.zeros(x.shape[1:])
                for r in range(i + 1 - LEVEL_RATIO, i + 1):
                    summed += normals(r)
                summed *= LEVEL_RATIO ** -0.5
                x[k:] = step(x[k:], {n: a[k:] for n, a in acc.items()},
                             LEVEL_RATIO * dt, summed)
        done = n_full
        if rem > 0.0:
            part_acc = {name: a.copy() for name, a in acc.items()}
            yield j, step(x[:k], part_acc, rem, normals(n_full)), part_acc
        else:
            yield j, x, acc


def _both_kernels(run):
    """run() with the chunked kernel, then with the one-draw-per-step loop."""
    chunked = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sde, "_run_block", _one_draw_per_step)
        return chunked, run()


@pytest.mark.parametrize("threads", ["1", "4"])
def test_chunked_draws_match_one_draw_per_step(monkeypatch, paths_at,
                                               threads):
    monkeypatch.setenv("CURVLAB_THREADS", threads)
    P = make_example_potential("spherical", 1.5, 2)
    starts = [[0.3, -0.4], [2.0, 1.0]]
    # 1024 paths in n = 2 draw c steps per chunk: the partial step of t1
    # needs step c's normals, the first of the second chunk, and t2 ends
    # in a short chunk
    c = CHUNK_BYTES // (8 * 1024 * 2)
    assert c > 1
    ts = [(c + 0.5) * 0.01, (2 * c + 1) * 0.01, 0.0]
    # a gaussian, whose drift is the positions themselves, on a short last
    # block: 37 paths, whose chunks are longer than the first block's
    G = make_example_potential("gaussian", n=1)
    for pot, x0, t, n_paths in ((P, starts, ts, 1024),
                                (G, [[-0.5], [1.0]], [0.255, 1.0],
                                 BLOCK_SIZE + 37)):
        functionals = {"rho": lambda x, d: pot.curvature(x),
                       "x0": lambda x, d: x[..., 0]}
        a, b = _both_kernels(lambda: paths_at(pot, x0, t, 0.01, n_paths, 6,
                                              functionals))
        for (xa, ia), (xb, ib) in zip(a, b):
            np.testing.assert_array_equal(xa, xb)
            for name in functionals:
                np.testing.assert_array_equal(ia[name], ib[name])


@pytest.mark.parametrize("threads", ["1", "4"])
def test_chunked_twins_match_one_draw_per_step(monkeypatch, threads):
    # three levels at dt = 1e-3 to t = 0.25: 2 BLOCK_SIZE + 37 plain paths,
    # a short last block, then 1469 and 132 path pairs, whose chunks hold
    # whole coarse steps
    monkeypatch.setenv("CURVLAB_THREADS", threads)
    P = make_example_potential("spherical", 1.5, 2)
    cert = make_lyapunov("spherical", 1.5, 2.0, 2)
    a, b = _both_kernels(lambda: multilevel_mean(
        P, [[0.3, -0.4], [1.0, 0.5]], [0.25, 0.1],
        lambda j, x, ints: cert.g_value(x) * np.exp(-ints["w"]), 1e-3,
        2 * BLOCK_SIZE + 37, 2, {"w": cert.lg_over_g}))
    for u, v in zip(a, b):
        np.testing.assert_array_equal(u, v)


def test_monte_carlo_holds_one_time_of_paths():
    # tracemalloc sees numpy's buffers.  A value_grad of 21 starts (7 points
    # and their shifts) at 20 000 paths over the default schedule's 5
    # positive times, one time's positions being 3.36 MB: the walk holds the
    # paths and the time it hands over, and the mean of f over them its
    # values and the std's temporary, 13.8 MB measured.  Holding every
    # time's positions, as one (T, k, n_paths, n) array, took 27.5 MB
    engine = MonteCarloEngine(make_example_potential("gaussian", n=1),
                              n_paths=20_000, dt=1e-2)
    sched = Schedule()
    one_time = 21 * 20_000 * 8
    tracemalloc.start()
    try:
        engine.value_grad(get("sine"), sched.ts, sched.xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * one_time
