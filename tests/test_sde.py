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
from curvlab.sde import (BLOCK_SIZE, CHUNK_BYTES, LEVEL_RATIO,
                         multilevel_mean, simulate)
from curvlab.semigroup import MonteCarloEngine
from curvlab.suite import get
from curvlab.verify import Schedule


def test_bit_reproducible():
    P = make_example_potential("gaussian", n=2)
    a = simulate(P, [0.5, -0.5], t=0.25, dt=1e-2, n_paths=3000, seed=7)
    b = simulate(P, [0.5, -0.5], t=0.25, dt=1e-2, n_paths=3000, seed=7)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.integrals["rho"], b.integrals["rho"])
    c = simulate(P, [0.5, -0.5], t=0.25, dt=1e-2, n_paths=3000, seed=8)
    assert not np.array_equal(a.positions, c.positions)


def test_thread_count_does_not_change_bits(monkeypatch):
    P = make_example_potential("spherical", 1.5, 1)
    n = 2 * BLOCK_SIZE + 100  # force several blocks
    monkeypatch.delenv("CURVLAB_THREADS", raising=False)
    a = simulate(P, [0.0], t=0.1, dt=1e-2, n_paths=n, seed=3)
    monkeypatch.setenv("CURVLAB_THREADS", "4")
    b = simulate(P, [0.0], t=0.1, dt=1e-2, n_paths=n, seed=3)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.integrals["rho"], b.integrals["rho"])


def test_partial_final_step():
    P = make_example_potential("gaussian", n=1)
    # t = 0.25, dt = 0.1 -> 2 full steps plus a 0.05 remainder
    out = simulate(P, [1.0], t=0.25, dt=0.1, n_paths=16, seed=0)
    assert out.n_steps == 3
    assert out.t == 0.25
    # step count exact when dt divides t
    out = simulate(P, [1.0], t=0.3, dt=0.1, n_paths=16, seed=0)
    assert out.n_steps == 3


def test_zero_time_is_identity():
    P = make_example_potential("gaussian", n=2)
    out = simulate(P, [1.0, 2.0], t=0.0, dt=1e-3, n_paths=64, seed=0)
    np.testing.assert_array_equal(out.positions,
                                  np.broadcast_to([1.0, 2.0], (1, 64, 2)))
    np.testing.assert_array_equal(out.integrals["rho"], np.zeros((1, 64)))


def test_ou_mean_and_variance():
    # gaussian potential: X_t ~ N(x0 e^-t, 1 - e^-2t); weak error O(dt)
    P = make_example_potential("gaussian", n=1)
    t, x0 = 0.5, 2.0
    out = simulate(P, [x0], t=t, dt=5e-4, n_paths=200_000, seed=11)
    xs = out.positions[0, :, 0]
    mean_exact = x0 * np.exp(-t)
    var_exact = 1.0 - np.exp(-2.0 * t)
    assert xs.mean() == pytest.approx(mean_exact, abs=4.0 * xs.std() / np.sqrt(len(xs)))
    assert xs.var() == pytest.approx(var_exact, rel=2e-2)


def test_rho_integral_for_gaussian_is_time():
    # rho = 1 identically, so the accumulator equals t for every path
    P = make_example_potential("gaussian", n=2)
    out = simulate(P, [0.3, 0.3], t=0.37, dt=1e-2, n_paths=128, seed=1)
    np.testing.assert_allclose(out.integrals["rho"], 0.37, atol=1e-12)


def test_custom_functionals():
    P = make_example_potential("gaussian", n=1)
    out = simulate(P, [0.0], t=0.2, dt=1e-2, n_paths=256, seed=5,
                   functionals={"one": lambda x, drift: np.ones(x.shape[:-1]),
                                "x2": lambda x, drift: x[..., 0] ** 2})
    np.testing.assert_allclose(out.integrals["one"], 0.2, atol=1e-12)
    assert np.all(out.integrals["x2"] >= 0.0)
    assert "rho" not in out.integrals


def test_explosion_guard_raises():
    # an expanding drift: V = -|x|^2 pushes mass out exponentially fast
    bad = make_example_potential("gaussian", n=1)
    bad = type(bad)(n=1, value=lambda x: -0.5 * np.sum(x * x, -1),
                    gradient=lambda x: -np.asarray(x, float) * 1e5,
                    hessian=bad.hessian, label="expanding", family="custom",
                    curvature=bad.curvature)
    with pytest.raises(SimulationError) as exc:
        simulate(bad, [1.0], t=1.5, dt=0.5, n_paths=64, seed=0)
    assert exc.value.exploded_fraction > 0.9


def test_double_well_paths_stay_bounded():
    W = make_double_well()
    out = simulate(W, [0.0], t=1.0, dt=1e-2, n_paths=4096, seed=2)
    assert np.max(np.abs(out.positions)) < 10.0


def test_parameter_errors():
    P = make_example_potential("gaussian", n=1)
    with pytest.raises(ParameterError):
        simulate(P, [0.0], t=-1.0, dt=1e-3)
    with pytest.raises(ParameterError):
        simulate(P, [0.0], t=1.0, dt=0.0)
    with pytest.raises(ParameterError):
        simulate(P, [0.0], t=1.0, dt=1e-3, n_paths=0)
    # x0 is read by as_points: in n = 1 a scalar is one start and a 1-D
    # array k starts, so only these shapes, and a non-finite start, fail
    for x0 in (np.zeros((2, 3, 1)), np.zeros((3, 2)), np.zeros((0, 1)),
               [np.nan]):
        with pytest.raises(ParameterError):
            simulate(P, x0, t=1.0, dt=1e-3, n_paths=7)


def test_negative_seed_is_a_parameter_error():
    # numpy's SeedSequence would raise a bare ValueError
    P = make_example_potential("gaussian", n=1)
    with pytest.raises(ParameterError, match="seed"):
        simulate(P, [0.0], t=0.1, dt=1e-2, n_paths=7, seed=-1)


@pytest.mark.parametrize("threads", ["1", "4"])
@pytest.mark.parametrize("kind,n", [("gaussian", 2), ("spherical", 3)])
def test_start_points_match_single_runs(monkeypatch, threads, kind, n):
    # several blocks and a partial final step (t = 0.25 at dt = 0.1)
    P = make_example_potential(kind, None if kind == "gaussian" else 1.5, n)
    monkeypatch.setenv("CURVLAB_THREADS", threads)
    starts = np.random.default_rng(0).normal(size=(3, n))
    n_paths = 2 * BLOCK_SIZE + 17
    out = simulate(P, starts, t=0.25, dt=0.1, n_paths=n_paths, seed=4)
    assert out.positions.shape == (3, n_paths, n)
    assert out.n_paths == 3 * n_paths
    for k, x0 in enumerate(starts):
        # a single start keeps its start axis
        one = simulate(P, x0, t=0.25, dt=0.1, n_paths=n_paths, seed=4)
        assert one.positions.shape == (1, n_paths, n)
        np.testing.assert_array_equal(out.positions[k:k + 1], one.positions)
        np.testing.assert_array_equal(out.integrals["rho"][k:k + 1],
                                      one.integrals["rho"])


def test_blocks_fill_their_slices_under_thread_contention(monkeypatch):
    # more workers than cores, switching threads as often as possible: a
    # block that lost its write would leave a slice unlike the serial run
    P = make_example_potential("gaussian", n=1)
    starts = np.array([[-1.0], [0.0], [2.0]])
    n_paths = 8 * BLOCK_SIZE + 5
    monkeypatch.setenv("CURVLAB_THREADS", "1")
    serial = simulate(P, starts, t=0.05, dt=1e-2, n_paths=n_paths, seed=9)
    monkeypatch.setenv("CURVLAB_THREADS", "8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = simulate(P, starts, t=0.05, dt=1e-2, n_paths=n_paths,
                            seed=9)
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(serial.positions, threaded.positions)
    np.testing.assert_array_equal(serial.integrals["rho"],
                                  threaded.integrals["rho"])


def test_explosion_guard_is_per_start():
    # the drift expands only above x = 0.5: no path from -1000 explodes and
    # every path from 1 does, so the worst start's fraction is reported, not
    # the pooled 0.5
    P = make_example_potential("gaussian", n=1)
    bad = type(P)(n=1, value=P.value,
                  gradient=lambda x: np.where(x > 0.5, -1e5 * x, x),
                  hessian=P.hessian, label="expanding", family="custom",
                  curvature=P.curvature)
    simulate(bad, [-1000.0], t=1.5, dt=0.5, n_paths=64, seed=0)
    with pytest.raises(SimulationError) as exc:
        simulate(bad, [[-1000.0], [1.0]], t=1.5, dt=0.5, n_paths=64, seed=0)
    assert exc.value.exploded_fraction == 1.0


def test_one_exploded_path_in_twenty_thousand_raises():
    # from 0 the first step is the draw itself; the drift expands only above
    # a threshold between the two largest draws, so exactly one path explodes
    P = make_example_potential("gaussian", n=1)
    first = simulate(P, [0.0], t=0.5, dt=0.5, n_paths=20000, seed=0,
                     functionals={}).positions[0, :, 0]
    c = np.mean(np.sort(first)[-2:])
    bad = type(P)(n=1, value=P.value,
                  gradient=lambda x: np.where(x > c, -1e9 * x, x),
                  hessian=P.hessian, label="expanding", family="custom",
                  curvature=P.curvature)
    with pytest.raises(SimulationError) as exc:
        simulate(bad, [0.0], t=1.0, dt=0.5, n_paths=20000, seed=0)
    assert exc.value.exploded_fraction == 1 / 20000


def test_overflowing_paths_raise_without_warnings():
    # from x0 = 50 at dt = 1 the double well's cubic drift overflows to inf
    # and then to NaN; the run fails before any RuntimeWarning escapes
    W = make_double_well()
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(SimulationError) as exc:
            simulate(W, [50.0], t=20.0, dt=1.0, n_paths=200, seed=0)
    assert exc.value.exploded_fraction == 1.0
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("threads", ["1", "4"])
def test_explosion_is_raised_at_the_first_time_it_happens(monkeypatch,
                                                          threads):
    # the drift expands only above x = 1: no path has exploded at t = 0.5,
    # the paths above 1 there have by t = 1, and more by t = 1.5; three
    # times, unsorted, on two blocks raise at t = 1 with t = 1's fraction
    monkeypatch.setenv("CURVLAB_THREADS", threads)
    P = make_example_potential("gaussian", n=1)
    bad = type(P)(n=1, value=P.value,
                  gradient=lambda x: np.where(x > 1.0, -1e9 * x, x),
                  hessian=P.hessian, label="expanding", family="custom",
                  curvature=P.curvature)
    run = dict(x0=[0.0], dt=0.5, n_paths=BLOCK_SIZE + 100, seed=0)
    simulate(bad, t=0.5, **run)
    fractions = []
    for t in (1.0, 1.5):
        with pytest.raises(SimulationError) as exc:
            simulate(bad, t=t, **run)
        fractions.append(exc.value.exploded_fraction)
    assert 0.0 < fractions[0] < fractions[1]
    with pytest.raises(SimulationError, match="at step 0.5") as exc:
        simulate(bad, t=(1.5, 0.5, 1.0), **run)
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
def test_chunked_draws_match_one_draw_per_step(monkeypatch, threads):
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
        a, b = _both_kernels(lambda: simulate(
            pot, x0, t, dt=0.01, n_paths=n_paths, seed=6,
            functionals=functionals))
        np.testing.assert_array_equal(a.positions, b.positions)
        for name in functionals:
            np.testing.assert_array_equal(a.integrals[name],
                                          b.integrals[name])
        assert a.n_steps == b.n_steps


@pytest.mark.parametrize("threads", ["1", "4"])
def test_chunked_twins_match_one_draw_per_step(monkeypatch, threads):
    # three levels at dt = 1e-3 to t = 0.25: BLOCK_SIZE + 37 plain paths,
    # then 737 and 100 path pairs, whose chunks hold whole coarse steps
    monkeypatch.setenv("CURVLAB_THREADS", threads)
    P = make_example_potential("spherical", 1.5, 2)
    cert = make_lyapunov("spherical", 1.5, 2.0, 2)
    a, b = _both_kernels(lambda: multilevel_mean(
        P, [[0.3, -0.4], [1.0, 0.5]], [0.25, 0.1],
        lambda x, ints: cert.g_value(x) * np.exp(-ints["w"]), 1e-3,
        BLOCK_SIZE + 37, 2, {"w": cert.lg_over_g}))
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
