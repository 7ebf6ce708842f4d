"""Path sampler: reproducibility, thread independence, weak accuracy."""

import os
import sys
import warnings

import numpy as np
import pytest

from curvlab.errors import ParameterError, SimulationError
from curvlab.potentials import make_example_potential, make_double_well
from curvlab.sde import simulate, BLOCK_SIZE


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
    np.testing.assert_array_equal(out.positions, np.broadcast_to([1.0, 2.0], (64, 2)))
    np.testing.assert_array_equal(out.integrals["rho"], np.zeros(64))


def test_ou_mean_and_variance():
    # gaussian potential: X_t ~ N(x0 e^-t, 1 - e^-2t); weak error O(dt)
    P = make_example_potential("gaussian", n=1)
    t, x0 = 0.5, 2.0
    out = simulate(P, [x0], t=t, dt=5e-4, n_paths=200_000, seed=11)
    xs = out.positions[:, 0]
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
                   functionals={"one": lambda x: np.ones(x.shape[:-1]),
                                "x2": lambda x: x[..., 0] ** 2})
    np.testing.assert_allclose(out.integrals["one"], 0.2, atol=1e-12)
    assert np.all(out.integrals["x2"] >= 0.0)
    assert "rho" not in out.integrals


def test_explosion_guard_raises():
    # an expanding drift: V = -|x|^2 pushes mass out exponentially fast
    bad = make_example_potential("gaussian", n=1)
    bad = type(bad)(n=1, value=lambda x: -0.5 * np.sum(x * x, -1),
                    gradient=lambda x: -np.asarray(x, float) * 1e5,
                    hessian=bad.hessian, label="expanding", family="custom")
    with pytest.raises(SimulationError) as exc:
        simulate(bad, [1.0], t=1.5, dt=0.5, n_paths=64, seed=0)
    assert exc.value.exploded_fraction > 0.9


def test_double_well_paths_stay_bounded():
    W = make_double_well()
    out = simulate(W, [0.0], t=1.0, dt=1e-2, n_paths=4096, seed=2)
    assert out.exploded_fraction == 0.0
    assert np.max(np.abs(out.positions)) < 10.0


def test_parameter_errors():
    P = make_example_potential("gaussian", n=1)
    with pytest.raises(ParameterError):
        simulate(P, [0.0], t=-1.0, dt=1e-3)
    with pytest.raises(ParameterError):
        simulate(P, [0.0], t=1.0, dt=0.0)
    with pytest.raises(ParameterError):
        simulate(P, [0.0], t=1.0, dt=1e-3, n_paths=0)
    # x0 is one point (n,) or k start points (k, n)
    for x0 in (np.zeros((2, 3, 1)), np.zeros(2), np.zeros((3, 2)),
               np.zeros((0, 1)), 0.0):
        with pytest.raises(ParameterError):
            simulate(P, x0, t=1.0, dt=1e-3, n_paths=7)


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
        one = simulate(P, x0, t=0.25, dt=0.1, n_paths=n_paths, seed=4)
        np.testing.assert_array_equal(out.positions[k], one.positions)
        np.testing.assert_array_equal(out.integrals["rho"][k],
                                      one.integrals["rho"])
        np.testing.assert_array_equal(out.exploded[k], one.exploded)


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
    np.testing.assert_array_equal(serial.exploded, threaded.exploded)


def test_explosion_guard_is_per_start():
    # the drift expands only above x = 0.5: no path from -1000 explodes and
    # every path from 1 does, so the worst start's fraction is reported, not
    # the pooled 0.5
    P = make_example_potential("gaussian", n=1)
    bad = type(P)(n=1, value=P.value,
                  gradient=lambda x: np.where(x > 0.5, -1e5 * x, x),
                  hessian=P.hessian, label="expanding", family="custom")
    safe = simulate(bad, [-1000.0], t=1.5, dt=0.5, n_paths=64, seed=0)
    assert safe.exploded_fraction == 0.0
    with pytest.raises(SimulationError) as exc:
        simulate(bad, [[-1000.0], [1.0]], t=1.5, dt=0.5, n_paths=64, seed=0)
    assert exc.value.exploded_fraction == 1.0


def test_one_exploded_path_in_twenty_thousand_raises():
    # from 0 the first step is the draw itself; the drift expands only above
    # a threshold between the two largest draws, so exactly one path explodes
    P = make_example_potential("gaussian", n=1)
    first = simulate(P, [0.0], t=0.5, dt=0.5, n_paths=20000, seed=0,
                     functionals={}).positions[:, 0]
    c = np.mean(np.sort(first)[-2:])
    bad = type(P)(n=1, value=P.value,
                  gradient=lambda x: np.where(x > c, -1e9 * x, x),
                  hessian=P.hessian, label="expanding", family="custom")
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
