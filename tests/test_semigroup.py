import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import lapack, solve_banded

from curvlab.errors import DomainError, NumericalError, ParameterError
from curvlab.potentials import make_double_well, make_example_potential
from curvlab.semigroup import (
    GridEngine,
    MehlerEngine,
    MonteCarloEngine,
    RightSide,
    TestFunction,
    as_points,
    enhanced_gap,
    gamma,
    gamma2,
    gamma_gamma,
    grid_apply,
    grid_generator,
    make_engine,
    mehler_apply,
)
from curvlab import semigroup, suite
from curvlab.sde import BLOCK_SIZE, _step_plan, _times, multilevel_mean
from curvlab.verify import Schedule

GAUSS = make_example_potential("gaussian")
SPH15 = make_example_potential("spherical", alpha=1.5)
SPH15_2 = make_example_potential("spherical", alpha=1.5, n=2)


def fd1(func, s, h=1e-5):
    return (func(s + h) - func(s - h)) / (2 * h)


def fd2(func, s, h=1e-4):
    return (func(s + h) - 2 * func(s) + func(s - h)) / h**2


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(suite.catalog()))
def test_catalog_derivatives_consistent(name):
    f = suite.get(name)
    s = np.linspace(-2.3, 2.3, 9)
    x = s[:, None]

    def v(t):
        return f.value(t[:, None] if t.ndim == 1 else t)

    np.testing.assert_allclose(f.gradient(x)[:, 0], fd1(v, s),
                               rtol=1e-5, atol=1e-7)
    np.testing.assert_allclose(f.hessian(x)[:, 0, 0], fd2(v, s),
                               rtol=1e-3, atol=1e-5)


def test_suite_membership():
    assert len(suite.main_suite()) == 12
    assert all(np.all(f.value(np.linspace(-6, 6, 101)[:, None]) > 0)
               for f in suite.positive_suite())
    for f in suite.unit_suite():
        v = f.value(np.linspace(-8, 8, 201)[:, None])
        assert np.all(v > 0) and np.all(v < 1)
    for f in suite.bounded_gradient_suite():
        g = f.gradient(np.linspace(-30, 30, 301)[:, None])
        assert np.max(np.abs(g)) < 1.5
    assert suite.get("linear") is suite.catalog()["linear"]
    with pytest.raises(ParameterError):
        suite.get("no-such-function")


def test_hermite_normalized_values_and_norms():
    h2 = suite.hermite_normalized(2)
    assert h2.value(np.array([[2.0]])) == pytest.approx(3.0 / math.sqrt(2), abs=1e-14)
    # unit norm and orthogonality against the gaussian weight
    for k in range(7):
        hk = suite.hermite_normalized(k)
        sq = lambda z: hk.value(z) ** 2
        assert mehler_apply(sq, 40.0, np.zeros(1), n=1) == pytest.approx(1.0, abs=1e-10)
    h3 = suite.hermite_normalized(3)
    prod = lambda z: h2.value(z) * h3.value(z)
    assert mehler_apply(prod, 40.0, np.zeros(1), n=1) == pytest.approx(0.0, abs=1e-10)


def test_hermite_normalized_derivatives():
    h4 = suite.hermite_normalized(4)
    s = np.linspace(-2, 2, 7)
    x = s[:, None]

    def v(t):
        return h4.value(t[:, None])

    np.testing.assert_allclose(h4.gradient(x)[:, 0], fd1(v, s), rtol=1e-6, atol=1e-8)
    with pytest.raises(ParameterError):
        suite.hermite_normalized(-1)


# ---------------------------------------------------------------------------
# carre du champ
# ---------------------------------------------------------------------------

def test_gamma_hand_values():
    f = suite.get("quadratic")
    g = suite.get("linear")
    x = np.array([[1.0], [2.0]])
    np.testing.assert_allclose(gamma(f, f, x), [4.0, 16.0])
    np.testing.assert_allclose(gamma(f, g, x), [2.0, 4.0])
    np.testing.assert_allclose(gamma(f, g, x), gamma(g, f, x))


def test_gamma2_gaussian_square():
    # f = x^2: ||Hess||^2 = 4, grad.Hess V grad = 4x^2
    f = suite.get("quadratic")
    x = np.array([[1.0]])
    assert gamma2(f, GAUSS, x)[0] == pytest.approx(8.0, abs=1e-12)
    assert gamma_gamma(f, x)[0] == pytest.approx(64.0, abs=1e-12)
    assert enhanced_gap(f, GAUSS, x)[0] == pytest.approx(0.0, abs=1e-12)


def test_gamma2_spherical_linear():
    f = suite.get("linear")
    x = np.zeros((1, 1))
    assert gamma2(f, SPH15, x)[0] == pytest.approx(1.5, abs=1e-12)


def test_enhanced_gap_vanishes_in_one_dim():
    # with one variable the Hessian term cancels exactly and the curvature
    # term matches rho pointwise, so the gap is identically zero
    x = (np.linspace(-3, 3, 13) + 0.137)[:, None]
    for pot in (GAUSS, SPH15):
        for name in suite.MAIN:
            f = suite.get(name)
            gam = gamma(f, f, x)
            keep = gam > 1e-8
            if not np.any(keep):
                continue
            gap = enhanced_gap(f, pot, x[keep])
            np.testing.assert_allclose(gap, 0.0, atol=1e-9)


def test_enhanced_gap_nonnegative_two_dim():
    f = TestFunction(
        2,
        lambda x: np.sin(x[..., 0]) + 0.5 * x[..., 1] ** 2,
        lambda x: np.stack([np.cos(x[..., 0]), x[..., 1]], axis=-1),
        lambda x: np.stack([
            np.stack([-np.sin(x[..., 0]), np.zeros_like(x[..., 0])], axis=-1),
            np.stack([np.zeros_like(x[..., 0]), np.ones_like(x[..., 0])], axis=-1),
        ], axis=-2),
        "sine-plus-half-square",
    )
    rng = np.random.default_rng(7)
    x = rng.uniform(-3, 3, size=(40, 2))
    gap = enhanced_gap(f, SPH15_2, x)
    assert np.all(gap >= -1e-10)
    assert np.max(gap) > 0.1  # strict somewhere, not an identity in n >= 2


def test_enhanced_gap_rejects_critical_point():
    f = suite.get("quadratic")
    with pytest.raises(DomainError):
        enhanced_gap(f, GAUSS, np.zeros((1, 1)))


# ---------------------------------------------------------------------------
# Mehler quadrature
# ---------------------------------------------------------------------------

def test_mehler_hand_values():
    f = suite.get("linear")
    got = mehler_apply(f, 0.7, np.array([2.0]), n=1)
    assert got == pytest.approx(2.0 * math.exp(-0.7), abs=1e-13)
    # P_t x^2 = e^{-2t} x^2 + 1 - e^{-2t} equals 1 at x = 1 for every t
    q = suite.get("quadratic")
    assert mehler_apply(q, 0.5, np.array([1.0]), n=1) \
        == pytest.approx(1.0, abs=1e-13)
    one = lambda z: np.ones(z.shape[:-1])
    assert mehler_apply(one, 1.3, np.array([0.4]), n=1) == pytest.approx(1.0, abs=1e-14)


def test_mehler_identity_at_time_zero():
    f = suite.get("hermite4")
    x = np.linspace(-2, 2, 5)[:, None]
    np.testing.assert_allclose(mehler_apply(f, 0.0, x, n=1), f.value(x),
                               atol=1e-12)


def test_mehler_matches_eigenfunction_decay():
    t = 0.3
    for k in range(7):
        hk = suite.hermite_normalized(k)
        x = np.array([1.3])
        got = mehler_apply(hk, t, x, n=1)
        want = math.exp(-k * t) * float(hk.value(x[None, :])[0])
        assert got == pytest.approx(want, abs=1e-12)


def test_mehler_two_dim():
    f = TestFunction(
        2,
        lambda x: x[..., 0] * x[..., 1],
        lambda x: np.stack([x[..., 1], x[..., 0]], axis=-1),
        lambda x: np.broadcast_to(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                  x.shape[:-1] + (2, 2)),
        "product",
    )
    # coordinates decouple: P_t (x1 x2) = e^{-2t} x1 x2
    got = mehler_apply(f, 0.4, np.array([1.5, -2.0]), n=2)
    assert got == pytest.approx(math.exp(-0.8) * -3.0, abs=1e-12)


def test_mehler_reads_points_in_the_dimension_it_is_given():
    # a 1-D array is k points in R^1, never one point in R^k; the dimension
    # is not guessed from the points, so omitting it is an error
    xs = np.linspace(-3.0, 3.0, 7)
    got = mehler_apply(lambda z: z[..., 0], 0.5, xs, order=2, n=1)
    assert got.shape == (7,)
    np.testing.assert_allclose(got, math.exp(-0.5) * xs, rtol=1e-14,
                               atol=1e-15)
    with pytest.raises(TypeError):
        mehler_apply(lambda z: z[..., 0], 0.5, xs, order=2)


def test_mehler_parameter_errors():
    f = suite.get("linear")
    with pytest.raises(ParameterError):
        mehler_apply(f, 0.5, np.array([1.0]), order=1, n=1)
    with pytest.raises(ParameterError):
        mehler_apply(f, -0.1, np.array([1.0]), n=1)
    with pytest.raises(ParameterError):
        mehler_apply(f, 0.5, np.zeros((2, 2)), n=1)  # wrong dimension
    with pytest.raises(ParameterError):
        MehlerEngine(SPH15)
    with pytest.raises(ParameterError):
        MehlerEngine(make_example_potential("gaussian", n=4))


def test_mehler_engine_commutation_bounds():
    # |grad P_t f| <= e^{-t} P_t |grad f| and the squared variant
    eng = MehlerEngine(GAUSS)
    f = suite.get("sine")
    x = np.linspace(-3, 3, 7)[:, None]
    for t in (0.1, 0.5, 1.0):
        _, _, grad = eng.value_grad(f, t, x)
        lhs = np.abs(grad[:, 0])
        absgrad = lambda z: np.abs(f.gradient(z)[..., 0])
        rhs = math.exp(-t) * eng.apply(absgrad, t, x)[0]
        assert np.all(rhs - lhs >= -1e-9)
        sqgrad = lambda z: f.gradient(z)[..., 0] ** 2
        rhs2 = math.exp(-2 * t) * eng.apply(sqgrad, t, x)[0]
        assert np.all(rhs2 - np.sum(np.square(grad), axis=-1) >= -1e-9)


def test_mehler_engine_gradient_exact():
    eng = MehlerEngine(GAUSS)
    f = suite.get("sine")
    t, x = 0.7, np.array([0.9])
    spread = 1.0 - math.exp(-2 * t)
    want = math.exp(-t) * math.cos(math.exp(-t) * 0.9) * math.exp(-spread / 2)
    assert eng.value_grad(f, t, x)[2][0] == pytest.approx(want, abs=1e-10)


def test_mehler_value_grad_is_one_quadrature_of_the_old_formula():
    # the columns [f, f'] of one quadrature are bitwise P_t f and
    # e^-t P_t f' from a quadrature each; t = 0 takes no quadrature and
    # gives f and f' at the points
    eng = MehlerEngine(GAUSS)
    f = suite.get("sine")
    x = np.linspace(-3.0, 3.0, 7)
    t = 0.7
    v, err, g = eng.value_grad(f, t, x)
    np.testing.assert_array_equal(v, mehler_apply(f, t, x, eng.order, n=1))
    comp = mehler_apply(lambda z: f.gradient(z)[..., 0], t, x, eng.order,
                        n=1)
    np.testing.assert_array_equal(g[:, 0], math.exp(-t) * comp)
    assert np.all(err == 0.0)
    v, err, g = eng.value_grad(f, 0.0, x)
    np.testing.assert_array_equal(v, f(x[:, None]))
    np.testing.assert_array_equal(g, f.gradient(x[:, None]))
    assert np.all(err == 0.0)


# ---------------------------------------------------------------------------
# grid engine
# ---------------------------------------------------------------------------

def test_grid_generator_rows():
    gen = grid_generator(GAUSS, -8.0, 8.0, 801)
    np.testing.assert_allclose(gen.apply(np.ones(801)), 0.0, atol=1e-9)
    nodes = np.linspace(-8, 8, 801)
    # L x = -x away from the ends, L x^2 = 2 - 2 x^2 to O(h^2)
    lx = gen.apply(nodes)
    np.testing.assert_allclose(lx[1:-1], -nodes[1:-1], atol=1e-8)
    lx2 = gen.apply(nodes**2)
    np.testing.assert_allclose(lx2[1:-1], 2.0 - 2.0 * nodes[1:-1] ** 2, atol=1e-8)


def test_grid_generator_errors():
    with pytest.raises(ParameterError):
        grid_generator(GAUSS, -8.0, 8.0, 2)
    with pytest.raises(ParameterError):
        grid_generator(GAUSS, 8.0, -8.0, 801)
    with pytest.raises(ParameterError):
        grid_generator(SPH15_2, -8.0, 8.0, 801)


def test_grid_generator_guards_the_cell_peclet_number():
    # on [-8, 8] the largest interior |V'| h is (8 - h) h: 1.94 at m = 65,
    # where every off-diagonal of L is still positive, and 2.06 at m = 61;
    # L's couplings off_i D_{i+1}/D_i and off_i D_i/D_{i+1} are positive
    # when the symmetric off-diagonal and the weights D are
    gen = grid_generator(GAUSS, -8.0, 8.0, 65)
    assert np.all(gen.off > 0.0) and np.all(gen.scale > 0.0)
    with pytest.raises(ParameterError, match="Peclet number"):
        grid_generator(GAUSS, -8.0, 8.0, 61)


def test_grid_generator_guards_the_weight_span():
    # the double well's sqrt(pi) weights span e^580 on [-8, 8] at m = 4501,
    # inside the bound of e^700, and e^727 on [-8.5, 8.5] at m = 6001
    gen = grid_generator(make_double_well(), -8.0, 8.0, 4501)
    log_d = np.log(gen.scale)
    assert 570.0 < np.max(log_d) - np.min(log_d) < 700.0
    assert np.max(log_d) == pytest.approx(-np.min(log_d))
    with pytest.raises(ParameterError, match="weights span e\\^727"):
        grid_generator(make_double_well(), -8.5, 8.5, 6001)


@pytest.mark.parametrize("dt", [0.0, -1.0, math.inf, math.nan])
def test_engines_refuse_a_time_step_when_built(dt):
    for engine in (GridEngine, MonteCarloEngine):
        with pytest.raises(ParameterError, match="dt > 0"):
            engine(GAUSS, dt=dt)


def test_monte_carlo_engine_refuses_a_negative_seed_when_built():
    with pytest.raises(ParameterError, match="seed"):
        MonteCarloEngine(GAUSS, n_paths=100, seed=-1)


@pytest.mark.parametrize("lo,hi", [(-math.inf, 1.0), (-1.0, math.inf),
                                   (math.nan, 1.0), (-1.0, math.nan)])
def test_grid_window_that_is_not_finite_is_refused(lo, hi):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="finite window"):
            GridEngine(GAUSS, lo=lo, hi=hi, m=11)


def test_grid_apply_linear_decay():
    gen = grid_generator(GAUSS, -8.0, 8.0, 801)
    u = grid_apply(gen, suite.get("linear")(gen.nodes[:, None]), 0.5, 1e-3)
    interior = np.abs(gen.nodes) <= 6.0
    err = np.abs(u - math.exp(-0.5) * gen.nodes)
    assert np.max(err[interior]) < 1e-3


def test_grid_apply_is_a_semigroup():
    gen = grid_generator(GAUSS, -8.0, 8.0, 801)
    f0 = suite.get("sine")(gen.nodes[:, None])
    once = grid_apply(gen, f0, 0.5, 1e-3)
    split = grid_apply(gen, grid_apply(gen, f0, 0.25, 1e-3), 0.25, 1e-3)
    np.testing.assert_allclose(split, once, atol=1e-10)


def test_grid_apply_preserves_constants():
    gen = grid_generator(GAUSS, -8.0, 8.0, 801)
    u = grid_apply(gen, np.ones(801), 1.0, 1e-3)
    np.testing.assert_allclose(u, 1.0, atol=1e-12)


def test_grid_apply_time_zero_and_errors():
    gen = grid_generator(GAUSS, -8.0, 8.0, 801)
    f0 = suite.get("sine")(gen.nodes[:, None])
    u0 = grid_apply(gen, f0, 0.0, 1e-3)
    np.testing.assert_array_equal(u0, f0)
    assert u0 is not f0
    # dt > t: the step plan's one partial step is a full step of size t
    np.testing.assert_array_equal(grid_apply(gen, f0, 0.5, 0.7),
                                  grid_apply(gen, f0, 0.5, 0.5))
    with pytest.raises(ParameterError):
        grid_apply(gen, f0, 0.5, 0.0)
    other = suite.get("sine")(np.linspace(-8.0, 8.0, 401)[:, None])
    with pytest.raises(ParameterError):
        grid_apply(gen, other, 0.5, 1e-3)


def _rows(potential, lo, hi, m):
    # L's rows (lower, diag, upper) as the difference formulas give them,
    # before any symmetric form; lower[0] and upper[-1] are unused
    nodes = np.linspace(lo, hi, m)
    h = (hi - lo) / (m - 1)
    vp = potential.gradient(nodes[:, None])[:, 0]
    lower = 1.0 / h**2 + vp / (2.0 * h)
    upper = 1.0 / h**2 - vp / (2.0 * h)
    upper[0] = lower[-1] = 2.0 / h**2
    return lower, np.full(m, -2.0 / h**2), upper


def _rows_apply(rows, u):
    lower, diag, upper = (c.reshape((-1,) + (1,) * (u.ndim - 1))
                          for c in rows)
    out = diag * u
    out[1:] += lower[1:] * u[:-1]
    out[:-1] += upper[:-1] * u[1:]
    return out


def _marched(gen, u, ts, dt):
    # one plain march's node values, in ts's order
    out = [None] * len(ts)
    for j, v in semigroup._march(gen, u, ts, dt):
        out[j] = v
    return out


def _banded_march(rows, f, t, dt):
    # Crank-Nicolson on u itself, with L's rows: solve_banded refactors the
    # pivoted banded I - (dt/2) L at every step
    lower, diag, upper = rows

    def banded(h):
        ab = np.zeros((3, len(diag)))
        ab[0, 1:] = -0.5 * h * upper[:-1]
        ab[1, :] = 1.0 - 0.5 * h * diag
        ab[2, :-1] = -0.5 * h * lower[1:]
        return ab

    ts = _times(t)
    plans = [_step_plan(float(s), dt) for s in ts]
    u = np.array(f, dtype=float)
    ab = banded(dt)
    out = [None] * len(ts)
    done = 0
    for j in sorted(range(len(ts)), key=plans.__getitem__):
        n_full, rem = plans[j]
        for _ in range(done, n_full):
            u = solve_banded((1, 1), ab, u + 0.5 * dt * _rows_apply(rows, u))
        done = n_full
        v = u
        if rem > 0.0:
            v = solve_banded((1, 1), banded(rem),
                             u + 0.5 * rem * _rows_apply(rows, u))
        out[j] = v
    return out


@pytest.mark.parametrize("potential, lo, hi, m", [
    (make_double_well(), -6.0, 6.0, 2001),
    (SPH15, -12.0, 12.0, 4001)])
@pytest.mark.parametrize("names", [("sine",), ("sine", "quadratic", "cos-mix")])
def test_grid_apply_is_bitwise_the_banded_march(monkeypatch, potential, lo,
                                                hi, m, names):
    # the plain march in y = D u against Crank-Nicolson on u with L's
    # rows: no longer bitwise, as the two round differently, but within
    # 1e-11 of each column's largest value (2.2e-13 measured); off-grid and
    # partial-step times, unsorted
    ts, dt = (0.3, 0.0004, 0.57, 0.1), 1e-3
    gen = grid_generator(potential, lo, hi, m)
    z = np.linspace(lo, hi, m)[:, None]
    values = np.stack([suite.get(name).value(z) for name in names], axis=-1)
    # one column marches as an (m,) vector, as GridEngine hands it over
    f0 = values[:, 0] if len(names) == 1 else values
    factored = []
    real = lapack.dpttrf
    monkeypatch.setattr(lapack, "dpttrf",
                        lambda *a: factored.append(1) or real(*a))
    got = _marched(gen, f0, ts, dt)
    # one factorization for dt and one for each distinct partial step
    rems = {_step_plan(t, dt)[1] for t in ts} - {0.0}
    assert len(factored) == 1 + len(rems)
    for u, want in zip(got, _banded_march(_rows(potential, lo, hi, m), f0,
                                          ts, dt)):
        assert u.shape == f0.shape
        assert np.all(np.abs(u - want)
                      <= 1e-11 * np.max(np.abs(want), axis=0))


def _float80_march(rows, f, n_steps, dt):
    # n_steps Crank-Nicolson steps of u in float80 by the Thomas algorithm,
    # which needs no pivoting: I - (dt/2) L is diagonally dominant
    ld = np.longdouble
    lower, diag, upper = ([ld(v) for v in c] for c in rows)
    m, a = len(diag), ld(dt) / 2
    sub = [-a * v for v in lower]
    sup = [-a * v for v in upper]
    inv, ratio = [ld(0)] * m, [ld(0)] * m
    for i in range(m):
        pivot = 1 - a * diag[i] - (sub[i] * ratio[i - 1] if i else 0)
        inv[i] = 1 / pivot
        ratio[i] = sup[i] * inv[i]
    u = [ld(v) for v in f]
    for _ in range(n_steps):
        r = [u[i] + a * (diag[i] * u[i]
                         + (lower[i] * u[i - 1] if i else 0)
                         + (upper[i] * u[i + 1] if i < m - 1 else 0))
             for i in range(m)]
        for i in range(m):
            r[i] = (r[i] - (sub[i] * r[i - 1] if i else 0)) * inv[i]
        for i in range(m - 2, -1, -1):
            r[i] -= ratio[i] * r[i + 1]
        u = r
    return np.array(u, dtype=np.longdouble)


def test_grid_apply_matches_a_float80_march():
    # the double well on [-6, 6], whose weights D span e^189 at m = 1301:
    # 200 plain steps in y = D u stay within 1e-12 of max |u| of a float80
    # march of u with L's rows (3.8e-13 measured; 2.0e-13 for steps that
    # solve with (I + (dt/2) S) y, 1.6e-13 for a pivoted LU march of u in
    # float64)
    lo, hi, m, dt = -6.0, 6.0, 1301, 1e-3
    potential = make_double_well()
    gen = grid_generator(potential, lo, hi, m)
    f0 = suite.get("sine")(gen.nodes[:, None])
    want = _float80_march(_rows(potential, lo, hi, m), f0, 200, dt)
    u = _marched(gen, f0, [200 * dt], dt)[0]
    err = np.max(np.abs(u - want))
    assert float(err) <= 1e-12 * float(np.max(np.abs(want)))


def test_crank_nicolson_step_is_one_solve_of_the_midpoint_form():
    # 600 steps of 2 z - y, z = (I - (dt/2) S)^-1 y, against 600 steps of
    # (I - (dt/2) S)^-1 (I + (dt/2) S) y, scaled by max(1, |reference|)
    # (4.9e-13 measured); each column of a march depends on itself alone,
    # bitwise
    gen = grid_generator(make_double_well(), -6.0, 6.0, 2001)
    z = gen.nodes[:, None]
    f0 = np.stack([suite.get(name).value(z)
                   for name in ("sine", "quadratic", "cos-mix")], axis=-1)
    d, e, _ = lapack.dpttrf(1.0 - 0.5e-3 * gen.diag, -0.5e-3 * gen.off)
    y = gen.scale[:, None] * f0
    for _ in range(600):
        sy = gen.diag[:, None] * y
        sy[1:] += gen.off[:, None] * y[:-1]
        sy[:-1] += gen.off[:, None] * y[1:]
        y = lapack.dpttrs(d, e, y + 0.5e-3 * sy)[0]
    want = y / gen.scale[:, None]
    got = _marched(gen, f0, [0.6], 1e-3)[0]
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    for c in range(3):
        one = _marched(gen, f0[:, c], [0.6], 1e-3)[0]
        assert one.tobytes() == np.ascontiguousarray(got[:, c]).tobytes()


@pytest.mark.parametrize("potential, lo, hi, m, name, limit", [
    (GAUSS, -8.0, 8.0, 801, "hermite4", 2e-7),
    (GAUSS, -8.0, 8.0, 801, "sine", 2e-7),
    (make_double_well(), -6.0, 6.0, 2001, "linear", 3e-6)])
def test_grid_apply_time_error(potential, lo, hi, m, name, limit):
    # the extrapolated march at the default dt = 1e-2 against a plain march
    # at dt = 1e-4, on |x| <= 3 at the default schedule's times, scaled by
    # max(1, |reference|): 1.4e-7, 1.7e-8 and 1.2e-6 measured (the same on
    # the default gaussian window, [-12, 12] at m = 4001), each below the
    # plain march's error at dt = 1e-2 (2.9e-4, 3.5e-5, 3.6e-4)
    ts, dt = (0.1, 0.3, 0.5, 1.0, 2.0), 1e-2
    gen = grid_generator(potential, lo, hi, m)
    f0 = suite.get(name)(gen.nodes[:, None])
    near = np.abs(gen.nodes) <= 3.0
    ref = _marched(gen, f0, ts, 1e-4)

    def error(got):
        return max(float(np.max(np.abs(u - r)[near]
                                / np.maximum(1.0, np.abs(r[near]))))
                   for u, r in zip(got, ref))

    err = error(grid_apply(gen, f0, ts, dt))
    assert err <= limit
    assert err < error(_marched(gen, f0, ts, dt))


def test_grid_apply_singular_factor_raises():
    # a diagonal of 2/dt makes I - (dt/2) L the zero matrix, and one of 4/dt
    # makes it -I: neither is positive definite, which dpttrf flags
    m, dt = 101, 1e-3
    for diag in (2.0 / dt, 4.0 / dt):
        gen = semigroup.TridiagonalGenerator(np.linspace(-1.0, 1.0, m), 0.02,
                                             np.full(m, diag),
                                             np.zeros(m - 1), np.ones(m))
        with pytest.raises(NumericalError, match="positive definite"):
            grid_apply(gen, suite.get("sine")(gen.nodes[:, None]), 0.5, dt)


def test_grid_apply_validates_node_values():
    gen = grid_generator(GAUSS, -1.0, 1.0, 5)
    for values in (np.zeros(4), np.zeros((6, 2)), 0.0):
        with pytest.raises(ParameterError, match="nodes"):
            grid_apply(gen, values, 0.5, 1e-3)
    for bad in (np.nan, np.inf):
        with pytest.raises(ParameterError, match="finite"):
            grid_apply(gen, np.array([0.0, bad, 1.0, 0.0, 0.0]), 0.5, 1e-3)


def test_grid_engine_checks_its_grid_at_construction(monkeypatch):
    # m < 3, hi <= lo, a 2-D potential and a cell Peclet number of 2.06
    # (see test_grid_generator_guards_the_cell_peclet_number) are refused
    # when the engine is built, before anything marches; a valid engine
    # builds its generator once for all its calls
    built = []
    real = semigroup.grid_generator
    monkeypatch.setattr(semigroup, "grid_generator",
                        lambda *a: built.append(a) or real(*a))
    for potential, params in ((GAUSS, dict(m=2)), (GAUSS, dict(lo=1.0, hi=1.0)),
                              (GAUSS, dict(lo=2.0, hi=-2.0)), (SPH15_2, {}),
                              (GAUSS, dict(lo=-8.0, hi=8.0, m=61))):
        with pytest.raises(ParameterError):
            GridEngine(potential, **params)
    assert len(built) == 5
    eng = GridEngine(GAUSS, lo=-8.0, hi=8.0, m=801, dt=1e-2)
    eng.apply(suite.get("sine"), (0.1, 0.2), [0.0])
    eng.value_grad(suite.get("sine"), 0.3, [0.0])
    assert len(built) == 6


def test_grid_engine_values_and_gradient():
    eng = GridEngine(GAUSS, lo=-8.0, hi=8.0, m=801, dt=1e-3)
    f = suite.get("quadratic")
    x = np.array([[1.0], [-0.5]])
    vals, err = eng.apply(f, 0.5, x)
    want = math.exp(-1.0) * x[:, 0] ** 2 + 1.0 - math.exp(-1.0)
    np.testing.assert_allclose(vals, want, atol=1e-3)
    assert np.all(err == 0.0)
    v, verr, g = eng.value_grad(f, 0.5, x)
    np.testing.assert_array_equal(v, vals)
    assert np.all(verr == 0.0)
    np.testing.assert_allclose(g[:, 0], 2.0 * math.exp(-1.0) * x[:, 0], atol=1e-3)
    # t = 0 short-circuits to the analytic values
    v0, _ = eng.apply(f, 0.0, x)
    np.testing.assert_allclose(v0, x[:, 0] ** 2, atol=1e-15)
    np.testing.assert_allclose(eng.value_grad(f, 0.0, x)[2][:, 0], 2 * x[:, 0],
                               atol=1e-15)


def test_grid_engine_small_time():
    eng = GridEngine(GAUSS, lo=-8.0, hi=8.0, m=801, dt=1e-3)
    f = suite.get("linear")
    val, _ = eng.apply(f, 2e-4, np.array([1.0]))
    assert val == pytest.approx(math.exp(-2e-4), abs=1e-6)


def test_engines_agree_on_hermite_functions():
    mehler = MehlerEngine(GAUSS)
    grid = GridEngine(GAUSS)
    x = np.linspace(-3, 3, 7)[:, None]
    t = 0.5
    for k in range(7):
        hk = suite.hermite_normalized(k)
        exact = math.exp(-k * t) * hk.value(x)
        got_m, _ = mehler.apply(hk, t, x)
        np.testing.assert_allclose(got_m, exact, atol=1e-12)
        got_g, _ = grid.apply(hk, t, x)
        np.testing.assert_allclose(got_g, exact, atol=1e-3)


POLYTRIG = suite.polytrig_suite()
GRID_801 = GridEngine(GAUSS, lo=-8.0, hi=8.0, m=801)


@given(ts=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=3),
       xs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5))
@settings(max_examples=5, deadline=None)
def test_grid_engine_agrees_with_mehler_on_polytrig(ts, xs):
    # The grid error is C (h^2 + dt^2), h = 0.02, dt = 1e-3.  hermite4,
    # u = e^{-4t} (x^4 - 6x^2 + 3), sets C on |x| <= 3: linear interpolation
    # between nodes errs by h^2/8 |u''| <= 12 h^2, and the central
    # differences' truncation h^2 (|u''''|/12 + |x u'''|/6) decays with
    # e^{-4t}; a dense scan of t in [0.05, 2] and x in [-3, 3] peaks at
    # 8.3 h^2.  CN's time error dt^2/12 |d^3u/dt^3| <= 160 dt^2 = 1.6e-4
    # fits in the margin that C = 15 leaves.
    tol = 15.0 * (GRID_801.generator.h ** 2 + GRID_801.dt ** 2)

    def columns(z):
        return np.stack([f.value(z) for f in POLYTRIG], axis=-1)

    want, _ = MehlerEngine(GAUSS).apply(columns, ts, xs)
    got, _ = GRID_801.apply(columns, ts, xs)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=tol)


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------

def test_mc_engine_matches_mehler():
    eng = MonteCarloEngine(GAUSS, n_paths=100_000, dt=1e-3, seed=11)
    f = suite.get("linear")
    val, err = eng.apply(f, 0.5, np.array([1.0]))
    assert err > 0.0
    assert abs(val - math.exp(-0.5)) < 4 * err + 5e-4
    v0, e0 = eng.apply(f, 0.0, np.array([1.0]))
    assert np.all(v0 == 1.0) and np.all(e0 == 0.0)


def test_mc_engine_reproducible():
    eng = MonteCarloEngine(GAUSS, n_paths=20_000, dt=1e-3, seed=3)
    f = suite.get("sine")
    a = eng.apply(f, 0.3, np.array([0.5]))
    b = eng.apply(f, 0.3, np.array([0.5]))
    assert all(np.array_equal(u, v) for u, v in zip(a, b))


def test_mc_engine_gradient_common_random_numbers():
    eng = MonteCarloEngine(GAUSS, n_paths=50_000, dt=1e-3, seed=5)
    f = suite.get("quadratic")
    g = eng.value_grad(f, 0.25, np.array([1.0]))[2]
    assert g[0] == pytest.approx(2.0 * math.exp(-0.5), abs=0.02)


def test_mc_engine_at_one_level_is_the_plain_walk_mean(paths_at):
    # 200 paths leave one Euler level on the default schedule at dt = 1e-3:
    # values, stderrs, central differences and right sides are bitwise the
    # means over one plain walk of the points and their shifted starts
    eng = MonteCarloEngine(SPH15, n_paths=200, dt=1e-3, seed=4)
    f, xs, ts = suite.get("sine"), Schedule().xs, Schedule().ts[1:]

    def side(z):
        return np.stack([np.cos(z[..., 0]), z[..., 0] ** 2], axis=-1)

    got = eng.value_grad(f, ts, xs, rhs=[side] * len(ts))
    k, h = len(xs), 1e-3 * (1.0 + np.abs(xs))
    walk = paths_at(SPH15, np.concatenate([xs, xs + h, xs - h]), ts, 1e-3,
                    200, 4, {})
    for j, (x, _) in enumerate(walk):
        v = f(x)
        mean, se = v.mean(axis=-1), v.std(axis=-1, ddof=1) / math.sqrt(200)
        r = np.ascontiguousarray(np.moveaxis(side(x[:k]), 1, -1))
        want = (mean[:k], se[:k],
                ((mean[k:2 * k] - mean[2 * k:]) / (2.0 * h))[:, None],
                r.mean(axis=-1), r.std(axis=-1, ddof=1) / math.sqrt(200))
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a[j], b)


def test_mc_engine_validation():
    with pytest.raises(ParameterError):
        MonteCarloEngine(GAUSS, n_paths=10)


def test_make_engine_factory():
    assert make_engine("mehler", GAUSS).kind == "mehler"
    assert make_engine("grid", GAUSS, m=801).m == 801
    assert make_engine("monte-carlo", GAUSS, seed=9).seed == 9
    with pytest.raises(ParameterError):
        make_engine("spectral", GAUSS)
    for kind in ("mehler", "grid", "monte-carlo"):
        d = make_engine(kind, GAUSS).describe()
        assert d["kind"] == kind and "potential" in d


def test_make_engine_checks_its_parameters():
    assert make_engine("grid", GAUSS, m=801.0, lo=-6).describe()["m"] == 801
    assert isinstance(make_engine("grid", GAUSS, lo=-6).lo, float)
    for kind, params in (("grid", {"foo": 1}), ("grid", {"m": 2001.5}),
                         ("mehler", {"m": 801}),
                         ("monte-carlo", {"n_paths": "many"})):
        with pytest.raises(ParameterError):
            make_engine(kind, GAUSS, **params)


# ---------------------------------------------------------------------------
# the engine contract
# ---------------------------------------------------------------------------

def _three_engines():
    return (MehlerEngine(GAUSS),
            GridEngine(GAUSS, lo=-8.0, hi=8.0, m=801, dt=1e-2),
            MonteCarloEngine(GAUSS, n_paths=200, dt=1e-2, seed=1))


@pytest.mark.parametrize("x,n,shape", [
    (0.5, 1, (1, 1)),
    (np.array([0.0, 1.0]), 1, (2, 1)),
    (np.array([0.0, 1.0]), 2, (1, 2)),
    (np.zeros((3, 1)), 1, (3, 1)),
    (np.zeros((3, 2)), 2, (3, 2)),
])
def test_as_points_shapes(x, n, shape):
    pts = as_points(x, n)
    assert pts.shape == shape
    assert pts.dtype == float


@pytest.mark.parametrize("x,n", [
    (np.zeros((3, 2)), 1),
    (0.5, 2),
    (np.zeros(3), 2),
    (np.zeros((2, 2, 1)), 1),
    (np.zeros(0), 1),
    (np.array([0.0, np.nan]), 1),
    (np.array([[0.0, np.inf]]), 2),
])
def test_as_points_rejects(x, n):
    with pytest.raises(ParameterError):
        as_points(x, n)


def test_engines_read_a_1d_array_as_points():
    f = suite.get("quadratic")
    x = np.array([0.0, 1.0])
    for eng in _three_engines():
        vals, err = eng.apply(f, 0.3, x)
        assert vals.shape == err.shape == (2,)
        v, verr, g = eng.value_grad(f, 0.3, x)
        assert v.shape == verr.shape == (2,) and g.shape == (2, 1)
        with pytest.raises(ParameterError):
            eng.apply(f, 0.3, np.zeros((3, 2)))
        with pytest.raises(ParameterError):
            eng.value_grad(f, 0.3, np.array([0.0, np.nan]))


def test_value_grad_values_match_apply():
    f = suite.get("sine")
    x = np.linspace(-2.0, 2.0, 5)
    for eng in _three_engines():
        for t in (0.0, 0.4):
            vals, err = eng.apply(f, t, x)
            v, verr, _ = eng.value_grad(f, t, x)
            np.testing.assert_array_equal(v, vals)
            np.testing.assert_array_equal(verr, err)
            if eng.kind != "monte-carlo" or t == 0.0:
                assert np.all(verr == 0.0)


def _basis(z):
    return np.concatenate([np.cos(z), np.square(z)], axis=-1)


def _linear_side(c):
    # z -> cos z + c z^2, through the basis [cos z, z^2]
    return RightSide(lambda z: np.cos(z) + c * np.square(z), (_basis,),
                     lambda vals: vals[0][:, :1] + c * vals[0][:, 1:])


def test_grid_right_sides_march_each_basis_once(monkeypatch):
    # three right sides at t = 0.3, 0 and 0.1 share one basis: one march of
    # it to both positive times, each side bitwise its combination of a
    # separate apply of the basis; P_0 and the Mehler engine take the
    # function itself
    f, x, ts, cs = suite.get("sine"), np.linspace(-2.0, 2.0, 5), \
        (0.3, 0.0, 0.1), (0.5, 2.0, 3.0)
    rhs = [_linear_side(c) for c in cs]
    grid = GridEngine(GAUSS, lo=-8.0, hi=8.0, m=801, dt=1e-2)
    marches = []
    real = semigroup.grid_apply
    monkeypatch.setattr(semigroup, "grid_apply",
                        lambda *a: marches.append(a[2]) or real(*a))
    *_, vals, err = grid.value_grad(f, ts, x, rhs=rhs)
    assert len(marches) == 2
    for t, c, g, v in zip(ts, cs, rhs, vals):
        if t > 0.0:
            ab, _ = grid.apply(_basis, t, x)
            want = ab[:, :1] + c * ab[:, 1:]
        else:
            want = g(as_points(x, 1))
        assert v.tobytes() == want.tobytes()
    assert np.all(err == 0.0)
    *_, vals, _ = MehlerEngine(GAUSS).value_grad(f, ts, x, rhs=rhs)
    for t, g, v in zip(ts, rhs, vals):
        assert v.tobytes() == MehlerEngine(GAUSS).apply(g, t, x)[0].tobytes()


def test_grid_right_side_that_combines_to_non_finite_values_raises():
    side = RightSide(np.cos, (_basis,), lambda vals: 1e308 * vals[0] * 10.0)
    grid = GridEngine(GAUSS, lo=-8.0, hi=8.0, m=801, dt=1e-2)
    with pytest.raises(NumericalError, match="non-finite"):
        grid.value_grad(suite.get("sine"), 0.2, 0.0, rhs=[side])


def test_apply_passes_trailing_columns_through():
    # a 3-column function evolves once, and each column is bitwise what a
    # call with that column alone returns
    parts = [suite.get(name) for name in ("sine", "quadratic", "cos-mix")]

    def columns(z):
        return np.stack([f.value(z) for f in parts], axis=-1)

    x = np.linspace(-2.0, 2.0, 5)
    for eng in _three_engines():
        for t in (0.0, 0.4):
            vals, err = eng.apply(columns, t, x)
            assert vals.shape == err.shape == (5, 3)
            for j, f in enumerate(parts):
                v, e = eng.apply(f, t, x)
                np.testing.assert_array_equal(vals[:, j], v)
                np.testing.assert_array_equal(err[:, j], e)


@pytest.mark.parametrize("threads", ["1", "4"])
def test_time_sequences_match_single_times(monkeypatch, paths_at, threads):
    # 0, a time below dt and an off-grid time, unsorted and repeated: each
    # time's slice is bitwise what a call with that time alone returns
    monkeypatch.setenv("CURVLAB_THREADS", threads)
    ts = (0.255, 0.0, 0.003, 1.0, 0.255, 0.1)
    f = suite.get("sine")

    def columns(z):
        return np.stack([f.value(z), z[..., 0] ** 2], axis=-1)

    x = np.linspace(-2.0, 2.0, 5)
    for eng in _three_engines():
        got = eng.apply(columns, ts, x) + eng.value_grad(f, ts, x)
        assert [a.shape for a in got] == [(6, 5, 2), (6, 5, 2), (6, 5),
                                          (6, 5), (6, 5, 1)]
        for j, t in enumerate(ts):
            one = eng.apply(columns, t, x) + eng.value_grad(f, t, x)
            for a, b in zip(got, one):
                np.testing.assert_array_equal(a[j], b)
    gen = grid_generator(SPH15, -8.0, 8.0, 801)
    f0 = f(gen.nodes[:, None])
    # and two times one rounding apart, whose fine plans tie and whose
    # coarse plans (a partial step of 0.01 -+ 1e-14) sort the other way
    for times in (ts, (0.31 + 1e-14, 0.31 - 1e-14)):
        for u, t in zip(grid_apply(gen, f0, times, 1e-2), times):
            np.testing.assert_array_equal(u, grid_apply(gen, f0, t, 1e-2))
    # several blocks of paths from two starts
    starts = np.array([[-1.0], [0.5]])
    n_paths = 2 * BLOCK_SIZE + 17
    rho = {"rho": lambda x, drift: SPH15.curvature(x)}
    walk = paths_at(SPH15, starts, ts, 1e-2, n_paths, 3, rho)
    assert [x.shape for x, _ in walk] == [(2, n_paths, 1)] * 6
    for (x, ints), t in zip(walk, ts):
        [(one, one_ints)] = paths_at(SPH15, starts, t, 1e-2, n_paths, 3, rho)
        np.testing.assert_array_equal(x, one)
        np.testing.assert_array_equal(ints["rho"], one_ints["rho"])


def test_apply_each_is_apply_at_each_time():
    # one function per time, times unsorted, repeated and 0, trailing
    # columns: the Mehler engine's default loop is bitwise apply, and the
    # grid engine's one march of the points' weights is apply to rounding,
    # scaled by max(1, |value|) (3.9e-14 measured); t = 0 evaluates at the
    # points on both
    ts = (0.255, 0.0, 0.003, 1.0, 0.255)
    funcs = [lambda z, a=a: np.stack([np.sin(a + z[..., 0]), a * z[..., 0]],
                                     axis=-1) for a in range(len(ts))]
    x = [-2.0, -0.37, 0.0, 1.999]
    for eng in _three_engines()[:2]:
        got, err = eng.apply_each(funcs, ts, x)
        assert got.shape == err.shape == (5, 4, 2) and np.all(err == 0.0)
        for j, (g, t) in enumerate(zip(funcs, ts)):
            want, _ = eng.apply(g, t, x)
            if eng.kind == "mehler" or t == 0.0:
                np.testing.assert_array_equal(got[j], want)
            else:
                assert np.all(np.abs(got[j] - want)
                              <= 1e-12 * np.maximum(1.0, np.abs(want)))
        with pytest.raises(ParameterError, match="one function per time"):
            eng.apply_each(funcs[:2], ts, x)


def test_grid_apply_each_holds_one_time_of_weights():
    # tracemalloc sees numpy's buffers.  The monotone check's outer march on
    # the double well (m = 2001, dt = 1e-3, 21 times up to 0.6, the default
    # schedule's 7 points): the weights of both marches at every time are
    # 4.7 MB, and with the combined values 7.2 MB were held; reduced to the
    # points one time at a time, 1.1 MB measured
    grid = GridEngine(make_double_well(), lo=-6.0, hi=6.0, m=2001, dt=1e-3)
    funcs = [lambda z, a=a: np.sin(a + z[..., 0]) for a in range(21)]
    tracemalloc.start()
    try:
        grid.apply_each(funcs, np.linspace(0.0, 0.6, 21), Schedule().xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_empty_time_sequence_is_rejected():
    f = suite.get("sine")
    x = np.array([0.0, 1.0])
    gen = grid_generator(GAUSS, -8.0, 8.0, 801)
    calls = [lambda: multilevel_mean(GAUSS, [0.0], (),
                                     lambda j, x, _: x[..., 0], 1e-2, 100, 0,
                                     {}),
             lambda: grid_apply(gen, f(gen.nodes[:, None]), (), 1e-2)]
    for eng in _three_engines():
        calls += [lambda eng=eng: eng.apply(f, (), x),
                  lambda eng=eng: eng.value_grad(f, [], x)]
    for call in calls:
        with pytest.raises(ParameterError):
            call()


def test_value_grad_rejects_a_function_of_another_dimension():
    # sine is a function on R, x1 one on R^2
    gauss2 = make_example_potential("gaussian", n=2)
    x1 = TestFunction(2, lambda z: z[..., 0], np.ones_like,
                      lambda z: np.zeros(z.shape + (2,)), "x1")
    for eng, f, x in ((MehlerEngine(gauss2), suite.get("sine"), [0.0, 1.0]),
                      (MonteCarloEngine(gauss2, n_paths=100),
                       suite.get("sine"), [0.0, 1.0]),
                      (GridEngine(GAUSS, lo=-8.0, hi=8.0, m=801), x1, 0.0)):
        with pytest.raises(ParameterError):
            eng.value_grad(f, 0.5, x)


def test_grid_engine_rejects_points_outside_window():
    # np.interp would return the end value 0.895 at x = 5 and x = 50,
    # where P_t x = e^{-t} x is 3.03 and 30.3
    eng = GridEngine(GAUSS, lo=-2.0, hi=2.0, m=401)
    f = suite.get("linear")
    for x in (5.0, 50.0, -2.5):
        with pytest.raises(DomainError):
            eng.apply(f, 0.5, np.array([x]))
        with pytest.raises(DomainError):
            eng.value_grad(f, 0.5, np.array([0.0, x]))
        with pytest.raises(DomainError):
            eng.apply_each([f, f], [0.0, 0.5], np.array([0.0, x]))
    vals, _ = eng.apply(f, 0.5, np.array([-2.0, 2.0]))
    assert vals.shape == (2,)
