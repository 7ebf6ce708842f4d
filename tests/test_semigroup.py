import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded

from curvlab.errors import DomainError, NumericalError, ParameterError
from curvlab.potentials import make_double_well, make_example_potential
from curvlab.semigroup import (
    GridEngine,
    GridFunction,
    MehlerEngine,
    MonteCarloEngine,
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
from curvlab.sde import BLOCK_SIZE, _step_plan, _times, simulate

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
    got = mehler_apply(f, 0.7, np.array([2.0]))
    assert got == pytest.approx(2.0 * math.exp(-0.7), abs=1e-13)
    # P_t x^2 = e^{-2t} x^2 + 1 - e^{-2t} equals 1 at x = 1 for every t
    q = suite.get("quadratic")
    assert mehler_apply(q, 0.5, np.array([1.0])) == pytest.approx(1.0, abs=1e-13)
    one = lambda z: np.ones(z.shape[:-1])
    assert mehler_apply(one, 1.3, np.array([0.4]), n=1) == pytest.approx(1.0, abs=1e-14)


def test_mehler_identity_at_time_zero():
    f = suite.get("hermite4")
    x = np.linspace(-2, 2, 5)[:, None]
    np.testing.assert_allclose(mehler_apply(f, 0.0, x), f.value(x), atol=1e-12)


def test_mehler_matches_eigenfunction_decay():
    t = 0.3
    for k in range(7):
        hk = suite.hermite_normalized(k)
        x = np.array([1.3])
        got = mehler_apply(hk, t, x)
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
    got = mehler_apply(f, 0.4, np.array([1.5, -2.0]))
    assert got == pytest.approx(math.exp(-0.8) * -3.0, abs=1e-12)


def test_mehler_parameter_errors():
    f = suite.get("linear")
    with pytest.raises(ParameterError):
        mehler_apply(f, 0.5, np.array([1.0]), order=1)
    with pytest.raises(ParameterError):
        mehler_apply(f, -0.1, np.array([1.0]))
    with pytest.raises(ParameterError):
        mehler_apply(f, 0.5, np.zeros((2, 2)))  # wrong dimension
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
    # e^-t P_t f' from a quadrature each
    eng = MehlerEngine(GAUSS)
    f = suite.get("sine")
    x = np.linspace(-3.0, 3.0, 7)
    for t in (0.0, 0.7):
        v, err, g = eng.value_grad(f, t, x)
        np.testing.assert_array_equal(v, mehler_apply(f, t, x, eng.order, 1))
        comp = mehler_apply(lambda z: f.gradient(z)[..., 0], t, x,
                            eng.order, 1)
        np.testing.assert_array_equal(g[:, 0], math.exp(-t) * comp)
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
    # where every off-diagonal of L is still positive, and 2.06 at m = 61
    gen = grid_generator(GAUSS, -8.0, 8.0, 65)
    assert np.all(gen.lower[1:] > 0.0) and np.all(gen.upper[:-1] > 0.0)
    with pytest.raises(ParameterError, match="Peclet number"):
        grid_generator(GAUSS, -8.0, 8.0, 61)


def test_grid_apply_linear_decay():
    gen = grid_generator(GAUSS, -8.0, 8.0, 801)
    f0 = GridFunction.sample(suite.get("linear"), -8.0, 8.0, 801)
    u = grid_apply(gen, f0, 0.5, 1e-3)
    interior = np.abs(u.nodes) <= 6.0
    err = np.abs(u.values - math.exp(-0.5) * u.nodes)
    assert np.max(err[interior]) < 1e-3


def test_grid_apply_is_a_semigroup():
    gen = grid_generator(GAUSS, -8.0, 8.0, 801)
    f0 = GridFunction.sample(suite.get("sine"), -8.0, 8.0, 801)
    once = grid_apply(gen, f0, 0.5, 1e-3)
    split = grid_apply(gen, grid_apply(gen, f0, 0.25, 1e-3), 0.25, 1e-3)
    np.testing.assert_allclose(split.values, once.values, atol=1e-10)


def test_grid_apply_preserves_constants():
    gen = grid_generator(GAUSS, -8.0, 8.0, 801)
    ones = GridFunction(-8.0, 8.0, np.ones(801))
    u = grid_apply(gen, ones, 1.0, 1e-3)
    np.testing.assert_allclose(u.values, 1.0, atol=1e-12)


def test_grid_apply_time_zero_and_errors():
    gen = grid_generator(GAUSS, -8.0, 8.0, 801)
    f0 = GridFunction.sample(suite.get("sine"), -8.0, 8.0, 801)
    u0 = grid_apply(gen, f0, 0.0, 1e-3)
    np.testing.assert_array_equal(u0.values, f0.values)
    assert u0.values is not f0.values
    # dt > t: the step plan's one partial step is a full step of size t
    np.testing.assert_array_equal(grid_apply(gen, f0, 0.5, 0.7).values,
                                  grid_apply(gen, f0, 0.5, 0.5).values)
    with pytest.raises(ParameterError):
        grid_apply(gen, f0, 0.5, 0.0)
    other = GridFunction.sample(suite.get("sine"), -8.0, 8.0, 401)
    with pytest.raises(ParameterError):
        grid_apply(gen, other, 0.5, 1e-3)


def _banded_march(gen, f, t, dt):
    # the march before LAPACK's factored solves: solve_banded refactors the
    # banded I - (dt/2) L at every step
    def banded(h):
        ab = np.zeros((3, gen.m))
        ab[0, 1:] = -0.5 * h * gen.upper[:-1]
        ab[1, :] = 1.0 - 0.5 * h * gen.diag
        ab[2, :-1] = -0.5 * h * gen.lower[1:]
        return ab

    ts = _times(t)
    plans = [_step_plan(float(s), dt) for s in ts]
    u = f.values.copy()
    ab = banded(dt)
    out = [None] * len(ts)
    done = 0
    for j in sorted(range(len(ts)), key=plans.__getitem__):
        n_full, rem = plans[j]
        for _ in range(done, n_full):
            u = solve_banded((1, 1), ab, u + 0.5 * dt * gen.apply(u))
        done = n_full
        v = u
        if rem > 0.0:
            v = solve_banded((1, 1), banded(rem),
                             u + 0.5 * rem * gen.apply(u))
        out[j] = v
    return out


@pytest.mark.parametrize("potential, lo, hi, m", [
    (make_double_well(), -6.0, 6.0, 2001),
    (SPH15, -12.0, 12.0, 4001)])
@pytest.mark.parametrize("names", [("sine",), ("sine", "quadratic", "cos-mix")])
def test_grid_apply_is_bitwise_the_banded_march(monkeypatch, potential, lo,
                                                hi, m, names):
    # off-grid and partial-step times, unsorted
    ts, dt = (0.3, 0.0004, 0.57, 0.1), 1e-3
    gen = grid_generator(potential, lo, hi, m)
    z = np.linspace(lo, hi, m)[:, None]
    values = np.stack([suite.get(name).value(z) for name in names], axis=-1)
    # one column marches as an (m,) vector, as GridEngine hands it over
    f0 = GridFunction(lo, hi, values[:, 0] if len(names) == 1 else values)
    factored = []
    real = semigroup.dgttrf
    monkeypatch.setattr(semigroup, "dgttrf",
                        lambda *a: factored.append(1) or real(*a))
    got = grid_apply(gen, f0, ts, dt)
    # one factorization for dt and one for each distinct partial step
    rems = {_step_plan(t, dt)[1] for t in ts} - {0.0}
    assert len(factored) == 1 + len(rems)
    for u, want in zip(got, _banded_march(gen, f0, ts, dt)):
        assert u.values.shape == f0.values.shape
        np.testing.assert_array_equal(u.values, want)


def test_grid_apply_singular_factor_raises():
    # L = (2/dt) I makes I - (dt/2) L the zero matrix, which dgttrf flags
    m, dt = 101, 1e-3
    zero = np.zeros(m)
    gen = semigroup.TridiagonalGenerator(-1.0, 1.0, m, 0.02, zero,
                                         np.full(m, 2.0 / dt), zero)
    f0 = GridFunction.sample(suite.get("sine"), -1.0, 1.0, m)
    with pytest.raises(NumericalError):
        grid_apply(gen, f0, 0.5, dt)


def test_grid_function_validation():
    with pytest.raises(ParameterError):
        GridFunction(-1.0, 1.0, np.array([0.0, 1.0]))
    with pytest.raises(ParameterError):
        GridFunction(1.0, -1.0, np.zeros(5))
    with pytest.raises(ParameterError):
        GridFunction(-1.0, 1.0, np.array([0.0, np.nan, 1.0]))


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
def test_time_sequences_match_single_times(monkeypatch, threads):
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
    f0 = GridFunction.sample(f, -8.0, 8.0, 801)
    for u, t in zip(grid_apply(gen, f0, ts, 1e-2), ts):
        np.testing.assert_array_equal(u.values,
                                      grid_apply(gen, f0, t, 1e-2).values)
    # several blocks of paths from two starts
    starts = np.array([[-1.0], [0.5]])
    n_paths = 2 * BLOCK_SIZE + 17
    batch = simulate(SPH15, starts, ts, dt=1e-2, n_paths=n_paths, seed=3)
    assert batch.positions.shape == (6, 2, n_paths, 1)
    assert batch.n_paths == 2 * n_paths
    assert batch.n_steps == 100
    for j, t in enumerate(ts):
        one = simulate(SPH15, starts, t, dt=1e-2, n_paths=n_paths, seed=3)
        np.testing.assert_array_equal(batch.positions[j], one.positions)
        np.testing.assert_array_equal(batch.integrals["rho"][j],
                                      one.integrals["rho"])
        np.testing.assert_array_equal(batch.exploded[j], one.exploded)


def test_empty_time_sequence_is_rejected():
    f = suite.get("sine")
    x = np.array([0.0, 1.0])
    gen = grid_generator(GAUSS, -8.0, 8.0, 801)
    calls = [lambda: simulate(GAUSS, [0.0], (), dt=1e-2, n_paths=100),
             lambda: grid_apply(gen, GridFunction.sample(f, -8.0, 8.0, 801),
                                (), 1e-2)]
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
                      (GridEngine(GAUSS, m=101), x1, 0.0)):
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
    vals, _ = eng.apply(f, 0.5, np.array([-2.0, 2.0]))
    assert vals.shape == (2,)
