import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvlab.errors import DomainError, NumericalError, ParameterError
from curvlab.potentials import (Potential, make_double_well,
                                make_example_potential)
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
    make_engine,
    mehler_apply,
)
from curvlab import semigroup, suite
from curvlab.sde import BLOCK_SIZE, multilevel_mean
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
    # the operator that the engine factors, H = D2 - diag(W), is L in its
    # symmetric form: e^{V/2} H e^{-V/2} g = L g on the gaussian's nodes,
    # for g = f - <f>, the part of f that the engine evolves once it has
    # taken out f's mean <f> under e^{-V}.  L 1 = 0 on [-8, 8], and
    # L x = -x, L x^2 = 2 - 2 x^2 inside it (1.2e-9 and 8.7e-9 measured)
    eng = GridEngine(GAUSS)
    x, w = eng.nodes, eng.weight
    h = semigroup._operator(GAUSS, eng.index)
    window = np.abs(x) <= 8.0
    inside = np.abs(x) < 8.0 - 1e-9
    for f, lf, where, tol in ((np.ones_like(x), np.zeros_like(x), window,
                               1e-9),
                              (x, -x, inside, 1e-8),
                              (x * x, 2.0 - 2.0 * x * x, inside, 1e-8)):
        g = f - np.sum(w * w * f) / np.sum(w * w)
        got = (h @ (w * g)) / w
        np.testing.assert_allclose(got[where], lf[where], rtol=0.0, atol=tol)


def test_grid_generator_guards_the_weight_span():
    # the nodes end where e^{-(V - min V)/2}, which scales u = e^{-V/2} P_t f
    # and divides it back out at a point read, would fall below 1e-16, so
    # the weights span at most 16 decades: on the double well the next
    # multiple of the spacing beyond either end would take them past it
    dw = make_double_well()
    eng = GridEngine(dw, lo=-8.5, hi=8.5, m=6001)
    assert 1e-16 <= np.min(eng.weight) and np.max(eng.weight) == 1.0
    beyond = np.array([[eng.nodes[0] - 0.1], [eng.nodes[-1] + 0.1]])
    assert np.all(np.exp(-0.5 * (dw.value(beyond) - eng.floor)) < 1e-16)


def test_grid_generator_errors():
    # m < 3, hi < lo and a 2-D potential are refused when the engine is
    # built
    for potential, params in ((GAUSS, dict(m=2)),
                              (GAUSS, dict(lo=8.0, hi=-8.0)), (SPH15_2, {})):
        with pytest.raises(ParameterError):
            GridEngine(potential, **params)


def test_grid_nodes_are_set_by_the_potential_alone():
    # multiples of the spacing out to where e^{-(V - min V)/2} falls to
    # 1e-16, V - min V = 73.7: |x| <= 12.14 on the gaussian and 4.26 on the
    # double well, whatever lo, hi and m are; describe() says so
    for potential, reach in ((GAUSS, 12.1), (make_double_well(), 4.2)):
        for params in ({}, dict(lo=-2.0, hi=2.0, m=801),
                       dict(lo=-40.0, hi=40.0, m=3)):
            eng = GridEngine(potential, **params)
            np.testing.assert_allclose(eng.nodes, np.arange(
                -round(reach / 0.1), round(reach / 0.1) + 1) * 0.1)
            drop = potential.value(eng.nodes[[0, -1]][:, None]) \
                - np.min(potential.value(eng.nodes[:, None]))
            assert np.all(drop <= 2.0 * math.log(1e16))
            desc = eng.describe()
            assert (desc["nodes"], desc["spacing"], desc["window"]) \
                == (len(eng.nodes), 0.1, [-reach, reach])
            assert {k: desc[k] for k in ("lo", "hi", "m", "dt")} \
                == {k: getattr(eng, k) for k in ("lo", "hi", "m", "dt")}


def test_grid_engine_evolves_an_uneven_potential():
    # V = (x - 1/2)^2 / 2, whose nodes [-11.6, 12.6] have no centre of
    # symmetry: P_t x = 1/2 + e^-t (x - 1/2)
    shifted = Potential(1, lambda x: 0.5 * (x[..., 0] - 0.5) ** 2,
                        lambda x: x - 0.5,
                        lambda x: np.ones(x.shape[:-1] + (1, 1)),
                        "shifted-gaussian", "shifted-gaussian",
                        lambda x: np.ones(x.shape[:-1]))
    xs, f = np.linspace(-3.0, 3.0, 13) + 0.01, suite.get("linear")
    eng = GridEngine(shifted)
    assert eng.nodes[0] + eng.nodes[-1] != 0.0
    u, _, grad = eng.value_grad(f, (0.01, 0.7), xs)
    for j, t in enumerate((0.01, 0.7)):
        np.testing.assert_allclose(u[j], 0.5 + math.exp(-t) * (xs - 0.5),
                                   rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(grad[j, :, 0], math.exp(-t), rtol=0.0,
                                   atol=1e-10)


def test_grid_reads_a_narrow_window_right():
    # [-2, 2] at m = 801 bounds the points, not the nodes: P_0.5 x = e^-0.5 x
    # at 1 and 1.9 (a grid with zero-flux ends at +-2 gave 0.563 and 0.889)
    eng = GridEngine(GAUSS, lo=-2.0, hi=2.0, m=801)
    vals, _ = eng.apply(suite.get("linear"), 0.5, [1.0, 1.9])
    np.testing.assert_allclose(vals, math.exp(-0.5) * np.array([1.0, 1.9]),
                               rtol=0.0, atol=1e-9)


def test_grid_refuses_points_beyond_its_readout_bound():
    # the double well's nodes end at 4.2 and its readout bound at 3.6, the
    # outermost nodes where e^{-(V - min V)/2} >= 1e-8: 5.5 and 3.7 lie in
    # [lo, hi] = [-6, 6] but are refused, by every method
    eng = GridEngine(make_double_well(), lo=-6.0, hi=6.0, m=2001)
    f = suite.get("linear")
    assert eng.bound == (-3.6, 3.6)
    for x in (5.5, -3.7, 3.61):
        with pytest.raises(DomainError, match="readout bound"):
            eng.apply(f, 0.5, [0.0, x])
        with pytest.raises(DomainError, match="readout bound"):
            eng.value_grad(f, (0.0, 0.5), x)
        with pytest.raises(DomainError, match="readout bound"):
            eng.apply_each([f], [0.5], x)
    vals, _ = eng.apply(f, 0.5, [-3.6, 3.6])
    assert np.all(np.isfinite(vals))


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


GRID_8 = GridEngine(GAUSS, lo=-8.0, hi=8.0, m=801)
XS_8 = np.linspace(-7.9, 7.9, 33) + 0.013 * np.cos(np.arange(33))


def test_grid_apply_linear_decay():
    # P_t x = e^-t x, to 1e-9 of max(1, |x|) on |x| <= 6 (1.5e-13
    # measured), where e^{(V - min V)/2} <= 8e3
    xs = XS_8[np.abs(XS_8) <= 6.0]
    u, _ = GRID_8.apply(suite.get("linear"), 0.5, xs)
    err = np.abs(u - math.exp(-0.5) * xs) / np.maximum(1.0, np.abs(xs))
    assert np.max(err) < 1e-9


def test_grid_apply_is_a_semigroup():
    # P_0.25 P_0.25 sine = P_0.5 sine on [-8, 8] (3.3e-11 measured)
    f, xs = suite.get("sine"), np.linspace(-8.0, 8.0, 801)
    once, _ = GRID_8.apply(f, 0.5, xs)
    half = GRID_8.evolved(f, 0.25)[0]
    split, _ = GRID_8.apply(lambda z: half(z[..., 0])[0], 0.25, xs)
    np.testing.assert_allclose(split, once, rtol=0.0, atol=1e-10)


def test_grid_apply_preserves_constants():
    # the engine carries a function's invariant mean exactly, so a constant
    # takes no rounding from the eigenbasis, even where e^{(V - min V)/2}
    # amplifies it by 1e7
    xs = np.linspace(-8.0, 8.0, 801)
    u, _ = GRID_8.apply(lambda z: np.ones(z.shape[:-1]), (0.01, 1.0, 10.0),
                        xs)
    np.testing.assert_allclose(u, 1.0, rtol=0.0, atol=1e-12)
    one = TestFunction.from_1d("one", np.ones_like, np.zeros_like,
                               np.zeros_like)
    v, _, grad = GRID_8.value_grad(one, 0.3, xs)
    np.testing.assert_allclose(v, 1.0, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(grad, 0.0, rtol=0.0, atol=1e-12)


def test_grid_apply_time_zero_and_errors():
    f = suite.get("sine")
    u0, _ = GRID_8.apply(f, 0.0, XS_8)
    assert u0.tobytes() == f(XS_8[:, None]).tobytes()
    for t in (-0.5, math.inf, math.nan):
        with pytest.raises(ParameterError):
            GRID_8.apply(f, t, XS_8)


def test_grid_apply_validates_node_values():
    # a function must give one finite value per sampled node, with any
    # trailing columns
    m = len(GRID_8.nodes[GRID_8.sampled])
    for values in (np.zeros(4), np.zeros((m + 1, 2)), 0.0):
        with pytest.raises(ParameterError, match="nodes"):
            GRID_8.apply(lambda z, v=values: v, 0.5, 0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ParameterError, match="finite"):
            GRID_8.apply(lambda z: np.where(z[..., 0] > 10.0, bad, 0.0), 0.5,
                         0.0)


def test_grid_apply_matches_a_float80_march():
    # the double well's collocation operator H = D2 - diag(W), built again
    # here in float80, and e^{0.3 H} by scaling and squaring in float80:
    # 2^14 steps of t / 2^14, each a Taylor sum to order 19.  The engine's
    # P_0.3 sine, read at the nodes with |x| <= 3, agrees to 1e-12 of
    # e^{(V - min V)/2} <= 3e3, which scales its rounding (3.3e-14 of it
    # measured)
    eng = GridEngine(make_double_well(), lo=-6.0, hi=6.0)
    ld = np.longdouble
    pi = ld("3.14159265358979323846264338327950288")
    x, h = eng.index.astype(ld) / 10, ld(1) / 10
    d = (eng.index[:, None] - eng.index).astype(ld)
    with np.errstate(divide="ignore"):
        d2 = np.where(d % 2 != 0, ld(2), ld(-2)) / (h * h * d * d)
    np.fill_diagonal(d2, -pi * pi / (3 * h * h))
    vp = (x * x - 1) * x
    step = (d2 - np.diag(vp * vp / 4 - (3 * x * x - 1) / 2)) * (ld("0.3")
                                                                / 2**14)
    march = term = np.eye(len(x), dtype=ld)
    for k in range(1, 20):
        term = term @ step / k
        march = march + term
    for _ in range(14):
        march = march @ march
    grow = np.exp((x * x - 1) ** 2 / 8)  # e^{(V - min V)/2}, min V = 0
    want = grow * (march @ (np.sin(x) / grow))
    near = np.abs(eng.nodes) <= 3.0
    got, _ = eng.apply(suite.get("sine"), 0.3, eng.nodes[near])
    assert np.all(np.abs(got - want[near]) <= 1e-12 * grow[near])


def test_grid_engine_checks_its_grid_at_construction(monkeypatch):
    # m < 3, hi <= lo and a 2-D potential are refused when the engine is
    # built, before anything is factored; a valid engine factors its
    # operator once, when it is built, for all its calls
    factored = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: factored.append(len(a)) or real(a))
    for potential, params in ((GAUSS, dict(m=2)), (GAUSS, dict(lo=1.0, hi=1.0)),
                              (GAUSS, dict(lo=2.0, hi=-2.0)), (SPH15_2, {})):
        with pytest.raises(ParameterError):
            GridEngine(potential, **params)
    assert factored == []
    eng = GridEngine(GAUSS, lo=-8.0, hi=8.0, m=801, dt=1e-2)
    eng.apply(suite.get("sine"), (0.1, 0.2), [0.0])
    eng.value_grad(suite.get("sine"), 0.3, [0.0])
    eng.evolved(suite.get("sine"), (0.1, 0.3))[0](0.5)
    assert factored == [len(eng.nodes)]


def test_grid_engine_values_and_gradient():
    eng = GridEngine(GAUSS, lo=-8.0, hi=8.0, m=801, dt=1e-3)
    f = suite.get("quadratic")
    x = np.array([[1.0], [-0.5]])
    vals, err = eng.apply(f, 0.5, x)
    want = math.exp(-1.0) * x[:, 0] ** 2 + 1.0 - math.exp(-1.0)
    np.testing.assert_allclose(vals, want, atol=1e-12)
    assert np.all(err == 0.0)
    v, verr, g = eng.value_grad(f, 0.5, x)
    np.testing.assert_array_equal(v, vals)
    assert np.all(verr == 0.0)
    np.testing.assert_allclose(g[:, 0], 2.0 * math.exp(-1.0) * x[:, 0],
                               atol=1e-12)
    # t = 0 short-circuits to the analytic values
    v0, _ = eng.apply(f, 0.0, x)
    np.testing.assert_allclose(v0, x[:, 0] ** 2, atol=1e-15)
    np.testing.assert_allclose(eng.value_grad(f, 0.0, x)[2][:, 0], 2 * x[:, 0],
                               atol=1e-15)


def test_grid_engine_small_time():
    eng = GridEngine(GAUSS, lo=-8.0, hi=8.0, m=801, dt=1e-3)
    f = suite.get("linear")
    val, _ = eng.apply(f, 2e-4, np.array([1.0]))
    assert val == pytest.approx(math.exp(-2e-4), abs=1e-12)


def test_grid_sinc_slope_is_smooth_through_its_series():
    # the series that replaces the closed form below |y| = 1e-2 meets it
    # there to rounding, and both match a central difference of np.sinc
    y = np.array([-0.3, -1e-2, -1e-2 + 1e-15, -1e-9, 0.0, 1e-9,
                  1e-2 - 1e-15, 1e-2, 0.7, 3.0])
    got = semigroup._sinc_slope(y)
    h = 1e-5
    want = (np.sinc(y + h) - np.sinc(y - h)) / (2.0 * h)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)
    assert abs(got[1] - got[2]) < 1e-13 and abs(got[6] - got[7]) < 1e-13
    assert got[4] == 0.0 and got[-1] == pytest.approx(-1.0 / 3.0, abs=1e-15)


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


@given(ts=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=3),
       xs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5))
@settings(max_examples=5, deadline=None)
def test_grid_engine_agrees_with_mehler_on_polytrig(ts, xs):
    # sinc collocation converges spectrally in the spacing and the
    # eigenbasis is exact in time: on |x| <= 3, where e^{(V - min V)/2}
    # <= 90, the grid agrees with the exact engine to rounding (1.5e-12 of
    # hermite4's values, up to 1.6e2, on a dense scan)
    def columns(z):
        return np.stack([f.value(z) for f in POLYTRIG], axis=-1)

    want, _ = MehlerEngine(GAUSS).apply(columns, ts, xs)
    got, _ = GRID_8.apply(columns, ts, xs)
    np.testing.assert_allclose(got, want, rtol=0.0,
                               atol=1e-10 * max(1.0, np.max(np.abs(want))))


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
    # three right sides at t = 0.3, 0 and 0.1 share one basis: one
    # evolution of it to both positive times, each side bitwise its
    # combination of a separate apply of the basis; P_0 and the Mehler
    # engine take the function itself
    f, x, ts, cs = suite.get("sine"), np.linspace(-2.0, 2.0, 5), \
        (0.3, 0.0, 0.1), (0.5, 2.0, 3.0)
    rhs = [_linear_side(c) for c in cs]
    grid = GridEngine(GAUSS, lo=-8.0, hi=8.0, m=801, dt=1e-2)
    evolutions = []
    real = GridEngine._evolved
    monkeypatch.setattr(GridEngine, "_evolved",
                        lambda *a: evolutions.append(a[2]) or real(*a))
    *_, vals, err = grid.value_grad(f, ts, x, rhs=rhs)
    assert len(evolutions) == 2
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
    # 0, a time below dt, an off-grid time and two times one rounding
    # apart, unsorted and repeated: each time's slice is bitwise what a
    # call with that time alone returns
    monkeypatch.setenv("CURVLAB_THREADS", threads)
    ts = (0.255, 0.0, 0.003, 1.0, 0.255, 0.1, 0.31 + 1e-14, 0.31 - 1e-14)
    k = len(ts)
    f = suite.get("sine")

    def columns(z):
        return np.stack([f.value(z), z[..., 0] ** 2], axis=-1)

    x = np.linspace(-2.0, 2.0, 5)
    for eng in _three_engines():
        got = eng.apply(columns, ts, x) + eng.value_grad(f, ts, x)
        assert [a.shape for a in got] == [(k, 5, 2), (k, 5, 2), (k, 5),
                                          (k, 5), (k, 5, 1)]
        for j, t in enumerate(ts):
            one = eng.apply(columns, t, x) + eng.value_grad(f, t, x)
            for a, b in zip(got, one):
                np.testing.assert_array_equal(a[j], b)
    # several blocks of paths from two starts
    starts = np.array([[-1.0], [0.5]])
    n_paths = 2 * BLOCK_SIZE + 17
    rho = {"rho": lambda x, drift: SPH15.curvature(x)}
    walk = paths_at(SPH15, starts, ts, 1e-2, n_paths, 3, rho)
    assert [x.shape for x, _ in walk] == [(2, n_paths, 1)] * k
    for (x, ints), t in zip(walk, ts):
        [(one, one_ints)] = paths_at(SPH15, starts, t, 1e-2, n_paths, 3, rho)
        np.testing.assert_array_equal(x, one)
        np.testing.assert_array_equal(ints["rho"], one_ints["rho"])


def test_apply_each_is_apply_at_each_time():
    # one function per time, times unsorted, repeated and 0, trailing
    # columns: one apply per time, bitwise; t = 0 evaluates at the points
    ts = (0.255, 0.0, 0.003, 1.0, 0.255)
    funcs = [lambda z, a=a: np.stack([np.sin(a + z[..., 0]), a * z[..., 0]],
                                     axis=-1) for a in range(len(ts))]
    x = [-2.0, -0.37, 0.0, 1.999]
    for eng in _three_engines()[:2]:
        got, err = eng.apply_each(funcs, ts, x)
        assert got.shape == err.shape == (5, 4, 2) and np.all(err == 0.0)
        for j, (g, t) in enumerate(zip(funcs, ts)):
            np.testing.assert_array_equal(got[j], eng.apply(g, t, x)[0])
        with pytest.raises(ParameterError, match="one function per time"):
            eng.apply_each(funcs[:2], ts, x)


def test_grid_apply_each_holds_one_time_of_weights():
    # tracemalloc sees numpy's buffers.  The monotone check's outer applies
    # on the double well (21 times up to 0.6, the default schedule's 7
    # points): each evolves one function to one time and reduces it to the
    # points, so one time's node values are live at once (0.12 MB
    # measured, with the engine's factors built before tracing)
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
    calls = [lambda: multilevel_mean(GAUSS, [0.0], (),
                                     lambda j, x, _: x[..., 0], 1e-2, 100, 0,
                                     {})]
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
