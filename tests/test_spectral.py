import math

import numpy as np
import pytest

from curvlab.errors import ParameterError
from curvlab.mfunctions import catalog
from curvlab.potentials import make_example_potential
from curvlab.semigroup import MehlerEngine, mehler_apply
from curvlab.spectral import (DEGREE_CAP, HermiteSeries, MultiM, PolySeries,
                              Q_iterate, apply_L, apply_Lk, apply_Pt,
                              derivative_l2, expand, gauss_mean,
                              generalized_local_check, houdre_kagan, l_poly,
                              random_corpus, to_poly, variance_bracket_check)
from curvlab.suite import get
from curvlab.verify import Schedule, verify_local

GAUSS = make_example_potential("gaussian")


def _bshape(a, y):
    return np.broadcast(a[0], np.asarray(y)).shape


def poincare_multi() -> MultiM:
    return MultiM(
        label="neg-square-plus-y", n_args=1,
        value=lambda a, y: -a[0] ** 2 + y,
        m_y=lambda a, y: np.ones(_bshape(a, y)),
        m_xx=lambda a, y: np.broadcast_to(np.array([[-2.0]]),
                                          _bshape(a, y) + (1, 1)),
        m_xy=lambda a, y: np.zeros(_bshape(a, y) + (1,)),
        m_yy=lambda a, y: np.zeros(_bshape(a, y)))


def coupled_multi(eps: float) -> MultiM:
    return MultiM(
        label=f"coupled:eps={eps:g}", n_args=2,
        value=lambda a, y: -a[0] ** 2 - eps * a[0] * a[1] + y,
        m_y=lambda a, y: np.ones(_bshape(a, y)),
        m_xx=lambda a, y: np.broadcast_to(
            np.array([[-2.0, -eps], [-eps, 0.0]]), _bshape(a, y) + (2, 2)),
        m_xy=lambda a, y: np.zeros(_bshape(a, y) + (2,)),
        m_yy=lambda a, y: np.zeros(_bshape(a, y)))


# ---------------------------------------------------------------------------
# basis change and eigenstructure
# ---------------------------------------------------------------------------

def test_expand_constants_and_square():
    h = expand([1.0])
    assert h.coef[0] == 1.0 and np.all(h.coef[1:] == 0.0)
    h = expand([0.0, 0.0, 1.0])
    assert abs(h.coef[0] - 1.0) < 1e-14
    assert abs(h.coef[2] - math.sqrt(2.0)) < 1e-14
    assert abs(h.mean - 1.0) < 1e-14
    assert abs(h.variance - 2.0) < 1e-12


def test_roundtrip_quintic():
    p = np.array([0.0, -3.0, 0.0, 0.0, 0.0, 1.0])
    back = to_poly(expand(p)).coef
    assert np.max(np.abs(back - p)) < 1e-10


def test_degree_cap():
    with pytest.raises(ParameterError):
        expand(np.ones(DEGREE_CAP + 2))
    with pytest.raises(ParameterError):
        PolySeries(np.ones(DEGREE_CAP + 2))


def test_parseval_against_quadrature():
    coef = np.array([0.3, 1.0, 0.0, 1.0])   # x^3 + x + 0.3
    h = expand(coef)
    nodes, weights = np.polynomial.hermite_e.hermegauss(40)
    weights = weights / math.sqrt(2.0 * math.pi)
    vals = np.polynomial.polynomial.polyval(nodes, coef)
    mean = float(np.sum(weights * vals))
    var = float(np.sum(weights * (vals - mean) ** 2))
    assert abs(h.mean - mean) < 1e-12
    assert abs(h.variance - var) < 1e-9


def test_apply_L_eigenfunction():
    h1 = HermiteSeries(np.array([0.0, 1.0]))
    out = apply_L(h1)
    assert np.array_equal(out.coef, np.array([0.0, -1.0]))
    h3 = HermiteSeries(np.array([0.0, 0.0, 0.0, 1.0]))
    assert np.array_equal(apply_Lk(h3, 2).coef, np.array([0.0, 0.0, 0.0, 9.0]))


def test_apply_Pt_halving_and_composition():
    h = expand([0.0, 0.0, 1.0])
    pt = to_poly(apply_Pt(h, math.log(2.0))).coef
    assert np.max(np.abs(pt - np.array([0.75, 0.0, 0.25]))) < 1e-12
    a = apply_Pt(apply_Pt(h, 0.3), 0.9)
    b = apply_Pt(h, 1.2)
    assert np.max(np.abs(a.coef - b.coef)) < 1e-15


def test_apply_Pt_matches_mehler():
    coef = np.array([0.5, -1.0, 0.0, 0.25])
    xs = np.linspace(-2.0, 2.0, 5)[:, None]
    exact = to_poly(apply_Pt(expand(coef), 0.7))(xs[:, 0])
    quad = mehler_apply(
        lambda z: np.polynomial.polynomial.polyval(z[..., 0], coef), 0.7, xs,
        n=1)
    assert np.max(np.abs(exact - quad)) < 1e-11


def test_l_poly_hand_value():
    out = l_poly([0.0, 0.0, 1.0]).coef   # L x^2 = 2 - 2x^2
    assert np.max(np.abs(out - np.array([2.0, 0.0, -2.0]))) < 1e-14


# ---------------------------------------------------------------------------
# derivative L2 norms and Houdre-Kagan
# ---------------------------------------------------------------------------

def test_houdre_kagan_linear():
    hk = houdre_kagan([0.0, 1.0], 2)
    assert hk.variance == 1.0
    assert all(abs(s - 1.0) < 1e-14 for s in hk.partial_sums)


def test_houdre_kagan_square():
    hk = houdre_kagan([0.0, 0.0, 1.0], 1)
    assert abs(hk.upper - 4.0) < 1e-12
    assert abs(hk.lower - 2.0) < 1e-12
    assert abs(hk.variance - 2.0) < 1e-12


def test_houdre_kagan_cubic_exact_three_terms():
    hk = houdre_kagan([0.0, 0.0, 0.0, 1.0], 2)
    assert abs(hk.partial_sums[0] - 27.0) < 1e-10
    assert abs(hk.partial_sums[1] - 9.0) < 1e-10
    assert abs(hk.partial_sums[2] - 15.0) < 1e-10
    assert abs(hk.variance - 15.0) < 1e-10
    # terminated: S_4 = S_3 = Var since D_4 = 0
    assert abs(hk.partial_sums[3] - hk.variance) < 1e-10


def test_corpus_bracketing_and_termination():
    for f in random_corpus():
        var = expand(f).variance
        for N in (1, 2, 3):
            hk = houdre_kagan(f, N)
            assert hk.brackets, (f.coef, N)
            if 2 * N >= f.degree:
                assert abs(hk.lower - var) <= max(1e-9, 1e-12 * hk.scale)


# ---------------------------------------------------------------------------
# the Q iteration
# ---------------------------------------------------------------------------

def test_Q2_is_second_derivative_squared_pointwise():
    q2 = Q_iterate([0.0, 2.0, 0.0, 1.0], 2).coef   # g = x^3 + 2x, g'' = 6x
    assert np.max(np.abs(q2 - np.array([0.0, 0.0, 36.0]))) < 1e-10


def test_Q_integral_hand_values():
    assert abs(gauss_mean(Q_iterate([0.0, 1.0], 2))) < 1e-12
    assert abs(gauss_mean(Q_iterate([0.0, 0.0, 1.0], 2)) - 4.0) < 1e-10
    assert abs(gauss_mean(Q_iterate([0.0, 0.0, 0.0, 1.0], 3)) - 36.0) < 1e-9


def test_Q_matches_derivative_l2_on_corpus():
    for f in random_corpus()[:10]:
        h = expand(f)
        for k in (1, 2, 3):
            q = gauss_mean(Q_iterate(f, k))
            d = derivative_l2(h, k)
            assert abs(q - d) <= 1e-8 * max(1.0, abs(d)), (f.coef, k)


def test_Q_quartic_all_orders():
    f = [0.0, 0.0, 0.0, 0.0, 1.0]
    h = expand(f)
    for k in (1, 2, 3, 4):
        assert abs(gauss_mean(Q_iterate(f, k)) - derivative_l2(h, k)) < 1e-7


def test_Q_validation():
    with pytest.raises(ParameterError):
        Q_iterate([0.0, 1.0], 0)
    with pytest.raises(ParameterError):
        Q_iterate([0.0, 1.0], 3, lambdas=(1.0,))
    with pytest.raises(ParameterError):
        Q_iterate([0.0, 1.0], 2, lambdas=(-1.0,))


# ---------------------------------------------------------------------------
# variance bracket front-end
# ---------------------------------------------------------------------------

def test_variance_bracket_cubic():
    rep = variance_bracket_check([0.0, 0.0, 0.0, 1.0], 2)
    hyp, bracket = rep.records
    assert hyp.margin >= 0.0
    assert abs(bracket.lhs - 9.0) < 1e-9
    assert abs(bracket.rhs - 15.0) < 1e-9
    assert rep.passed
    rep = variance_bracket_check([0.0, 0.0, 0.0, 1.0], 1)
    _, bracket = rep.records
    assert abs(bracket.rhs - 27.0) < 1e-9
    assert abs(bracket.lhs - 15.0) < 1e-9


def test_variance_bracket_linear_equality():
    for n in (1, 2, 3):
        rep = variance_bracket_check([0.0, 1.0], n)
        assert abs(rep.records[1].margin) < 1e-12


def test_variance_bracket_cross_validates_houdre_kagan():
    for f in random_corpus()[:8]:
        for n in (2, 3):
            rep = variance_bracket_check(f, n)
            hk = houdre_kagan(f, (n + 1) // 2)
            s_hk = hk.partial_sums[n - 1]
            s_q = rep.records[1].lhs if n % 2 == 0 else rep.records[1].rhs
            assert abs(s_q - s_hk) <= 1e-8 * max(1.0, abs(s_hk))


# ---------------------------------------------------------------------------
# higher-order local inequality
# ---------------------------------------------------------------------------

def test_generalized_reduces_to_local_poincare():
    t, alpha = 0.4, 0.5
    xs = np.linspace(-3.0, 3.0, 7)
    gen = generalized_local_check(poincare_multi(), [0.0, 1.0, 0.2], t=t,
                                  alpha=alpha, xs=xs)
    eng = MehlerEngine(GAUSS)
    [loc] = verify_local([catalog("poincare")], eng, get("quad-mix"),
                         Schedule(ts=(t,), alphas=(alpha,), xs=xs), rho=1.0)
    assert gen.passed
    for a, b in zip(gen.records, loc.records):
        assert abs(a.margin - b.margin) < 1e-9


def test_generalized_t_zero_equality():
    rep = generalized_local_check(coupled_multi(0.0), [0.0, 1.0, 0.2],
                                  t=0.0, alpha=0.7)
    assert max(abs(r.margin) for r in rep.records) < 1e-9


def test_generalized_t_zero_margins_are_exactly_zero():
    # P_0 is the identity, so both sides are M at the same arguments
    for mm, alpha in ((poincare_multi(), 0.5), (coupled_multi(0.0), 0.7)):
        rep = generalized_local_check(mm, [0.0, 1.0, 0.2], t=0.0,
                                      alpha=alpha)
        assert all(r.margin == 0.0 for r in rep.records)


def test_generalized_coupled_passes_at_eps_zero():
    rep = generalized_local_check(coupled_multi(0.0), [0.0, 1.0, 0.2],
                                  t=0.4, alpha=0.0)
    assert rep.label.startswith("generalized-local[")
    assert rep.passed
    assert rep.min_margin > -1e-6


def test_generalized_precondition_rejects_coupling():
    rep = generalized_local_check(coupled_multi(0.1), [0.0, 1.0, 0.2],
                                  t=0.4, alpha=0.0)
    assert rep.label.startswith("precondition-failed[")
    assert not rep.passed
    # the sampled matrix has eigenvalue -eps after normalization; the
    # off-diagonal hypothesis fails too
    assert rep.records[0].margin < -1e-10


def test_generalized_higher_time_and_alpha():
    rep = generalized_local_check(coupled_multi(0.0), [1.0, 0.5, 0.0, 0.1],
                                  t=1.0, alpha=1.0)
    assert rep.passed
    assert rep.min_margin > -1e-6


def test_generalized_validation():
    with pytest.raises(ParameterError):
        generalized_local_check(poincare_multi(), [0.0, 1.0], t=-1.0,
                                alpha=0.0)
    with pytest.raises(ParameterError):
        generalized_local_check(poincare_multi(), [0.0, 1.0], t=0.1,
                                alpha=-0.5)
