import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import erfcx, log_ndtr, ndtri

from curvlab import mfunctions
from curvlab.errors import DomainError, NumericalError, ParameterError
from curvlab.mfunctions import (
    Interval,
    MFunction,
    MFUNCTION_NAMES,
    catalog,
    certify_psd,
    condition_matrix,
    exp_integrability_F,
    exp_integrability_F_derivs,
    isoperimetric_I,
    perturbed,
)
from curvlab.potentials import make_example_potential
from curvlab.quadrature import adaptive
from curvlab.semigroup import MehlerEngine
from curvlab.suite import get
from curvlab.verify import default_schedule, verify_local

# interior sample points per x-domain shape
ALL_X = (-1.5, 0.7, 2.0)
POS_X = (0.4, 1.1, 3.0)
UNIT_X = (0.2, 0.5, 0.8)
YS = (0.3, 1.0, 4.0)


def entries():
    for name in MFUNCTION_NAMES:
        if name in ("beckner", "reverse-beckner"):
            yield name, catalog(name, p=1.5)
        else:
            yield name, catalog(name)


def sample_points(mf):
    if mf.x_domain.lo == 0.0 and mf.x_domain.hi == 1.0:
        xs = UNIT_X
    elif mf.x_domain.lo == 0.0:
        xs = POS_X
    else:
        xs = ALL_X
    return [(x, y) for x in xs for y in YS]


@pytest.mark.parametrize("name,mf", list(entries()), ids=lambda v: v if isinstance(v, str) else "")
def test_partials_match_finite_differences(name, mf):
    h = 1e-5
    for x, y in sample_points(mf):
        assert mf.m_x(x, y) == pytest.approx(
            (mf.value(x + h, y) - mf.value(x - h, y)) / (2 * h), rel=1e-5, abs=1e-8)
        assert mf.m_y(x, y) == pytest.approx(
            (mf.value(x, y + h) - mf.value(x, y - h)) / (2 * h), rel=1e-5, abs=1e-8)
        assert mf.m_xx(x, y) == pytest.approx(
            (mf.m_x(x + h, y) - mf.m_x(x - h, y)) / (2 * h), rel=1e-4, abs=1e-7)
        assert mf.m_xy(x, y) == pytest.approx(
            (mf.m_x(x, y + h) - mf.m_x(x, y - h)) / (2 * h), rel=1e-4, abs=1e-7)
        assert mf.m_xy(x, y) == pytest.approx(
            (mf.m_y(x + h, y) - mf.m_y(x - h, y)) / (2 * h), rel=1e-4, abs=1e-7)
        assert mf.m_yy(x, y) == pytest.approx(
            (mf.m_y(x, y + h) - mf.m_y(x, y - h)) / (2 * h), rel=1e-4, abs=1e-7)


@pytest.mark.parametrize("name,mf", list(entries()), ids=lambda v: v if isinstance(v, str) else "")
def test_my_sign_holds_on_samples(name, mf):
    for x, y in sample_points(mf):
        assert mf.m_y(x, y) >= -1e-12


def test_poincare_hand_values():
    po = catalog("poincare")
    assert po.value(2.0, 3.0) == -1.0
    assert po.m_xx(2.0, 3.0) == -2.0
    assert po.m_y(2.0, 3.0) == 1.0


def test_log_sobolev_hand_values_and_matrix():
    ls = catalog("log-sobolev")
    assert ls.value(1.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert ls.m_y(1.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert ls.m_xy(1.0, 1.0) == pytest.approx(-0.5, abs=1e-15)
    A = condition_matrix(ls, "A-forward", 1.0, 1.0)
    np.testing.assert_allclose(A, [[1.0, -0.5], [-0.5, 0.25]], atol=1e-14)
    assert np.linalg.det(A) == pytest.approx(0.0, abs=1e-14)


def test_beckner_limit_is_poincare():
    bk = catalog("beckner", p=2.0 - 1e-7)
    po = catalog("poincare")
    for x, y in [(0.5, 0.3), (1.0, 1.0), (3.0, 4.0)]:
        assert bk.value(x, y) == pytest.approx(po.value(x, y), abs=1e-5)


def test_beckner_matrix_matches_closed_form():
    p = 1.5
    bk = catalog("beckner", p=p)
    for x, y in [(0.5, 0.4), (2.0, 1.3)]:
        got = condition_matrix(bk, "A-forward", x, y)
        c = p * (p - 1.0) * x ** (p - 4.0) / (4.0 * y)
        want = c * np.array([
            [2 * (p - 2) * (p - 3) * y * y, 2 * (p - 2) * x * y],
            [2 * (p - 2) * x * y, x * x],
        ])
        np.testing.assert_allclose(got, want, rtol=1e-12)
        assert np.linalg.det(got) > 0.0


def test_reverse_poincare_matrix():
    # the top row vanishes; the lower-right entry is M_y/(2y) per the
    # general definition of B (the +y term contributes nothing else)
    rp = catalog("reverse-poincare")
    B = condition_matrix(rp, "B-reverse", 2.0, 3.0)
    np.testing.assert_allclose(B, [[0.0, 0.0], [0.0, 1.0 / 6.0]], atol=1e-15)


def test_reverse_log_sobolev_matrix_equals_forward():
    ls = catalog("log-sobolev")
    rls = catalog("reverse-log-sobolev")
    for x, y in [(0.7, 0.5), (2.0, 3.0)]:
        A = condition_matrix(ls, "A-forward", x, y)
        B = condition_matrix(rls, "B-reverse", x, y)
        np.testing.assert_allclose(B, A, rtol=1e-12)


def test_sqrt_y_matrix():
    sq = catalog("sqrt-y")
    A = condition_matrix(sq, "A-forward", 0.0, 4.0)
    np.testing.assert_allclose(A, [[0.5, 0.0], [0.0, 0.0]], atol=1e-15)


def test_degenerate_determinants_across_domain():
    for name in ("log-sobolev", "bobkov"):
        mf = catalog(name)
        xs, ys = mfunctions._sample_grids(mf)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        mat = condition_matrix(mf, "A-forward", X, Y)
        scale = np.max(np.abs(mat))
        nm = mat / scale
        det = nm[..., 0, 0] * nm[..., 1, 1] - nm[..., 0, 1] ** 2
        np.testing.assert_allclose(det, 0.0, atol=1e-9)


def test_integrated_matrices():
    po = catalog("poincare")
    A = condition_matrix(po, "A-integrated", 2.0, 3.0, rho=1.0)
    np.testing.assert_allclose(A, 0.0, atol=1e-15)
    Ap = condition_matrix(po, "A-prime-integrated", 2.0, 3.0, rho=1.0)
    np.testing.assert_allclose(Ap, [[0.0, 0.0], [0.0, 1.0 / 6.0]], atol=1e-15)
    # rho below 1 tilts the top-left entry negative
    A_low = condition_matrix(po, "A-integrated", 2.0, 3.0, rho=0.5)
    assert A_low[0, 0] == pytest.approx(-1.0)
    with pytest.raises(ParameterError):
        condition_matrix(po, "A-integrated", 2.0, 3.0)


def test_exp_integrability_matrix_identity():
    # the lower-right A entry collapses to F''/(4 x^2 y)
    mf = catalog("exp-integrability")
    for x, y in [(0.8, 0.5), (2.0, 1.7)]:
        A = condition_matrix(mf, "A-forward", x, y)
        _, fpp = exp_integrability_F_derivs(math.sqrt(y) / x)
        assert A[1, 1] == pytest.approx(fpp / (4.0 * x * x * y), rel=1e-12)


def test_condition_matrix_errors():
    ls = catalog("log-sobolev")
    # a kind is one of MATRIX_KINDS, spelled as there
    for kind in ("C-sideways", "A", "forward", "A'-integrated"):
        with pytest.raises(ParameterError, match="unknown matrix kind"):
            condition_matrix(ls, kind, 1.0, 1.0)
    with pytest.raises(DomainError):
        condition_matrix(ls, "A-forward", -1.0, 1.0)
    with pytest.raises(DomainError):
        condition_matrix(ls, "A-forward", 1.0, 0.0)  # M_y/(2y) entry
    with pytest.raises(DomainError):
        condition_matrix(ls, "A-forward", 1.0, -0.5)
    # A-integrated has no 1/(2y) entry, so y = 0 is fine there
    A = condition_matrix(ls, "A-integrated", 1.0, 0.0, rho=1.0)
    assert np.all(np.isfinite(A))
    bb = catalog("bobkov")
    with pytest.raises(DomainError):
        condition_matrix(bb, "A-forward", 1.2, 0.5)


def test_catalog_errors_and_labels():
    with pytest.raises(ParameterError):
        catalog("unknown-inequality")
    with pytest.raises(ParameterError):
        catalog("beckner", p=2.5)
    with pytest.raises(ParameterError):
        catalog("beckner", p=1.0)
    with pytest.raises(ParameterError):
        catalog("beckner")
    with pytest.raises(ParameterError):
        catalog("poincare", p=1.5)
    assert catalog("beckner", p=1.5).label == "beckner:p=1.5"
    assert catalog("poincare").label == "poincare"
    assert len(MFUNCTION_NAMES) == 10


def test_certify_psd_pass_list():
    forward = ["poincare", "log-sobolev", "bobkov", "sqrt-y", "y",
               "exp-integrability"]
    for name in forward:
        rep = certify_psd(catalog(name), "A-forward")
        assert rep.passed, name
    for p in (1.2, 1.5, 1.8):
        assert certify_psd(catalog("beckner", p=p), "A-forward").passed
        assert certify_psd(catalog("reverse-beckner", p=p), "B-reverse").passed
    for name in ("reverse-poincare", "reverse-log-sobolev"):
        assert certify_psd(catalog(name), "B-reverse").passed


def test_certify_psd_counterexample():
    neg = MFunction(
        "neg-square",
        value=lambda x, y: -np.square(x) + 0.0 * y,
        m_x=lambda x, y: -2.0 * np.asarray(x, dtype=float) + 0.0 * y,
        m_y=lambda x, y: np.zeros(np.broadcast(x, y).shape),
        m_xx=lambda x, y: np.full(np.broadcast(x, y).shape, -2.0),
        m_xy=lambda x, y: np.zeros(np.broadcast(x, y).shape),
        m_yy=lambda x, y: np.zeros(np.broadcast(x, y).shape),
    )
    rep = certify_psd(neg, "A-forward")
    assert not rep.passed
    assert rep.worst_trace == pytest.approx(-2.0, abs=1e-12)
    d = rep.to_dict()
    assert d["pass"] is False and d["worst_trace"] == pytest.approx(-2.0)


def _noisy_singular(seed):
    # A-forward's a11 = M_xx + 2 M_y is zero up to a random last bit, so the
    # determinant is rounding noise on every sample
    rng = np.random.default_rng(seed)

    def m_xx(x, y):
        shape = np.broadcast(x, y).shape
        return -2.0 + 2.0 * np.finfo(float).eps * rng.standard_normal(shape)

    return MFunction(
        "noisy-singular", value=lambda x, y: 0.0 * x + np.asarray(y, float),
        m_x=_zero_part, m_y=lambda x, y: 1.0 + _zero_part(x, y), m_xx=m_xx,
        m_xy=_zero_part, m_yy=_zero_part)


def _zero_part(x, y):
    return np.zeros(np.broadcast(x, y).shape)


def test_certify_psd_worst_point_ignores_rounding_noise():
    # the first sample within 1e-12 of the least value, whatever the noise
    points = {certify_psd(_noisy_singular(seed), "A-forward").worst_point
              for seed in range(5)}
    assert points == {(-10.0, 0.01)}
    rep = certify_psd(_noisy_singular(0), "A-forward")
    assert rep.passed and abs(rep.worst_det) < 1e-12


def test_certify_psd_report_fields():
    rep = certify_psd(catalog("log-sobolev"), "A-forward")
    assert rep.kind == "A-forward"
    assert rep.n_samples == 25 * 25
    assert rep.x_range[0] == pytest.approx(0.1)
    assert rep.min_my > 0.0
    d = rep.to_dict()
    assert set(d) >= {"mfunction", "kind", "samples", "worst_det",
                      "worst_trace", "pass"}


def test_perturbation_invariance():
    for name in ("poincare", "log-sobolev", "bobkov"):
        mf = catalog(name)
        pert = perturbed(mf, 2.0, 3.0, 1.0)
        assert certify_psd(mf, "A-forward").passed \
            == certify_psd(pert, "A-forward").passed
        x, y = (0.4, 0.7)
        np.testing.assert_allclose(condition_matrix(pert, "A-forward", x, y),
                                   2.0 * condition_matrix(mf, "A-forward",
                                                          x, y),
                                   rtol=1e-12)
        assert pert.value(x, y) == pytest.approx(2 * mf.value(x, y) + 3 * x + 1)
    with pytest.raises(ParameterError):
        perturbed(catalog("poincare"), 0.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        perturbed(catalog("poincare"), -2.0, 1.0, 1.0)


AFFINE = ("poincare", "reverse-poincare", "log-sobolev", "reverse-log-sobolev",
          "beckner", "reverse-beckner", "y")


@pytest.mark.parametrize("name,mf", list(entries()), ids=lambda v: v if isinstance(v, str) else "")
def test_affinity_in_y_is_declared_exactly_where_it_holds(name, mf):
    # a declared M is M(x, 0) + y M_y(x, 0) with M_yy = 0; an undeclared one
    # bends in y somewhere
    assert mf.affine_in_y == (name in AFFINE)
    xs, ys = np.array(sample_points(mf)).T
    if mf.affine_in_y:
        linear = mf.value(xs, 0.0) + ys * mf.m_y(xs, 0.0)
        np.testing.assert_allclose(mf.value(xs, ys), linear, rtol=1e-13,
                                   atol=0.0)
        assert np.all(mf.m_yy(xs, ys) == 0.0)
    else:
        assert np.any(mf.m_yy(xs, ys) != 0.0)
    assert perturbed(mf, 2.0, 3.0, 1.0).affine_in_y == mf.affine_in_y


def test_direction_is_a_property_of_the_mfunction():
    for name in MFUNCTION_NAMES:
        params = {"p": 1.5} if name.endswith("beckner") else {}
        assert catalog(name, **params).reverse == name.startswith("reverse-")
    assert perturbed(catalog("reverse-log-sobolev"), 2.0, 3.0, 1.0).reverse
    assert not perturbed(catalog("log-sobolev"), 2.0, 3.0, 1.0).reverse


def test_sample_grids():
    xs, ys = mfunctions._sample_grids(catalog("poincare"))
    assert len(xs) == 25 and len(ys) == 25
    assert xs[0] == -10.0  # linear when the range crosses zero


def test_interval_str_and_contains():
    iv = Interval(0.0, 1.0)
    assert str(iv) == "(0, 1)"
    assert bool(iv.contains(0.5)) and not bool(iv.contains(0.0))
    assert not bool(iv.contains(np.inf))


# ---------------------------------------------------------------------------
# isoperimetric profile
# ---------------------------------------------------------------------------

def test_isoperimetric_endpoints_and_center():
    assert isoperimetric_I(0.0) == 0.0
    assert isoperimetric_I(1.0) == 0.0
    assert isoperimetric_I(0.5) == pytest.approx(1.0 / math.sqrt(2 * math.pi),
                                                 abs=1e-15)


def test_isoperimetric_symmetry():
    for t in (0.2, 0.37, 0.45):
        assert isoperimetric_I(t) == pytest.approx(isoperimetric_I(1 - t),
                                                   rel=1e-13)


def test_isoperimetric_curvature_identity():
    # I'' I = -1, with I'' from second differences
    h = 2e-5
    xs = np.linspace(0.05, 0.95, 19)
    I = isoperimetric_I
    for x in xs:
        second = (I(x + h) - 2 * I(x) + I(x - h)) / h**2
        assert second * I(x) == pytest.approx(-1.0, abs=1e-6)


def test_isoperimetric_domain_errors():
    with pytest.raises(DomainError):
        isoperimetric_I(-0.1)
    with pytest.raises(DomainError):
        isoperimetric_I(1.1)
    with pytest.raises(DomainError):
        isoperimetric_I(np.array([0.5, np.nan]))
    out = isoperimetric_I(np.array([0.0, 0.5, 1.0]))
    assert out[0] == 0.0 and out[2] == 0.0


# ---------------------------------------------------------------------------
# exponential-integrability F
# ---------------------------------------------------------------------------

def test_F_at_zero_and_monotone():
    assert exp_integrability_F(0.0) == 0.0
    ss = np.linspace(0.0, 5.0, 21)
    vals = exp_integrability_F(ss)
    assert np.all(np.diff(vals) > 0.0)


def test_F_growth_bound():
    for s in (0.5, 1.0, 2.0, 4.0):
        assert exp_integrability_F(s) <= 10.0 * math.exp(s * s / 2) / (1 + s)


def test_F_prime_matches_finite_differences_of_F():
    h = 1e-4
    for s in (0.5, 1.0, 2.0, 4.0):
        fd = (exp_integrability_F(s + h) - exp_integrability_F(s - h)) / (2 * h)
        fp, _ = exp_integrability_F_derivs(s)
        assert fp == pytest.approx(fd, rel=1e-5)


def test_F_double_prime_matches_finite_differences():
    h = 1e-5
    for s in (0.01, 0.1, 0.5, 1.0, 2.0, 4.0):
        up, _ = exp_integrability_F_derivs(s + h)
        dn, _ = exp_integrability_F_derivs(s - h)
        _, fpp = exp_integrability_F_derivs(s)
        assert fpp == pytest.approx((up - dn) / (2 * h), rel=1e-6)


def test_F_derivs_smooth_across_inversion_seam():
    # the bisection bracket hands off to the series expansion near
    # s = k'(-40); the derivative must not jump there
    s0 = 0.0249954
    h = 1e-4
    up, _ = exp_integrability_F_derivs(s0 + h)
    dn, _ = exp_integrability_F_derivs(s0 - h)
    _, fpp = exp_integrability_F_derivs(s0)
    assert fpp == pytest.approx((up - dn) / (2 * h), rel=1e-6)


def test_F_limits_at_zero():
    fp, fpp = exp_integrability_F_derivs(0.0)
    assert fp == 0.0 and fpp == 1.0
    # small-s behavior: F'(s) ~ s, F''(s) ~ 1
    fp_small, fpp_small = exp_integrability_F_derivs(1e-4)
    assert fp_small == pytest.approx(1e-4, rel=1e-3)
    assert fpp_small == pytest.approx(1.0, rel=1e-3)


def test_F_errors():
    with pytest.raises(DomainError):
        exp_integrability_F(-0.5)
    with pytest.raises(DomainError):
        exp_integrability_F_derivs(-1.0)
    with pytest.raises(NumericalError):
        exp_integrability_F_derivs(50.0)  # beyond the inversion bracket


@pytest.mark.parametrize("s", [38.0, 40.5])
def test_F_overflow_is_numerical_error(s):
    # F' overflows a float near s = 37.65; k' is inverted only up to 40
    with pytest.raises(NumericalError):
        exp_integrability_F(s)
    with pytest.raises(NumericalError):
        exp_integrability_F_derivs(s)
    with pytest.raises(NumericalError):
        exp_integrability_F(np.array([1.0, s]))


def test_F_cache_value_identical():
    a = exp_integrability_F(1.7)
    b = exp_integrability_F(np.array([1.7, 0.3]))
    assert a == b[0]
    assert exp_integrability_F(0.3) == b[1]


def _brentq_u(s: float) -> float:
    # the root of k'(u) = s on the inversion bracket
    return brentq(lambda v: v + math.exp(-0.5 * v * v
                                         - 0.5 * math.log(2 * math.pi)
                                         - log_ndtr(v)) - s,
                  -40.0, 40.0, xtol=1e-14, rtol=4 * np.finfo(float).eps)


@given(s=st.floats(0.0, 37.0))
@settings(max_examples=30, deadline=None)
def test_F_matches_adaptive_quadrature_of_F_prime(s):
    ref, _ = quad(lambda t: exp_integrability_F_derivs(t)[0], 0.0, s,
                  epsabs=0.0, epsrel=1e-12, limit=500)
    assert exp_integrability_F(s) == pytest.approx(ref, rel=1e-10, abs=1e-300)


@given(s=st.floats(0.025, 37.0))
@settings(max_examples=50, deadline=None)
def test_F_prime_matches_brentq_inversion(s):
    u = _brentq_u(s)
    ref = math.exp(log_ndtr(u) + 0.5 * u * u + 0.5 * math.log(2 * math.pi))
    # for u << 0 the log-space Mills ratio rounds at eps u^2 relative, which
    # moves either root by about eps |u|^5 and F' by about eps u^4
    rel = 1e-12 + 4.0 * np.finfo(float).eps * min(u, 0.0) ** 4
    fp, _ = exp_integrability_F_derivs(s)
    assert fp == pytest.approx(ref, rel=rel)


def test_F_elements_do_not_depend_on_their_batch():
    rng = np.random.default_rng(7)
    for n in (1, 5, 64):
        a = np.concatenate([rng.uniform(0.0, 37.0, n),
                            rng.uniform(0.0, 0.05, n), [0.0, 8.0, 1e-9]])
        rng.shuffle(a)
        F = exp_integrability_F(a)
        fp, fpp = exp_integrability_F_derivs(a)
        for i, v in enumerate(a):
            assert exp_integrability_F(v) == F[i]
            assert exp_integrability_F_derivs(v) == (fp[i], fpp[i])
        assert np.array_equal(exp_integrability_F(a.reshape(-1, 1)).ravel(), F)
    # more elements than one pass of F's rule takes, in batches that do not
    # meet its seams
    a = np.concatenate([rng.uniform(0.0, 37.0, 2 * mfunctions._F_CHUNK),
                        rng.uniform(0.0, 0.05, 5)])
    rng.shuffle(a)
    assert np.array_equal(exp_integrability_F(a), np.concatenate(
        [exp_integrability_F(a[i:i + 97]) for i in range(0, a.size, 97)]))


def test_mehler_verify_local_makes_no_quad_call_beyond_the_anchors(
        monkeypatch):
    calls = []

    def counting_adaptive(g, edges, *args, **kwargs):
        calls.append(tuple(edges))
        return adaptive(g, edges, *args, **kwargs)

    monkeypatch.setattr(mfunctions, "adaptive", counting_adaptive)
    monkeypatch.setattr(mfunctions, "_anchor_values", [0.0])
    engine = MehlerEngine(make_example_potential("gaussian"))

    def check():
        verify_local([catalog("exp-integrability")], engine, get("gauss-bump"),
                     default_schedule(), rho=1.0)

    check()
    # one quadrature per anchor segment below the largest s the check meets
    assert 0 < len(calls) <= 12
    assert len(set(calls)) == len(calls)
    n = len(calls)
    check()
    assert len(calls) == n  # the anchors are computed once per process


def test_F_anchors_match_scipy_quad():
    # the anchors' own adaptive rule against QUADPACK's qags, segment by
    # segment at the anchors' tolerances
    anchors = mfunctions._F_ANCHORS
    got = mfunctions._F_at_anchors(len(anchors))
    want = 0.0
    for k in range(1, len(anchors)):
        seg, _ = quad(lambda t: exp_integrability_F_derivs(t)[0],
                      anchors[k - 1], anchors[k],
                      epsabs=1e-12, epsrel=1e-10, limit=200)
        want += seg
        assert got[k] == pytest.approx(want, rel=1e-13)


def _kprime_continued_fraction(z: float, depth: int = 400) -> float:
    # k'(-z) = 1/(z + 2/(z + 3/(z + ...))), evaluated backward
    t = z
    for k in range(depth, 1, -1):
        t = z + k / t
    return 1.0 / t


def test_kprime_matches_its_continued_fraction_far_left():
    zs = np.linspace(3.0, 40.0, 371)
    ref = np.array([_kprime_continued_fraction(z) for z in zs])
    got = -zs + mfunctions._mills(-zs)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


# k'(-z), k''(-z) and F' = Phi(-z)/phi(z) at 25 digits, from mpmath at 60
KFUNCS_25 = {
    3.0: (0.2830986549304365069280922, 0.07055918678526811686240206,
          0.3045902987101032957336125),
    10.0: (0.09809323396251196284364165, 0.009445377825656261164136818,
           0.09902859647173192139533719),
    40.0: (0.024968847207263723244871, 0.0006226683785913887734988794,
           0.02498440420572057114738839),
}


def test_kfuncs_match_mpmath_on_the_continued_fraction():
    z = np.array(list(KFUNCS_25))
    got = np.array(mfunctions._kfuncs(-z)).T
    want = np.array(list(KFUNCS_25.values()))
    assert np.all(np.abs(got / want - 1.0) <= 1e-15)


def test_kfuncs_are_continuous_where_the_fraction_takes_over():
    u0 = -mfunctions._Z0
    u = np.array([np.nextafter(u0, -np.inf), np.nextafter(u0, 0.0)])
    below, above = np.array(mfunctions._kfuncs(u)).T
    # erfcx's side rounds k'' at about 14 eps there, through u + r
    np.testing.assert_allclose(below, above, rtol=1e-13, atol=0.0)


def _inversion_residuals(s):
    # |k'(u) - s| at the returned root over the rounding of k' there: an
    # ulp of k' on the fraction's side, and u + r's terms on erfcx's
    u, kpp, fp = mfunctions._invert_kprime(s)
    kp, kpp_again, fp_again = mfunctions._kfuncs(u)
    assert np.array_equal(kpp, kpp_again) and np.array_equal(fp, fp_again)
    eps = np.finfo(float).eps
    low = u <= -mfunctions._Z0
    scale = np.where(low, s, np.abs(u) + (kp - u))
    return np.abs(kp - s) / (eps * scale)


def test_inversion_converges_in_its_fixed_newton_steps(monkeypatch):
    s = np.concatenate([np.geomspace(1e-8, mfunctions._S_HI, 200001),
                        np.linspace(1e-8, mfunctions._S_HI, 200001),
                        [mfunctions._S_LO, np.nextafter(mfunctions._S_LO, 0.0),
                         np.nextafter(mfunctions._S_HI, 0.0)]])
    s = s[s < mfunctions._S_HI]
    assert mfunctions._NEWTON_STEPS == 1
    assert np.max(_inversion_residuals(s)) <= 4.0
    # and it is needed: the start alone is short of rounding
    monkeypatch.setattr(mfunctions, "_NEWTON_STEPS", 0)
    assert np.max(_inversion_residuals(s)) > 4.0


# e^{x^2} erfc(x) and Phi^{-1}(p) at 30 digits, from mpmath at 40; p is the
# double nearest to the decimal written
ERFCX_30 = {
    -26.5: 1.92455316241856880924201605394e+305,
    -12.25: 2.96719225192018923081313606345e+65,
    -6.5: 4466546463040817118.71901940597,
    -2.0: 108.940904389977972412355433825,
    -0.46875: 1.85940241687142214643658842876,
    -0.1: 1.12364335419920948066370454754,
    0.0: 1.0,
    0.3: 0.734599334567655149919783312303,
    1.0: 0.427583576155807004410750344491,
    3.9: 0.140314181600689735679465074993,
    4.1: 0.133834116418651993728752199301,
    11.0: 0.051080594758088443709985583014,
    28.3: 0.0199236047544493920079121070139,
}
NDTRI_30 = {
    1e-300: -37.0470962993611992365470425049,
    1e-20: -9.26234008979840757957209460428,
    1e-5: -4.26489079392282461023374886652,
    0.02: -2.05374891063182304433863907492,
    0.3: -0.524400512708040815969454362264,
    0.5000001: 2.50662827331164830116188841284e-7,
    0.9: 1.28155156554460059348744828852,
    0.999999999999999: 7.94144448741597881060420658316,
}


def test_erfcx_matches_mpmath():
    x = np.array(list(ERFCX_30))
    want = np.array(list(ERFCX_30.values()))
    assert np.all(np.abs(mfunctions._erfcx(x) / want - 1.0) <= 1e-15)


def test_erfcx_matches_scipy():
    # scipy rounds x^2 inside its e^{x^2} for x < 0, which costs it up to
    # eps x^2 / 2 relative (3.7e-15 near x = -5.75, 5.7e-14 near -24,
    # against mpmath); on top of that the two agree to 2e-15
    x = np.linspace(-26.5, 28.3, 200001)
    rel = np.abs(mfunctions._erfcx(x) / erfcx(x) - 1.0)
    eps = np.finfo(float).eps
    assert np.all(rel <= 2e-15 + 0.5 * eps * np.square(np.minimum(x, 0.0)))
    assert np.max(rel[x >= -3.0]) <= 2e-15
    assert np.max(rel) <= 1e-13


def test_erfcx_overflows_quietly_where_scipy_does():
    # 2 e^{x^2} leaves the float range below about -26.63
    x = np.concatenate([np.linspace(-26.7, -26.6, 20001), [-38.0, -1e300]])
    got = mfunctions._erfcx(x)
    assert np.array_equal(np.isinf(got), np.isinf(erfcx(x)))
    assert np.all(np.isinf(got[-2:])) and np.isinf(got[0])


def test_ndtri_matches_mpmath_and_its_endpoints():
    p = np.array(list(NDTRI_30))
    want = np.array(list(NDTRI_30.values()))
    assert np.all(np.abs(mfunctions._ndtri(p) / want - 1.0) <= 1e-15)
    ends = mfunctions._ndtri(np.array([0.0, 0.5, 1.0]))
    assert ends[0] == -np.inf and ends[1] == 0.0 and ends[2] == np.inf


def test_ndtri_matches_scipy():
    # scipy's ndtri is itself off by up to 4.3 ulp near |x| = 1.1 (against
    # mpmath), where the two differ by up to 1.2e-15
    p = np.concatenate([np.geomspace(1e-300, 0.5, 200001),
                        np.linspace(1e-6, 1.0 - 1e-6, 200001),
                        1.0 - np.geomspace(1e-15, 0.5, 200001)])
    want = ndtri(p)
    got = mfunctions._ndtri(p)
    assert np.all(np.abs(got - want) <= 2e-15 * np.maximum(1.0, np.abs(want)))


def test_inversion_bracket_slopes_match_their_scipy_values():
    s_lo = -40.0 + math.sqrt(2.0 / math.pi) / erfcx(40.0 / math.sqrt(2.0))
    s_hi = 40.0 + math.sqrt(2.0 / math.pi) / erfcx(-40.0 / math.sqrt(2.0))
    assert abs(mfunctions._S_LO - s_lo) <= 1e-15
    assert abs(mfunctions._S_HI - s_hi) <= 1e-15
