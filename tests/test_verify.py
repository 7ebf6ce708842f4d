import dataclasses
import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import lapack
from scipy.optimize import brentq

from curvlab import sde, semigroup, suite, verify
from curvlab.errors import (DomainError, NumericalError, ParameterError,
                            QuadratureError)
from curvlab.mfunctions import catalog
from curvlab.potentials import make_double_well, make_example_potential
from curvlab.quadrature import adaptive
from curvlab.sde import BLOCK_SIZE
from curvlab.semigroup import (GridEngine, MehlerEngine, MonteCarloEngine,
                               TestFunction, as_points)
from curvlab.suite import get
from curvlab.verify import (InequalityReport, Record, Schedule,
                            _composite, _critical_points, _right_sides,
                            exp_integrability_bound_check,
                            g_alpha, h_alpha, verify_H_monotone,
                            verify_integrated_condition,
                            verify_integrated_limit, verify_local)

GAUSS = make_example_potential("gaussian")
ENGINE = MehlerEngine(GAUSS)


# ---------------------------------------------------------------------------
# interpolation coefficients
# ---------------------------------------------------------------------------

def test_g_alpha_hand_values():
    assert g_alpha(0.0, 0.7, 1.0) == 0.7
    assert g_alpha(3.0, 1.0, 0.0) == 7.0
    assert abs(g_alpha(40.0, 0.0, 1.0) - 1.0) < 1e-12
    t = 0.5
    expect = (1.0 - math.exp(-2.0 * t)) / 1.0
    assert abs(g_alpha(t, 0.0, 1.0) - expect) < 1e-15


def test_h_alpha_hand_values():
    assert h_alpha(2.0, 2.0, 0.3, 1.0) == 0.3
    assert h_alpha(0.5, 2.0, 0.0, 0.0) == 3.0
    expect = math.expm1(2.0 * 0.25 * 1.5) / 0.25
    assert abs(h_alpha(0.5, 2.0, 0.0, 0.25) - expect) < 1e-14


@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0, -0.3])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
def test_g_alpha_ode_identity(rho, alpha):
    # 2 rho g + g' = 2 pins the interpolation between alpha and 1/rho
    h = 1e-6
    for t in (0.2, 0.9, 1.7):
        gp = (g_alpha(t + h, alpha, rho) - g_alpha(t - h, alpha, rho)) / (2 * h)
        assert abs(2.0 * rho * g_alpha(t, alpha, rho) + gp - 2.0) < 1e-7


@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
def test_h_alpha_ode_identity(rho):
    h = 1e-6
    t, alpha = 1.4, 0.7
    for s in (0.2, 0.7, 1.1):
        hp = (h_alpha(s + h, t, alpha, rho)
              - h_alpha(s - h, t, alpha, rho)) / (2 * h)
        assert abs(2.0 * rho * h_alpha(s, t, alpha, rho) + hp + 2.0) < 1e-6


def test_coefficient_validation():
    with pytest.raises(ParameterError):
        g_alpha(-0.1, 0.0, 1.0)
    with pytest.raises(ParameterError):
        h_alpha(1.5, 1.0, 0.0, 1.0)
    with pytest.raises(ParameterError):
        h_alpha(-0.1, 1.0, 0.0, 1.0)


def test_coefficients_beyond_a_float_are_numerical_errors():
    # e^800 raises OverflowError inside math.exp; e^709.5 / 0.5 is a finite
    # exponential over a float's range after the division
    for call in (lambda: g_alpha(1.0, 0.0, -400.0),
                 lambda: g_alpha(709.5, 0.0, -0.5),
                 lambda: h_alpha(0.0, 1.0, 0.5, 400.0),
                 lambda: h_alpha(0.0, 709.5, 0.0, 0.5)):
        with pytest.raises(NumericalError, match="overflows a float"):
            call()


def test_schedule_validation():
    with pytest.raises(ParameterError):
        Schedule(ts=())
    with pytest.raises(ParameterError):
        Schedule(alphas=(-0.5,))
    with pytest.raises(ParameterError):
        Schedule(ts=(-1.0,))
    with pytest.raises(ParameterError):
        as_points(Schedule(xs=np.zeros((3, 2))).xs, 1)
    sched = Schedule()
    assert as_points(sched.xs, 1).shape == (7, 1)


# ---------------------------------------------------------------------------
# forward local checks
# ---------------------------------------------------------------------------

def test_local_poincare_linear_is_equality():
    [rep] = verify_local([catalog("poincare")], ENGINE, get("linear"),
                         Schedule(), rho=1.0)
    assert rep.passed
    assert max(abs(r.margin) for r in rep.records) < 1e-12


def test_local_t_zero_equality():
    sched = Schedule(ts=(0.0,))
    for name, fname in [("poincare", "quadratic"), ("log-sobolev", "exp03"),
                        ("bobkov", "unit-sine"), ("y", "sine")]:
        [rep] = verify_local([catalog(name)], ENGINE, get(fname), sched,
                             rho=1.0)
        assert max(abs(r.margin) for r in rep.records) < 1e-9, name


def test_local_log_sobolev_shifted_sine():
    sched = Schedule(ts=(0.1, 0.5, 1.0), alphas=(0.0, 1.0),
                     xs=np.array([-2.0, 0.0, 2.0]))
    [rep] = verify_local([catalog("log-sobolev")], ENGINE, get("shifted-sine"),
                         sched, rho=1.0)
    assert rep.passed
    assert rep.min_margin > -1e-6


@pytest.mark.parametrize("name,fname", [
    ("poincare", "hermite3"),
    ("log-sobolev", "gauss-bump"),
    ("beckner", "exp03"),
    ("exp-integrability", "gauss-bump"),
    ("sqrt-y", "cos-mix"),
    ("y", "quad-mix"),
    ("bobkov", "unit-gauss"),
])
def test_local_certified_catalog_passes(name, fname):
    params = {"p": 1.5} if name == "beckner" else {}
    sched = Schedule(ts=(0.1, 0.7), alphas=(0.0, 1.0),
                     xs=np.linspace(-2.0, 2.0, 5))
    [rep] = verify_local([catalog(name, **params)], ENGINE, get(fname), sched,
                         rho=1.0)
    assert rep.passed, rep.worst
    assert rep.min_margin > -1e-6


def test_local_grid_engine_matches_tolerance():
    geng = GridEngine(GAUSS, lo=-10.0, hi=10.0, m=2001, dt=1e-3)
    sched = Schedule(ts=(0.2, 0.6), alphas=(0.0, 1.0),
                     xs=np.linspace(-2.0, 2.0, 5))
    [rep] = verify_local([catalog("log-sobolev")], geng, get("shifted-sine"),
                         sched, rho=1.0)
    assert rep.tolerance == geng.tolerance == 1e-3
    assert rep.passed


def test_local_monte_carlo_within_four_sigma():
    meng = MonteCarloEngine(GAUSS, n_paths=2000, dt=1e-2, seed=11)
    sched = Schedule(ts=(0.25,), alphas=(0.5,), xs=np.array([-1.0, 0.0, 1.0]))
    [rep] = verify_local([catalog("poincare")], meng, get("sine"), sched,
                         rho=1.0)
    assert rep.tolerance == 0.0
    assert rep.passed
    assert all(r.stderr > 0.0 for r in rep.records)


def test_local_spherical_potential():
    sph = make_example_potential("spherical", alpha=1.5)
    eng = MehlerEngine(GAUSS)
    # the claimed bound must come from the actual potential; here we only
    # assert the gaussian engine rejects nothing and margins stay nonneg
    # for its true rho = 1
    [rep] = verify_local([catalog("poincare")], eng, get("sine"),
                         Schedule(ts=(0.3,), alphas=(0.5,)), rho=1.0)
    assert rep.passed
    assert sph.n == 1


# ---------------------------------------------------------------------------
# reverse local checks
# ---------------------------------------------------------------------------

def test_reverse_poincare_linear_is_equality():
    [rep] = verify_local([catalog("reverse-poincare")], ENGINE, get("linear"),
                         Schedule(alphas=(0.0,)), rho=1.0)
    assert rep.passed
    assert max(abs(r.margin) for r in rep.records) < 1e-12
    # both sides equal P_t f^2 = e^{-2t} x^2 + 1 - e^{-2t}
    for r in rep.records:
        expect = math.exp(-2 * r.t) * r.x[0] ** 2 + 1 - math.exp(-2 * r.t)
        assert abs(r.lhs - expect) < 1e-10


def test_reverse_log_sobolev_shifted_sine():
    sched = Schedule(ts=(0.2, 0.8), alphas=(0.0, 0.5),
                     xs=np.array([-2.0, 0.0, 2.0]))
    [rep] = verify_local([catalog("reverse-log-sobolev")], ENGINE,
                         get("shifted-sine"), sched, rho=1.0)
    assert rep.passed
    assert rep.min_margin > -1e-6


def test_reverse_beckner_passes():
    sched = Schedule(ts=(0.3, 1.0), alphas=(0.0, 1.0),
                     xs=np.linspace(-1.5, 1.5, 5))
    [rep] = verify_local([catalog("reverse-beckner", p=1.5)], ENGINE,
                         get("exp03"), sched, rho=1.0)
    assert rep.passed


# ---------------------------------------------------------------------------
# monotonicity of H
# ---------------------------------------------------------------------------

def test_H_constant_for_poincare_linear():
    [rep] = verify_H_monotone([catalog("poincare")], ENGINE, get("linear"),
                              t=1.0, alpha=0.5, rho=1.0, s_count=9)
    assert max(abs(r.margin) for r in rep.records) < 1e-8


def test_H_two_point_grid_reduces_to_local():
    t, alpha = 0.6, 0.4
    xs = np.array([-1.0, 0.5])
    [mono] = verify_H_monotone([catalog("log-sobolev")], ENGINE,
                               get("shifted-sine"), t=t, alpha=alpha, rho=1.0,
                               s_count=2, xs=xs)
    [local] = verify_local([catalog("log-sobolev")], ENGINE,
                           get("shifted-sine"),
                           Schedule(ts=(t,), alphas=(alpha,), xs=xs), rho=1.0)
    assert len(mono.records) == 2
    for rm, rl in zip(mono.records, local.records):
        assert abs(rm.margin - rl.margin) < 1e-12


def test_H_bobkov_nondecreasing():
    [rep] = verify_H_monotone([catalog("bobkov")], ENGINE, get("unit-sine"),
                              t=0.6, alpha=0.2, rho=1.0, s_count=9)
    assert rep.passed
    assert rep.min_margin > -1e-6


def test_H_reverse_nondecreasing():
    [rep] = verify_H_monotone([catalog("reverse-log-sobolev")], ENGINE,
                              get("shifted-sine"), t=0.8, alpha=0.5, rho=1.0,
                              s_count=9)
    assert rep.passed
    [rep] = verify_H_monotone([catalog("reverse-poincare")], ENGINE,
                              get("sine"), t=0.7, alpha=0.3, rho=1.0,
                              s_count=7)
    assert rep.passed


def test_direction_follows_the_mfunction():
    sched = Schedule(ts=(0.3,), alphas=(0.5,), xs=np.array([0.0, 1.0]))
    [rev] = verify_local([catalog("reverse-poincare")], ENGINE, get("sine"),
                         sched, rho=1.0)
    assert rev.label.startswith("reverse[reverse-poincare|")
    [fwd] = verify_local([catalog("poincare")], ENGINE, get("sine"), sched,
                         rho=1.0)
    assert fwd.label.startswith("local[poincare|")
    [mono] = verify_H_monotone([catalog("reverse-poincare")], ENGINE,
                               get("sine"), t=0.7, alpha=0.3, rho=1.0,
                               s_count=3)
    assert mono.label.startswith("monotone-reverse[reverse-poincare|")
    [mono] = verify_H_monotone([catalog("poincare")], ENGINE, get("sine"),
                               t=0.7, alpha=0.3, rho=1.0, s_count=3)
    assert mono.label.startswith("monotone-forward[poincare|")


def test_H_validation():
    with pytest.raises(ParameterError):
        verify_H_monotone([catalog("poincare")], ENGINE, get("sine"), t=0.5,
                          alpha=0.0, rho=1.0, s_count=1)
    with pytest.raises(ParameterError):
        verify_H_monotone([catalog("poincare")], ENGINE, get("sine"), t=-0.5,
                          alpha=0.0, rho=1.0)
    meng = MonteCarloEngine(GAUSS, n_paths=200, dt=1e-2, seed=0)
    with pytest.raises(ParameterError):
        verify_H_monotone([catalog("poincare")], meng, get("sine"), t=0.5,
                          alpha=0.0, rho=1.0)


# ---------------------------------------------------------------------------
# integrated checks
# ---------------------------------------------------------------------------

def test_integrated_limit_poincare_linear():
    rep = verify_integrated_limit(catalog("poincare"), GAUSS, get("linear"),
                                  rho=1.0)
    r = rep.records[0]
    # variance 1 exactly cancels int Gamma / rho = 1
    assert abs(r.margin) < 1e-10
    assert rep.passed


def test_integrated_limit_log_sobolev():
    rep = verify_integrated_limit(catalog("log-sobolev"), GAUSS, get("exp03"),
                                  rho=1.0)
    assert rep.passed
    assert rep.records[0].margin > 0.0


def test_integrated_limit_validation():
    with pytest.raises(ParameterError):
        verify_integrated_limit(catalog("poincare"), GAUSS, get("linear"),
                                rho=0.0)
    two_d = make_example_potential("spherical", alpha=1.5, n=2)
    with pytest.raises(ParameterError):
        verify_integrated_limit(catalog("poincare"), two_d, get("linear"),
                                rho=1.0)


def test_quadrature_window_guard():
    with pytest.raises(QuadratureError):
        verify_integrated_limit(catalog("poincare"), GAUSS, get("linear"),
                                half_width=1.0, rho=1.0)


def test_mass_is_measured_once_per_measure_and_window(monkeypatch):
    windows = []

    def counting_adaptive(g, edges, *args, **kwargs):
        windows.append(edges[-1])
        return adaptive(g, edges, *args, **kwargs)

    monkeypatch.setattr(verify, "adaptive", counting_adaptive)
    monkeypatch.setattr(verify, "_masses", {})

    def limit(potential, **kwargs):
        rep = verify_integrated_limit(catalog("poincare"), potential,
                                      get("linear"), rho=1.0, **kwargs)
        return rep.records[0]

    first = limit(GAUSS)
    assert limit(GAUSS) == first
    # Z on [-10, 10] and on [-15, 15] once, then the checks' own integrands
    assert sorted(windows) == [10.0] * 5 + [15.0]
    # another measure, even under the same label and window, measures its own
    narrower = dataclasses.replace(
        GAUSS, value=lambda x: np.sum(np.square(x), axis=-1))
    assert limit(narrower).rhs == pytest.approx(0.5, rel=1e-12)
    assert windows.count(15.0) == 2
    dw = make_double_well()  # its window is 10/sqrt(0.1)
    got = limit(dw)
    assert windows.count(1.5 * (10.0 / math.sqrt(0.1))) == 1
    monkeypatch.setattr(verify, "_masses", {})
    assert limit(dw) == got
    # a window that clips the measure raises on its first measurement
    for _ in range(2):
        with pytest.raises(QuadratureError):
            limit(GAUSS, half_width=1.0)


def test_chained_long_time_matches_integrated():
    # verify_local margins at t = 8 collapse onto the ergodic-limit margin
    sched = Schedule(ts=(8.0,), alphas=(0.0,), xs=np.linspace(-2.0, 2.0, 5))
    [loc] = verify_local([catalog("log-sobolev")], ENGINE, get("shifted-sine"),
                         sched, rho=1.0)
    lim = verify_integrated_limit(catalog("log-sobolev"), GAUSS,
                                  get("shifted-sine"), rho=1.0)
    target = lim.records[0].margin
    assert all(abs(r.margin - target) < 1e-4 for r in loc.records)


def test_beckner_interpolates_to_poincare():
    sched = Schedule(ts=(0.2, 0.8), alphas=(0.0, 1.0),
                     xs=np.array([-1.0, 0.0, 1.0]))
    [rp] = verify_local([catalog("poincare")], ENGINE, get("exp03"), sched,
                        rho=1.0)

    def gap(p):
        [rb] = verify_local([catalog("beckner", p=p)], ENGINE, get("exp03"),
                            sched, rho=1.0)
        return max(abs(a.margin - b.margin)
                   for a, b in zip(rb.records, rp.records))

    assert gap(1.99) < 1e-3
    # the gap shrinks linearly in 2 - p
    assert 8.0 < gap(1.99) / gap(1.999) < 12.0


def test_integrated_condition_poincare_linear():
    rep = verify_integrated_condition(catalog("poincare"), GAUSS,
                                      get("linear"), rho=1.0)
    r = rep.records[0]
    assert abs(r.lhs - 1.0) < 1e-10
    assert abs(r.rhs - 1.0) < 1e-10


def test_integrated_condition_quadratic_hand_values():
    rep = verify_integrated_condition(catalog("poincare"), GAUSS,
                                      get("quadratic"), rho=1.0)
    r = rep.records[0]
    assert abs(r.rhs - 8.0) < 1e-9
    assert abs(r.lhs - 4.0) < 1e-9


def test_integrated_condition_enhanced():
    rep = verify_integrated_condition(catalog("log-sobolev"), GAUSS,
                                      get("shifted-sine"), rho=1.0,
                                      variant="enhanced")
    assert rep.passed
    plain = verify_integrated_condition(catalog("log-sobolev"), GAUSS,
                                        get("shifted-sine"), rho=1.0)
    # the enhanced left side only adds a nonnegative term
    assert plain.records[0].lhs <= rep.records[0].lhs + 1e-12
    assert abs(plain.records[0].rhs - rep.records[0].rhs) < 1e-12


def test_integrated_condition_validation():
    with pytest.raises(ParameterError):
        verify_integrated_condition(catalog("poincare"), GAUSS,
                                    get("linear"), variant="extra")
    rep = verify_integrated_condition(catalog("poincare"), GAUSS,
                                      get("linear"), rho=0.0)
    assert rep.records[0].lhs == 0.0


def test_exp_integrability_bound():
    h = TestFunction.from_1d("sine04", lambda x: 0.4 * np.sin(x),
                             lambda x: 0.4 * np.cos(x),
                             lambda x: -0.4 * np.sin(x))
    rep = exp_integrability_bound_check(GAUSS, h, rho=1.0)
    r = rep.records[0]
    assert rep.passed
    assert r.lhs >= 0.0  # Jensen
    assert r.rhs > r.lhs


def test_exp_bound_on_a_kinked_integrand_is_accurate():
    # Gamma(sin) = cos^2, so the right side's integrand has a kink at every
    # zero of cos.  The reference is mpmath.quad at 30 digits on the same
    # window [-10, 10], split at the zeros of cos and divided by the mass.
    rep = exp_integrability_bound_check(GAUSS, get("sine"), rho=1.0)
    assert abs(rep.records[0].rhs / 7.98914962692275 - 1.0) < 1e-11


def test_quadrature_beyond_its_subinterval_limit_raises(monkeypatch):
    monkeypatch.setattr("curvlab.verify._LIMIT", 4)
    with pytest.raises(QuadratureError):
        exp_integrability_bound_check(GAUSS, get("sine"), rho=1.0)


def test_quadrature_refines_into_wells_its_first_nodes_miss():
    # on the double well's window [-31.6, 31.6] the first rule sees
    # x^2 e^{-V} only at x = 0, where it vanishes, and at |x| >= 4.7, where
    # e^{-V} < 1e-47; that saturated first estimate must not end the
    # quadrature.  The reference is a fine uniform sum, whose trapezoid end
    # corrections vanish with e^{-V(6)}.
    dw = make_double_well()
    rep = verify_integrated_limit(catalog("y"), dw, get("quadratic"),
                                  rho=1.0)
    x = np.linspace(-6.0, 6.0, 120001)
    w = np.exp(-dw.value(x[:, None]))
    want = np.sum(4.0 * x * x * w) / np.sum(w)
    assert abs(rep.records[0].rhs / want - 1.0) < 1e-9


def test_integrand_that_is_not_finite_raises():
    # 1/x is infinite at 0, the centre node of the first rule on [-1, 1]
    with pytest.raises(QuadratureError, match="not finite at x = 0"), \
            np.errstate(divide="ignore"):
        adaptive(lambda x: 1.0 / x[:, 0], [-1.0, 1.0], 1e-11, 1e-11, 200)


def _brentq_critical_points(f, lo, hi):
    # the grid's exact zeros, and brentq (default xtol 2e-12) on the cells
    # where f' changes sign
    def d1(x):
        return float(f.gradient(np.array([[x]]))[0, 0])

    grid = np.linspace(lo, hi, 2001)
    vals = f.gradient(grid[:, None])[:, 0]
    roots = [float(x) for x in grid[vals == 0.0]]
    for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0):
        roots.append(brentq(d1, grid[i], grid[i + 1]))
    return sorted(set(roots))


def test_critical_points_of_sine():
    pts = _critical_points(get("sine"), -10.0, 10.0)
    want = [math.pi / 2.0 + k * math.pi for k in range(-3, 3)]
    assert len(pts) == len(want)
    # bisection stops once every bracket is at most 2e-12 wide (brentq's
    # default xtol), and returns its midpoint
    assert max(abs(p - w) for p, w in zip(pts, want)) < 2e-12
    # every 1-D suite function, on the gaussian's default window and the
    # double well's (10 / sqrt(0.1)); brentq stops within 2e-12 + 4 eps |x|
    for f in suite.catalog().values():
        for w in (10.0, 10.0 / math.sqrt(0.1)):
            got = _critical_points(f, -w, w)
            ref = _brentq_critical_points(f, -w, w)
            assert len(got) == len(ref), f.label
            assert all(abs(p - r) < 4e-12 for p, r in zip(got, ref)), f.label


# ---------------------------------------------------------------------------
# falsification
# ---------------------------------------------------------------------------

def test_double_well_falsifies_claimed_curvature():
    dw = make_double_well()
    geng = GridEngine(dw, lo=-6.0, hi=6.0, m=2001, dt=1e-3)
    [rep] = verify_local([catalog("y")], geng, get("linear"), Schedule(),
                         rho=0.5)
    assert not rep.passed
    bad = [r for r in rep.records if r.margin <= -1e-3]
    assert bad
    worst = rep.worst
    assert abs(worst.x[0]) < 1e-12
    assert worst.alpha == 1.0
    assert worst.margin < -0.05


def test_double_well_true_negative_bound_passes():
    # with an honest rho the same check passes
    dw = make_double_well()
    geng = GridEngine(dw, lo=-6.0, hi=6.0, m=2001, dt=1e-3)
    sched = Schedule(ts=(0.1, 0.5), alphas=(0.0, 1.0),
                     xs=np.linspace(-2.0, 2.0, 5))
    [rep] = verify_local([catalog("y")], geng, get("linear"), sched, rho=-1.0)
    assert rep.passed


# ---------------------------------------------------------------------------
# report mechanics
# ---------------------------------------------------------------------------

def test_report_serialization_roundtrip():
    sched = Schedule(ts=(0.1,), alphas=(0.5,), xs=np.array([0.0, 1.0]))
    [rep] = verify_local([catalog("poincare")], ENGINE, get("sine"), sched,
                         rho=1.0)
    blob = json.loads(rep.to_json())
    assert blob["label"] == rep.label
    assert blob["pass"] is True
    assert len(blob["records"]) == len(rep.records)
    assert blob["worst"]["margin"] == rep.worst.margin
    lines = rep.to_csv().strip().splitlines()
    assert lines[0] == "x,t,alpha,s,lhs,rhs,margin,stderr"
    assert len(lines) == len(rep.records) + 1


def test_report_pass_rule_uses_stderr():
    recs = (Record(x=(0.0,), t=0.1, alpha=0.0, lhs=1.0, rhs=0.9,
                   stderr=0.05),)
    rep = InequalityReport(label="demo", records=recs, tolerance=0.0)
    assert rep.passed  # -0.1 >= -(0 + 4*0.05)
    recs = (Record(x=(0.0,), t=0.1, alpha=0.0, lhs=1.0, rhs=0.7,
                   stderr=0.05),)
    rep = InequalityReport(label="demo", records=recs, tolerance=0.0)
    assert not rep.passed


def test_report_worst_record():
    sched = Schedule(ts=(0.1, 0.5), alphas=(0.0, 1.0),
                     xs=np.array([-1.0, 1.0]))
    [rep] = verify_local([catalog("log-sobolev")], ENGINE, get("shifted-sine"),
                         sched, rho=1.0)
    assert rep.worst.margin == rep.min_margin


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4])
def test_worst_of_mirror_records_is_stable_under_rounding(scale):
    # a symmetric problem gives mirror records whose slacks agree only to
    # rounding: a 1e-14 relative nudge of either must not move `worst`,
    # which is the first record of the tie in record order
    def report(nudge_left, nudge_right):
        recs = (Record(x=(-3.0,), t=0.5, alpha=0.0, lhs=2.0 * scale,
                       rhs=scale * (1.0 + nudge_left)),
                Record(x=(0.0,), t=0.5, alpha=0.0, lhs=scale,
                       rhs=3.0 * scale),
                Record(x=(3.0,), t=0.5, alpha=0.0, lhs=2.0 * scale,
                       rhs=scale * (1.0 + nudge_right)))
        return InequalityReport(label="demo", records=recs, tolerance=0.0)

    for left, right in ((0.0, 0.0), (1e-14, 0.0), (0.0, 1e-14),
                        (0.0, -1e-14), (-1e-14, 0.0)):
        assert report(left, right).worst.x == (-3.0,)
    # a real gap is not a tie
    assert report(1e-6, 0.0).worst.x == (3.0,)


# ---------------------------------------------------------------------------
# work per check: each (t, x) evolves f once for its value and gradient
# ---------------------------------------------------------------------------

def _count_calls(monkeypatch, name, module=semigroup):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_mc_multilevel_stderrs_match_plain_monte_carlo(monkeypatch):
    # 5000 paths at dt = 1e-3 run two Euler levels on the default schedule;
    # every record's stderr is within 0.9-1.15 of a plain run's at the same
    # n_paths (0.965-1.064 measured at seed 0)
    eng = MonteCarloEngine(GAUSS, n_paths=5000, dt=1e-3, seed=0)

    def stderrs():
        [rep] = verify_local([catalog("poincare")], eng, get("sine"),
                             Schedule(), rho=1.0)
        return np.array([r.stderr for r in rep.records if r.t > 0.0])

    multilevel = stderrs()
    monkeypatch.setattr(sde, "_level_count", lambda *args: 0)
    ratio = multilevel / stderrs()
    assert len(ratio) == 5 * 3 * 7
    assert 0.9 <= ratio.min() and ratio.max() <= 1.15


def test_mc_local_simulation_count(monkeypatch):
    # one checkpointed run over the 7 points and their shifted starts gives
    # P_t f, its stderr and the central difference at every t, and the right
    # sides of all alphas at every t are read off its first 7 starts
    calls = _count_calls(monkeypatch, "_walk", sde)
    eng = MonteCarloEngine(GAUSS, n_paths=100, dt=1e-2, seed=0)
    verify_local([catalog("poincare")], eng, get("sine"), Schedule(),
                 rho=1.0)
    assert len(calls) == 1


def _linear_columns(mf, f):
    # z -> [M(f, 0), M_y(f, 0) Gamma(f)]: M(f, c Gamma(f)) = a + c b for an
    # M affine in y
    def func(z):
        vals = f.value(z)[..., None]
        gam = np.sum(np.square(f.gradient(z)), axis=-1)[..., None]
        return np.concatenate([mf.value(vals, 0.0),
                               mf.m_y(vals, 0.0) * gam], axis=-1)

    return func


def _separate_sides(mf, engine, f, sched, rho, linear=False):
    """(lhs, rhs, stderr) of each record of verify_local, from value_grad of
    f alone and one apply of the right sides per t; with `linear`, at t > 0
    one apply of M's linear form per t, combined as a + c b."""
    xs = as_points(sched.xs, engine.potential.n)
    alphas = np.array(sched.alphas)
    out = []
    for t, u, se_u, grad in zip(sched.ts,
                                *engine.value_grad(f, sched.ts, xs)):
        if mf.reverse:
            lf = np.array([h_alpha(0.0, t, a, rho) for a in alphas])
            rf = alphas
        else:
            lf = alphas
            rf = np.array([g_alpha(t, a, rho) for a in alphas])
        u, se_u = u[:, None], se_u[:, None]
        y = np.maximum(np.sum(np.square(grad), axis=-1)[:, None] * lf, 0.0)
        lhs = mf.value(u, y)
        if linear and t > 0.0:
            ab, _ = engine.apply(_linear_columns(mf, f), t, xs)
            rhs = ab[:, :1] + rf * ab[:, 1:]
            se = np.zeros(rhs.shape)
        else:
            rhs, se = engine.apply(_composite([mf], f, [rf]), t, xs)
        noisy = se_u[:, 0] > 0.0
        if np.any(noisy):
            se[noisy] += np.abs(mf.m_x(
                u[noisy], np.maximum(y[noisy], 1e-12))) * se_u[noisy]
        out += [(lhs[i, j], rhs[i, j], se[i, j])
                for j in range(len(alphas)) for i in range(len(xs))]
    return out


# unsorted, repeated, with t = 0 and a time off the dt grid
ODD_TS = Schedule(ts=(0.25, 0.0, 0.1, 0.255, 0.25))
SIDE_PAIRS = (("poincare", "sine"), ("reverse-log-sobolev", "shifted-sine"))


@pytest.mark.parametrize("threads", ["1", "4"])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("mf_id,fn", SIDE_PAIRS)
def test_mc_local_sides_match_separate_calls(monkeypatch, threads, seed,
                                              mf_id, fn):
    # both sides come from one path set in two blocks; each record is
    # bitwise what value_grad and one apply per t give on their own
    monkeypatch.setenv("CURVLAB_THREADS", threads)
    eng = MonteCarloEngine(GAUSS, n_paths=BLOCK_SIZE + 100, dt=1e-2,
                           seed=seed)
    mf, f = catalog(mf_id), get(fn)
    [rep] = verify_local([mf], eng, f, ODD_TS, rho=1.0)
    assert [(r.lhs, r.rhs, r.stderr) for r in rep.records] \
        == _separate_sides(mf, eng, f, ODD_TS, 1.0)
    assert all(r.stderr > 0.0 for r in rep.records if r.t > 0.0)


@pytest.mark.parametrize("mf_id,fn", SIDE_PAIRS)
@pytest.mark.parametrize("engine", [
    ENGINE, GridEngine(GAUSS, lo=-8.0, hi=8.0, m=801, dt=1e-2)],
    ids=["mehler", "grid"])
def test_deterministic_local_sides_match_separate_calls(engine, mf_id, fn):
    # the grid evolves the right sides of an M affine in y by its linear
    # form at t > 0: bitwise a + c b of one apply of [a, b] per t
    mf, f = catalog(mf_id), get(fn)
    [rep] = verify_local([mf], engine, f, ODD_TS, rho=1.0)
    assert [(r.lhs, r.rhs, r.stderr) for r in rep.records] \
        == _separate_sides(mf, engine, f, ODD_TS, 1.0,
                           linear=engine.kind == "grid")


@pytest.mark.parametrize("engine", [
    ENGINE, GridEngine(GAUSS, lo=-8.0, hi=8.0, m=801, dt=1e-2),
    MonteCarloEngine(GAUSS, n_paths=100, dt=1e-2)],
    ids=["mehler", "grid", "monte-carlo"])
def test_local_check_names_the_domain_f_leaves(engine):
    # sine is negative at x = -3; the engines evaluate the right sides
    # before any left side, so the check must name the domain first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="log-sobolev needs x"):
            verify_local([catalog("log-sobolev")], engine, get("sine"),
                         Schedule(), rho=1.0)


def test_value_grad_needs_one_right_side_per_time():
    with pytest.raises(ParameterError):
        ENGINE.value_grad(get("sine"), (0.1, 0.2), 0.0, rhs=[np.cos])


def test_grid_margins_match_mehler():
    # the default grid engine against the exact Mehler engine on the
    # gaussian, default schedule: margins agree to 1.3e-4 of
    # max(1, |lhs|, |rhs|) over the polytrig suite wherever each
    # M-function's domain holds f (worst 1.20e-4, hermite3 poincare; the
    # grid's spatial error dominates, 1.17e-4 with plain steps of 1e-3)
    grid, worst, checked = GridEngine(GAUSS), 0.0, 0
    for name in suite.POLYTRIG:
        for ids in (("poincare", "reverse-poincare"), ("log-sobolev",)):
            mfs = [catalog(m) for m in ids]
            try:
                reports = verify_local(mfs, grid, get(name),
                                       Schedule(), rho=1.0)
            except DomainError:
                continue
            exact = verify_local(mfs, ENGINE, get(name), Schedule(),
                                 rho=1.0)
            checked += len(mfs)
            worst = max([worst] + [
                abs(r.margin - q.margin) / max(1.0, abs(q.lhs), abs(q.rhs))
                for a, b in zip(reports, exact)
                for r, q in zip(a.records, b.records)])
    # log-sobolev holds only shifted-sine and unit-sine, which stay positive
    assert checked == 22
    assert worst <= 1.3e-4


def test_grid_local_march_count(monkeypatch):
    # one checkpointed march of f for value and gradient at every t, then,
    # inside the same value_grad call, one march of the linear form
    # [M(f, 0), M_y(f, 0) Gamma(f)] to all 5 times t > 0, from which the
    # right sides of every alpha are combined
    calls = _count_calls(monkeypatch, "grid_apply")
    eng = GridEngine(make_double_well(), lo=-6.0, hi=6.0, m=2001, dt=1e-2)
    verify_local([catalog("y")], eng, get("linear"), Schedule(),
                 rho=0.5)
    assert len(calls) == 1 + 1


AFFINE_SIDES = (("poincare", "sine"), ("reverse-poincare", "sine"),
                ("y", "linear"), ("log-sobolev", "shifted-sine"),
                ("reverse-log-sobolev", "shifted-sine"),
                ("beckner", "shifted-sine"),
                ("reverse-beckner", "shifted-sine"))


@pytest.mark.parametrize("engine", [
    GridEngine(make_double_well(), lo=-6.0, hi=6.0, m=2001, dt=1e-2),
    GridEngine(make_example_potential("spherical", alpha=1.5), lo=-8.0,
               hi=8.0, m=801, dt=1e-2)], ids=["double-well", "spherical"])
@pytest.mark.parametrize("mf_id,fn", AFFINE_SIDES)
def test_grid_linear_right_sides_match_the_composite_march(engine, mf_id, fn):
    # P_t a + c P_t b against P_t of M(f, c Gamma(f)) marched per t: equal
    # to rounding, scaled by max(1, |rhs|)
    params = {"p": 1.5} if mf_id.endswith("beckner") else {}
    mf, f = catalog(mf_id, **params), get(fn)
    ts = Schedule().ts[1:]
    xs = as_points(Schedule().xs, 1)
    factors = [[np.array([0.0, 0.5, 1.0, 2.0 * t])] for t in ts]
    *_, rhs, _ = engine.value_grad(f, ts, xs,
                                   rhs=_right_sides([mf], f, factors))
    for t, got, at_t in zip(ts, rhs, factors):
        old, _ = engine.apply(_composite([mf], f, at_t), t, xs)
        np.testing.assert_array_less(np.abs(got - old),
                                     1e-12 * np.maximum(1.0, np.abs(old)))


def test_mehler_local_quadrature_count(monkeypatch):
    # one quadrature at all 6 times, t = 0 included, over the columns
    # [f, grad f] and, at each time, the right sides of all alphas
    calls = _count_calls(monkeypatch, "mehler_apply")
    verify_local([catalog("poincare")], MehlerEngine(GAUSS), get("sine"),
                 Schedule(), rho=1.0)
    assert len(calls) == 1


def test_grid_monotone_march_count(monkeypatch):
    # the benchmark's grid monotone check: one march of f to every t - s > 0
    # gives all 20 inner functions, then one march of the 7 points'
    # interpolation weights to every s > 0 gives all 20 outer values; each
    # march runs at dt and at 2 dt, one solve per step for all its columns.
    # Every t - s and s (multiples of 0.03) is a whole number of steps of
    # dt and of 2 dt to within rounding, so no march takes a partial step:
    # 600 steps each to 0.6 at dt, 300 at 2 dt
    marches = _count_calls(monkeypatch, "grid_apply")
    solves = _count_calls(monkeypatch, "dpttrs", lapack)
    eng = GridEngine(make_double_well(), lo=-6.0, hi=6.0, m=2001, dt=1e-3)
    verify_H_monotone([catalog("poincare")], eng, get("sine"), t=0.6,
                      alpha=0.2, rho=-1.0, s_count=21)
    assert len(marches) == 1 + 1
    assert len(solves) == 600 + 600 + 300 + 300


def test_grid_monotone_refuses_an_outer_function_that_is_not_finite():
    # an M-function whose values overflow at some nodes: the outer function
    # of an s > 0 is refused by the ParameterError that grid_apply raises on
    # node values that are not finite, before any margin is formed
    eng = GridEngine(GAUSS, lo=-8.0, hi=8.0, m=801, dt=1e-2)
    big = SimpleNamespace(label="big", reverse=False,
                          value=lambda u, y: np.where(u > 0.5, np.inf, u))
    with pytest.raises(ParameterError, match="grid values must be finite"):
        verify_H_monotone([big], eng, get("sine"), t=0.6, alpha=0.2,
                          rho=1.0, s_count=4)
    with pytest.raises(ParameterError, match="grid values must be finite"):
        eng.apply_each([lambda z: np.where(z[..., 0] > 1.0, np.inf, 0.0)],
                       [0.3], [0.5])


def test_mehler_monotone_quadrature_count(monkeypatch):
    # one quadrature per s > 0 for the outer function, and one per s < t
    # for the inner function at its nodes, which depend on s: P_0 takes none
    calls = _count_calls(monkeypatch, "mehler_apply")
    verify_H_monotone([catalog("reverse-poincare")], ENGINE, get("sine"),
                      t=0.6, alpha=0.2, rho=1.0, s_count=21)
    assert len(calls) == 20 + 20


def _evolution_times(monkeypatch) -> list:
    """Every time handed to mehler_apply, grid_apply or the path walk."""
    times = []
    for module, name, at in ((semigroup, "mehler_apply", 1),
                             (semigroup, "grid_apply", 2), (sde, "_walk", 2)):
        def traced(*args, real=getattr(module, name), at=at, **kwargs):
            times.extend(np.atleast_1d(args[at]).tolist())
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, traced)
    return times


@pytest.mark.parametrize("engine", [
    ENGINE, GridEngine(GAUSS, lo=-8.0, hi=8.0, m=801, dt=1e-2),
    MonteCarloEngine(GAUSS, n_paths=200, dt=1e-2, seed=1)],
    ids=["mehler", "grid", "monte-carlo"])
def test_time_zero_is_the_identity(monkeypatch, engine):
    # P_0 = id on every engine: bitwise the functions at the points, zero
    # stderr, and no t = 0 handed to an evolution
    times = _evolution_times(monkeypatch)
    f = get("cos-mix")
    x = np.linspace(-3.0, 3.0, 7)
    pts = x[:, None]

    def columns(z):
        return np.stack([np.exp(0.1 * z[..., 0]), z[..., 0] ** 2], axis=-1)

    rhs = [columns, lambda z: np.concatenate([np.sin(z), z], axis=-1),
           lambda z: 1.0 + columns(z)]
    vals, err = engine.apply(columns, 0.0, x)
    np.testing.assert_array_equal(vals, columns(pts))
    assert np.all(err == 0.0)
    got = engine.value_grad(f, (0.0, 0.3, 0.0), x, rhs=rhs)
    for j in (0, 2):
        u, se_u, grad, side, se = (a[j] for a in got)
        np.testing.assert_array_equal(u, f(pts))
        np.testing.assert_array_equal(grad, f.gradient(pts))
        np.testing.assert_array_equal(side, rhs[j](pts))
        assert np.all(se_u == 0.0) and np.all(se == 0.0)
    if engine.kind != "monte-carlo":
        read = engine.evolved(f, (0.3, 0.0))[1]
        u, grad = read(pts)
        np.testing.assert_array_equal(u, f(pts))
        np.testing.assert_array_equal(grad, f.gradient(pts))
        verify_H_monotone([catalog("poincare")], engine, f, t=0.3, alpha=0.2,
                          rho=1.0, s_count=4)
    for mf_id in ("poincare", "reverse-log-sobolev"):
        fn = "cos-mix" if mf_id == "poincare" else "shifted-sine"
        [rep] = verify_local([catalog(mf_id)], engine, get(fn),
                             Schedule(ts=(0.0, 0.3, 0.0)), 1.0)
        assert all(r.margin == 0.0 and r.stderr == 0.0
                   for r in rep.records if r.t == 0.0)
        assert rep.passed
    assert times and min(times) > 0.0


def _per_s_monotone(mf, engine, f, t, alpha, rho, s_count, xs=None):
    """(lhs, rhs, margin) of each record of verify_H_monotone, from one
    apply per s whose sampled function calls value_grad(f, t - s, z)."""
    xs = as_points(Schedule().xs if xs is None else xs, 1)
    H = []
    for s in np.linspace(0.0, t, s_count):
        factor = h_alpha(s, t, alpha, rho) if mf.reverse \
            else g_alpha(s, alpha, rho)

        def inner(z, factor=factor, rem=t - s):
            z = np.asarray(z, dtype=float)
            u, _, grad = engine.value_grad(f, rem, z.reshape(-1, 1))
            y = np.maximum(factor * np.sum(np.square(grad), axis=-1), 0.0)
            return np.asarray(mf.value(u, y)).reshape(z.shape[:-1])

        H.append(engine.apply(inner, s, xs)[0])
    return [(H[j][i], H[j + 1][i], H[j + 1][i] - H[j][i])
            for j in range(s_count - 1) for i in range(len(xs))]


@pytest.mark.parametrize("mf_id,fn", SIDE_PAIRS)
@pytest.mark.parametrize("s_count", [21, 4])
# t = 0, below dt, off the dt grid and on it
@pytest.mark.parametrize("t", [0.0, 1e-9, 0.2555, 0.6])
@pytest.mark.parametrize("engine", [
    ENGINE, GridEngine(GAUSS, lo=-8.0, hi=8.0, m=801, dt=1e-2)],
    ids=["mehler", "grid"])
def test_monotone_matches_a_value_grad_per_s(engine, t, s_count, mf_id, fn):
    # the Mehler engine applies each s's outer function on its own, as the
    # per-s route does: bitwise.  The grid engine marches the points'
    # weights backwards instead of each outer function forwards, the
    # adjoint route through the same discrete scheme: equal to rounding,
    # scaled by max(1, |lhs|, |rhs|) (4.6e-14 measured)
    mf, f = catalog(mf_id), get(fn)
    [rep] = verify_H_monotone([mf], engine, f, t=t, alpha=0.2, rho=1.0,
                              s_count=s_count)
    got = [(r.lhs, r.rhs, r.margin) for r in rep.records]
    want = _per_s_monotone(mf, engine, f, t, 0.2, 1.0, s_count)
    if engine.kind == "mehler":
        assert got == want
    else:
        _assert_scaled_close(got, want, 1e-12)


def _assert_scaled_close(got, want, bound):
    # (lhs, rhs, margin) triples, each difference over max(1, |lhs|, |rhs|)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        scale = max(1.0, abs(b[0]), abs(b[1]))
        assert max(abs(p - q) for p, q in zip(a, b)) <= bound * scale


@pytest.mark.parametrize("mf_id,fn", SIDE_PAIRS)
def test_grid_monotone_reads_points_between_nodes_and_at_the_window_ends(
        mf_id, fn):
    # the default points sit on nodes; these lie between nodes, and on the
    # first and last node, where a point has one neighbour
    engine = GridEngine(GAUSS, lo=-8.0, hi=8.0, m=801, dt=1e-2)
    xs = [-8.0, -7.993, -1.2345, 0.01, 2.5e-3, 7.99, 8.0]
    mf, f = catalog(mf_id), get(fn)
    [rep] = verify_H_monotone([mf], engine, f, t=0.6, alpha=0.2, rho=1.0,
                              s_count=7, xs=xs)
    _assert_scaled_close([(r.lhs, r.rhs, r.margin) for r in rep.records],
                         _per_s_monotone(mf, engine, f, 0.6, 0.2, 1.0, 7,
                                         xs), 1e-12)


@pytest.mark.parametrize("t,alpha", [(math.inf, 0.2), (math.nan, 0.2),
                                     (0.6, -1.0), (0.6, math.inf),
                                     (0.6, math.nan)])
def test_monotone_needs_finite_t_and_alpha_at_least_0(t, alpha):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="need finite t >= 0"):
            verify_H_monotone([catalog("poincare")], ENGINE, get("sine"), t=t,
                              alpha=alpha, rho=1.0)


def test_evolved_reads_one_march_per_call(monkeypatch):
    # every positive time from one march, bitwise value_grad at each time;
    # t = 0 evaluates f, and points outside the window are refused
    eng = GridEngine(GAUSS, lo=-8.0, hi=8.0, m=801, dt=1e-2)
    f, xs, ts = get("sine"), as_points([-1.0, 0.3, 2.0], 1), ODD_TS.ts
    calls = _count_calls(monkeypatch, "grid_apply")
    readers = eng.evolved(f, ts)
    assert len(calls) == 1 and len(readers) == len(ts)
    for s, read in zip(ts, readers):
        u, _, grad = eng.value_grad(f, s, xs)
        got = read(xs)
        assert got[0].tobytes() == u.tobytes()
        assert got[1].tobytes() == grad.tobytes()
    with pytest.raises(DomainError):
        readers[0](9.0)


# ---------------------------------------------------------------------------
# M-functions that share one evolution
# ---------------------------------------------------------------------------

LOCAL_GROUP = ("poincare", "reverse-log-sobolev", "log-sobolev",
               "reverse-poincare")
MONOTONE_GROUP = ("poincare", "reverse-poincare", "log-sobolev",
                  "reverse-log-sobolev")


def _same_reports(grouped, single):
    assert len(grouped) == len(single)
    for a, b in zip(grouped, single):
        assert a.to_csv() == b.to_csv()
        assert a.to_dict() == b.to_dict()


def test_an_empty_mfunction_sequence_is_a_parameter_error():
    with pytest.raises(ParameterError, match="at least one M-function"):
        verify_local([], ENGINE, get("sine"), Schedule(), rho=1.0)
    with pytest.raises(ParameterError, match="at least one M-function"):
        verify_H_monotone([], ENGINE, get("sine"), t=0.6, alpha=0.2, rho=1.0)


@pytest.mark.parametrize("engine", [
    ENGINE, GridEngine(GAUSS, lo=-8.0, hi=8.0, m=801, dt=1e-2),
    MonteCarloEngine(GAUSS, n_paths=200, dt=1e-2, seed=3)],
    ids=["mehler", "grid", "monte-carlo"])
def test_grouped_local_reports_equal_single_ones(engine):
    # forward and reverse M-functions mixed, on a schedule with t = 0
    mfs, f = [catalog(m) for m in LOCAL_GROUP], get("shifted-sine")
    grouped = verify_local(mfs, engine, f, ODD_TS, rho=1.0)
    _same_reports(grouped, [verify_local([mf], engine, f, ODD_TS, rho=1.0)[0]
                            for mf in mfs])
    assert [r.label.split("[")[0] for r in grouped] \
        == ["local", "reverse", "local", "reverse"]


@pytest.mark.parametrize("t", [0.0, 0.2555, 0.6])
@pytest.mark.parametrize("engine", [
    ENGINE, GridEngine(GAUSS, lo=-8.0, hi=8.0, m=801, dt=1e-2)],
    ids=["mehler", "grid"])
def test_grouped_monotone_reports_equal_single_ones(engine, t):
    mfs, f = [catalog(m) for m in MONOTONE_GROUP], get("shifted-sine")
    kw = dict(t=t, alpha=0.2, rho=1.0, s_count=6)
    grouped = verify_H_monotone(mfs, engine, f, **kw)
    _same_reports(grouped, [verify_H_monotone([mf], engine, f, **kw)[0]
                            for mf in mfs])


def test_grid_mixed_affinity_group_equals_single_ones(monkeypatch):
    # y and poincare read a + c b off one march of their shared linear
    # form; sqrt-y, not affine in y, marches its own columns to each t > 0
    eng = GridEngine(GAUSS, lo=-8.0, hi=8.0, m=801, dt=1e-2)
    mfs, f = [catalog(m) for m in ("sqrt-y", "y", "poincare")], get("sine")
    single = [verify_local([mf], eng, f, ODD_TS, rho=1.0)[0] for mf in mfs]
    calls = _count_calls(monkeypatch, "grid_apply")
    _same_reports(verify_local(mfs, eng, f, ODD_TS, rho=1.0), single)
    assert len(calls) == 1 + 1 + 4


def test_mehler_monotone_group_makes_the_quadratures_of_one(monkeypatch):
    # 20 outer quadratures and 20 inner ones, for 4 M-functions as for 1
    calls = _count_calls(monkeypatch, "mehler_apply")
    verify_H_monotone([catalog(m) for m in MONOTONE_GROUP], ENGINE,
                      get("shifted-sine"), t=0.6, alpha=0.2, rho=1.0,
                      s_count=21)
    assert len(calls) == 20 + 20


def test_grid_local_group_marches_f_once(monkeypatch):
    # the march of f, and one march to every t > 0 of the linear forms of
    # every M-function as columns: the count of a single M-function
    calls = _count_calls(monkeypatch, "grid_apply")
    eng = GridEngine(make_double_well(), lo=-6.0, hi=6.0, m=2001, dt=1e-2)
    verify_local([catalog(m) for m in ("y", "poincare", "reverse-poincare")],
                 eng, get("linear"), Schedule(), rho=0.5)
    assert len(calls) == 1 + 1
