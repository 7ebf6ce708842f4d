"""End-to-end acceptance: one test per criterion, one printed verdict line.

Run with -s (or read captured output) to see the per-criterion lines.
Criterion 9's alpha = 1 sub-case is infeasible as stated and is kept as a
strict expected failure; the analysis lives in the project decision notes.
"""

import json
import time

import numpy as np
import pytest

from curvlab.cli import PRESETS, parse_config, run
from curvlab.mfunctions import (_sample_grids, catalog, certify_psd,
                                condition_matrix, exp_integrability_F,
                                isoperimetric_I)
from curvlab.potentials import (constant_certificate, local_eigenvalue_margin,
                                make_lyapunov, parse_potential_id,
                                scan_points)
from curvlab.feynman_kac import (commutation_check, gradient_bound,
                                 supermartingale_check)
from curvlab.semigroup import MehlerEngine, gamma, make_engine
from curvlab.spectral import (Q_iterate, derivative_l2, expand, gauss_mean,
                              houdre_kagan, random_corpus)
from curvlab.suite import (bounded_gradient_suite, get, main_suite,
                           polytrig_suite, positive_suite)
from curvlab.verify import (default_schedule, verify_H_monotone,
                            verify_integrated_condition,
                            verify_integrated_limit, verify_local,
                            exp_integrability_bound_check)

GAUSS = parse_potential_id("gaussian")
MEHLER = MehlerEngine(GAUSS)
TS5 = (0.1, 0.3, 0.5, 1.0, 2.0)
XS7 = np.linspace(-3.0, 3.0, 7).reshape(-1, 1)


def _verdict(num: int, name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} [{name}]: {tag}{suffix}")
    assert ok, f"criterion {num:02d} [{name}] failed{suffix}"


def test_criterion_01_ou_commutation():
    worst_ii = worst_iii = np.inf
    eq_worst = 0.0
    for f in main_suite():
        for t in TS5:
            gam_pt = np.sum(np.square(MEHLER.value_grad(f, t, XS7)[2]),
                              axis=-1)
            pt_gamma, _ = MEHLER.apply(lambda z: gamma(f, f, z), t, XS7)
            m_ii = np.exp(-2.0 * t) * pt_gamma - gam_pt
            pt_root, _ = MEHLER.apply(
                lambda z: np.sqrt(gamma(f, f, z)), t, XS7)
            m_iii = np.exp(-t) * pt_root - np.sqrt(gam_pt)
            worst_ii = min(worst_ii, float(np.min(m_ii)))
            worst_iii = min(worst_iii, float(np.min(m_iii)))
            if f.label == "linear":
                eq_worst = max(eq_worst, float(np.max(np.abs(m_ii))),
                               float(np.max(np.abs(m_iii))))
    ok = worst_ii >= -1e-6 and worst_iii >= -1e-6 and eq_worst <= 1e-9
    _verdict(1, "ou-commutation", ok,
             f"min margins ii={worst_ii:.2e} iii={worst_iii:.2e}, "
             f"linear equality {eq_worst:.2e}")


FORWARD_PAIRS = (
    ("poincare", {}, "shifted-sine"),
    ("log-sobolev", {}, "shifted-sine"),
    ("bobkov", {}, "unit-gauss"),
    ("beckner", {"p": 1.2}, "shifted-sine"),
    ("beckner", {"p": 1.5}, "shifted-sine"),
    ("beckner", {"p": 1.8}, "shifted-sine"),
    ("exp-integrability", {}, "gauss-bump"),
    ("sqrt-y", {}, "sine"),
    ("y", {}, "sine"),
)


def test_criterion_02_forward_local():
    worst = np.inf
    t0_worst = 0.0
    for name, params, fname in FORWARD_PAIRS:
        mf = catalog(name, **params)
        assert certify_psd(mf, "A-forward").passed, \
            f"PSD(A) failed for {mf.label}"
        [rep] = verify_local([mf], MEHLER, get(fname), default_schedule(),
                             rho=1.0)
        worst = min(worst, rep.min_margin)
        t0 = [abs(r.margin) for r in rep.records if r.t == 0.0]
        t0_worst = max(t0_worst, max(t0))
    ok = worst >= -1e-6 and t0_worst <= 1e-9
    _verdict(2, "forward-local", ok,
             f"{len(FORWARD_PAIRS)} M-functions, min margin {worst:.2e}, "
             f"worst t=0 deviation {t0_worst:.2e}")


REVERSE_PAIRS = (
    ("reverse-poincare", {}, "linear"),
    ("reverse-log-sobolev", {}, "shifted-sine"),
    ("reverse-beckner", {"p": 1.5}, "shifted-sine"),
)


def test_criterion_03_reverse_local():
    worst = np.inf
    t0_worst = 0.0
    closed_worst = 0.0
    for name, params, fname in REVERSE_PAIRS:
        mf = catalog(name, **params)
        assert certify_psd(mf, "B-reverse").passed, \
            f"PSD(B) failed for {mf.label}"
        [rep] = verify_local([mf], MEHLER, get(fname), default_schedule(),
                             rho=1.0)
        worst = min(worst, rep.min_margin)
        t0 = [abs(r.margin) for r in rep.records if r.t == 0.0]
        t0_worst = max(t0_worst, max(t0))
        if name == "reverse-poincare":
            for r in rep.records:
                if r.alpha != 0.0:
                    continue
                want = (np.exp(-2.0 * r.t) * r.x[0] ** 2
                        + 1.0 - np.exp(-2.0 * r.t))
                closed_worst = max(closed_worst, abs(r.lhs - want),
                                   abs(r.rhs - want))
    ok = worst >= -1e-6 and t0_worst <= 1e-9 and closed_worst <= 1e-9
    _verdict(3, "reverse-local", ok,
             f"min margin {worst:.2e}, t=0 {t0_worst:.2e}, "
             f"closed form {closed_worst:.2e}")


H_FORWARD = (("poincare", {}, "sine"), ("log-sobolev", {}, "shifted-sine"),
             ("beckner", {"p": 1.5}, "shifted-sine"),
             ("bobkov", {}, "unit-gauss"))
H_REVERSE = (("reverse-poincare", {}, "sine"),
             ("reverse-log-sobolev", {}, "shifted-sine"),
             ("reverse-beckner", {"p": 1.5}, "shifted-sine"),
             ("reverse-poincare", {}, "gauss-bump"))


def test_criterion_04_h_monotonicity():
    worst = np.inf
    for direction, pairs in (("forward", H_FORWARD), ("reverse", H_REVERSE)):
        for name, params, fname in pairs:
            [rep] = verify_H_monotone([catalog(name, **params)], MEHLER,
                                      get(fname), t=0.6, alpha=0.2, rho=1.0,
                                      s_count=21)
            assert len({r.s for r in rep.records}) == 20
            worst = min(worst, rep.min_margin)
    ok = worst >= -1e-6
    _verdict(4, "h-monotonicity", ok,
             f"4 pairs per direction, 21-point grids, "
             f"min difference {worst:.2e}")


def test_criterion_05_integrated_limits():
    rep = verify_integrated_limit(catalog("poincare"), GAUSS, get("linear"),
                                  rho=1.0)
    eq = abs(rep.records[0].margin)
    ls_worst = min(
        verify_integrated_limit(catalog("log-sobolev"), GAUSS, f,
                                rho=1.0).min_margin
        for f in positive_suite())
    exp_worst = min(
        exp_integrability_bound_check(GAUSS, f, rho=1.0).min_margin
        for f in bounded_gradient_suite())
    ok = eq <= 1e-9 and ls_worst >= -1e-9 and exp_worst >= 0.0
    _verdict(5, "integrated-limits", ok,
             f"poincare equality {eq:.2e}, log-sobolev min {ls_worst:.2e} "
             f"over 6 fns, exp-bound min {exp_worst:.2e} over 6 fns")


def test_criterion_06_integrated_conditions():
    weight_one = catalog("y")
    worst = np.inf
    for variant in ("plain", "enhanced"):
        for f in polytrig_suite():
            rep = verify_integrated_condition(weight_one, GAUSS, f, rho=1.0,
                                              variant=variant)
            worst = min(worst, rep.min_margin)
    hand = verify_integrated_condition(weight_one, GAUSS, get("quadratic"),
                                       rho=1.0).records[0]
    hand_ok = abs(hand.lhs - 4.0) <= 1e-9 and abs(hand.rhs - 8.0) <= 1e-9
    ok = worst >= -1e-8 and hand_ok
    _verdict(6, "integrated-conditions", ok,
             f"min margin {worst:.2e} over {2 * len(polytrig_suite())} "
             f"checks, f=x^2 record lhs={hand.lhs:.12g} rhs={hand.rhs:.12g}")


def test_criterion_07_converse_falsification():
    summary = run(parse_config(PRESETS["doublewell-falsify"]))
    (cid, label, passed, min_margin, worst) = summary.checks[0]
    ok = (not passed) and min_margin <= -1e-3 and summary.succeeded
    _verdict(7, "converse-falsification", ok,
             f"claim rho=0.5 refuted, worst margin {min_margin:.4f} at "
             f"x={worst['x']}, t={worst['t']}")


def test_criterion_08_special_functions():
    s = np.array([0.5, 1.0, 2.0, 4.0])
    f_ok = bool(np.all(exp_integrability_F(s)
                       <= 10.0 * np.exp(s * s / 2.0) / (1.0 + s)))
    xs = np.linspace(0.05, 0.95, 91)
    h = 1e-4
    second = (isoperimetric_I(xs + h) - 2.0 * isoperimetric_I(xs)
              + isoperimetric_I(xs - h)) / (h * h)
    iso_err = float(np.max(np.abs(second * isoperimetric_I(xs) + 1.0)))
    det_worst = 0.0
    for name in ("bobkov", "log-sobolev"):
        mf = catalog(name)
        gx, gy = _sample_grids(mf)
        X, Y = np.meshgrid(gx, gy, indexing="ij")
        A = condition_matrix(mf, "A-forward", X, Y)
        det = A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] ** 2
        det_worst = max(det_worst, float(np.max(np.abs(det))))
    ok = f_ok and iso_err <= 1e-6 and det_worst <= 1e-9
    _verdict(8, "special-functions", ok,
             f"F bound holds at 4 points, max |I''I+1|={iso_err:.2e}, "
             f"max |det A|={det_worst:.2e}")


def test_criterion_09_lyapunov_certification():
    details = []
    ok = True
    for alpha in (1.5, 1.8):
        cert = make_lyapunov("spherical", alpha=alpha, p=2.0, n=1)
        want = 0.25 * min(2.0, np.sqrt(2.0))
        assert cert.c == pytest.approx(want)
        assert cert.beta == pytest.approx(want)
        pot = parse_potential_id(f"spherical:alpha={alpha}:n=1")
        m = float(np.min(local_eigenvalue_margin(pot, cert, scan_points(1))))
        ok = ok and m >= 0.0
        details.append(f"spherical({alpha}) min {m:.3f}")
    cert = make_lyapunov("product-power", alpha=1.5, p=2.0, n=2)
    pot = parse_potential_id("product-power:alpha=1.5:n=2")
    m = float(np.min(local_eigenvalue_margin(pot, cert, scan_points(2))))
    ok = ok and m >= 0.0
    details.append(f"product-power(1.5, n=2) c={cert.c:g} "
                   f"theta={cert.theta:g} beta={cert.beta:g} min {m:.4f}")
    _verdict(9, "lyapunov-certification", ok, "; ".join(details))


@pytest.mark.xfail(
    strict=True,
    reason="stated constants c = beta = 1/(4n) are infeasible for the "
           "alpha = 1 spherical potential: the scan minimum is "
           "-0.0628 at x = -13.95, so the margin cannot be nonnegative")
def test_criterion_09_alpha_one_subcase():
    cert = make_lyapunov("spherical", alpha=1.0, p=2.0, n=1)
    assert cert.c == pytest.approx(0.25) and cert.beta == pytest.approx(0.25)
    pot = parse_potential_id("spherical:alpha=1:n=1")
    m = float(np.min(local_eigenvalue_margin(pot, cert, scan_points(1))))
    print(f"criterion 09 [alpha-one-subcase]: FAIL as analyzed "
          f"(min scan margin {m:.10f})")
    assert m >= 0.0


def test_criterion_10_feynman_kac():
    t_start = time.monotonic()
    seed = 20240819
    sphere = parse_potential_id("spherical:alpha=1.5:n=1")
    sphere_cert = make_lyapunov("spherical", alpha=1.5, p=2.0, n=1)

    sm = supermartingale_check(sphere, sphere_cert, x0=np.array([1.0]),
                               ts=(0.25, 0.5, 1.0), n_paths=100_000,
                               dt=1e-3, seed=seed)
    sm_ok = sm.passed

    grad_g = gradient_bound(GAUSS, get("sine"), xs=np.array([0.0, 1.0]),
                            ts=(0.25, 1.0), lhs_engine=MEHLER,
                            n_paths=100_000, dt=1e-3, seed=seed)
    grid = make_engine("grid", sphere, lo=-8.0, hi=8.0, m=1601)
    grad_s = gradient_bound(sphere, get("gauss-bump"),
                            xs=np.array([0.0, 1.0]), ts=(0.25, 1.0),
                            lhs_engine=grid, n_paths=100_000, dt=1e-3,
                            seed=seed)
    grad_ok = grad_g.passed and grad_s.passed

    comm = commutation_check(GAUSS, constant_certificate(p=2.0), get("linear"),
                             xs=np.array([0.7]), ts=(0.5, 1.0),
                             lhs_engine=MEHLER, n_paths=100_000, dt=1e-3,
                             seed=seed)
    comm_eq = max(abs(r.margin) for r in comm.records)
    wall = time.monotonic() - t_start
    ok = sm_ok and grad_ok and comm_eq <= 1e-9 and wall <= 900.0
    _verdict(10, "feynman-kac", ok,
             f"supermartingale min {sm.min_margin:.2e}, gradient bounds "
             f"pass, commutation equality {comm_eq:.1e}, {wall:.0f}s")


def test_criterion_11_houdre_kagan():
    corpus = random_corpus()
    assert len(corpus) == 50
    brackets_ok = all(houdre_kagan(c, N).brackets
                      for c in corpus for N in (1, 2, 3))
    sq = houdre_kagan(np.array([0.0, 0.0, 1.0]), 1)
    cube = houdre_kagan(np.array([0.0, 0.0, 0.0, 1.0]), 2)
    hand_ok = (
        abs(sq.partial_sums[0] - 4.0) <= 1e-10
        and abs(sq.partial_sums[1] - 2.0) <= 1e-10
        and abs(sq.variance - 2.0) <= 1e-10
        and abs(cube.partial_sums[0] - 27.0) <= 1e-10
        and abs(cube.partial_sums[1] - 9.0) <= 1e-10
        and abs(cube.partial_sums[2] - 15.0) <= 1e-10
        and abs(cube.variance - 15.0) <= 1e-10)
    q_worst = 0.0
    for coefs in corpus[:10]:
        h = expand(coefs)
        for k in (1, 2, 3):
            via_q = gauss_mean(Q_iterate(coefs, k))
            direct = derivative_l2(h, k)
            rel = abs(via_q - direct) / max(1.0, abs(direct))
            q_worst = max(q_worst, rel)
    ok = brackets_ok and hand_ok and q_worst <= 1e-8
    _verdict(11, "houdre-kagan", ok,
             f"50-draw corpus brackets for N=1..3, hand values exact, "
             f"Q-vs-derivative rel err {q_worst:.2e}")


def test_criterion_12_reproducibility(tmp_path, monkeypatch, paths_at):
    cfg = parse_config("checks = local\nmfunctions = poincare\n"
                       "functions = sine\nengine = monte-carlo\n"
                       "engine.n_paths = 2000\nts = 0.3\nalphas = 0.5\n"
                       "seed = 7\n")
    a, b = tmp_path / "a", tmp_path / "b"
    run(cfg, out_dir=str(a))
    run(cfg, out_dir=str(b))
    sa = json.loads((a / "summary.json").read_text())
    sb = json.loads((b / "summary.json").read_text())
    for d in (sa, sb):
        d.pop("timestamp")
        d.pop("wall_time_s")
    byte_ok = sa == sb and all(
        (a / p.name).read_bytes() == (b / p.name).read_bytes()
        for p in a.iterdir() if p.name != "summary.json")

    rho = {"rho": lambda x, drift: GAUSS.curvature(x)}
    monkeypatch.setenv("CURVLAB_THREADS", "1")
    [(one, one_ints)] = paths_at(GAUSS, np.zeros(1), 0.3, 1e-3, 3000, 5, rho)
    monkeypatch.setenv("CURVLAB_THREADS", "4")
    [(four, four_ints)] = paths_at(GAUSS, np.zeros(1), 0.3, 1e-3, 3000, 5,
                                   rho)
    thread_ok = (np.array_equal(one, four)
                 and np.array_equal(one_ints["rho"], four_ints["rho"]))
    ok = byte_ok and thread_ok
    _verdict(12, "reproducibility", ok,
             "byte-identical reruns, thread-count invariant Monte Carlo")
