"""Potentials: closed-form derivatives, curvature, and Lyapunov certificates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvlab.errors import CertificationError, ParameterError
from curvlab.potentials import (
    LyapunovCertificate,
    constant_certificate,
    local_eigenvalue_margin,
    make_double_well,
    make_example_potential,
    make_lyapunov,
    parse_potential_id,
    rho_min,
    scan_certificate,
    scan_points,
)


def fd_gradient(P, x, h=1e-6):
    g = np.zeros(P.n)
    for i in range(P.n):
        e = np.zeros(P.n)
        e[i] = h
        g[i] = (P.value(x + e) - P.value(x - e)) / (2.0 * h)
    return g


def fd_hessian(P, x, h=1e-5):
    H = np.zeros((P.n, P.n))
    for i in range(P.n):
        e = np.zeros(P.n)
        e[i] = h
        H[i] = (P.gradient(x + e) - P.gradient(x - e)) / (2.0 * h)
    return 0.5 * (H + H.T)


POTS = [
    make_example_potential("gaussian", n=2),
    make_example_potential("spherical", 1.5, 1),
    make_example_potential("spherical", 1.5, 3),
    make_example_potential("spherical", 1.0, 2),
    make_example_potential("product-power", 1.2, 2),
    make_example_potential("product-power", 1.0, 1),
    make_double_well(),
]


@pytest.mark.parametrize("P", POTS, ids=lambda P: P.label)
@given(u=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
@settings(max_examples=25, deadline=None)
def test_gradient_matches_value(P, u):
    x = np.array(u[: P.n])
    np.testing.assert_allclose(P.gradient(x), fd_gradient(P, x), rtol=1e-4, atol=1e-6)


@pytest.mark.parametrize("P", POTS, ids=lambda P: P.label)
@given(u=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
@settings(max_examples=25, deadline=None)
def test_hessian_matches_gradient(P, u):
    x = np.array(u[: P.n])
    np.testing.assert_allclose(P.hessian(x), fd_hessian(P, x), rtol=1e-4, atol=1e-5)


@pytest.mark.parametrize("P", POTS, ids=lambda P: P.label)
@given(u=st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3))
@settings(max_examples=25, deadline=None)
def test_curvature_closure_is_min_eigenvalue(P, u):
    x = np.array(u[: P.n])
    lam = np.linalg.eigvalsh(P.hessian(x))[0]
    np.testing.assert_allclose(P.curvature(x), lam, rtol=1e-10, atol=1e-12)


def test_rho_min_spherical_radial_direction():
    # the radial eigenvalue alpha (1 + (alpha-1) r^2) (1 + r^2)^(alpha/2 - 2)
    # is the smaller one for alpha < 2; at r^2 = 3, alpha = 1.5 it equals
    # 1.5 * 2.5 * 4^(-1.25) = 15/32 * 2^(1/2)
    P = make_example_potential("spherical", 1.5, 1)
    got = rho_min(P, [math.sqrt(3.0)])
    assert got == pytest.approx(15.0 / 32.0 * math.sqrt(2.0), abs=1e-14)
    assert got == pytest.approx(0.6629126073623884, abs=1e-13)

    # in n = 2 both eigenvalues are visible; the tangential one is larger
    P2 = make_example_potential("spherical", 1.5, 2)
    x2 = np.array([math.sqrt(1.5), math.sqrt(1.5)])
    eigs = np.linalg.eigvalsh(P2.hessian(x2))
    np.testing.assert_allclose(eigs, [0.6629126073623884, 1.0606601717798214], atol=1e-12)
    assert rho_min(P2, x2) == pytest.approx(eigs[0], abs=1e-14)


def test_rho_min_origin_and_gaussian():
    for a in (1.0, 1.3, 1.9):
        P = make_example_potential("spherical", a, 2)
        assert rho_min(P, [0.0, 0.0]) == pytest.approx(a, abs=1e-14)
    G = make_example_potential("gaussian", n=3)
    assert rho_min(G, [1.0, -2.0, 0.5]) == 1.0


def test_product_power_hessian_is_diagonal():
    P = make_example_potential("product-power", 1.4, 3)
    x = np.array([0.5, -2.0, 1.1])
    H = P.hessian(x)
    off = H - np.diag(np.diag(H))
    assert np.all(off == 0.0)
    # each diagonal entry is the 1-d radial eigenvalue at that coordinate
    P1 = make_example_potential("spherical", 1.4, 1)
    for i in range(3):
        assert H[i, i] == pytest.approx(rho_min(P1, [x[i]]), abs=1e-14)


def test_double_well_curvature_sign():
    W = make_double_well()
    assert rho_min(W, [0.0]) == -1.0
    assert rho_min(W, [1.0]) == 2.0
    x = np.linspace(-2, 2, 9)[:, None]
    np.testing.assert_allclose(W.curvature(x), 3.0 * x[:, 0] ** 2 - 1.0, atol=0)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        make_example_potential("spherical", 2.0, 1)
    with pytest.raises(ParameterError):
        make_example_potential("spherical", 0.9, 1)
    with pytest.raises(ParameterError):
        make_example_potential("spherical", None, 1)
    with pytest.raises(ParameterError):
        make_example_potential("nope")
    with pytest.raises(ParameterError):
        make_example_potential("gaussian", n=0)
    with pytest.raises(ParameterError):
        constant_certificate(1.0, 1.0)
    with pytest.raises(ParameterError):
        constant_certificate(2.0, 0.0)
    with pytest.raises(ParameterError):
        make_lyapunov("spherical", 1.5, 0.5)
    # the dimension first, before anything divides by it
    for kind in ("spherical", "product-power"):
        with pytest.raises(ParameterError,
                           match="dimension must be >= 1, got 0"):
            make_lyapunov(kind, 1.5, 0.5, 0)


def test_parse_potential_id_round_trip():
    for text in ["gaussian:n=2", "spherical:alpha=1.5:n=1",
                 "product-power:alpha=1.2:n=3", "double-well"]:
        P = parse_potential_id(text)
        assert P.label == text or text == "gaussian:n=2" and P.label == "gaussian:n=2"
        assert parse_potential_id(P.label).label == P.label
    with pytest.raises(ParameterError):
        parse_potential_id("spherical:n=1")
    with pytest.raises(ParameterError):
        parse_potential_id("spherical:alpha")
    with pytest.raises(ParameterError):
        parse_potential_id("unknown:n=1")


@pytest.mark.parametrize("text", ["gaussian:n=abc", "gaussian:n=1.5",
                                  "spherical:alpha=x", "double-well:n=2",
                                  "gaussian:foo=1", "gaussian:alpha=1.5"])
def test_parse_potential_id_rejects_bad_parameters(text):
    with pytest.raises(ParameterError):
        parse_potential_id(text)


def test_scan_points_shapes():
    p1 = scan_points(1)
    assert p1.shape == (2001, 1)
    assert p1[0, 0] == -50.0 and p1[-1, 0] == 50.0
    p2 = scan_points(2)
    assert p2.shape == (10000, 2)
    assert np.all(np.linalg.norm(p2, axis=1) <= 50.0)
    # deterministic
    np.testing.assert_array_equal(p2, scan_points(2))


def test_scan_points_draw_sized_by_the_ball_volume(monkeypatch):
    # the draw is sized by the ball's share of the cube,
    # pi^(n/2) / Gamma(n/2 + 1) / 2^n, not 0.5^n: 4x fewer points from
    # n = 4 on.  The kept points are the first 10 000 in the ball of one
    # unscrambled Sobol sequence, so they are those of the old, larger draw
    from scipy.stats import qmc

    drawn = []
    real = qmc.Sobol.random
    monkeypatch.setattr(qmc.Sobol, "random",
                        lambda self, n: drawn.append(n) or real(self, n))
    old_sizes = {2: 2**15, 3: 2**15, 4: 2**18, 5: 2**19, 6: 2**20}
    for n, old in old_sizes.items():
        pts = scan_points(n)
        assert drawn.pop() == (old if n <= 3 else old // 4)
        sobol = qmc.Sobol(d=n, scramble=False)
        cube = real(sobol, old) * 2.0 * 50.0 - 50.0
        want = cube[np.linalg.norm(cube, axis=1) <= 50.0][:10000]
        assert pts.tobytes() == want.tobytes()


def test_constant_certificate_margin_is_spectral_gap():
    # g = 1 makes the margin p rho - beta exactly
    P = make_example_potential("gaussian", n=1)
    cert = constant_certificate(2.0, 2.0, 1)
    m = local_eigenvalue_margin(P, cert, np.array([[0.3], [-4.0], [10.0]]))
    np.testing.assert_allclose(m, 0.0, atol=1e-15)


def test_perturbed_linear_certificate_margin():
    # f = eps x_1 on the gaussian: Lg/g = eps^2 - eps x_1
    eps = 0.125
    P = make_example_potential("gaussian", n=2)

    def lv(x):
        return eps * x[..., 0]

    def lg(x):
        g = np.zeros_like(x)
        g[..., 0] = eps
        return g

    def ll(x):
        return np.zeros(x.shape[:-1])

    cert = LyapunovCertificate(2.0, 1.0, eps, 2, lv, lg, ll)
    x = np.array([[0.0, 0.0], [2.0, -1.0]])
    m = local_eigenvalue_margin(P, cert, x)
    expect = 2.0 - 1.0 - (eps * eps - eps * x[:, 0])
    np.testing.assert_allclose(m, expect, atol=1e-15)


def test_certificate_of_another_dimension_is_refused():
    # the radial Laplacian carries n, so an n = 1 certificate on the n = 2
    # potential would give margins that are quietly wrong
    pot = parse_potential_id("spherical:alpha=1.5:n=2")
    cert = make_lyapunov("spherical", 1.5, 2.0, 1)
    with pytest.raises(ParameterError, match="built for R\\^1"):
        local_eigenvalue_margin(pot, cert, np.array([[0.3, -0.4]]))
    with pytest.raises(ParameterError, match="built for R\\^1"):
        scan_certificate(pot, cert)


def test_spherical_certificates_pass_scan():
    # closed-form constants for alpha >= 4/3; frozen scan minima
    for a, margin in [(1.5, 0.123326), (1.8, 1.090832)]:
        cert = make_lyapunov("spherical", a, 2.0, 1)
        assert cert.c == pytest.approx(math.sqrt(2.0) / 4.0, abs=1e-15)
        assert cert.beta == cert.c
        scan = scan_certificate(make_example_potential("spherical", a, 1), cert)
        assert scan.passed
        assert scan.min_margin == pytest.approx(margin, abs=1e-5)


def test_spherical_certificate_calibrated_branch():
    cert = make_lyapunov("spherical", 1.2, 2.0, 1)
    assert cert.beta == pytest.approx(cert.c / 2.0)
    scan = scan_certificate(make_example_potential("spherical", 1.2, 1), cert)
    assert scan.passed
    assert scan.min_margin == pytest.approx(0.270059, abs=1e-5)


def test_spherical_alpha_one_constants_fail_scan():
    # the stated constants beta = c = 1/(4n) do not clear the scan: the
    # far-field limit of the margin is p rho - beta - (c^2 - c) rho-weighted
    # terms and needs beta <= c - c^2; pinned here as a negative result
    cert = make_lyapunov("spherical", 1.0, 2.0, 1)
    assert cert.c == 0.25 and cert.beta == 0.25
    scan = scan_certificate(make_example_potential("spherical", 1.0, 1), cert)
    assert not scan.passed
    assert scan.min_margin == pytest.approx(-0.062819, abs=1e-5)


def test_product_power_certificate():
    cert = make_lyapunov("product-power", 1.5, 2.0, 2)
    # theta grid starts at (6n)^(1/(alpha-1)) = 12^2 = 144
    assert cert.theta == 144.0
    assert cert.beta == pytest.approx(cert.c * 2.0 / math.sqrt(144.0))
    scan = scan_certificate(make_example_potential("product-power", 1.5, 2), cert)
    assert scan.passed
    assert scan.min_margin == pytest.approx(0.653393, abs=1e-5)


def test_product_power_alpha_one_feasible_by_search():
    # unlike the spherical closed form, the searched product certificate
    # lands on the feasibility boundary
    cert = make_lyapunov("product-power", 1.0, 2.0, 1)
    scan = scan_certificate(make_example_potential("product-power", 1.0, 1), cert)
    assert scan.passed
    assert cert.beta == pytest.approx(cert.c)


def test_certificate_log_derivatives_consistent():
    cert = make_lyapunov("spherical", 1.5, 2.0, 2)
    x = np.array([0.7, -1.2])
    g = np.zeros(2)
    lap = 0.0
    for i in range(2):
        e = np.zeros(2)
        h = 1e-6
        e[i] = h
        g[i] = (cert.log_value(x + e) - cert.log_value(x - e)) / (2 * h)
        h = 1e-4  # second difference needs a wider step to beat roundoff
        e[i] = h
        lap += (cert.log_value(x + e) - 2 * cert.log_value(x) + cert.log_value(x - e)) / h**2
    np.testing.assert_allclose(cert.log_grad(x), g, rtol=1e-6, atol=1e-9)
    assert cert.log_laplacian(x) == pytest.approx(lap, rel=1e-6)


def test_certification_error_carries_witness():
    # an impossible demand: huge beta forces every c to fail
    P = make_example_potential("spherical", 1.5, 1)

    def build(cc):
        from curvlab.potentials import _radial_logform
        lv, lg, ll = _radial_logform(cc, 0.25, 1)
        return LyapunovCertificate(2.0, 100.0, cc, 1, lv, lg, ll)

    from curvlab.potentials import _bisect_feasible_c
    with pytest.raises(CertificationError) as exc:
        _bisect_feasible_c(build, P)
    assert exc.value.worst_margin < 0.0
    assert exc.value.worst_point is not None


def test_constant_certificate_defaults():
    cert = constant_certificate()
    assert (cert.p, cert.beta, cert.n, cert.label) == (2.0, 2.0, 1, "g=1")
    assert constant_certificate(p=3.0).beta == 3.0
    assert float(np.asarray(cert.g_value(np.array([[3.0]])))[0]) == 1.0
    with pytest.raises(ParameterError):
        constant_certificate(p=1.0)


# The closures' earlier forms, which raise 1 + |x|^2 (or theta + x_i^2) to
# a fractional power up to twice per call and compose Lg/g from log_grad and
# log_laplacian: the one-power forms must agree with them to rounding.

def _radial_points(n):
    rng = np.random.default_rng(n)
    r = np.concatenate([[0.0, 1e-8, 1e-3], np.geomspace(1e-2, 50.0, 200)])
    d = rng.normal(size=(len(r), n))
    return r[:, None] * d / np.linalg.norm(d, axis=1, keepdims=True)


def _composed_lg(ll, gf, drift):
    """Lg/g composed from its parts, and the sum of the parts' sizes."""
    gg, dg = np.sum(gf * gf, -1), np.sum(drift * gf, -1)
    return ll + gg - dg, np.abs(ll) + gg + np.abs(dg)


def _within_ulps(new, old, scale, ulps=8):
    tol = ulps * np.finfo(float).eps * np.maximum(1.0, scale)
    assert np.all(np.abs(new - old) <= tol)


@pytest.mark.parametrize("alpha", [1.0, 1.2, 1.5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_spherical_closures_match_their_two_power_forms(alpha, n):
    P = make_example_potential("spherical", alpha, n)
    cert = make_lyapunov("spherical", alpha, 2.0, n)
    a, c, q = alpha, cert.c, (2.0 - alpha) / 2.0
    x = _radial_points(n)
    r2 = np.sum(x * x, -1)
    base = 1.0 + r2
    grad = a * base[..., None] ** (a / 2.0 - 1.0) * x
    curv = a * (1.0 + (a - 1.0) * r2) * base ** (a / 2.0 - 2.0)
    hess = (a * base[..., None, None] ** (a / 2.0 - 1.0) * np.eye(n)
            + a * (a - 2.0) * base[..., None, None] ** (a / 2.0 - 2.0)
            * x[..., :, None] * x[..., None, :])
    gf = 2.0 * c * q * base[..., None] ** (q - 1.0) * x
    ll = 2.0 * c * q * (n * base ** (q - 1.0)
                        + 2.0 * (q - 1.0) * r2 * base ** (q - 2.0))
    lg, size = _composed_lg(ll, gf, grad)
    _within_ulps(P.gradient(x), grad, np.abs(grad).max(-1, keepdims=True))
    _within_ulps(P.curvature(x), curv, np.abs(curv))
    _within_ulps(P.hessian(x), hess,
                 np.abs(hess).max(axis=(-2, -1), keepdims=True))
    _within_ulps(cert.lg_over_g(x, P.gradient(x)), lg, size)


@pytest.mark.parametrize("n", [1, 2])
def test_product_power_closures_match_their_two_power_forms(n):
    a = 1.5
    P = make_example_potential("product-power", a, n)
    cert = make_lyapunov("product-power", a, 2.0, n)
    c, q, theta = cert.c, (2.0 - a) / 2.0, cert.theta
    x = _radial_points(n)
    grad = a * x * (1.0 + x * x) ** (a / 2.0 - 1.0)
    w2 = a * (1.0 + (a - 1.0) * x * x) * (1.0 + x * x) ** (a / 2.0 - 2.0)
    b = theta + x * x
    gf = 2.0 * c * q * x * b ** (q - 1.0)
    ll = np.sum(2.0 * c * q * (b ** (q - 1.0)
                               + 2.0 * (q - 1.0) * x * x * b ** (q - 2.0)), -1)
    lg, size = _composed_lg(ll, gf, grad)
    _within_ulps(P.gradient(x), grad, np.abs(grad))
    _within_ulps(P.curvature(x), np.min(w2, -1), np.min(w2, -1))
    _within_ulps(cert.lg_over_g(x, P.gradient(x)), lg, size)


@pytest.mark.parametrize("alpha", [1.0, 1.2, 1.5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_form_lg_over_g_honours_the_drift(alpha, n):
    # under the gaussian's drift x, not the spherical one it was built for,
    # the closed form still equals lap f + |grad f|^2 - drift . grad f
    cert = make_lyapunov("spherical", alpha, 2.0, n)
    assert cert.closed_form is not None
    x = _radial_points(n)
    drift = make_example_potential("gaussian", n=n).gradient(x)
    lg, size = _composed_lg(cert.log_laplacian(x), cert.log_grad(x), drift)
    _within_ulps(cert.lg_over_g(x, drift), lg, size)
