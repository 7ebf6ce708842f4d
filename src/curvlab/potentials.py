"""Confining potentials, pointwise curvature, and Lyapunov certificates.

A potential V defines the diffusion generator L = Delta - grad V . grad with
invariant measure exp(-V) dx.  All closures are vectorized: ``value`` maps
arrays of shape (..., n) to (...), ``gradient`` to (..., n) and ``hessian``
to (..., n, n).  The pointwise curvature rho(x) is the smallest eigenvalue
of Hess V(x).  `as_points` is the package's one rule for reading evaluation
points and path starts.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import CertificationError, NumericalError, ParameterError

__all__ = [
    "Potential",
    "LyapunovCertificate",
    "as_points",
    "MarginScan",
    "make_example_potential",
    "make_double_well",
    "make_lyapunov",
    "constant_certificate",
    "rho_min",
    "local_eigenvalue_margin",
    "scan_certificate",
    "scan_points",
    "parse_potential_id",
    "POTENTIAL_KINDS",
]

POTENTIAL_KINDS = ("gaussian", "spherical", "product-power", "double-well")


@dataclass(frozen=True)
class Potential:
    """A smooth confining potential on R^n.

    ``curvature`` is the vectorized closed form of the smallest Hessian
    eigenvalue, (..., n) -> (...).  ``gradient`` may return its input
    itself (the gaussian's does): callers must only read it, and read it
    before they write the positions it was evaluated at.
    """

    n: int
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    label: str
    family: str
    curvature: Callable[[np.ndarray], np.ndarray]
    params: dict = field(default_factory=dict)


def as_points(x, n: int) -> np.ndarray:
    """Evaluation points as a (k, n) float array.

    A scalar is one point in dimension 1.  A 1-D array is k points in
    dimension 1 and a single point in any other dimension.  A 2-D array
    must have n columns.  An empty set and non-finite coordinates are
    rejected.
    """
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 0 or (pts.ndim == 1 and n == 1):
        pts = pts.reshape(-1, 1)
    elif pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != n or len(pts) == 0:
        raise ParameterError(f"points of shape {np.shape(x)} in dimension {n}")
    if not np.all(np.isfinite(pts)):
        raise ParameterError("non-finite evaluation point")
    return pts


def _dot(a, b):
    prod = a * b
    # a sum over one coordinate is that coordinate: no reduction to run
    return prod[..., 0] if prod.shape[-1] == 1 else np.sum(prod, axis=-1)


def _r2(x):
    return _dot(x, x)


def make_example_potential(kind: str, alpha: float | None = None, n: int = 1) -> Potential:
    """Build one of the example potentials.

    kind in {gaussian, spherical, product-power}; alpha in [1, 2) is required
    for the non-gaussian families.
    """
    if n < 1:
        raise ParameterError(f"dimension must be >= 1, got {n}")
    if kind == "gaussian":
        eye = np.eye(n)

        def value(x):
            return 0.5 * _r2(np.asarray(x, dtype=float))

        def gradient(x):
            return np.asarray(x, dtype=float)

        def hessian(x):
            x = np.asarray(x, dtype=float)
            return np.broadcast_to(eye, x.shape[:-1] + (n, n)).copy()

        def curvature(x):
            x = np.asarray(x, dtype=float)
            return np.ones(x.shape[:-1])

        return Potential(n, value, gradient, hessian, f"gaussian:n={n}", "gaussian",
                         curvature, {"n": n})

    if kind in ("spherical", "product-power"):
        if alpha is None or not (1.0 <= alpha < 2.0):
            raise ParameterError(f"alpha must lie in [1, 2), got {alpha}")
        a = float(alpha)

        if kind == "spherical":

            def value(x):
                return (1.0 + _r2(np.asarray(x, dtype=float))) ** (a / 2.0)

            def gradient(x):
                x = np.asarray(x, dtype=float)
                return (a * (1.0 + _r2(x)) ** (a / 2.0 - 1.0))[..., None] * x

            def hessian(x):
                x = np.asarray(x, dtype=float)
                base = 1.0 + _r2(x)
                p = base ** (a / 2.0 - 2.0)
                t1 = (a * (p * base))[..., None, None] * np.eye(n)
                outer = x[..., :, None] * x[..., None, :]
                return t1 + (a * (a - 2.0) * p)[..., None, None] * outer

            def curvature(x):
                # smallest eigenvalue sits along the radial direction for alpha < 2
                x = np.asarray(x, dtype=float)
                r2 = _r2(x)
                return a * (1.0 + (a - 1.0) * r2) * (1.0 + r2) ** (a / 2.0 - 2.0)

            return Potential(n, value, gradient, hessian,
                             f"spherical:alpha={a:g}:n={n}", "spherical",
                             curvature, {"alpha": a, "n": n})

        def w2(s):
            # second derivative of s -> (1+s^2)^(a/2)
            return a * (1.0 + (a - 1.0) * s * s) * (1.0 + s * s) ** (a / 2.0 - 2.0)

        def value(x):
            x = np.asarray(x, dtype=float)
            return np.sum((1.0 + x * x) ** (a / 2.0), axis=-1)

        def gradient(x):
            x = np.asarray(x, dtype=float)
            return a * x * (1.0 + x * x) ** (a / 2.0 - 1.0)

        def hessian(x):
            x = np.asarray(x, dtype=float)
            d = w2(x)
            out = np.zeros(x.shape[:-1] + (n, n))
            idx = np.arange(n)
            out[..., idx, idx] = d
            return out

        def curvature(x):
            x = np.asarray(x, dtype=float)
            return np.min(w2(x), axis=-1)

        return Potential(n, value, gradient, hessian,
                         f"product-power:alpha={a:g}:n={n}", "product-power",
                         curvature, {"alpha": a, "n": n})

    raise ParameterError(f"unknown potential kind {kind!r}")


def make_double_well() -> Potential:
    """V(x) = (x^2 - 1)^2 / 4 on R; curvature 3x^2 - 1 dips to -1 at the origin."""

    def value(x):
        x = np.asarray(x, dtype=float)[..., 0]
        return 0.25 * (x * x - 1.0) ** 2

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return (x * x - 1.0) * x  # products: numpy's pow has no fast cube

    def hessian(x):
        x = np.asarray(x, dtype=float)
        return (3.0 * x[..., 0] * x[..., 0] - 1.0)[..., None, None]

    def curvature(x):
        x = np.asarray(x, dtype=float)[..., 0]
        return 3.0 * x * x - 1.0

    return Potential(1, value, gradient, hessian, "double-well", "double-well",
                     curvature, {})


def rho_min(potential: Potential, x) -> float:
    """Smallest eigenvalue of Hess V at a single point x of shape (n,)."""
    x = np.asarray(x, dtype=float).reshape(potential.n)
    H = potential.hessian(x)
    if not np.all(np.isfinite(H)):
        raise NumericalError(f"hessian not finite at x={x!r}")
    if potential.n == 1:
        return float(H[0, 0])
    return float(np.linalg.eigvalsh(H)[0])


# ---------------------------------------------------------------------------
# Lyapunov certificates g = exp(f) >= 1 for the local eigenvalue condition
#   Lg/g = lap f + |grad f|^2 - grad V . grad f  <=  p rho(x) - beta.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LyapunovCertificate:
    """Log-form certificate: g = exp(log_value), with p > 1 and beta > 0."""

    p: float
    beta: float
    c: float
    n: int
    log_value: Callable[[np.ndarray], np.ndarray]
    log_grad: Callable[[np.ndarray], np.ndarray]
    log_laplacian: Callable[[np.ndarray], np.ndarray]
    theta: float = 1.0
    label: str = "certificate"
    # Lg/g(x, drift) in closed form; if None, lg_over_g composes it
    closed_form: Callable | None = None

    def __post_init__(self):
        if not self.p > 1.0:
            raise ParameterError(f"p must exceed 1, got {self.p}")
        if not self.beta > 0.0:
            raise ParameterError(f"beta must be positive, got {self.beta}")

    def g_value(self, x) -> np.ndarray:
        return np.exp(self.log_value(np.asarray(x, dtype=float)))

    def lg_over_g(self, x, drift) -> np.ndarray:
        """Lg/g at the points x under the potential whose gradient at x is
        `drift`: a path functional of `sde._walk`, vectorized."""
        x = np.asarray(x, dtype=float)
        if self.closed_form is not None:
            return self.closed_form(x, drift)
        gf = self.log_grad(x)
        return self.log_laplacian(x) + _dot(gf, gf) - _dot(drift, gf)


def _power_logform(c: float, q: float, theta: float):
    """Closures for f(x) = sum_i c (theta + x_i^2)^q, one power each."""

    def log_value(x):
        x = np.asarray(x, dtype=float)
        return c * np.sum((theta + x * x) ** q, axis=-1)

    def log_grad(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * c * q * x * (theta + x * x) ** (q - 1.0)

    def log_laplacian(x):
        x2 = np.square(np.asarray(x, dtype=float))
        b = theta + x2
        return np.sum(2.0 * c * q * b ** (q - 1.0) * (1.0 + 2.0 * (q - 1.0) * x2 / b), axis=-1)

    return log_value, log_grad, log_laplacian


def _radial_logform(c: float, q: float, n: int):
    """Closures for f(x) = c (1 + |x|^2)^q, one power each."""

    def log_value(x):
        return c * (1.0 + _r2(np.asarray(x, dtype=float))) ** q

    def log_grad(x):
        x = np.asarray(x, dtype=float)
        return (2.0 * c * q * (1.0 + _r2(x)) ** (q - 1.0))[..., None] * x

    def log_laplacian(x):
        r2 = _r2(np.asarray(x, dtype=float))
        b = 1.0 + r2
        return 2.0 * c * q * b ** (q - 1.0) * (n + 2.0 * (q - 1.0) * r2 / b)

    return log_value, log_grad, log_laplacian


def _check_dimension(potential: Potential, cert: LyapunovCertificate) -> None:
    if cert.n != potential.n:
        raise ParameterError(f"certificate {cert.label!r} is built for R^{cert.n}, "
                             f"not for R^{potential.n} of {potential.label}")


def local_eigenvalue_margin(potential: Potential, cert: LyapunovCertificate, x) -> np.ndarray:
    """p rho(x) - beta - Lg/g(x); nonnegative where the certificate is valid."""
    _check_dimension(potential, cert)
    x = np.asarray(x, dtype=float)
    w = cert.lg_over_g(x, potential.gradient(x))
    m = cert.p * potential.curvature(x) - cert.beta - w
    if not np.all(np.isfinite(m)):
        raise NumericalError("margin not finite on the requested points")
    return m


@dataclass(frozen=True)
class MarginScan:
    min_margin: float
    argmin: np.ndarray
    n_points: int

    @property
    def passed(self) -> bool:
        return self.min_margin >= 0.0


def scan_points(n: int) -> np.ndarray:
    """Deterministic scan set: a regular grid for n=1, Sobol ball points otherwise."""
    if n == 1:
        return np.linspace(-50.0, 50.0, 2001)[:, None]
    # scipy.stats takes about a second to import, so only a scan in n >= 2
    # pays for it
    from scipy.stats import qmc

    # unscrambled Sobol is deterministic; oversample the cube, keep the ball
    ball_fraction = math.pi ** (n / 2) / math.gamma(n / 2 + 1) / 2 ** n
    m = 2 ** max(12, int(math.ceil(math.log2(10000 / ball_fraction * 1.5))))
    cube = qmc.Sobol(d=n, scramble=False).random(m) * 2.0 * 50.0 - 50.0
    pts = cube[np.linalg.norm(cube, axis=1) <= 50.0]
    if len(pts) < 10000:
        raise ParameterError("scan oversampling too small for requested point count")
    return pts[:10000]


def scan_certificate(potential: Potential, cert: LyapunovCertificate) -> MarginScan:
    pts = scan_points(potential.n)
    m = local_eigenvalue_margin(potential, cert, pts)
    i = int(np.argmin(m))
    return MarginScan(float(m[i]), pts[i].copy(), len(pts))


def _bisect_feasible_c(make_cert, potential):
    """Largest scan-feasible c <= 1, located by 40 bisection steps."""
    scan = scan_certificate(potential, make_cert(1.0))
    if scan.passed:
        return 1.0
    lo, hi, c = None, 1.0, 1.0
    while c > 1e-6:
        c *= 0.5
        scan = scan_certificate(potential, make_cert(c))
        if scan.passed:
            lo = c
            break
        hi = c
    if lo is None:
        raise CertificationError(
            "no feasible certificate constant found",
            worst_point=scan.argmin, worst_margin=scan.min_margin)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if scan_certificate(potential, make_cert(mid)).passed:
            lo = mid
        else:
            hi = mid
    return lo


def make_lyapunov(kind: str, alpha: float, p: float, n: int = 1) -> LyapunovCertificate:
    """Certificate for the example potentials.

    spherical: g = exp(c (1+|x|^2)^((2-alpha)/2)).  Constants are closed-form
    for alpha = 1 (beta = c = 1/(4n)) and alpha in [4/3, 2)
    (beta = c = min(p/n, sqrt(p))/4); in between, c is calibrated by bisection
    with beta = c/2 against the standard margin scan.

    product-power: g = prod_i exp(c (theta + x_i^2)^((2-alpha)/2)); theta walks
    a geometric grid starting at (6n)^(1/(alpha-1)) (at alpha = 1 that
    constraint is void, so the grid starts at 1) and c is bisected per theta
    with beta = c n / theta^(alpha-1).
    """
    if n < 1:
        raise ParameterError(f"dimension must be >= 1, got {n}")
    if not p > 1.0:
        raise ParameterError(f"p must exceed 1, got {p}")
    if not (1.0 <= alpha < 2.0):
        raise ParameterError(f"alpha must lie in [1, 2), got {alpha}")
    a = float(alpha)
    q = (2.0 - a) / 2.0

    if kind == "spherical":
        def build(cc, beta):
            def lg_over_g(x, drift):
                # grad f = g x, g = 2cq b^(q-1) with b = 1 + |x|^2, so one
                # power gives Lg/g = g (n + (2(q-1)/b + g) |x|^2 - drift . x)
                r2 = _r2(x)
                b = 1.0 + r2
                g = 2.0 * cc * q * b ** (q - 1.0)
                return g * (n + (2.0 * (q - 1.0) / b + g) * r2 - _dot(drift, x))

            return LyapunovCertificate(
                p, beta, cc, n, *_radial_logform(cc, q, n),
                label=f"spherical:alpha={a:g}:p={p:g}:n={n}",
                closed_form=lg_over_g)

        if a >= 4.0 / 3.0:
            c = beta = 0.25 * min(p / n, math.sqrt(p))
        elif a == 1.0:
            c = beta = 1.0 / (4.0 * n)
        else:
            c = _bisect_feasible_c(lambda cc: build(cc, cc / 2.0),
                                   make_example_potential("spherical", a, n))
            beta = c / 2.0
        return build(c, beta)

    if kind == "product-power":
        potential = make_example_potential("product-power", a, n)
        if a > 1.0:
            theta0 = max(1.0, (6.0 * n) ** (1.0 / (a - 1.0)))
            thetas = [theta0 * 4.0 ** j for j in range(6)]
        else:
            thetas = [4.0 ** j for j in range(10)]
        last_err: CertificationError | None = None
        for theta in thetas:
            def build(cc, theta=theta):
                lv, lg, ll = _power_logform(cc, q, theta)
                return LyapunovCertificate(p, cc * n / theta ** (a - 1.0), cc, n,
                                           lv, lg, ll, theta)

            try:
                c = _bisect_feasible_c(build, potential)
            except CertificationError as err:
                last_err = err
                continue
            cert = build(c)
            return dataclasses.replace(
                cert, label=f"product-power:alpha={a:g}:p={p:g}:n={n}")
        assert last_err is not None
        raise last_err

    raise ParameterError(f"unknown certificate kind {kind!r}")


def constant_certificate(p: float = 2.0, beta: float | None = None,
                         n: int = 1) -> LyapunovCertificate:
    """g identically 1 (c = 0), valid whenever beta <= p * inf rho.

    beta defaults to p, the optimum at constant curvature 1.
    """
    if beta is None:
        beta = p

    def zero_scalar(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1])

    def zero_vec(x):
        x = np.asarray(x, dtype=float)
        return np.zeros_like(x)

    return LyapunovCertificate(p, beta, 0.0, n, zero_scalar, zero_vec, zero_scalar,
                               label="g=1")


def _id_segments(text: str, what: str) -> tuple:
    """An id 'kind:key=value:...' as its kind and a dict of the raw values;
    a segment without '=' raises ParameterError naming `what`."""
    kind, *segments = text.split(":")
    kv = {}
    for part in segments:
        if "=" not in part:
            raise ParameterError(f"malformed {what} id segment {part!r} in "
                                 f"{text!r}")
        k, v = part.split("=", 1)
        kv[k] = v
    return kind, kv


def parse_potential_id(text: str) -> Potential:
    """Parse identifiers like 'spherical:alpha=1.5:n=1' or 'gaussian:n=2'."""
    kind, kv = _id_segments(text, "potential")
    keys = {"gaussian": {"n"}, "double-well": set(),
            "spherical": {"alpha", "n"}, "product-power": {"alpha", "n"}}
    if kind not in keys:
        raise ParameterError(f"unknown potential id {text!r}")
    if not set(kv) <= keys[kind]:
        raise ParameterError(f"unknown parameter in {text!r}; {kind} takes "
                             f"{', '.join(sorted(keys[kind])) or 'none'}")
    try:
        n = int(kv.get("n", 1))
        alpha = float(kv["alpha"]) if "alpha" in kv else None
    except ValueError:
        raise ParameterError(f"non-numeric parameter in {text!r}") from None
    if kind == "gaussian":
        return make_example_potential("gaussian", n=n)
    if kind == "double-well":
        return make_double_well()
    if alpha is None:
        raise ParameterError(f"{kind} id needs alpha=..., got {text!r}")
    return make_example_potential(kind, alpha, n)
