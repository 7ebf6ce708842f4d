"""Catalog of two-variable inequality generators M(x, y) and their matrices.

Each entry carries closed-form partials.  `condition_matrix` assembles the
2x2 matrix whose positive semi-definiteness drives the local (A-forward),
reverse (B-reverse) and integrated (A-integrated, A-prime-integrated)
inequalities; `certify_psd` samples it over a rectangle and reports the
worst trace/determinant.

Special functions: `isoperimetric_I` is the gaussian isoperimetric profile
phi o Phi^{-1}, and `exp_integrability_F` integrates e^{k o (k')^{-1}} with
k(u) = u^2/2 + log integral_{-inf}^u e^{-s^2/2} ds.  Both work on whole
arrays, in numpy: Phi^{-1} by M. J. Wichura's AS241 (Appl. Statist. 37,
1988), e^k through erfcx(x) = e^{x^2} erfc(x) by W. J. Cody's rational
Chebyshev approximations (Math. Comp. 23, 1969).  With z = -u, e^k is the
Mills ratio Phi(-z)/phi(z), which for z >= 3 comes from Laplace's continued
fraction 1/(z + 1/(z + 2/(z + 3/(z + ...)))) (Abramowitz-Stegun 26.2.14)
at a fixed depth, bottom-up; k' = u + phi/Phi and k'' then come from the
same fraction's tails, free of the cancellation of u + phi/Phi there.
erfcx serves u > -3 only.  k' is inverted by one Newton step from a cubic
Hermite interpolant of a table on [-40, 40] (below it, from the inverted
series k'(-z) = 1/z - 2/z^3 + ...), and refused above k'(40).  F
substitutes sigma = k'(u): from each anchor a on,
F(s) = F(a) + integral_{u(a)}^{u(s)} e^{k(u)} k''(u) du, a fixed-order
Gauss-Legendre sum at explicit u, so each point inverts k' once and the
anchors once per process; on the first segment, where u(0) = -inf, the sum
runs over F' in s.  The anchor values come from the package's adaptive
G10K21 rule (`quadrature.adaptive`) on F' in s, once per process.  Where
F, F' or F'' overflows a float the call raises NumericalError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import numpy as np

from .errors import DomainError, NumericalError, ParameterError
from .quadrature import adaptive

__all__ = [
    "Interval",
    "MFunction",
    "PsdReport",
    "MFUNCTION_NAMES",
    "MATRIX_KINDS",
    "catalog",
    "condition_matrix",
    "certify_psd",
    "perturbed",
    "isoperimetric_I",
    "exp_integrability_F",
    "exp_integrability_F_derivs",
]

_LOG_SQRT2PI = 0.5 * math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

# (numerator, denominator) coefficients, highest power first, of each range
_ERF = ((0.18577770618460315, 3.1611237438705655, 113.86415415105016,
    377.485237685302, 3209.3775891384694), (1.0, 23.601290952344122,
    244.02463793444417, 1282.6165260773723, 2844.236833439171))
_ERFCX_MID = ((2.1531153547440383e-8, 0.5641884969886701, 8.883149794388377,
    66.11919063714163, 298.6351381974001, 881.952221241769, 1712.0476126340707,
    2051.0783778260716, 1230.3393547979972), (1.0, 15.744926110709835,
    117.6939508913125, 537.1811018620099, 1621.3895745666903,
    3290.7992357334597, 4362.619090143247, 3439.3676741437216,
    1230.3393548037495))
_ERFCX_FAR = ((0.016315387137302097, 0.30532663496123236, 0.36034489994980445,
    0.12578172611122926, 0.016083785148742275, 6.587491615298378e-4), (1.0,
    2.568520192289822, 1.8729528499234673, 0.5279051029514285,
    0.06051834131244132, 0.0023352049762686918))
_NDTRI_BODY = ((2509.0809287301227, 33430.57558358813, 67265.7709270087,
    45921.95393154987, 13731.69376550946, 1971.5909503065513,
    133.14166789178438, 3.3871328727963665), (5226.495278852854,
    28729.085735721943, 39307.89580009271, 21213.794301586597,
    5394.196021424751, 687.1870074920579, 42.31333070160091, 1.0))
_NDTRI_NEAR = ((7.745450142783414e-4, 0.022723844989269184, 0.2417807251774506,
    1.2704582524523684, 3.6478483247632045, 5.769497221460691,
    4.630337846156546, 1.4234371107496835), (1.0507500716444169e-9,
    5.475938084995345e-4, 0.015198666563616457, 0.14810397642748008,
    0.6897673349851, 1.6763848301838038, 2.053191626637759, 1.0))
_NDTRI_FAR = ((2.0103343992922881e-7, 2.7115555687434876e-5,
    0.0012426609473880784, 0.026532189526576124, 0.29656057182850487,
    1.7848265399172913, 5.463784911164114, 6.657904643501103),
    (2.0442631033899397e-15, 1.421511758316446e-7, 1.8463183175100548e-5,
    7.868691311456133e-4, 0.014875361290850615, 0.1369298809227358,
    0.599832206555888, 1.0))


def _rational(z, pq):
    # p(z)/q(z) by Horner's rule, in place; an empty z costs nothing
    if not z.size:
        return z
    p, q = (np.full_like(z, c[0]) for c in pq)
    for acc, c in ((p, pq[0]), (q, pq[1])):
        for a in c[1:]:
            acc *= z
            acc += a
    return np.divide(p, q, out=p)


def _erfcx(x):
    # e^{x^2} erfc(x), quietly inf where it overflows (x < -26.63)
    x = np.asarray(x, dtype=float)
    y = np.abs(x)
    out = np.empty_like(y)
    near, far, neg = y <= 0.46875, y > 4.0, x < -0.46875
    mid = ~(near | far)
    with np.errstate(over="ignore"):
        v = x[near]
        out[near] = np.exp(v * v) * (1.0 - v * _rational(v * v, _ERF))
        out[mid] = _rational(y[mid], _ERFCX_MID)
        w = 1.0 / np.square(y[far])
        out[far] = (math.pi ** -0.5 - w * _rational(w, _ERFCX_FAR)) / y[far]
        v = x[neg]
        w = np.trunc(16.0 * v) / 16.0  # x^2 = w^2 + (x - w)(x + w)
        e = np.exp(w * w) * np.exp((v - w) * (v + w))
        out[neg] = (e + e) - out[neg]
    return out


def _ndtri(p):
    # Phi^{-1} on a float array in [0, 1], exact at 0, 1/2 and 1
    q = p - 0.5
    out = np.empty_like(q)
    body = np.abs(q) <= 0.425
    out[body] = q[body] * _rational(0.180625 - q[body] ** 2, _NDTRI_BODY)
    with np.errstate(divide="ignore"):
        r = np.sqrt(-np.log(np.minimum(p[~body], 1.0 - p[~body])))
    w = np.full_like(r, np.inf)
    near, far = r <= 5.0, (r > 5.0) & (r < np.inf)
    w[near] = _rational(r[near] - 1.6, _NDTRI_NEAR)
    w[far] = _rational(r[far] - 5.0, _NDTRI_FAR)
    out[~body] = np.copysign(w, q[~body])
    return out


def isoperimetric_I(x):
    """Gaussian isoperimetric profile phi(Phi^{-1}(x)) on [0, 1].

    Satisfies I'' I = -1, is symmetric about 1/2, and vanishes exactly at
    the endpoints.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        bad = arr[~(np.isfinite(arr) & (arr >= 0.0) & (arr <= 1.0))].flat[0]
        raise DomainError(f"isoperimetric profile needs x in [0, 1], got {bad}")
    out = _iso_pair(arr)[0]  # Phi^{-1} is -inf at 0 and inf at 1
    return float(out) if out.ndim == 0 else out


def _iso_pair(x):
    # (I, I') on the open interval; I' = -Phi^{-1}
    t = _ndtri(x)
    return np.exp(-0.5 * t * t - _LOG_SQRT2PI), -t


def _mills(u):
    # phi(u)/Phi(u) through the scaled complementary error function, which
    # keeps full relative precision for u << 0
    return math.sqrt(2.0 / math.pi) / _erfcx(-u / math.sqrt(2.0))


_Z0 = 3.0  # k', k'' and F' at u <= -_Z0 come from Laplace's fraction
_CF_DEPTH = 48  # its depth: 5e-16 relative from z = 3, its slowest, on


def _fraction(z):
    # the tails T_n = z + n/T_{n+1} of Phi(-z)/phi(z) = 1/(z + 1/T_2),
    # bottom-up from the root of T = z + n/T; returns T_2, T_3, T_4
    t3 = t = 0.5 * (z + np.sqrt(z * z + 4.0 * _CF_DEPTH))
    for n in range(_CF_DEPTH, 1, -1):
        t4, t3, t = t3, t, z + n / t
    return t, t3, t4


def _kfuncs(u):
    """(k', k'', F') at a 1-D array u, F' = e^k = Phi(u)/phi(u).

    At and below -_Z0, with z = -u: k' = 1/T_2 and F' = 1/(z + 1/T_2) from the
    continued fraction, and k'' = (2 T_2 - T_3)/(T_3 T_2^2) from its tails,
    with 2 T_2 - T_3 = z + 4/T_3 - 3/T_4 >= 2z/3: nothing cancels where the
    closed forms u + r and 1 - r (u + r) do.  Above -_Z0, through erfcx.
    """
    # erfcx on every element, overwritten below -_Z0: cheaper than a split
    e = _erfcx(-u / math.sqrt(2.0))
    r = math.sqrt(2.0 / math.pi) / e
    kp = u + r
    kpp = 1.0 - r * kp
    with np.errstate(over="ignore"):
        fp = math.sqrt(0.5 * math.pi) * e
    low = u <= -_Z0
    if np.any(low):
        z = -u[low]
        t2, t3, t4 = _fraction(z)
        kp[low] = 1.0 / t2
        kpp[low] = (z + 4.0 / t3 - 3.0 / t4) / (t3 * t2 * t2)
        fp[low] = t2 / (z * t2 + 1.0)
    return kp, kpp, fp


_U_LO, _U_HI = -40.0, 40.0
_S_LO = float(_U_LO + _mills(_U_LO))
_S_HI = float(_U_HI + _mills(_U_HI))
_NEWTON_STEPS = 1
# below this slope F' = s and F'' = 1 to rounding: the first neglected terms
# are O(s^2) relative
_S_SMALL = 1e-8
_F_CHUNK = 256  # elements per pass of F's fixed-order rule


def _check_kprime_monotone():
    us = np.linspace(_U_LO, _U_HI, 2001)
    vals, kpp, _ = _kfuncs(us)
    if not np.all(np.diff(vals) > 0.0):
        raise NumericalError("k' failed its monotonicity check on [-40, 40]")
    return vals, us, 1.0 / kpp


_KPRIME_TABLE = _check_kprime_monotone()  # (k', u, du/dk'), the start


def _start(s):
    # u(s) by cubic Hermite interpolation in the table, within 1e-8 of the
    # root; below it k'(-z) = 1/z - 2/z^3 + 10/z^5 - ..., inverted
    ks, us, ds = _KPRIME_TABLE
    j = np.clip(np.searchsorted(ks, s) - 1, 0, ks.size - 2)
    h = ks[j + 1] - ks[j]
    t = (s - ks[j]) / h
    a, b = (1.0 - t) ** 2, t * t
    u = (a * ((1.0 + 2.0 * t) * us[j] + t * h * ds[j])
         + b * ((3.0 - 2.0 * t) * us[j + 1] - (1.0 - t) * h * ds[j + 1]))
    tail = s < _S_LO
    st = s[tail]
    u[tail] = st * (2.0 - 2.0 * st * st) - 1.0 / st
    return u


def _invert_kprime(s):
    """(u, k''(u), F'(u)) with u = (k')^{-1}(s), for a 1-D array of s in
    [_S_SMALL, k'(40)].

    Newton starts from `_start`, within 1e-8 of the root.  k' is convex and,
    with the fraction below -3, its residual is clean down to rounding, so
    _NEWTON_STEPS steps converge every element with no bracket (to within
    4 roundings of k'); a last evaluation gives k'' and F' at the root.
    Each element's result is a fixed function of its s, independent of its
    batch.  Above k'(40) the inversion refuses to extrapolate.
    """
    above = s > _S_HI
    if np.any(above):
        raise NumericalError(
            f"inversion bracket [-40, 40] covers slopes up to {_S_HI:.6g}, "
            f"got {s[above][0]}")
    u = _start(s)
    for _ in range(_NEWTON_STEPS):
        kp, kpp, _ = _kfuncs(u)
        u = u - (kp - s) / kpp
    return (u, *_kfuncs(u)[1:])


def _fprime(s):
    """(F', F'') on a 1-D array s >= 0; below _S_SMALL F' = s, F'' = 1."""
    fp, fpp = s.copy(), np.ones_like(s)
    pos = s >= _S_SMALL
    if np.any(pos):
        _, kpp, fp[pos] = _invert_kprime(s[pos])
        with np.errstate(over="ignore"):
            fpp[pos] = fp[pos] * s[pos] / kpp
    return fp, fpp


def _check_finite(vals, s, name):
    bad = ~np.isfinite(vals)
    if np.any(bad):
        raise NumericalError(f"{name}({s[bad][0]}) overflows a float")


def _nonneg(s, name):
    arr = np.asarray(s, dtype=float)
    ok = np.isfinite(arr) & (arr >= 0.0)
    if not np.all(ok):
        raise DomainError(f"{name} needs s >= 0, got {arr[~ok].flat[0]}")
    return arr


def exp_integrability_F_derivs(s):
    """(F', F'') elementwise; F' = e^{k o (k')^{-1}}, F'' = F' s / k''.

    Raises NumericalError above the inversion bracket and wherever F' or F''
    overflows a float.
    """
    arr = _nonneg(s, "F'")
    flat = arr.ravel()
    fp, fpp = _fprime(flat)
    _check_finite(fp, flat, "F'")
    _check_finite(fpp, flat, "F''")
    if arr.ndim == 0:
        return float(fp[0]), float(fpp[0])
    return fp.reshape(arr.shape), fpp.reshape(arr.shape)


# F' grows like e^{s^2/2}, so above 8 the anchors sit at 8 sqrt(m): every
# segment there spans the same rise of s^2/2, by 32, and the fixed-order
# rule meets 1e-10 relative on each up to s ~ 37.65, where F' overflows
_F_ANCHORS = np.concatenate([(0.0, 0.0125, 0.025, 0.1, 0.5, 1.0, 2.0, 4.0),
                             8.0 * np.sqrt(np.arange(1.0, 23.0))])
_U_ANCHORS = np.concatenate([[-np.inf], _invert_kprime(_F_ANCHORS[1:])[0]])
_anchor_values = [0.0]  # F at the leading anchors, grown on demand


@cache
def _gauss_legendre() -> tuple:
    # the fixed-order rule, built at the first F: it loads numpy.polynomial
    return np.polynomial.legendre.leggauss(20)


def _F_at_anchors(n: int) -> np.ndarray:
    # adaptive quadrature of F' over each segment, once per process: an
    # independent route to the values the fixed-order rule builds on
    while len(_anchor_values) < n:
        k = len(_anchor_values)
        seg = adaptive(lambda x: _fprime(x[:, 0])[0], _F_ANCHORS[k - 1:k + 1],
                       epsabs=1e-12, epsrel=1e-10, limit=200)
        _anchor_values.append(_anchor_values[-1] + seg)
    return np.array(_anchor_values[:n])


def exp_integrability_F(s):
    """F(s) = integral_0^s e^{k o (k')^{-1}}; F(0) = 0, strictly increasing.

    Raises NumericalError where F or the F' it integrates overflows a float,
    from s ~ 37.65 on.
    """
    arr = _nonneg(s, "F")
    flat = arr.ravel()
    i = np.searchsorted(_F_ANCHORS, flat, side="right") - 1
    # past the first anchor the rule runs in u, sigma = k'(u):
    # F(s) = F(a) + integral_{u(a)}^{u(s)} e^{k(u)} k''(u) du
    up = i > 0
    lo, hi = np.where(up, _U_ANCHORS[i], 0.0), flat.copy()
    try:
        hi[up] = _invert_kprime(flat[up])[0]
    except NumericalError as exc:
        raise NumericalError(f"F up to s = {flat.max()}: {exc}") from None
    half = 0.5 * (hi - lo)
    gl_nodes, gl_weights = _gauss_legendre()
    seg = np.zeros_like(flat)
    # the rule's (elements, nodes) arrays, _F_CHUNK elements at a time
    for c in range(0, flat.size, _F_CHUNK):
        part, u = slice(c, c + _F_CHUNK), up[c:c + _F_CHUNK]
        nodes = (lo[part] + half[part])[:, None] + half[part, None] * gl_nodes
        g = np.empty_like(nodes)
        g[~u] = _fprime(nodes[~u].ravel())[0].reshape(-1, gl_nodes.size)
        _, kpp, fp = _kfuncs(nodes[u].ravel())
        g[u] = (fp * kpp).reshape(-1, gl_nodes.size)
        for j, w in enumerate(gl_weights):
            # node by node: each sum runs in one order in any batch
            seg[part] += w * g[:, j]
    with np.errstate(over="ignore"):
        out = _F_at_anchors(int(np.max(i, initial=0)) + 1)[i] + half * seg
    _check_finite(out, flat, "F")
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


# ---------------------------------------------------------------------------
# the M-function type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """The open interval (lo, hi)."""

    lo: float
    hi: float

    def contains(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        # open bounds refuse inf and nan too
        return (v > self.lo) & (v < self.hi)

    def __str__(self):
        return f"({self.lo:g}, {self.hi:g})"


REALS = Interval(-math.inf, math.inf)


@dataclass(frozen=True)
class MFunction:
    """M(x, y) with analytic partials; x the function value, y its Gamma."""

    label: str
    value: Callable
    m_x: Callable
    m_y: Callable
    m_xx: Callable
    m_xy: Callable
    m_yy: Callable
    x_domain: Interval = REALS
    y_open: bool = False  # partials need y strictly positive
    # M(x, y) = M(x, 0) + y M_y(x, 0): M_yy vanishes, as for a Phi-entropy
    affine_in_y: bool = False
    params: dict = field(default_factory=dict)

    @property
    def reverse(self) -> bool:
        """Whether M generates a reverse inequality: the `reverse-*` ones."""
        return self.label.startswith("reverse-")

    def check_domain(self, x, y, for_partials: bool = False):
        # y_open only restricts the partials; M itself extends to y = 0
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        ok_x = self.x_domain.contains(x)
        if not np.all(ok_x):
            bad = np.broadcast_to(x, ok_x.shape)[~ok_x].flat[0]
            raise DomainError(
                f"{self.label} needs x in {self.x_domain}, got {bad}")
        strict = self.y_open and for_partials
        ok_y = (y > 0.0) if strict else (y >= 0.0)
        ok_y = ok_y & np.isfinite(y)
        if not np.all(ok_y):
            bad = np.broadcast_to(y, ok_y.shape)[~ok_y].flat[0]
            bound = "> 0" if strict else ">= 0"
            raise DomainError(f"{self.label} needs y {bound}, got {bad}")


def _const(c: float) -> Callable:
    def part(x, y):
        shape = np.broadcast(np.asarray(x), np.asarray(y)).shape
        return np.full(shape, float(c))

    return part


def _make_poincare(sign: float, label: str) -> MFunction:
    return MFunction(
        label,
        value=lambda x, y: sign * np.square(x) + np.asarray(y, dtype=float),
        m_x=lambda x, y: 2.0 * sign * np.asarray(x, dtype=float)
        + np.zeros(np.shape(y)),
        m_y=_const(1.0),
        m_xx=_const(2.0 * sign),
        m_xy=_const(0.0),
        m_yy=_const(0.0),
        affine_in_y=True,
    )


def _make_log_sobolev(sign: float, label: str) -> MFunction:
    # sign = -1: -x log x + y/(2x); sign = +1: the reverse variant
    return MFunction(
        label,
        value=lambda x, y: sign * x * np.log(x) + 0.5 * y / x,
        m_x=lambda x, y: sign * (np.log(x) + 1.0) - 0.5 * y / np.square(x),
        m_y=lambda x, y: 0.5 / x + np.zeros(np.shape(y)),
        m_xx=lambda x, y: sign / x + y / x**3,
        m_xy=lambda x, y: -0.5 / np.square(x) + np.zeros(np.shape(y)),
        m_yy=_const(0.0),
        x_domain=Interval(0.0, math.inf),
        affine_in_y=True,
    )


def _make_bobkov() -> MFunction:
    def parts(x, y):
        i, ip = _iso_pair(np.asarray(x, dtype=float))
        r = np.sqrt(np.square(i) + y)
        return i, ip, r

    def m_xx(x, y):
        i, ip, r = parts(x, y)
        # uses I'' I = -1
        return (np.square(ip) - 1.0) / r - np.square(i * ip) / r**3

    return MFunction(
        "bobkov",
        value=lambda x, y: parts(x, y)[2],
        m_x=lambda x, y: (lambda i, ip, r: i * ip / r)(*parts(x, y)),
        m_y=lambda x, y: 0.5 / parts(x, y)[2],
        m_xx=m_xx,
        m_xy=lambda x, y: (lambda i, ip, r: -i * ip / (2.0 * r**3))(*parts(x, y)),
        m_yy=lambda x, y: -0.25 / parts(x, y)[2] ** 3,
        x_domain=Interval(0.0, 1.0),
    )


def _make_beckner(p: float, sign: float, label: str) -> MFunction:
    if not 1.0 < p < 2.0:
        raise ParameterError(f"{label} needs p in (1, 2), got {p}")
    c = 0.5 * p * (p - 1.0)
    return MFunction(
        label,
        value=lambda x, y: sign * x**p + c * x ** (p - 2.0) * y,
        m_x=lambda x, y: sign * p * x ** (p - 1.0)
        + c * (p - 2.0) * x ** (p - 3.0) * y,
        m_y=lambda x, y: c * x ** (p - 2.0) + np.zeros(np.shape(y)),
        m_xx=lambda x, y: sign * p * (p - 1.0) * x ** (p - 2.0)
        + c * (p - 2.0) * (p - 3.0) * x ** (p - 4.0) * y,
        m_xy=lambda x, y: c * (p - 2.0) * x ** (p - 3.0) + np.zeros(np.shape(y)),
        m_yy=_const(0.0),
        x_domain=Interval(0.0, math.inf),
        affine_in_y=True,
        params={"p": p},
    )


def _make_exp_integrability() -> MFunction:
    def s_of(x, y):
        return np.sqrt(np.asarray(y, dtype=float)) / np.asarray(x, dtype=float)

    def value(x, y):
        return np.log(x) + exp_integrability_F(s_of(x, y))

    def m_x(x, y):
        fp, _ = exp_integrability_F_derivs(s_of(x, y))
        return 1.0 / x - np.sqrt(y) * fp / np.square(x)

    def m_y(x, y):
        fp, _ = exp_integrability_F_derivs(s_of(x, y))
        return fp / (2.0 * np.sqrt(y) * x)

    def m_xx(x, y):
        fp, fpp = exp_integrability_F_derivs(s_of(x, y))
        return -1.0 / np.square(x) + 2.0 * np.sqrt(y) * fp / x**3 \
            + y * fpp / x**4

    def m_xy(x, y):
        fp, fpp = exp_integrability_F_derivs(s_of(x, y))
        return -fp / (2.0 * np.sqrt(y) * np.square(x)) - fpp / (2.0 * x**3)

    def m_yy(x, y):
        fp, fpp = exp_integrability_F_derivs(s_of(x, y))
        return fpp / (4.0 * y * np.square(x)) - fp / (4.0 * y**1.5 * x)

    return MFunction(
        "exp-integrability", value, m_x, m_y, m_xx, m_xy, m_yy,
        x_domain=Interval(0.0, math.inf), y_open=True,
    )


def _make_sqrt_y() -> MFunction:
    return MFunction(
        "sqrt-y",
        value=lambda x, y: np.sqrt(y) + np.zeros(np.shape(x)),
        m_x=_const(0.0),
        m_y=lambda x, y: 0.5 / np.sqrt(y) + np.zeros(np.shape(x)),
        m_xx=_const(0.0),
        m_xy=_const(0.0),
        m_yy=lambda x, y: -0.25 / np.asarray(y, dtype=float) ** 1.5
        + np.zeros(np.shape(x)),
        y_open=True,
    )


def _make_y() -> MFunction:
    return MFunction(
        "y",
        value=lambda x, y: np.asarray(y, dtype=float) + np.zeros(np.shape(x)),
        m_x=_const(0.0),
        m_y=_const(1.0),
        m_xx=_const(0.0),
        m_xy=_const(0.0),
        m_yy=_const(0.0),
        affine_in_y=True,
    )


_BUILDERS = {
    "poincare": lambda: _make_poincare(-1.0, "poincare"),
    "reverse-poincare": lambda: _make_poincare(1.0, "reverse-poincare"),
    "log-sobolev": lambda: _make_log_sobolev(-1.0, "log-sobolev"),
    "reverse-log-sobolev": lambda: _make_log_sobolev(1.0, "reverse-log-sobolev"),
    "bobkov": _make_bobkov,
    "beckner": lambda p: _make_beckner(p, -1.0, "beckner"),
    "reverse-beckner": lambda p: _make_beckner(p, 1.0, "reverse-beckner"),
    "exp-integrability": _make_exp_integrability,
    "sqrt-y": _make_sqrt_y,
    "y": _make_y,
}

MFUNCTION_NAMES = tuple(sorted(_BUILDERS))


def catalog(name: str, **params) -> MFunction:
    """Build a named M-function; beckner variants take p in (1, 2)."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ParameterError(
            f"unknown M-function {name!r}; known: {list(MFUNCTION_NAMES)}"
        ) from None
    try:
        mf = builder(**params)
    except TypeError as exc:
        raise ParameterError(f"bad parameters for {name}: {exc}") from None
    if mf.params:
        tag = ",".join(f"{k}={v:g}" for k, v in sorted(mf.params.items()))
        object.__setattr__(mf, "label", f"{mf.label}:{tag}")
    return mf


def perturbed(mf: MFunction, a: float, b: float, c: float) -> MFunction:
    """a M + b x + c with a > 0; scales the condition matrices by a."""
    if not a > 0.0:
        raise ParameterError(f"perturbation needs a > 0, got {a}")
    return MFunction(
        f"{mf.label}-perturbed",
        value=lambda x, y: a * mf.value(x, y) + b * np.asarray(x, dtype=float) + c,
        m_x=lambda x, y: a * mf.m_x(x, y) + b,
        m_y=lambda x, y: a * mf.m_y(x, y),
        m_xx=lambda x, y: a * mf.m_xx(x, y),
        m_xy=lambda x, y: a * mf.m_xy(x, y),
        m_yy=lambda x, y: a * mf.m_yy(x, y),
        x_domain=mf.x_domain,
        y_open=mf.y_open,
        affine_in_y=mf.affine_in_y,
        params=dict(mf.params),
    )


# ---------------------------------------------------------------------------
# condition matrices
# ---------------------------------------------------------------------------

MATRIX_KINDS = ("A-forward", "B-reverse", "A-integrated", "A-prime-integrated")

_NEEDS_RHO = {"A-integrated", "A-prime-integrated"}
_NEEDS_POSITIVE_Y = {"A-forward", "B-reverse", "A-prime-integrated"}


def condition_matrix(mf: MFunction, kind: str, x, y, rho: float | None = None):
    """The 2x2 matrix governing the `kind` inequality, one of
    MATRIX_KINDS, shape (..., 2, 2)."""
    if kind not in MATRIX_KINDS:
        raise ParameterError(
            f"unknown matrix kind {kind!r}; known: {list(MATRIX_KINDS)}")
    if kind in _NEEDS_RHO and rho is None:
        raise ParameterError(f"kind {kind} needs the curvature bound rho")
    mf.check_domain(x, y, for_partials=True)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if kind in _NEEDS_POSITIVE_Y and np.any(y <= 0.0):
        bad = y[y <= 0.0].flat[0] if y.ndim else float(y)
        raise DomainError(f"kind {kind} has an M_y/(2y) entry; y = {bad}")
    mxx = mf.m_xx(x, y)
    mxy = mf.m_xy(x, y)
    myy = mf.m_yy(x, y)
    my = mf.m_y(x, y)
    if kind == "A-forward":
        a11, a22 = mxx + 2.0 * my, myy + my / (2.0 * y)
    elif kind == "B-reverse":
        a11, a22 = mxx - 2.0 * my, myy + my / (2.0 * y)
    elif kind == "A-integrated":
        a11, a22 = mxx + 2.0 * rho * my, myy
    else:
        a11, a22 = mxx + 2.0 * rho * my, myy + my / (2.0 * y)
    a11, a12, a22 = np.broadcast_arrays(a11, mxy, a22)
    out = np.empty(a11.shape + (2, 2))
    out[..., 0, 0] = a11
    out[..., 0, 1] = a12
    out[..., 1, 0] = a12
    out[..., 1, 1] = a22
    return out


# ---------------------------------------------------------------------------
# PSD certification
# ---------------------------------------------------------------------------

# a 25 x 25 sample grid, with y in [1e-2, 10] for every M-function
_SAMPLE_N = 25
_PSD_TOL = 1e-10


def _sample_grids(mf: MFunction) -> tuple:
    """The x and y sample grids of mf's rectangle: x inside its domain,
    geometric when the rectangle lies above 0, and y in [1e-2, 10]."""
    lo, hi = mf.x_domain.lo, mf.x_domain.hi
    if math.isfinite(lo) and math.isfinite(hi):
        pad = 0.02 * (hi - lo)
        lo, hi = lo + pad, hi - pad
    elif lo == 0.0:
        # exp-integrability entries grow like e^{s^2/2} with s = sqrt(y)/x,
        # so its rectangle keeps x away from 0
        lo, hi = (0.25 if mf.y_open else 0.1), 10.0
    else:
        lo, hi = -10.0, 10.0
    space = np.geomspace if lo > 0.0 else np.linspace
    return space(lo, hi, _SAMPLE_N), np.geomspace(1e-2, 10.0, _SAMPLE_N)


@dataclass(frozen=True)
class PsdReport:
    mfunction: str
    kind: str
    rho: float | None
    x_range: tuple
    y_range: tuple
    n_samples: int
    worst_point: tuple
    worst_trace: float
    worst_det: float
    min_my: float
    scale: float
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        def safe(v):
            return v if v is None or math.isfinite(v) else repr(v)

        return {
            "mfunction": self.mfunction, "kind": self.kind, "rho": self.rho,
            "domain": {"x": list(self.x_range), "y": list(self.y_range)},
            "samples": self.n_samples,
            "worst_point": list(self.worst_point),
            "worst_trace": safe(self.worst_trace),
            "worst_det": safe(self.worst_det),
            "min_my": self.min_my, "scale": self.scale, "tol": self.tol,
            "pass": self.passed,
        }


def certify_psd(mf: MFunction, kind: str,
                rho: float | None = None) -> PsdReport:
    """Sampled PSD check of the condition matrix over the default rectangle.

    Trace and determinant (exact for 2x2) are compared against -1e-10 after
    normalizing by the largest matrix entry, which absorbs rounding when
    entries are huge or tiny.  M_y >= 0, which every catalog entry has, is
    re-checked.
    """
    xs, ys = _sample_grids(mf)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    mat = condition_matrix(mf, kind, X, Y, rho)
    scale = max(1.0, float(np.max(np.abs(mat))))
    nm = mat / scale  # normalized entries keep the det product in range
    tr = nm[..., 0, 0] + nm[..., 1, 1]
    det = nm[..., 0, 0] * nm[..., 1, 1] - nm[..., 0, 1] ** 2
    worst = np.minimum(tr, det)
    # the first sample, in grid order, within 1e-12 of the least value's
    # scale, as InequalityReport.worst: a singular matrix's zero reads as
    # rounding noise, which must not pick the point
    least = float(np.min(worst))
    tie = worst <= least + 1e-12 * max(1.0, abs(least))
    i, j = np.unravel_index(np.argmax(tie), worst.shape)
    min_my = float(np.min(mf.m_y(X, Y)))
    passed = bool(np.all(tr >= -_PSD_TOL) and np.all(det >= -_PSD_TOL)
                  and min_my >= -1e-12)
    return PsdReport(
        mfunction=mf.label, kind=kind, rho=rho,
        x_range=(float(xs[0]), float(xs[-1])),
        y_range=(float(ys[0]), float(ys[-1])),
        n_samples=int(worst.size),
        worst_point=(float(X[i, j]), float(Y[i, j])),
        worst_trace=float(tr[i, j] * scale),
        worst_det=float(det[i, j] * scale**2),
        min_my=min_my, scale=scale, tol=_PSD_TOL, passed=passed,
    )
