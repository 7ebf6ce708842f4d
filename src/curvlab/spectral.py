"""Exact spectral calculus for the 1-D Ornstein-Uhlenbeck generator.

Polynomials are closed under L = d^2/dx^2 - x d/dx, and the normalized
Hermite basis diagonalizes it with eigenvalues 0, -1, -2, ...  That makes
P_t, iterated L, derivative L2 norms, and the alternating variance bounds
exact coefficient arithmetic: the checks here carry no quadrature error on
their left sides.

The Q_k iteration needs the mixed term Q_{k-1}(u, Lu), which the diagonal
recursion alone does not determine; the implementation therefore carries
the full symmetric bilinear map through each step (cost 3^k polynomial
ops), with Q_1(u, v) = u'v'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import hermite_e as herme
from numpy.polynomial import polynomial as P

from .errors import ParameterError
from .potentials import as_points, make_example_potential
from .semigroup import MehlerEngine
from .verify import InequalityReport, Record, Schedule, g_alpha

__all__ = [
    "DEGREE_CAP",
    "PolySeries",
    "HermiteSeries",
    "expand",
    "to_poly",
    "apply_L",
    "apply_Pt",
    "apply_Lk",
    "l_poly",
    "gauss_mean",
    "derivative_l2",
    "houdre_kagan",
    "HoudreKagan",
    "Q_iterate",
    "MultiM",
    "generalized_local_check",
    "variance_bracket_check",
    "random_corpus",
]

DEGREE_CAP = 32


def _coef(p) -> np.ndarray:
    if isinstance(p, PolySeries):
        return p.coef
    c = np.atleast_1d(np.asarray(p, dtype=float))
    if c.ndim != 1 or c.size == 0 or not np.all(np.isfinite(c)):
        raise ParameterError("polynomial coefficients must be a finite, "
                             "non-empty 1-D array")
    return c


def _check_cap(c: np.ndarray):
    if len(c) - 1 > DEGREE_CAP:
        raise ParameterError(
            f"degree {len(c) - 1} exceeds the cap {DEGREE_CAP}")


@dataclass(frozen=True, eq=False)
class PolySeries:
    """Monomial coefficients, ascending powers."""

    coef: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coef, dtype=float))
        _check_cap(c)
        object.__setattr__(self, "coef", c)

    @property
    def degree(self) -> int:
        nz = np.nonzero(self.coef)[0]
        return int(nz[-1]) if len(nz) else 0

    def __call__(self, x):
        return P.polyval(np.asarray(x, dtype=float), self.coef)

    def derivative(self) -> "PolySeries":
        return PolySeries(P.polyder(self.coef))


@dataclass(frozen=True, eq=False)
class HermiteSeries:
    """Coefficients in the orthonormal basis He_k / sqrt(k!)."""

    coef: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coef, dtype=float))
        _check_cap(c)
        object.__setattr__(self, "coef", c)

    @property
    def degree(self) -> int:
        nz = np.nonzero(self.coef)[0]
        return int(nz[-1]) if len(nz) else 0

    @property
    def mean(self) -> float:
        return float(self.coef[0])

    @property
    def variance(self) -> float:
        return float(np.sum(self.coef[1:] ** 2))


def expand(p) -> HermiteSeries:
    c = _coef(p)
    _check_cap(c)
    a = herme.poly2herme(c)
    scale = np.array([math.sqrt(math.factorial(k)) for k in range(len(a))])
    return HermiteSeries(a * scale)


def to_poly(h: HermiteSeries) -> PolySeries:
    a = h.coef / np.array([math.sqrt(math.factorial(k))
                           for k in range(len(h.coef))])
    return PolySeries(herme.herme2poly(a))


def apply_L(h: HermiteSeries) -> HermiteSeries:
    k = np.arange(len(h.coef), dtype=float)
    return HermiteSeries(-k * h.coef)


def apply_Pt(h: HermiteSeries, t: float) -> HermiteSeries:
    if t < 0.0:
        raise ParameterError(f"time must be >= 0, got {t}")
    k = np.arange(len(h.coef), dtype=float)
    return HermiteSeries(np.exp(-k * t) * h.coef)


def apply_Lk(h: HermiteSeries, k: int) -> HermiteSeries:
    if k < 0:
        raise ParameterError(f"iteration count must be >= 0, got {k}")
    j = np.arange(len(h.coef), dtype=float)
    return HermiteSeries((-j) ** k * h.coef)


def l_poly(p) -> PolySeries:
    """L applied in monomial form: p'' - x p'."""
    c = _coef(p)
    dp = P.polyder(c)
    return PolySeries(P.polysub(P.polyder(dp), P.polymulx(dp)))


def gauss_mean(p) -> float:
    """int p dgamma, exact through the Hermite constant term."""
    return float(herme.poly2herme(_coef(p))[0])


def derivative_l2(h: HermiteSeries, k: int) -> float:
    """int (f^(k))^2 dgamma = sum_m c_m^2 m!/(m-k)!."""
    if k < 0:
        raise ParameterError(f"derivative order must be >= 0, got {k}")
    total = 0.0
    for m, c in enumerate(h.coef):
        if m >= k:
            total += c * c * math.perm(m, k)
    return total


@dataclass(frozen=True)
class HoudreKagan:
    lower: float
    upper: float
    variance: float
    partial_sums: tuple   # S_1 .. S_{2N}
    scale: float          # sum of |D_k|/k!, the cancellation magnitude

    @property
    def brackets(self) -> bool:
        # the alternating sums cancel terms of size `scale`, so exact
        # bracketing only survives up to roundoff at that scale
        tol = max(1e-12, 1e-14 * self.scale)
        return (self.lower <= self.variance + tol
                and self.variance <= self.upper + tol)


def houdre_kagan(f, N: int) -> HoudreKagan:
    """Alternating derivative bounds: S_{2N} <= Var(f) <= S_{2N-1}."""
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    h = expand(f)
    sums = []
    s = 0.0
    scale = 0.0
    for k in range(1, 2 * N + 1):
        term = derivative_l2(h, k) / math.factorial(k)
        scale += abs(term)
        s += ((-1.0) ** (k + 1)) * term
        sums.append(s)
    return HoudreKagan(lower=float(sums[-1]), upper=float(sums[-2]),
                       variance=float(h.variance),
                       partial_sums=tuple(float(v) for v in sums),
                       scale=float(scale))


# ---------------------------------------------------------------------------
# the Q_k(Gamma) iteration
# ---------------------------------------------------------------------------

def _q_bilinear(k: int, u: np.ndarray, v: np.ndarray,
                lambdas: Sequence) -> np.ndarray:
    if k == 1:
        return P.polymul(P.polyder(u), P.polyder(v))
    lam = lambdas[k - 2]
    w = _q_bilinear(k - 1, u, v, lambdas)
    lw = P.polysub(P.polyder(P.polyder(w)), P.polymulx(P.polyder(w)))
    mixed = P.polyadd(
        _q_bilinear(k - 1, u, l_poly(v).coef, lambdas),
        _q_bilinear(k - 1, l_poly(u).coef, v, lambdas))
    out = P.polyadd(P.polysub(-lam * np.asarray(w), 0.5 * np.asarray(mixed)),
                    0.5 * np.asarray(lw))
    if len(np.atleast_1d(out)) - 1 > DEGREE_CAP:
        raise ParameterError("Q iteration overflowed the degree cap")
    return out


def Q_iterate(f, k: int, lambdas: Sequence | None = None) -> PolySeries:
    """Q_k applied to f, as a polynomial.

    lambdas supplies lambda_1 .. lambda_{k-1}; the default is the
    eigenvalue sequence 1, 2, ..., under which int Q_k dgamma equals
    int (f^(k))^2 dgamma.
    """
    if k < 1:
        raise ParameterError(f"Q index must be >= 1, got {k}")
    c = _coef(f)
    if lambdas is None:
        lambdas = tuple(range(1, k))
    lambdas = tuple(float(v) for v in lambdas)
    if len(lambdas) < k - 1:
        raise ParameterError(f"need {k - 1} lambdas, got {len(lambdas)}")
    if any(v <= 0.0 for v in lambdas):
        raise ParameterError("lambdas must be positive")
    return PolySeries(_q_bilinear(k, c, c, lambdas))


# ---------------------------------------------------------------------------
# higher-order local inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiM:
    """M(x_0, ..., x_k, y) with the partials its hypothesis matrix needs.

    value/m_y/m_yy map (args, y) -> array where args is a list of k+1
    arrays; m_xx returns the x-block Hessian (..., k+1, k+1) and m_xy the
    mixed column (..., k+1).
    """

    label: str
    n_args: int
    value: Callable
    m_y: Callable
    m_xx: Callable
    m_xy: Callable
    m_yy: Callable

    def hypothesis_matrix(self, args, y) -> np.ndarray:
        args = [np.asarray(a, dtype=float) for a in args]
        y = np.asarray(y, dtype=float)
        r = self.n_args
        shape = np.broadcast(args[0], y).shape
        A = np.zeros(shape + (r + 1, r + 1))
        A[..., :r, :r] = self.m_xx(args, y)
        my = self.m_y(args, y)
        A[..., 0, 0] += 2.0 * my
        col = self.m_xy(args, y)
        A[..., :r, r] = col
        A[..., r, :r] = col
        A[..., r, r] = self.m_yy(args, y) + my / (2.0 * y)
        return A


def _hypothesis_records(mm: MultiM, args, y) -> list:
    keep = y > 1e-12
    if not np.any(keep):
        raise ParameterError("no sample points with positive y")
    args = [a[keep] for a in args]
    y = y[keep]
    A = mm.hypothesis_matrix(args, y)
    scale = np.maximum(np.max(np.abs(A), axis=(-2, -1)), 1e-30)
    eigs = np.linalg.eigvalsh(A / scale[..., None, None])
    min_eig = float(np.min(eigs[..., 0]))
    r = mm.n_args
    off = np.asarray(mm.m_xx(args, y))
    mask = ~np.eye(r, dtype=bool)
    max_off = float(np.max(off[..., mask])) if r > 1 else 0.0
    min_my = float(np.min(mm.m_y(args, y)))
    return [
        Record(x=(), t=None, alpha=None, lhs=0.0, rhs=min_eig),
        Record(x=(), t=None, alpha=None, lhs=max_off, rhs=0.0),
        Record(x=(), t=None, alpha=None, lhs=0.0, rhs=min_my),
    ]


def generalized_local_check(mm: MultiM, f, t: float, alpha: float,
                            xs=None, rho: float = 1.0) -> InequalityReport:
    """M(P_t f, LP_t f, ..., L^k P_t f, alpha Gamma(P_t f)) <=
    P_t M(f, Lf, ..., L^k f, g_alpha(t) Gamma(f)) for the OU semigroup.

    The hypothesis matrix is sampled on the values the check visits; a
    violation returns a precondition report instead of inequality records.
    """
    if t < 0.0 or alpha < 0.0:
        raise ParameterError("need t >= 0 and alpha >= 0")
    xs = as_points(Schedule().xs if xs is None else xs, 1)
    h = expand(f)
    k = mm.n_args - 1
    d_polys = [to_poly(apply_Lk(h, j)).coef for j in range(k + 1)]
    fp = P.polyder(d_polys[0])
    g_fac = g_alpha(t, alpha, rho)

    z = np.linspace(-12.0, 12.0, 481)
    sample_args = [P.polyval(z, c) for c in d_polys]
    sample_y = g_fac * P.polyval(z, fp) ** 2
    hyp = _hypothesis_records(mm, sample_args, sample_y)
    if any(r.margin < -1e-10 for r in hyp):
        return InequalityReport(
            label=f"precondition-failed[{mm.label}]",
            records=tuple(hyp), tolerance=1e-10)

    ht = apply_Pt(h, t)
    pt_polys = [to_poly(apply_Lk(ht, j)).coef for j in range(k + 1)]
    pt_grad = P.polyder(pt_polys[0])

    def composed(zz):
        z0 = np.asarray(zz, dtype=float)[..., 0]
        args = [P.polyval(z0, c) for c in d_polys]
        y = np.maximum(g_fac * P.polyval(z0, fp) ** 2, 0.0)
        return np.asarray(mm.value(args, y), dtype=float)

    # through the engine, so that P_0 is the identity exactly
    rhs, _ = MehlerEngine(make_example_potential("gaussian")).apply(
        composed, t, xs)
    records = []
    for i, x in enumerate(xs[:, 0]):
        args = [P.polyval(x, c) for c in pt_polys]
        y = max(alpha * P.polyval(x, pt_grad) ** 2, 0.0)
        lhs = float(mm.value([np.asarray(a) for a in args], np.asarray(y)))
        records.append(Record(x=(float(x),), t=t, alpha=alpha, lhs=lhs,
                              rhs=float(rhs[i])))
    return InequalityReport(
        label=f"generalized-local[{mm.label}|k={k}|t={t:g}|alpha={alpha:g}]",
        records=tuple(records), tolerance=1e-6)


def variance_bracket_check(f, n: int,
                           lambdas: Sequence | None = None) -> InequalityReport:
    """Alternating variance bounds from the Q iteration.

    With pi_i = lambda_1 ... lambda_i, S_n = sum_i (-1)^{i+1} int Q_i dgamma
    / pi_i bounds the variance from above for odd n and below for even n,
    provided int Q_{n+1} dgamma >= 0 (recorded as the first margin).
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if lambdas is None:
        lambdas = tuple(range(1, n + 1))
    lambdas = tuple(float(v) for v in lambdas)
    if len(lambdas) < n:
        raise ParameterError(f"need {n} lambdas, got {len(lambdas)}")
    c = _coef(f)
    var = expand(c).variance
    pi = np.cumprod(lambdas)
    s = 0.0
    for i in range(1, n + 1):
        s += ((-1.0) ** (i + 1)) * gauss_mean(Q_iterate(c, i, lambdas)) / pi[i - 1]
    hyp = gauss_mean(Q_iterate(c, n + 1, lambdas))
    rec_h = Record(x=(), t=None, alpha=None, lhs=0.0, rhs=hyp)
    if n % 2 == 1:
        rec_b = Record(x=(), t=None, alpha=None, lhs=var, rhs=s)
    else:
        rec_b = Record(x=(), t=None, alpha=None, lhs=s, rhs=var)
    return InequalityReport(
        label=f"variance-bracket[n={n}]",
        records=(rec_h, rec_b), tolerance=1e-9)


def random_corpus() -> list:
    """50 reproducible polynomial draws of degree 1 to 8, for property tests."""
    rng = np.random.default_rng(20240817)
    out = []
    for _ in range(50):
        d = int(rng.integers(1, 9))
        coef = rng.standard_normal(d + 1)
        coef[-1] = coef[-1] if abs(coef[-1]) > 0.1 else 0.5
        out.append(PolySeries(coef))
    return out
