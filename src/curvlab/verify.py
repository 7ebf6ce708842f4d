"""Inequality verification: local, monotonicity, and integrated.

Every verifier returns InequalityReports (the local and monotonicity ones
one per M-function) whose records carry margin = rhs - lhs, so nonnegative
margins mean the inequality holds.  A report passes when every margin >=
-(tolerance + 4 stderr); stderr is zero for the deterministic engines, and
the 4-sigma guard keeps the Monte Carlo false-failure rate per record below
1e-4.

The local and monotonicity checks take their direction from the M-function:
a reverse one (`MFunction.reverse`) gets the reverse inequality.

rho is always an input, never estimated: these are checks of a claimed
curvature bound, and feeding a bound the potential does not satisfy is the
documented way to produce a falsification (negative margins).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ParameterError, QuadratureError
from .mfunctions import MFunction
from .potentials import Potential, as_points
from .quadrature import adaptive
from .semigroup import (RightSide, TestFunction, _check_dimension, gamma,
                        gamma2, gamma_gamma)

__all__ = [
    "Schedule",
    "Record",
    "InequalityReport",
    "g_alpha",
    "h_alpha",
    "default_schedule",
    "verify_local",
    "verify_H_monotone",
    "verify_integrated_limit",
    "verify_integrated_condition",
    "exp_integrability_bound_check",
]


def _interpolation(name: str, a: float, alpha: float, r: float) -> float:
    # (e^a - 1)/r + alpha e^a, or NumericalError where it overflows
    try:
        value = math.expm1(a) / r + alpha * math.exp(a)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise NumericalError(f"{name} overflows a float: e^{a:g} is out of "
                             f"range")
    return value


def g_alpha(t: float, alpha: float, rho: float) -> float:
    """(1 - e^{-2 rho t})/rho + alpha e^{-2 rho t}; 2t + alpha at rho = 0.

    Raises NumericalError where it overflows a float.
    """
    if t < 0.0:
        raise ParameterError(f"time must be >= 0, got {t}")
    if rho == 0.0:
        return 2.0 * t + alpha
    return _interpolation(f"g_alpha(t={t:g}, rho={rho:g})", -2.0 * rho * t,
                          alpha, -rho)


def h_alpha(s: float, t: float, alpha: float, rho: float) -> float:
    """(e^{2 rho (t-s)} - 1)/rho + alpha e^{2 rho (t-s)}; 2(t-s) + alpha at rho = 0.

    Raises NumericalError where it overflows a float.
    """
    if not 0.0 <= s <= t:
        raise ParameterError(f"need 0 <= s <= t, got s={s}, t={t}")
    if rho == 0.0:
        return 2.0 * (t - s) + alpha
    return _interpolation(f"h_alpha(s={s:g}, t={t:g}, rho={rho:g})",
                          2.0 * rho * (t - s), alpha, rho)


@dataclass(frozen=True)
class Schedule:
    ts: tuple = (0.0, 0.1, 0.3, 0.5, 1.0, 2.0)
    alphas: tuple = (0.0, 0.5, 1.0)
    xs: np.ndarray = field(default_factory=lambda: np.linspace(-3.0, 3.0, 7))

    def __post_init__(self):
        object.__setattr__(self, "ts", tuple(float(t) for t in self.ts))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "xs", np.atleast_1d(np.asarray(self.xs, dtype=float)))
        if not self.ts or not self.alphas or self.xs.size == 0:
            raise ParameterError("schedule must not be empty")
        if not all(0.0 <= v < math.inf for v in self.ts + self.alphas):
            raise ParameterError("schedule needs finite t >= 0 and alpha >= 0")


def default_schedule() -> Schedule:
    return Schedule()


@dataclass(frozen=True)
class Record:
    x: tuple
    t: float | None
    alpha: float | None
    lhs: float
    rhs: float
    stderr: float = 0.0
    s: float | None = None

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def to_dict(self) -> dict:
        return {
            "x": list(self.x), "t": self.t, "alpha": self.alpha, "s": self.s,
            "lhs": self.lhs, "rhs": self.rhs, "margin": self.margin,
            "stderr": self.stderr,
        }


@dataclass(frozen=True)
class InequalityReport:
    label: str
    records: tuple
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(r.margin >= -(self.tolerance + 4.0 * r.stderr)
                   for r in self.records)

    @property
    def worst(self) -> Record:
        # the first record, in record order, whose slack ties the least one
        # to 1e-12 of its scale: mirror records of a symmetric problem agree
        # only to rounding, which must not pick between them
        slack = [r.margin + 4.0 * r.stderr for r in self.records]
        tie = min(slack)
        tie += 1e-12 * max(1.0, abs(tie))
        return next(r for r, s in zip(self.records, slack) if s <= tie)

    @property
    def min_margin(self) -> float:
        return min(r.margin for r in self.records)

    def to_dict(self) -> dict:
        return {
            "label": self.label, "tolerance": self.tolerance,
            "pass": self.passed, "min_margin": self.min_margin,
            "worst": self.worst.to_dict(),
            "records": [r.to_dict() for r in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["x", "t", "alpha", "s", "lhs", "rhs", "margin",
                         "stderr"])
        for r in self.records:
            writer.writerow([
                " ".join(repr(v) for v in r.x),
                "" if r.t is None else repr(r.t),
                "" if r.alpha is None else repr(r.alpha),
                "" if r.s is None else repr(r.s),
                repr(r.lhs), repr(r.rhs), repr(r.margin), repr(r.stderr),
            ])
        return buf.getvalue()


def _of_f(f: TestFunction, columns):
    # z -> columns(f(z), Gamma(f)(z)) side by side; f and Gamma(f) are
    # evaluated once for all of them.  Overflow stays quiet: the engine
    # refuses a right side that is not finite
    def func(z):
        z = np.asarray(z, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = f.value(z)[..., None]
            gam = np.sum(np.square(f.gradient(z)), axis=-1)[..., None]
            return np.concatenate(columns(vals, gam), axis=-1)

    return func


def _composite(mfs, f: TestFunction, factors):
    # z -> M(f(z), c Gamma(f)(z)), one column per factor c of each M in turn;
    # each M's c Gamma(f) is clipped at 0 in the array that holds it
    return _of_f(f, lambda x, gam: [
        mf.value(x, np.maximum(y, 0.0, out=y))
        for mf, y in zip(mfs, (gam * r for r in factors))])


def _linear_basis(mfs, f: TestFunction):
    # z -> [M(f, 0), M_y(f, 0) Gamma(f)] of each M in turn: for an M affine
    # in y, M(f, c Gamma(f)) = a + c b for every factor c
    return _of_f(f, lambda x, gam: [col for mf in mfs for col in (
        mf.value(x, 0.0), mf.m_y(x, 0.0) * gam)])


def _right_sides(mfs, f, factors) -> list:
    """The right sides of a local check, one per time: factors holds per
    time one array of factors c per M, and the right side maps z to
    M(f(z), c Gamma(f)(z)) for each M and c in turn.

    Each carries its linear form.  The Ms affine in y share one basis for
    every time, and their columns are a + c b; the other Ms' columns of a
    time are a basis of their own.
    """
    affine = [m for m, mf in enumerate(mfs) if mf.affine_in_y]
    rest = [m for m, mf in enumerate(mfs) if not mf.affine_in_y]
    order = np.argsort(affine + rest)  # the blocks back in mfs' order
    shared = (_linear_basis([mfs[m] for m in affine], f),) if affine else ()

    def side(at_t):
        c = np.array([at_t[m] for m in affine])
        own = (_composite([mfs[m] for m in rest], f,
                          [at_t[m] for m in rest]),) if rest else ()

        def combine(vals):
            k = len(vals[0])
            blocks = [vals[0][:, 0::2, None] + c * vals[0][:, 1::2, None]] \
                if affine else []
            if rest:
                blocks.append(vals[-1].reshape(k, len(rest), -1))
            return np.concatenate(blocks, axis=1)[:, order].reshape(k, -1)

        return RightSide(_composite(mfs, f, at_t), shared + own, combine)

    return [side(at_t) for at_t in factors]


def verify_local(mfs, engine, f: TestFunction, schedule: Schedule,
                 rho: float) -> tuple:
    """The local inequality of each M of mfs in M's direction, one report
    per M in mfs' order, each bitwise what a call with [M] returns.

    forward: M(P_t f, alpha Gamma(P_t f)) <= P_t M(f, g_alpha(t) Gamma(f))
    reverse: M(P_t f, h_alpha(0) Gamma(P_t f)) <= P_t M(f, alpha Gamma(f))
    """
    if not mfs:
        raise ParameterError("need at least one M-function")
    _check_dimension(f, engine.potential)
    xs = as_points(schedule.xs, engine.potential.n)
    # the right sides integrate M(f, .) around the points, and the engine
    # evaluates them before any left side: an f outside M's domain at a
    # point is named here, not by a non-finite value inside the engine
    for mf in mfs:
        mf.check_domain(f(xs), 0.0)
    alphas = np.array(schedule.alphas)
    # per t and M, the factors of Gamma on the left and on the right side
    factors = [[(np.array([h_alpha(0.0, t, a, rho) for a in alphas]), alphas)
                if mf.reverse else
                (alphas, np.array([g_alpha(t, a, rho) for a in alphas]))
                for mf in mfs] for t in schedule.ts]
    # one engine call for both sides at every t, with one column per M and
    # alpha on the right
    sides = engine.value_grad(f, schedule.ts, xs, rhs=_right_sides(
        mfs, f, [[r for _, r in at_t] for at_t in factors]))
    records = [[] for _ in mfs]
    for t, at_t, u, se_u, grad, rhs_all, se_all in zip(schedule.ts, factors,
                                                       *sides):
        u, se_u = u[:, None], se_u[:, None]
        gam_pt = np.sum(np.square(grad), axis=-1)[:, None]
        noisy = se_u[:, 0] > 0.0
        for m, (mf, (lhs_factors, _)) in enumerate(zip(mfs, at_t)):
            cols = slice(m * len(alphas), (m + 1) * len(alphas))
            rhs, se = rhs_all[:, cols], se_all[:, cols]
            y = np.maximum(gam_pt * lhs_factors, 0.0)
            mf.check_domain(u, y)
            lhs = mf.value(u, y)
            if np.any(noisy):
                # Monte Carlo left sides are noisy through P_t f; propagate
                # that part where it is nonzero, so |m_x| * 0 never forms
                se[noisy] += np.abs(mf.m_x(
                    u[noisy], np.maximum(y[noisy], 1e-12))) * se_u[noisy]
            for j, alpha in enumerate(schedule.alphas):
                for i in range(len(xs)):
                    records[m].append(Record(
                        x=tuple(float(v) for v in xs[i]), t=t, alpha=alpha,
                        lhs=float(lhs[i, j]), rhs=float(rhs[i, j]),
                        stderr=float(se[i, j])))
    return tuple(InequalityReport(
        label=f"{'reverse' if mf.reverse else 'local'}[{mf.label}|{f.label}"
              f"|{engine.kind}|rho={rho:g}]",
        records=tuple(recs), tolerance=engine.tolerance)
        for mf, recs in zip(mfs, records))


def verify_H_monotone(mfs, engine, f: TestFunction, t: float, alpha: float,
                      rho: float, s_count: int = 21, xs=None) -> tuple:
    """H(s) = P_s M(P_{t-s}f, c(s) Gamma(P_{t-s}f)) must be non-decreasing,
    for each M of mfs: one report per M in mfs' order, each bitwise what a
    call with [M] returns.

    c(s) is g_alpha(s) for a forward M and h_alpha(s) for a reverse one.
    Consecutive differences H(s_{i+1}) - H(s_i) are the margins.  Nested
    semigroup evaluations rule out the Monte Carlo engine here.  One
    `evolved` call gives P_{t-s} f and one `apply_each` call the outer P_s
    of every s: on the grid, one evolution of f and one per s > 0.
    """
    if not mfs:
        raise ParameterError("need at least one M-function")
    if s_count < 2:
        raise ParameterError("need at least the endpoints, s_count >= 2")
    if not (0.0 <= t < math.inf and 0.0 <= alpha < math.inf):
        raise ParameterError(f"need finite t >= 0 and alpha >= 0, got t={t}, "
                             f"alpha={alpha}")
    if engine.kind == "monte-carlo":
        raise ParameterError("monotonicity checks need a deterministic engine")
    _check_dimension(f, engine.potential)
    n = engine.potential.n
    xs = as_points(Schedule().xs if xs is None else xs, n)
    s_grid = np.linspace(0.0, t, s_count)
    inners = []
    # P_{t-s} f and its gradient for every s from one engine call: the grid
    # engine evolves f once for all of them
    for s, pt_f in zip(s_grid, engine.evolved(f, t - s_grid)):
        factors = [h_alpha(s, t, alpha, rho) if mf.reverse
                   else g_alpha(s, alpha, rho) for mf in mfs]

        def inner(z, factors=factors, pt_f=pt_f):
            # one column per M
            z = np.asarray(z, dtype=float)
            u, grad = pt_f(z.reshape(-1, n))
            v = np.sum(np.square(grad), axis=-1)
            out = np.stack([mf.value(u, np.maximum(c * v, 0.0))
                            for mf, c in zip(mfs, factors)], axis=-1)
            return out.reshape(z.shape[:-1] + (len(mfs),))

        inners.append(inner)
    H, _ = engine.apply_each(inners, s_grid, xs)
    reports = []
    for mf, Hm in zip(mfs, np.moveaxis(H, -1, 0)):
        records = [Record(x=tuple(float(v) for v in xs[i]), t=t, alpha=alpha,
                          s=float(s_grid[j]), lhs=float(Hm[j, i]),
                          rhs=float(Hm[j + 1, i]))
                   for j in range(s_count - 1) for i in range(len(xs))]
        kind = "reverse" if mf.reverse else "forward"
        reports.append(InequalityReport(
            label=f"monotone-{kind}[{mf.label}|{f.label}|{engine.kind}"
                  f"|t={t:g}|alpha={alpha:g}]",
            records=tuple(records), tolerance=engine.tolerance))
    return tuple(reports)


# ---------------------------------------------------------------------------
# integrated checks (1-D quadrature against the invariant measure)
# ---------------------------------------------------------------------------

_EPSABS = _EPSREL = 1e-11  # the tolerances of every integral
_LIMIT = 200  # subintervals of every integral
_TAIL_TOL = 1e-8  # of the mass on the 1.5x window against the window's


def _window(potential: Potential, half_width: float | None) -> float:
    """The half-width W of the window [-W, W]: `half_width`, or
    10 / sqrt(max(rho(0), 0.1)) when it is None."""
    if half_width is not None:
        if half_width <= 0.0:
            raise ParameterError("window half-width must be positive")
        return half_width
    scale = max(float(potential.curvature(np.zeros(1))), 0.1)
    return 10.0 / math.sqrt(scale)


def _check_1d(potential: Potential):
    if potential.n != 1:
        raise ParameterError("integrated checks are one-dimensional")


def _critical_points(f: TestFunction, lo: float, hi: float) -> list:
    # roots of f' split the quadrature so Gamma(Gamma)/(4 Gamma) and a
    # y_open M_y never land on a 0/0 point; f' is sampled on one grid, and
    # its sign-change cells are bisected together down to 2e-12 wide
    grid = np.linspace(lo, hi, 2001)
    vals = f.gradient(grid[:, None])[:, 0]
    cells = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    a, b, sign = grid[cells], grid[cells + 1], np.sign(vals[cells])
    halvings = math.ceil(math.log2((grid[1] - grid[0]) / 2e-12)) \
        if cells.size else 0
    for _ in range(halvings):
        mid = 0.5 * (a + b)
        # f' has a's sign at mid: the root lies right of mid; 0: it is mid
        side = np.sign(f.gradient(mid[:, None])[:, 0]) * sign
        a = np.where(side >= 0.0, mid, a)
        b = np.where(side <= 0.0, mid, b)
    roots = np.concatenate([grid[vals == 0.0], 0.5 * (a + b)])
    return sorted(set(roots.tolist()))


_masses = {}  # Z of each measure and window, measured once per process


def _mu_integrals(potential: Potential, half_width: float | None,
                  integrands: dict, split: TestFunction | None = None) -> dict:
    """Unnormalized integrals against e^{-V} plus the normalizing mass Z.

    Integrands take points of shape (N, 1), and each is integrated on its
    own subintervals, so no integral depends on another's refinement; the
    critical points of `split`, when given, are their initial breakpoints.
    The mass is re-measured on a 1.5x window; disagreement beyond _TAIL_TOL
    means the window clips the measure and the result would be garbage.
    Each passing mass is kept per process, keyed by the potential's label,
    the window and V at 13 points of the wider window.
    """
    W = _window(potential, half_width)

    def integral(g, edges):
        def weighted(z):
            w = np.exp(-potential.value(z))
            return w if g is None else g(z) * w

        return adaptive(weighted, edges, _EPSABS, _EPSREL, _LIMIT)

    probe = potential.value(np.linspace(-1.5 * W, 1.5 * W, 13)[:, None])
    key = (potential.label, W, probe.tobytes())
    if key not in _masses:
        z = integral(None, [-W, W])
        z_wide = integral(None, [-1.5 * W, 1.5 * W])
        if not z > 0.0 or abs(z_wide - z) > _TAIL_TOL * abs(z_wide):
            raise QuadratureError(
                f"measure mass {z:.6g} on [-{W:g}, {W:g}] vs {z_wide:.6g} on "
                f"the 1.5x window; widen the quadrature window")
        _masses[key] = z
    points = () if split is None else _critical_points(split, -W, W)
    edges = [-W, *(p for p in points if -W < p < W), W]
    out = {"_z": _masses[key]}
    for name, g in integrands.items():
        out[name] = integral(g, edges)
    return out


def verify_integrated_limit(mf: MFunction, potential: Potential,
                            f: TestFunction, half_width: float | None = None,
                            rho: float = 1.0) -> InequalityReport:
    """M(int f dmu, 0) <= int M(f, Gamma(f)/rho) dmu, for rho > 0."""
    _check_1d(potential)
    if not rho > 0.0:
        raise ParameterError(f"the ergodic limit needs rho > 0, got {rho}")

    def m_of_f(z):
        v = f.value(z)
        y = np.maximum(gamma(f, f, z) / rho, 0.0)
        mf.check_domain(v, y)
        return mf.value(v, y)

    got = _mu_integrals(potential, half_width, {"f": f.value, "m": m_of_f},
                        split=f if mf.y_open else None)
    mean = got["f"] / got["_z"]
    mf.check_domain(mean, 0.0)
    lhs = float(mf.value(mean, 0.0))
    rhs = got["m"] / got["_z"]
    rec = Record(x=(), t=None, alpha=None, lhs=lhs, rhs=rhs)
    return InequalityReport(
        label=f"integrated-limit[{mf.label}|{f.label}|rho={rho:g}]",
        records=(rec,), tolerance=1e-9)


def verify_integrated_condition(mf: MFunction, potential: Potential,
                                f: TestFunction, half_width: float | None = None,
                                rho: float = 1.0,
                                variant: str = "plain") -> InequalityReport:
    """Integrated curvature condition weighted by M_y(f, Gamma(f)).

    plain:    int M_y Gamma_2 dmu >= rho int M_y Gamma dmu
    enhanced: ... >= rho int M_y Gamma dmu + int M_y Gamma(Gamma)/(4 Gamma) dmu
    """
    _check_1d(potential)
    if variant not in ("plain", "enhanced"):
        raise ParameterError(f"variant must be plain or enhanced, got {variant!r}")

    def weight(z):
        v, y = f.value(z), np.maximum(gamma(f, f, z), 0.0)
        mf.check_domain(v, y)
        return mf.m_y(v, y)

    integrands = {
        "wg2": lambda z: weight(z) * gamma2(f, potential, z),
        "wg": lambda z: weight(z) * gamma(f, f, z),
    }
    if variant == "enhanced":
        integrands["wenh"] = lambda z: (weight(z) * gamma_gamma(f, z)
                                        / (4.0 * gamma(f, f, z)))
    split = f if variant == "enhanced" or mf.y_open else None
    got = _mu_integrals(potential, half_width, integrands, split=split)
    z = got["_z"]
    rhs = got["wg2"] / z
    lhs = rho * got["wg"] / z
    if variant == "enhanced":
        lhs += got["wenh"] / z
    rec = Record(x=(), t=None, alpha=None, lhs=lhs, rhs=rhs)
    return InequalityReport(
        label=f"integrated-{variant}[{mf.label}|{f.label}|rho={rho:g}]",
        records=(rec,), tolerance=1e-9)


def exp_integrability_bound_check(potential: Potential, h: TestFunction,
                                  half_width: float | None = None,
                                  rho: float = 1.0) -> InequalityReport:
    """log int e^h dmu - int h dmu <= 10 int e^{G/(2 rho)}/(1 + sqrt(G/rho)) dmu

    with G = Gamma(h); the explicit-constant consequence of the
    exp-integrability M-function.
    """
    _check_1d(potential)
    if not rho > 0.0:
        raise ParameterError(f"the bound needs rho > 0, got {rho}")

    def rhs_integrand(z):
        g = np.maximum(gamma(h, h, z), 0.0)
        return 10.0 * np.exp(g / (2.0 * rho)) / (1.0 + np.sqrt(g / rho))

    got = _mu_integrals(potential, half_width, {
        "eh": lambda z: np.exp(h.value(z)),
        "h": h.value,
        "rhs": rhs_integrand,
    })
    z = got["_z"]
    lhs = math.log(got["eh"] / z) - got["h"] / z
    rhs = got["rhs"] / z
    rec = Record(x=(), t=None, alpha=None, lhs=lhs, rhs=rhs)
    return InequalityReport(
        label=f"exp-integrability-bound[{h.label}|rho={rho:g}]",
        records=(rec,), tolerance=1e-9)
