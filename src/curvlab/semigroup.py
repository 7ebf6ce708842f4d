"""Semigroup evaluation P_t f and the carre-du-champ calculus.

Three interchangeable engines share one two-method contract: exact
Gauss-Hermite quadrature of the Mehler integral (gaussian potential only),
Crank-Nicolson time stepping of u_t = Lu on a 1-D grid with reflecting ends,
and Euler-Maruyama Monte Carlo.

- `apply(func, t, xs) -> (values, stderr)` evaluates P_t of a plain
  function of position, vectorized over leading axes: (..., n) ->
  (..., *cols).  Trailing columns pass through, so one evolution serves
  them all, and each column is bitwise what a call with that column alone
  returns.
- `value_grad(f, t, xs) -> (values, stderr, grads)` evaluates P_t f and
  grad P_t f of a `TestFunction` from one evolution of f.

Both read points through `as_points`, so xs is anything it accepts, and
both always return arrays: values and stderr of shape (k, *cols), which is
(k,) for a function without columns, and grads of shape (k, n).  stderr is
exactly 0 for the deterministic engines.

t is one time or a sequence of times in any order, repeats allowed.  A
sequence adds a leading time axis, in the given order, and every time comes
from one evolution; each time's slice is bitwise what a call with that time
alone returns.

Gamma(f, g) = grad f . grad g and
Gamma2(f) = ||Hess f||_HS^2 + grad f . Hess V grad f.  The gradient of
Gamma(f) is 2 Hess f grad f, so Gamma(Gamma(f)) needs no third derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from typing import Callable, Union

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import DomainError, NumericalError, ParameterError
from .potentials import Potential
from .sde import _step_plan, _times, simulate

__all__ = [
    "TestFunction",
    "as_points",
    "GridFunction",
    "MehlerEngine",
    "GridEngine",
    "MonteCarloEngine",
    "TridiagonalGenerator",
    "make_engine",
    "check_engine_params",
    "mehler_apply",
    "grid_generator",
    "grid_apply",
    "gamma",
    "gamma2",
    "gamma_gamma",
    "enhanced_gap",
]


@dataclass(frozen=True)
class TestFunction:
    """A smooth f with analytic derivatives, vectorized like Potential."""

    __test__ = False  # keep pytest from collecting this as a test class

    n: int
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    label: str = "f"

    def __call__(self, x):
        return self.value(np.asarray(x, dtype=float))

    @staticmethod
    def from_1d(label: str, v, d1, d2) -> "TestFunction":
        """Lift scalar closures s -> v(s), v'(s), v''(s) to the 1-D interface."""

        def value(x):
            return v(np.asarray(x, dtype=float)[..., 0])

        def gradient(x):
            return d1(np.asarray(x, dtype=float)[..., 0])[..., None]

        def hessian(x):
            return d2(np.asarray(x, dtype=float)[..., 0])[..., None, None]

        return TestFunction(1, value, gradient, hessian, label)


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


def _check_dimension(f: TestFunction, potential: Potential) -> None:
    if f.n != potential.n:
        raise ParameterError(f"{f.label} is a function on R^{f.n}, the "
                             f"potential {potential.label} lives on "
                             f"R^{potential.n}")


def gamma(f: TestFunction, g: TestFunction, x) -> np.ndarray:
    """Gamma(f, g)(x) = grad f . grad g."""
    x = np.asarray(x, dtype=float)
    return np.sum(f.gradient(x) * g.gradient(x), axis=-1)


def gamma2(f: TestFunction, potential: Potential, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    H = f.hessian(x)
    gf = f.gradient(x)
    hs = np.sum(H * H, axis=(-2, -1))
    quad = np.einsum("...i,...ij,...j->...", gf, potential.hessian(x), gf)
    return hs + quad


def gamma_gamma(f: TestFunction, x) -> np.ndarray:
    """Gamma(Gamma(f))(x) = |2 Hess f(x) grad f(x)|^2, exactly."""
    x = np.asarray(x, dtype=float)
    v = 2.0 * np.einsum("...ij,...j->...i", f.hessian(x), f.gradient(x))
    return np.sum(v * v, axis=-1)


def enhanced_gap(f: TestFunction, potential: Potential, x) -> np.ndarray:
    """Gamma2(f) - rho(x) Gamma(f) - Gamma(Gamma(f)) / (4 Gamma(f)).

    Nonnegative for every smooth f; critical points of f must be excluded.
    """
    x = np.asarray(x, dtype=float)
    gam = gamma(f, f, x)
    if np.any(gam <= 0.0):
        raise DomainError(f"Gamma(f) vanishes at a requested point of {f.label}")
    return gamma2(f, potential, x) - potential.curvature_at(x) * gam \
        - gamma_gamma(f, x) / (4.0 * gam)


# ---------------------------------------------------------------------------
# Mehler engine (gaussian potential)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _gh_nodes(order: int, n: int):
    """Tensor Gauss-Hermite rule normalized for the standard normal in R^n."""
    pts, wts = np.polynomial.hermite_e.hermegauss(order)
    wts = wts / math.sqrt(2.0 * math.pi)
    grids = np.meshgrid(*([pts] * n), indexing="ij")
    Y = np.stack([g.ravel() for g in grids], axis=-1)
    W = np.ones(order ** n)
    for g in np.meshgrid(*([wts] * n), indexing="ij"):
        W = W * g.ravel()
    return Y, W


def _decay(t) -> np.ndarray:
    """e^{-t} of each time of t, shaped like t."""
    return np.reshape([math.exp(-s) for s in _times(t)], np.shape(t))


def mehler_apply(f, t, x, order: int = 64, n: int | None = None):
    """P_t f(x) for the gaussian potential by Gauss-Hermite quadrature.

    f maps (..., n) to (..., *cols); the result has shape ([T,] k, *cols),
    with a time axis when t is a sequence of T times.  Exact (up to
    rounding) for polynomials of per-coordinate degree < 2 order - 1.
    """
    if order < 2:
        raise ParameterError(f"quadrature order must be >= 2, got {order}")
    decay = _decay(t).reshape(-1, 1, 1, 1)
    if n is None:
        n = f.n if isinstance(f, TestFunction) else np.atleast_1d(np.asarray(x)).shape[-1]
    xs = as_points(x, n)
    Y, W = _gh_nodes(order, n)
    spread = np.sqrt(np.maximum(0.0, 1.0 - decay * decay))
    z = decay * xs[:, None, :] + spread * Y  # (T, k, G, n)
    v = np.asarray(f(z))
    # each (time, column) contracts from its own contiguous (k, G) array,
    # so its value depends on nothing else: BLAS may round a row of a
    # taller matrix differently
    cols = np.moveaxis(v.reshape(v.shape[:3] + (-1,)), -1, 1)  # (T, C, k, G)
    out = np.array([[np.ascontiguousarray(c) @ W for c in at_t]
                    for at_t in cols])
    return np.moveaxis(out, 1, -1).reshape(np.shape(t) + v.shape[1:2]
                                           + v.shape[3:])


@dataclass(frozen=True)
class MehlerEngine:
    """Exact OU semigroup via the Mehler integral; n <= 3."""

    potential: Potential
    order: int = 64
    kind = "mehler"
    tolerance = 1e-6

    def __post_init__(self):
        if self.potential.family != "gaussian":
            raise ParameterError("the Mehler engine requires the gaussian potential")
        if self.potential.n > 3:
            raise ParameterError("tensor quadrature limited to n <= 3")
        if self.order < 2:
            raise ParameterError("quadrature order must be >= 2")

    def apply(self, func, t, x):
        vals = mehler_apply(func, t, x, self.order, self.potential.n)
        return vals, np.zeros(vals.shape)

    def value_grad(self, f: TestFunction, t, x):
        _check_dimension(f, self.potential)

        def columns(z):
            return np.concatenate([f.value(z)[..., None], f.gradient(z)],
                                  axis=-1)

        out, err = self.apply(columns, t, x)
        # exact commutation: grad P_t f = e^-t P_t grad f
        decay = _decay(t)[..., None, None]
        return out[..., 0], err[..., 0], decay * out[..., 1:]

    def describe(self) -> dict:
        return {"kind": self.kind, "potential": self.potential.label,
                "order": self.order}


# ---------------------------------------------------------------------------
# 1-D grid engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridFunction:
    lo: float
    hi: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.m < 3:
            raise ParameterError(f"grid needs at least 3 nodes, got {self.m}")
        if not self.hi > self.lo:
            raise ParameterError(f"need hi > lo, got [{self.lo}, {self.hi}]")
        if not np.all(np.isfinite(self.values)):
            raise ParameterError("grid values must be finite")

    @property
    def m(self) -> int:
        return len(self.values)

    @property
    def h(self) -> float:
        return (self.hi - self.lo) / (self.m - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.m)

    @staticmethod
    def sample(func, lo: float, hi: float, m: int) -> "GridFunction":
        nodes = np.linspace(lo, hi, m)
        return GridFunction(lo, hi, func(nodes[:, None]))


@dataclass(frozen=True)
class TridiagonalGenerator:
    """Second-order discretization of L = d^2/dx^2 - V' d/dx, zero-flux ends."""

    lo: float
    hi: float
    m: int
    h: float
    lower: np.ndarray  # coefficient of u_{i-1} in row i (entry 0 unused)
    diag: np.ndarray
    upper: np.ndarray  # coefficient of u_{i+1} in row i (entry m-1 unused)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """L applied to node values (m,) or to columns of them (m, ...)."""
        v = np.asarray(values, dtype=float)
        shape = (self.m,) + (1,) * (v.ndim - 1)
        lower, diag, upper = (c.reshape(shape)
                              for c in (self.lower, self.diag, self.upper))
        out = diag * v
        out[1:] += lower[1:] * v[:-1]
        out[:-1] += upper[:-1] * v[1:]
        return out


def grid_generator(potential: Potential, lo: float, hi: float, m: int) -> TridiagonalGenerator:
    if potential.n != 1:
        raise ParameterError("the grid engine is one-dimensional")
    if m < 3:
        raise ParameterError(f"grid needs at least 3 nodes, got {m}")
    if not hi > lo:
        raise ParameterError(f"need hi > lo, got [{lo}, {hi}]")
    nodes = np.linspace(lo, hi, m)
    h = (hi - lo) / (m - 1)
    vp = potential.gradient(nodes[:, None])[:, 0]
    # at a cell Peclet number |V'| h of 2 an off-diagonal of L reaches 0, and
    # Crank-Nicolson loses its maximum principle
    peclet = float(np.max(np.abs(vp[1:-1]))) * h
    if peclet >= 2.0:
        raise ParameterError(f"cell Peclet number max |V'| h = {peclet:.3g} "
                             f"reaches 2 on [{lo}, {hi}] with m={m}; "
                             f"take more nodes or a narrower window")
    lower = 1.0 / h**2 + vp / (2.0 * h)
    upper = 1.0 / h**2 - vp / (2.0 * h)
    diag = np.full(m, -2.0 / h**2)
    # mirror ghost nodes: u_{-1} = u_1 kills the drift term at the ends
    upper[0] = 2.0 / h**2
    lower[-1] = 2.0 / h**2
    return TridiagonalGenerator(lo, hi, m, h, lower, diag, upper)


def _cn_factors(gen: TridiagonalGenerator, dt: float) -> list:
    # LAPACK's LU factors of I - (dt/2) L, the left side of a CN step
    *lu, info = dgttrf(-0.5 * dt * gen.lower[1:], 1.0 - 0.5 * dt * gen.diag,
                       -0.5 * dt * gen.upper[:-1])
    if info != 0:
        raise NumericalError(f"I - (dt/2) L is singular at dt={dt}")
    return lu


def grid_apply(gen: TridiagonalGenerator, f: GridFunction, t, dt: float):
    """Crank-Nicolson evolution of u_t = Lu from f to each time of t, in
    one march; columns of f's values march together.

    Returns a GridFunction for one time and a tuple of them, in t's order,
    for a sequence.  Each time keeps the step plan of a march straight to
    it, taking its partial step on a copy, so its result is bitwise that of
    a march to it alone.  I - (dt/2) L is factored once per step size.
    """
    if f.m != gen.m or f.lo != gen.lo or f.hi != gen.hi:
        raise ParameterError("grid function does not match the generator's grid")
    ts = _times(t)
    if not 0.0 < dt < math.inf:
        raise ParameterError(f"need a finite dt > 0, got dt={dt}")
    plans = [_step_plan(float(s), dt) for s in ts]
    factors = {}

    def step(u, h):
        if h not in factors:
            factors[h] = _cn_factors(gen, h)
        return dgttrs(*factors[h], u + 0.5 * h * gen.apply(u))[0]

    u = f.values.copy()
    out = [None] * len(ts)
    done = 0
    for j in sorted(range(len(ts)), key=plans.__getitem__):
        n_full, rem = plans[j]
        for _ in range(done, n_full):
            u = step(u, dt)
        done = n_full
        v = step(u, rem) if rem > 0.0 else u
        if not np.all(np.isfinite(v)):
            raise NumericalError("time stepping produced non-finite values")
        out[j] = GridFunction(f.lo, f.hi, v)
    return tuple(out) if np.ndim(t) else out[0]


def _over_times(t, still, evolve):
    """An engine's results at each time of t, in t's order, with a leading
    time axis for a sequence: still() gives the results at t = 0, and
    evolve(times) one row of results per positive time, from one
    evolution."""
    ts = _times(t)
    moving = ts > 0.0
    ran = iter(evolve(ts[moving]) if moving.any() else ())
    rows = [next(ran) if m else still() for m in moving]
    return tuple(np.stack(col).reshape(np.shape(t) + np.shape(col[0]))
                 for col in zip(*rows))


def _at_points(func, xs):
    # the t = 0 rule of the grid and Monte Carlo engines' apply
    vals = func(xs)
    return vals, np.zeros(np.shape(vals))


@dataclass(frozen=True)
class GridEngine:
    potential: Potential
    lo: float = -12.0
    hi: float = 12.0
    m: int = 4001
    dt: float = 1e-3
    kind = "grid"
    tolerance = 1e-3

    def __post_init__(self):
        if self.potential.n != 1:
            raise ParameterError("the grid engine is one-dimensional")

    @cached_property
    def generator(self) -> TridiagonalGenerator:
        return grid_generator(self.potential, self.lo, self.hi, self.m)

    def _evolved(self, func, ts) -> tuple:
        start = GridFunction.sample(func, self.lo, self.hi, self.m)
        return grid_apply(self.generator, start, ts, self.dt)

    def _points(self, x) -> np.ndarray:
        # np.interp would clamp a point outside the window to the end value
        xs = as_points(x, 1)
        if np.any((xs < self.lo) | (xs > self.hi)):
            raise DomainError(f"points outside the grid window "
                              f"[{self.lo:g}, {self.hi:g}]")
        return xs

    def apply(self, func, t, x):
        xs = self._points(x)

        def evolve(ts):
            for u in self._evolved(func, ts):
                cols = u.values.reshape(u.m, -1)
                # np.interp takes one column at a time
                vals = np.stack([np.interp(xs[:, 0], u.nodes, c)
                                 for c in cols.T], axis=-1)
                vals = vals.reshape(len(xs), *u.values.shape[1:])
                yield vals, np.zeros(vals.shape)

        return _over_times(t, lambda: _at_points(func, xs), evolve)

    def value_grad(self, f: TestFunction, t, x):
        _check_dimension(f, self.potential)
        xs = self._points(x)

        def evolve(ts):
            for u in self._evolved(f, ts):
                du = np.gradient(u.values, u.h)
                yield (np.interp(xs[:, 0], u.nodes, u.values),
                       np.zeros(len(xs)),
                       np.interp(xs[:, 0], u.nodes, du)[:, None])

        return _over_times(
            t, lambda: (f(xs), np.zeros(len(xs)), f.gradient(xs)), evolve)

    def describe(self) -> dict:
        return {"kind": self.kind, "potential": self.potential.label,
                "lo": self.lo, "hi": self.hi, "m": self.m, "dt": self.dt}


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonteCarloEngine:
    potential: Potential
    n_paths: int = 100_000
    dt: float = 1e-3
    seed: int = 0
    kind = "monte-carlo"
    tolerance = 0.0  # stderr carries the uncertainty

    def __post_init__(self):
        if self.n_paths < 100:
            raise ParameterError(f"need at least 100 paths, got {self.n_paths}")

    def apply(self, func, t, x):
        xs = as_points(x, self.potential.n)

        def evolve(ts):
            for x in simulate(self.potential, xs, ts, self.dt, self.n_paths,
                              self.seed, functionals={}).positions:
                # one time at a time, as (k, *cols, n_paths): each column
                # reduces along a contiguous path axis
                v = np.ascontiguousarray(np.moveaxis(func(x), 1, -1))
                yield v.mean(axis=-1), \
                    v.std(axis=-1, ddof=1) / math.sqrt(self.n_paths)

        return _over_times(t, lambda: _at_points(func, xs), evolve)

    def value_grad(self, f: TestFunction, t, x):
        _check_dimension(f, self.potential)
        xs = as_points(x, self.potential.n)
        k, n = xs.shape
        # common-random-number central differences: the shifted starts share
        # the centre's path set, so the noise largely cancels
        h = 1e-3 * (1.0 + np.abs(xs))
        e = np.eye(n)[:, None, :] * h  # (n, k, n): shift of dimension i
        starts = np.concatenate([xs[None], xs + e, xs - e]).reshape(-1, n)
        vals, errs = self.apply(f, t, starts)
        up, dn = np.moveaxis(vals[..., k:].reshape(np.shape(t) + (2, n, k)),
                             -3, 0)
        return vals[..., :k], errs[..., :k], \
            np.swapaxes((up - dn) / (2.0 * h.T), -1, -2)

    def describe(self) -> dict:
        return {"kind": self.kind, "potential": self.potential.label,
                "n_paths": self.n_paths, "dt": self.dt, "seed": self.seed}


Engine = Union[MehlerEngine, GridEngine, MonteCarloEngine]

_ENGINES = {"mehler": MehlerEngine, "grid": GridEngine,
            "monte-carlo": MonteCarloEngine}
ENGINE_KINDS = tuple(_ENGINES)


def check_engine_params(kind: str, params: dict) -> dict:
    """`params` as constructor keywords of engine `kind`, integer fields as
    int and the others as float.

    Unknown names, and values that are not finite numbers or not integral
    for an integer field, raise ParameterError.
    """
    if kind not in _ENGINES:
        raise ParameterError(f"unknown engine kind {kind!r}")
    defaults = {f.name: f.default for f in fields(_ENGINES[kind])
                if f.name != "potential"}
    out = {}
    for key, value in params.items():
        if key not in defaults:
            raise ParameterError(f"unknown {kind} engine parameter {key!r}; "
                                 f"choose from {', '.join(defaults)}")
        cast = int if isinstance(defaults[key], int) else float
        try:
            number = float(value)
        except (TypeError, ValueError):
            number = math.nan
        if not math.isfinite(number) or cast(number) != number:
            raise ParameterError(f"engine parameter {key!r} must be a finite "
                                 f"{cast.__name__}, got {value!r}")
        out[key] = cast(number)
    return out


def make_engine(kind: str, potential: Potential, **params) -> Engine:
    params = check_engine_params(kind, params)
    return _ENGINES[kind](potential, **params)
