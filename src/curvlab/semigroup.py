"""Semigroup evaluation P_t f and the carre-du-champ calculus.

Three interchangeable engines share one three-method contract: exact
Gauss-Hermite quadrature of the Mehler integral (gaussian potential only),
Richardson-extrapolated implicit-midpoint (Crank-Nicolson) steps of u_t = Lu
on a 1-D grid with reflecting ends (`grid_apply` marches arrays of node
values, reducing each time's as it is reached if asked; the engine builds
and checks its grid once, when it is built), and Euler-Maruyama Monte Carlo
(`sde.multilevel_mean`, one checkpoint at a time).  The two deterministic
engines add a fourth method, for semigroups nested inside a sampled
function.  Each engine loads its backend when it is built, not in its
first check: the Mehler engine its Gauss-Hermite rule (numpy.polynomial),
the grid engine LAPACK (scipy) and the Monte Carlo engine numpy.random.

- `apply(func, t, xs) -> (values, stderr)` evaluates P_t of a plain
  function of position, vectorized over leading axes: (..., n) ->
  (..., *cols).  Trailing columns pass through, so one evolution serves
  them all, and each column is bitwise what a call with that column alone
  returns.
- `value_grad(f, t, xs, rhs=None) -> (values, stderr, grads)` evaluates
  P_t f and grad P_t f of a `TestFunction` from one evolution of f.  With
  `rhs`, one function per time of t, each mapping (..., n) to (..., c), it
  also returns P_t rhs_j(xs) at each time and its stderr, of shape (k, c):
  the two sides of a local check in one call.  The Monte Carlo engine
  reads them off the path set of f and the Mehler engine off its
  quadrature of f, each bitwise what `apply(rhs_j, t_j, xs)` returns.  The
  grid engine evolves a right side by its linear form (`RightSide`): it
  marches each distinct basis once, to every positive time that uses it,
  and combines the bases' values at the points, so each right side is
  bitwise its combine of separate `apply(basis, t_j, xs)` calls.  A plain
  function is its own basis, bitwise `apply(rhs_j, t_j, xs)`.  At t = 0,
  and on the other engines, a `RightSide` is only its function.  On every
  engine a right side or stderr that is not finite raises NumericalError.
- `apply_each(funcs, t, xs) -> (values, stderr)` is P_{t_j} funcs[j], one
  function per time of t, by one `apply` per time, except on the grid: its
  march is self-adjoint in pi = D^2, so one march of the points' weights
  serves every function, equal to `apply` up to rounding (`GridEngine`).
- `evolved(f, t) -> tuple of callables` (Mehler and grid engines only)
  gives one callable per time s of t, in t's order, mapping points z to
  (P_s f(z), grad P_s f(z)), each bitwise the values and grads of
  `value_grad(f, s, z)`.  The grid engine takes every time from one march
  of f; the Mehler engine defers each call to `value_grad`, because its
  nodes depend on z.

The first three read points through `as_points`, so xs is anything it
accepts, and all three return arrays: values and stderr of shape
(k, *cols), which is (k,) for a function without columns, and grads of
shape (k, n).  stderr is exactly 0 for the deterministic engines.

t is one time or a sequence of times in any order, repeats allowed.  A sequence
adds a leading time axis, in the given order, and every time comes from one
evolution; each time's slice is bitwise what a call with that time alone
returns, on the Monte Carlo engine (and so a right side's `apply`) if that time
alone takes the Euler levels of them all.  The grid and Monte Carlo evolutions
hand each time over as soon as they reach it, and the engines reduce it to
values at the points before the next time is computed, so one time's node
values or paths are live at once; only `evolved`'s readers keep one node column
per time.  P_0 is the identity: at t = 0 every engine evaluates at the points,
with zero stderr, and it evolves only the positive times.

Gamma(f, g) = grad f . grad g and
Gamma2(f) = ||Hess f||_HS^2 + grad f . Hess V grad f.  The gradient of
Gamma(f) is 2 Hess f grad f, so Gamma(Gamma(f)) needs no third derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, NumericalError, ParameterError
from .potentials import Potential, as_points
from .sde import (BLOCK_SIZE, _check_dt, _check_paths, _check_seed, _step_plan,
                  _times, multilevel_mean)

__all__ = [
    "TestFunction",
    "RightSide",
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
    return gamma2(f, potential, x) - potential.curvature(x) * gam \
        - gamma_gamma(f, x) / (4.0 * gam)


@dataclass(frozen=True)
class RightSide:
    """A right side of `value_grad` that carries its linear form.

    Called, it is `func`.  `combine` maps the values of `bases`, functions
    of position with trailing columns, at some points to those of func
    there, linearly and with constant coefficients, up to rounding.  P_t is
    linear, so P_t func = combine(P_t of each basis): a basis that several
    right sides share, one that does not depend on their times, evolves
    once for all of them.
    """

    func: Callable
    bases: tuple
    combine: Callable

    def __call__(self, z):
        return self.func(z)


# ---------------------------------------------------------------------------
# what the engines share: P_0 is the identity
# ---------------------------------------------------------------------------

def _stacked(t, rows) -> tuple:
    """rows, one tuple of arrays per time of t, as arrays with a leading
    time axis for a sequence."""
    return tuple(np.stack(col).reshape(np.shape(t) + np.shape(col[0]))
                 for col in zip(*rows))


def _over_times(t, still, evolve) -> list:
    """One row of results per time of t, in t's order: still(j) at time j
    of t when it is 0, and evolve(times) one row per positive time, from one
    evolution."""
    ts = _times(t)
    moving = ts > 0.0
    ran = iter(evolve(ts[moving]) if moving.any() else ())
    return [next(ran) if m else still(j) for j, m in enumerate(moving)]


def _at_points(func, xs):
    vals = func(xs)
    return vals, np.zeros(np.shape(vals))


def _each(funcs, t) -> list:
    """(funcs[j], t_j) for each time t_j of t: one function per time."""
    ts = _times(t)
    if len(funcs) != len(ts):
        raise ParameterError(f"need one function per time, got "
                             f"{len(funcs)} for t={t}")
    return list(zip(funcs, ts))


class _Engine:
    """The t = 0 rule of every engine, and its describe()."""

    def _points(self, x) -> np.ndarray:
        return as_points(x, self.potential.n)

    def _apply(self, func, t, x, evolve):
        # evolve(xs, ts) gives (values, stderr) per time of ts, in order
        xs = self._points(x)
        return _stacked(t, _over_times(t, lambda j: _at_points(func, xs),
                                       lambda ts: evolve(xs, ts)))

    def apply_each(self, funcs, t, x):
        # one apply per time
        return _stacked(t, [self.apply(g, s, x) for g, s in _each(funcs, t)])

    def _value_grad(self, f: TestFunction, t, x, rhs, evolve):
        # evolve(xs, ts, later) yields value_grad's row per time of ts,
        # later holding the right sides of those times, empty without rhs
        _check_dimension(f, self.potential)
        ts = _times(t)
        xs = self._points(x)
        later = [] if rhs is None else [g for g, s in _each(rhs, t)
                                        if s > 0.0]

        def still(j):
            row = f(xs), np.zeros(len(xs)), f.gradient(xs)
            return row if rhs is None else row + _at_points(rhs[j], xs)

        rows = _over_times(t, still, lambda ts: evolve(xs, ts, later))
        for s, row in zip(ts, rows):
            # an overflowing right side would pass any check with margin inf
            if not all(np.all(np.isfinite(a)) for a in row[3:]):
                raise NumericalError(f"the right side at t={s:g} is "
                                     f"non-finite")
        return _stacked(t, rows)

    def _readers(self, f: TestFunction, t, evolve) -> tuple:
        # evolve(ts) yields a reader per time of ts
        _check_dimension(f, self.potential)

        def still(x):
            xs = self._points(x)
            return f(xs), f.gradient(xs)

        return tuple(_over_times(t, lambda j: still, evolve))

    def describe(self) -> dict:
        return {"kind": self.kind, "potential": self.potential.label,
                **{f.name: getattr(self, f.name) for f in fields(self)[1:]}}


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


def mehler_apply(f, t, x, order: int = 64, *, n: int):
    """P_t f(x) for the gaussian potential in R^n by Gauss-Hermite
    quadrature.

    x holds the points, read by `as_points` in dimension n.  f maps
    (..., n) to (..., *cols); the result has shape ([T,] k, *cols), with a
    time axis when t is a sequence of T times.  f sees the nodes of all
    times as one (T, k, G, n) array, T = 1 for one time.  Exact (up to
    rounding) for polynomials of per-coordinate degree < 2 order - 1.
    """
    if order < 2:
        raise ParameterError(f"quadrature order must be >= 2, got {order}")
    decay = _decay(t).reshape(-1, 1, 1, 1)
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
class MehlerEngine(_Engine):
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
        _gh_nodes(self.order, self.potential.n)  # here, not in the first check

    def apply(self, func, t, x):
        def evolve(xs, ts):
            for v in mehler_apply(func, ts, xs, self.order,
                                  n=self.potential.n):
                yield v, np.zeros(v.shape)

        return self._apply(func, t, x, evolve)

    def evolved(self, f: TestFunction, t) -> tuple:
        def at(s):
            def read(x):
                u, _, grad = self.value_grad(f, s, x)
                return u, grad
            return read

        return self._readers(f, t, lambda ts: map(at, ts))

    def value_grad(self, f: TestFunction, t, x, rhs=None):
        def evolve(xs, ts, later):
            def columns(z):
                cols = [f.value(z)[..., None], f.gradient(z)]
                if later:
                    # z[j] holds the nodes that later[j] integrates
                    cols.append(np.concatenate([g(z[j:j + 1])
                                                for j, g in enumerate(later)]))
                return np.concatenate(cols, axis=-1)

            n = f.n
            out = mehler_apply(columns, ts, xs, self.order, n=n)
            # exact commutation: grad P_t f = e^-t P_t grad f
            grads = _decay(ts)[:, None, None] * out[..., 1:n + 1]
            for v, grad in zip(out, grads):
                row = v[:, 0], np.zeros(len(xs)), grad
                yield row + (v[:, n + 1:], np.zeros(v[:, n + 1:].shape)) \
                    if later else row

        return self._value_grad(f, t, x, rhs, evolve)


# ---------------------------------------------------------------------------
# 1-D grid engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TridiagonalGenerator:
    """Second-order discretization of L = d^2/dx^2 - V' d/dx, zero-flux ends,
    on the m equally spaced nodes of a window, h apart.

    L is held in its symmetric form S = D L D^-1.  The discrete L is a
    birth-death generator, so it satisfies detailed balance with its
    invariant measure pi, and D = sqrt(pi), scaled so that max ln D and
    min ln D are opposite, makes S symmetric: its diagonal is L's, and its
    off-diagonal entry between nodes i and i+1 is sqrt(upper_i lower_{i+1}),
    the geometric mean of L's coupling of node i to i+1 and of i+1 to i.
    """

    nodes: np.ndarray
    h: float
    diag: np.ndarray
    off: np.ndarray    # (m - 1,) off-diagonal of S
    scale: np.ndarray  # D, the sqrt(pi) weights of the nodes

    def apply(self, values: np.ndarray) -> np.ndarray:
        """L = D^-1 S D applied to node values (m,) or to columns of them."""
        v = np.asarray(values, dtype=float)
        diag, off, scale = (a.reshape((-1,) + (1,) * (v.ndim - 1))
                            for a in (self.diag, self.off, self.scale))
        y = scale * v
        out = diag * y
        out[1:] += off * y[:-1]
        out[:-1] += off * y[1:]
        return out / scale


# the widest log-span max ln D - min ln D of the sqrt(pi) weights.  D itself
# leaves the normal float range at a span of 2 ln(DBL_MAX) = 1419: marches
# on gaussian windows agree with a float80 march to rounding up to a span of
# 1401 and give NaN from 1421.  At half that, D stays within e^+-350, so D u
# stays normal for node values of magnitude 1e-155 to 1e155
_SPAN_MAX = 700.0


def grid_generator(potential: Potential, lo: float, hi: float, m: int) -> TridiagonalGenerator:
    import scipy.linalg.lapack  # noqa: F401  (here, not in the first march)
    if potential.n != 1:
        raise ParameterError("the grid engine is one-dimensional")
    if m < 3:
        raise ParameterError(f"grid needs at least 3 nodes, got {m}")
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise ParameterError(f"need a finite window lo < hi, got [{lo}, {hi}]")
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
    # L's coupling of node i to i+1 and of node i+1 to i; mirror ghost
    # nodes, u_{-1} = u_1, kill the drift term at the ends
    upper = 1.0 / h**2 - vp[:-1] / (2.0 * h)
    lower = 1.0 / h**2 + vp[1:] / (2.0 * h)
    upper[0] = lower[-1] = 2.0 / h**2
    ratio = np.sqrt(upper / lower)  # D_{i+1} / D_i
    log_d = np.concatenate(([0.0], np.cumsum(np.log(ratio))))
    span = float(np.max(log_d) - np.min(log_d))
    if not span <= _SPAN_MAX:
        raise ParameterError(f"the grid's sqrt(pi) weights span e^{span:.0f} "
                             f"on [{lo}, {hi}] with m={m}, beyond "
                             f"e^{_SPAN_MAX:.0f}; take a narrower window")
    # a running product keeps each ratio of neighbours exact to rounding
    start = math.exp(-0.5 * (np.max(log_d) + np.min(log_d)))
    scale = np.cumprod(np.concatenate(([start], ratio)))
    return TridiagonalGenerator(nodes, h, np.full(m, -2.0 / h**2),
                                np.sqrt(upper * lower), scale)


def _march(gen: TridiagonalGenerator, u: np.ndarray, ts, dt: float):
    """Yield (j, node values) of one Crank-Nicolson march of u_t = Lu from
    the node values u, an (m, ...) array, at each time j of ts, in march
    order: by step plan, which is time order.

    Each time keeps the step plan of a march straight to it, taking its
    partial step on a copy, so its values are bitwise those of a march to
    it alone; a time that takes no step yields u itself.  The march runs on
    y = D u, divided by D at each time it yields.  A step is CN's implicit
    midpoint form, 2 z - y for z = (I - (dt/2) S)^-1 y: one solve with the
    symmetric positive definite I - (dt/2) S, factored once per step size by
    LAPACK's LDL^T (dpttrf).
    """
    from scipy.linalg.lapack import dpttrf, dpttrs  # loaded by grid_generator
    plans = [_step_plan(float(s), dt) for s in ts]
    factors = {}

    def step(y, h):
        if h not in factors:
            *ldl, info = dpttrf(1.0 - 0.5 * h * gen.diag, -0.5 * h * gen.off)
            if info != 0:
                raise NumericalError(f"I - (dt/2) L, in symmetric form, is "
                                     f"not positive definite at dt={h}")
            factors[h] = ldl
        z = dpttrs(*factors[h], y)[0]  # a new array: y is left as it was
        z *= 2.0
        z -= y
        return z

    scale = gen.scale.reshape((-1,) + (1,) * (u.ndim - 1))
    y = scale * u
    done = 0
    for j in sorted(range(len(ts)), key=plans.__getitem__):
        n_full, rem = plans[j]
        if (n_full, rem) == (0, 0.0):
            yield j, u
            continue
        for _ in range(done, n_full):
            y = step(y, dt)
        done = n_full
        yield j, (step(y, rem) if rem > 0.0 else y) / scale


def grid_apply(gen: TridiagonalGenerator, values, t, dt: float,
               reduce=None):
    """Richardson-extrapolated Crank-Nicolson evolution of u_t = Lu from the
    node values, an (m, ...) array on gen's nodes, to each time of t;
    trailing columns march together.

    Returns the node values as an array for one time and a tuple of them,
    in t's order, for a sequence.  Two marches (`_march`) reach every time,
    at steps dt and 2 dt, advancing together, and each time's values are
    u_dt + (u_dt - u_2dt)/3, formed and checked to be finite as soon as
    both marches reach it.  CN's global error expands in even powers of the
    step, so this is fourth order in time.  dt is the finer step, one that
    is taken: a time t <= dt, where both marches would take the same one
    step, returns the fine march's values, and a time that takes no step
    the values untouched.  Each time's result is bitwise that of a call
    with it alone.

    With reduce, each time j's node values v are replaced by reduce(j, v)
    as soon as they are formed, j indexing the times of t, so only the
    reductions are kept: one time's node values are live at once.
    """
    u = np.array(values, dtype=float)
    if np.shape(u)[:1] != gen.nodes.shape:
        raise ParameterError(f"node values of shape {np.shape(values)} on a "
                             f"grid of {len(gen.nodes)} nodes")
    if not np.all(np.isfinite(u)):
        raise ParameterError("grid values must be finite")
    ts = _times(t)
    _check_dt(dt)
    slow = np.flatnonzero(ts > dt)
    coarse = _march(gen, u, ts[slow], 2.0 * dt)
    ahead = {}  # the coarse march's values of times the fine one has not met
    out = [None] * len(ts)
    for j, v in _march(gen, u, ts, dt):
        if ts[j] > dt:
            while j not in ahead:
                i, w = next(coarse)
                ahead[int(slow[i])] = w
            v = v + (v - ahead.pop(j)) / 3.0
        if not np.all(np.isfinite(v)):
            raise NumericalError("time stepping produced non-finite values")
        out[j] = v if reduce is None else reduce(j, v)
    return tuple(out) if np.ndim(t) else out[0]


@dataclass(frozen=True)
class GridEngine(_Engine):
    potential: Potential
    lo: float = -12.0
    hi: float = 12.0
    m: int = 4001
    dt: float = 1e-2
    kind = "grid"
    tolerance = 1e-3

    def __post_init__(self):
        # every check of the grid and its time step runs here, once
        _check_dt(self.dt)
        object.__setattr__(self, "generator", grid_generator(
            self.potential, self.lo, self.hi, self.m))

    def _evolved(self, func, ts, reduce=None) -> tuple:
        # grid_apply's values, or their reductions, at each time of ts
        gen = self.generator
        return grid_apply(gen, func(gen.nodes[:, None]), ts, self.dt, reduce)

    def _points(self, x) -> np.ndarray:
        # np.interp would clamp a point outside the window to the end value
        xs = as_points(x, 1)
        if np.any((xs < self.lo) | (xs > self.hi)):
            raise DomainError(f"points outside the grid window "
                              f"[{self.lo:g}, {self.hi:g}]")
        return xs

    def apply(self, func, t, x):
        def evolve(xs, ts):
            def at_points(j, u):
                # np.interp takes one column at a time
                vals = np.stack([np.interp(xs[:, 0], self.generator.nodes, c)
                                 for c in u.reshape(len(u), -1).T], axis=-1)
                vals = vals.reshape(len(xs), *u.shape[1:])
                return vals, np.zeros(vals.shape)

            return self._evolved(func, ts, at_points)

        return self._apply(func, t, x, evolve)

    def apply_each(self, funcs, t, x):
        # P_s g at a point is w . P_s g for w its interpolation weights on
        # the nodes, that is sum_k pi_k g_k P_s(w / pi)_k
        pairs, xs, gen = _each(funcs, t), self._points(x), self.generator
        pi = np.square(gen.scale)[:, None]
        w = np.maximum(0.0, 1.0 - abs(gen.nodes[:, None] - xs[:, 0]) / gen.h)

        later = [g for g, s in pairs if s > 0.0]

        def at_points(j, v):
            # P_s g at the points from the marched weights v at time j
            u = later[j](gen.nodes[:, None])
            if not np.all(np.isfinite(u)):
                raise ParameterError("grid values must be finite")
            # one contiguous dot per (point, column): bitwise per column
            cols = (pi * u.reshape(len(pi), -1)).T.copy()
            vals = np.array([[a @ c for c in cols] for a in v.T.copy()])
            vals = vals.reshape(len(xs), *u.shape[1:])
            return vals, np.zeros(vals.shape)

        return _stacked(t, _over_times(
            t, lambda j: _at_points(pairs[j][0], xs),
            lambda ts: grid_apply(gen, w / pi, ts, self.dt, at_points)))

    def _reader(self, j, u):
        # the reader of f's node values u at time j: (P f, grad P f)
        nodes = self.generator.nodes
        du = np.gradient(u, self.generator.h)

        def at(x):
            xs = self._points(x)[:, 0]
            return (np.interp(xs, nodes, u),
                    np.interp(xs, nodes, du)[:, None])
        return at

    def evolved(self, f: TestFunction, t) -> tuple:
        # each reader keeps its time's node values
        return self._readers(f, t,
                             lambda ts: self._evolved(f, ts, self._reader))

    def value_grad(self, f: TestFunction, t, x, rhs=None):
        def evolve(xs, ts, later):
            zeros = np.zeros(len(xs))
            sides = self._evolve_right_sides(later, ts, xs)
            at_xs = self._evolved(f, ts, lambda j, u: self._reader(j, u)(xs))
            for j, (u, grad) in enumerate(at_xs):
                yield (u, zeros, grad, sides[j], np.zeros(sides[j].shape)) \
                    if later else (u, zeros, grad)

        return self._value_grad(f, t, x, rhs, evolve)

    def _evolve_right_sides(self, rhs, ts, xs) -> list:
        # P_t of each right side by its linear form, a plain function being
        # its own basis: each distinct basis marches once, to every time
        # that uses it, and each right side combines its bases' values
        forms = [(g.bases, g.combine) if isinstance(g, RightSide)
                 else ((g,), lambda vals: vals[0]) for g in rhs]
        uses = {}
        for j, (bases, _) in enumerate(forms):
            for b in bases:
                uses.setdefault(id(b), (b, []))[1].append(j)
        at = {}
        for b, js in uses.values():
            vals, _ = self.apply(b, ts[js], xs)
            at.update(((id(b), j), v) for j, v in zip(js, vals))
        # overflow stays quiet; value_grad refuses a non-finite right side
        with np.errstate(over="ignore", invalid="ignore"):
            return [combine([at[id(b), j] for b in bases])
                    for j, (bases, combine) in enumerate(forms)]


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------

def _columns_last(func, x) -> np.ndarray:
    # func at the (k, paths, n) positions x as a contiguous (k, *cols, paths)
    # array, formed BLOCK_SIZE paths at a time
    return np.concatenate([np.ascontiguousarray(np.moveaxis(
        func(x[:, b:b + BLOCK_SIZE]), 1, -1))
        for b in range(0, x.shape[1], BLOCK_SIZE)], axis=-1)


@dataclass(frozen=True)
class MonteCarloEngine(_Engine):
    potential: Potential
    n_paths: int = 100_000
    dt: float = 1e-3
    seed: int = 0
    kind = "monte-carlo"
    tolerance = 0.0  # stderr carries the uncertainty

    def __post_init__(self):
        _check_paths(self.n_paths)
        _check_dt(self.dt)
        _check_seed(self.seed)
        import numpy.random  # noqa: F401  (here, not in the first walk)

    def apply(self, func, t, x):
        return self._apply(func, t, x, lambda xs, ts: zip(*multilevel_mean(
            self.potential, xs, ts, lambda j, x, _: _columns_last(func, x),
            self.dt, self.n_paths, self.seed, {})))

    def value_grad(self, f: TestFunction, t, x, rhs=None):
        def evolve(xs, ts, later):
            k, n = xs.shape
            # common-random-number central differences: the shifted starts
            # share the centre's path set, so the noise largely cancels
            h = 1e-3 * (1.0 + np.abs(xs))
            e = np.eye(n)[:, None, :] * h  # (n, k, n): shift of dimension i
            starts = np.concatenate([xs[None], xs + e, xs - e]).reshape(-1, n)

            def payoff(j, x, _):
                yield f(x)
                if later:
                    # the first k starts are the points: a right side's
                    # paths are bitwise those of a run from the points
                    yield _columns_last(later[j], x[:k])

            means, errs = multilevel_mean(self.potential, starts, ts, payoff,
                                          self.dt, self.n_paths, self.seed, {})
            for j, (vals, err) in enumerate(zip(means[0], errs[0])):
                up, dn = vals[k:].reshape(2, n, k)
                row = vals[:k], err[:k], ((up - dn) / (2.0 * h.T)).T
                yield row + (means[1][j], errs[1][j]) if later else row

        return self._value_grad(f, t, x, rhs, evolve)


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


def make_engine(kind: str, potential: Potential, **params) -> _Engine:
    params = check_engine_params(kind, params)
    return _ENGINES[kind](potential, **params)
