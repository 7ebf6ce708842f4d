"""Semigroup evaluation P_t f and the carre-du-champ calculus.

Three interchangeable engines share one three-method contract: exact
Gauss-Hermite quadrature of the Mehler integral (gaussian potential only),
sinc collocation of L's symmetric form on a 1-D grid, factored once by
numpy's eigh so that every time is exact in time (`GridEngine`), and
Euler-Maruyama Monte Carlo (`sde.multilevel_mean`, one checkpoint at a
time).  The two deterministic engines add a fourth method, for semigroups
nested inside a sampled function.  Each engine does its set-up when it is
built, not in its first check: the Mehler engine loads its Gauss-Hermite
rule (numpy.polynomial), the grid engine factors its operator and the Monte
Carlo engine loads numpy.random.  No engine loads scipy.

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
  evolves each distinct basis once, to every positive time that uses it,
  and combines the bases' values at the points, so each right side is
  bitwise its combine of separate `apply(basis, t_j, xs)` calls.  A plain
  function is its own basis, bitwise `apply(rhs_j, t_j, xs)`.  At t = 0,
  and on the other engines, a `RightSide` is only its function.  On every
  engine a right side or stderr that is not finite raises NumericalError.
- `apply_each(funcs, t, xs) -> (values, stderr)` is P_{t_j} funcs[j], one
  function per time of t, by one `apply` per time.
- `evolved(f, t) -> tuple of callables` (Mehler and grid engines only)
  gives one callable per time s of t, in t's order, mapping points z to
  (P_s f(z), grad P_s f(z)), each bitwise the values and grads of
  `value_grad(f, s, z)`.  The grid engine takes every time from one
  evolution of f, and its callables also take the nodes where an outer
  evolution samples them, beyond the points that `value_grad` takes
  (`GridEngine._reach`); the Mehler engine defers each call to
  `value_grad`, because its nodes depend on z.

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
from .sde import (BLOCK_SIZE, _check_dt, _check_paths, _check_seed, _times,
                  multilevel_mean)

__all__ = [
    "TestFunction",
    "RightSide",
    "MehlerEngine",
    "GridEngine",
    "MonteCarloEngine",
    "make_engine",
    "check_engine_params",
    "mehler_apply",
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

    def _reach(self, x) -> np.ndarray:
        # the points an `evolved` reader takes: those of the other methods
        return self._points(x)

    def _readers(self, f: TestFunction, t, evolve) -> tuple:
        # evolve(ts) yields a reader per time of ts
        _check_dimension(f, self.potential)

        def still(x):
            xs = self._reach(x)
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

# the node spacing.  Against half of it, at the default points and times,
# values and gradients agree to 2e-10 of max(1, |value|, |gradient|) on the
# double well and to 1e-12 on the gaussian and spherical:alpha=1.5
_SPACING = 0.1
# the nodes run from the first to the last multiple of the spacing where
# e^{-(V - min V)/2} >= _EDGE: collocation takes u, P_t f times it, to
# vanish beyond.  Rounding in the eigenbasis reaches a value amplified by
# e^{(V - min V)/2}, so a function is sampled only from the first to the
# last node where it is >= _SAMPLE (u starts at 0 beyond), and points are
# read only between those where it is >= _READ, the readout bound: there
# values and gradients are within 3e-6 of max(1, |value|) of a grid at half
# the spacing, and within 3e-11 where e^{(V - min V)/2} <= 1e3 (five suite
# functions, four potentials, four times).
# An outer evolution's sampled function reads an inner one's values out to
# _SAMPLE, where they are within 7e-3 (up to 2e1 below 1e-14, out of an
# M-function's domain); a grid monotone check near the gaussian's readout
# bound errs by 1e-1-1e1 if u starts at 0 beyond _READ, 7e-4 beyond 1e-10,
# and 2e-7 beyond _SAMPLE, as when sampled at every node
_EDGE = 1e-16
_SAMPLE = 1e-12
_READ = 1e-8


def _node_index(potential: Potential) -> np.ndarray:
    """The integers k of the nodes k h, h the spacing: from the first to the
    last where e^{-(V - min V)/2} >= _EDGE, min V taken over the scan."""
    for reach in 2 ** np.arange(7, 21):
        k = np.arange(-reach, reach + 1)
        v = potential.value((k * _SPACING)[:, None])
        inside = np.flatnonzero(v - np.min(v) <= -2.0 * math.log(_EDGE))
        if len(inside) and inside[0] > 0 and inside[-1] < 2 * reach:
            return k[inside[0]:inside[-1] + 1]
    raise ParameterError(f"{potential.label} does not confine: e^(-V/2) "
                         f"stays above {_EDGE:g} of its peak out to "
                         f"|x| = {reach * _SPACING:g}")


def _operator(potential: Potential, index: np.ndarray) -> np.ndarray:
    """H = D2 - diag(W) at the nodes index * h: sinc collocation of
    u'' - W u, W = V'^2/4 - V''/2."""
    z = (index * _SPACING)[:, None]
    vp = potential.gradient(z)[:, 0]
    d = index[:, None] - index
    with np.errstate(divide="ignore"):
        h = np.where(d % 2, 2.0, -2.0) / (_SPACING**2 * d * d)
    np.fill_diagonal(h, -math.pi**2 / (3.0 * _SPACING**2)
                     - (0.25 * vp * vp - 0.5 * potential.hessian(z)[:, 0, 0]))
    return h


def _sinc_slope(y) -> np.ndarray:
    """d/dy sin(pi y)/(pi y); by its Taylor series near 0, where the closed
    form cancels."""
    near = np.abs(y) < 1e-2
    z = np.where(near, 1.0, y)
    p = math.pi**2 * np.square(y)
    series = -math.pi**2 * y / 3.0 * (1.0 - p / 10.0 + p * p / 280.0)
    return np.where(near, series, (np.cos(math.pi * z) - np.sinc(z)) / z)


@dataclass(frozen=True)
class GridEngine(_Engine):
    """P_t of a 1-D potential in the eigenbasis of sinc collocation.

    P_t f = e^{V/2} u, where u solves u_t = u'' - W u, W = V'^2/4 - V''/2:
    L in its symmetric form.  On nodes h = _SPACING apart, sinc collocation
    makes d^2/dx^2 the symmetric D2, -pi^2/(3 h^2) on the diagonal and
    -2 (-1)^(j-k) / (h^2 (j-k)^2) off it (Stenger 1993; Weideman and Reddy
    2000).  numpy's eigh factors H = D2 - diag(W) = Q diag(lam) Q^T once,
    when the engine is built, so u at the nodes is Q e^{lam t} Q^T u_0 at any
    t, with no time step.  f's mean under e^{-V}, which P_t keeps, is
    carried apart, and only the rest evolves.  Values and gradients at
    points come from the sinc interpolant of u and its derivative.

    The node window is set by V alone (`_EDGE`, `_SAMPLE`).  lo and hi bound
    the points: a point outside [lo, hi], or beyond the readout bound
    (`_READ`), raises DomainError.  m and dt are checked but set nothing;
    they stay while configurations pin them.
    """

    potential: Potential
    lo: float = -12.0
    hi: float = 12.0
    m: int = 4001
    dt: float = 1e-2
    kind = "grid"
    tolerance = 1e-3

    def __post_init__(self):
        # every check of the parameters, and the one factorization, here
        _check_dt(self.dt)
        if self.potential.n != 1:
            raise ParameterError("the grid engine is one-dimensional")
        if self.m < 3:
            raise ParameterError(f"grid needs at least 3 nodes, got {self.m}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)
                and self.hi > self.lo):
            raise ParameterError(f"need a finite window lo < hi, got "
                                 f"[{self.lo}, {self.hi}]")
        index = _node_index(self.potential)
        z = (index * _SPACING)[:, None]
        lam, q = np.linalg.eigh(_operator(self.potential, index))
        v = self.potential.value(z)
        weight = np.exp(-0.5 * (v - np.min(v)))
        sampled, read = (np.flatnonzero(weight >= least)
                         for least in (_SAMPLE, _READ))
        sampled = slice(sampled[0], sampled[-1] + 1)
        for name, value in (("index", index), ("nodes", z[:, 0]), ("lam", lam),
                            ("q", q), ("floor", np.min(v)), ("weight", weight),
                            ("sampled", sampled),
                            ("density", weight[sampled]**2
                             / np.sum(weight[sampled]**2)),
                            ("bound", (z[read[0], 0], z[read[-1], 0]))):
            object.__setattr__(self, name, value)

    def describe(self) -> dict:
        return {**super().describe(), "nodes": len(self.nodes),
                "spacing": _SPACING,
                "window": [round(float(self.nodes[0]), 12),
                           round(float(self.nodes[-1]), 12)]}

    def _envelope(self, xs) -> np.ndarray:
        # e^{-(V - min V)/2} at the (k, 1) points xs
        return np.exp(-0.5 * (self.potential.value(xs) - self.floor))

    def _points(self, x) -> np.ndarray:
        xs = as_points(x, 1)
        if np.any((xs < max(self.lo, self.bound[0]))
                  | (xs > min(self.hi, self.bound[1]))):
            raise DomainError(f"points outside the grid window [{self.lo:g}, "
                              f"{self.hi:g}] or its readout bound "
                              f"[{self.bound[0]:g}, {self.bound[1]:g}], the "
                              f"outermost nodes where e^(-(V - min V)/2) >= "
                              f"{_READ:g}")
        return xs

    def _evolved(self, func, ts, reduce) -> list:
        # reduce(cols, shape) at each time of ts: cols holds, per trailing
        # column of func, shape, its invariant mean, which P_t keeps, and u
        # of the rest at the nodes.  The mean is carried exactly, so that
        # P_t 1 = 1 takes no rounding from the eigenbasis, which a point
        # read amplifies by e^{(V - min V)/2}.  Each column evolves from
        # its own arrays, so it is bitwise a call with it alone
        nodes = self.nodes[self.sampled]
        values = np.asarray(func(nodes[:, None]), dtype=float)
        if values.shape[:1] != nodes.shape:
            raise ParameterError(f"node values of shape {values.shape} on a "
                                 f"grid of {len(nodes)} sampled nodes")
        if not np.all(np.isfinite(values)):
            raise ParameterError("grid values must be finite")
        flat = values.reshape(len(nodes), -1)
        cols = [np.ascontiguousarray(flat[:, c]) for c in range(flat.shape[1])]
        means = [self.density @ c for c in cols]
        pad = (self.sampled.start, len(self.nodes) - self.sampled.stop)
        coeffs = [self.q.T @ np.pad(self.weight[self.sampled] * (c - mean), pad)
                  for c, mean in zip(cols, means)]
        return [reduce([(mean, self.q @ (np.exp(self.lam * t) * a))
                        for mean, a in zip(means, coeffs)], values.shape[1:])
                for t in ts]

    def _values(self, cols, xs) -> np.ndarray:
        # P_t at the (k, 1) points xs from cols' (mean, u) pairs, (k,
        # columns).  Each point sums its own row, so its value does not
        # depend on the other points: BLAS may round a row of a taller
        # matrix differently
        y = np.sinc(xs / _SPACING - self.index)
        envelope = self._envelope(xs)
        return np.stack([mean + np.sum(y * u, axis=-1) / envelope
                         for mean, u in cols], axis=-1)

    def apply(self, func, t, x):
        def evolve(xs, ts):
            def at_points(cols, shape):
                vals = self._values(cols, xs).reshape(len(xs), *shape)
                return vals, np.zeros(vals.shape)

            return self._evolved(func, ts, at_points)

        return self._apply(func, t, x, evolve)

    def _reach(self, x) -> np.ndarray:
        # a reader takes every point between the first and the last sampled
        # node, beyond [lo, hi] and the readout bound too, as an outer
        # evolution samples it at each of those nodes
        xs = as_points(x, 1)
        lo, hi = self.nodes[self.sampled][[0, -1]]
        if np.any((xs < lo) | (xs > hi)):
            raise DomainError(f"points outside the grid's sampled nodes "
                              f"[{lo:g}, {hi:g}]")
        return xs

    def _reader(self, cols, shape):
        # the reader of f's column: (P f, grad P f) at points, from
        # v = e^{V/2} u and v' = e^{V/2} (u' + V' u / 2), P f = mean + v
        [(mean, u)] = cols

        def at(x):
            xs = self._reach(x)
            rest = self._values([(0.0, u)], xs)[:, 0]
            slope = np.sum(_sinc_slope(xs / _SPACING - self.index) * u,
                           axis=-1) / _SPACING
            half = 0.5 * self.potential.gradient(xs)[:, 0]
            return mean + rest, \
                (slope / self._envelope(xs) + half * rest)[:, None]
        return at

    def evolved(self, f: TestFunction, t) -> tuple:
        # each reader keeps its time's node values
        return self._readers(f, t,
                             lambda ts: self._evolved(f, ts, self._reader))

    def value_grad(self, f: TestFunction, t, x, rhs=None):
        def evolve(xs, ts, later):
            zeros = np.zeros(len(xs))
            sides = self._evolve_right_sides(later, ts, xs)
            at_xs = self._evolved(
                f, ts, lambda cols, shape: self._reader(cols, shape)(xs))
            for j, (u, grad) in enumerate(at_xs):
                yield (u, zeros, grad, sides[j], np.zeros(sides[j].shape)) \
                    if later else (u, zeros, grad)

        return self._value_grad(f, t, x, rhs, evolve)

    def _evolve_right_sides(self, rhs, ts, xs) -> list:
        # P_t of each right side by its linear form, a plain function being
        # its own basis: each distinct basis evolves once, to every time
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
