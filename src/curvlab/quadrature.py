"""Adaptive G10K21 quadrature on whole arrays: the one rule behind both the
integrated checks of `verify` and the anchors of F in `mfunctions`."""

import numpy as np

from .errors import QuadratureError

__all__ = ["adaptive"]

# G10K21, the rule of QUADPACK's qk21 (Piessens et al. 1983): the positive
# Kronrod nodes on [-1, 1] in decreasing order, the centre last; every
# second one (0.9739..., 0.8650..., ...) is also a 10-point Gauss node
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
# all 21 nodes, and both weight vectors on them (Gauss weights 0 off its nodes)
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_K21 = np.concatenate([_WGK[:-1], _WGK[::-1]])
_G10 = np.zeros(21)
_G10[1::2] = np.concatenate([_WG, _WG[::-1]])


def _gk21(g, a: np.ndarray, b: np.ndarray) -> tuple:
    """G10K21 on each [a_i, b_i]: integrals, qk21 error estimates, and
    where an estimate saturates at resasc (the rule cannot tell K from G).

    g takes points of shape (N, 1) and sees the nodes of every interval in
    one call; a value that is not finite raises QuadratureError.
    """
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    x = (c[:, None] + h[:, None] * _NODES).reshape(-1, 1)
    fx = np.asarray(g(x), dtype=float).reshape(len(a), len(_NODES))
    finite = np.isfinite(fx)
    if not np.all(finite):
        bad = x.reshape(fx.shape)[~finite].flat[0]
        raise QuadratureError(f"integrand is not finite at x = {bad:.17g}")
    resk = fx @ _K21
    err = np.abs((resk - fx @ _G10) * h)
    resabs = np.abs(fx) @ _K21 * h
    resasc = np.abs(fx - 0.5 * resk[:, None]) @ _K21 * h
    scale = (resasc != 0.0) & (err != 0.0)
    ratio = 200.0 * err[scale] / resasc[scale]
    err[scale] = resasc[scale] * np.minimum(1.0, ratio ** 1.5)
    err = np.maximum(err, 50.0 * np.finfo(float).eps * resabs)
    return resk * h, err, (err == resasc) & (resasc > 0.0)


def _halves(g, a, b, val, err, split) -> tuple:
    """Bisect the pieces `split`; every other piece keeps its values."""
    keep = np.ones(len(a), dtype=bool)
    keep[split] = False
    mid = 0.5 * (a[split] + b[split])
    lo = np.concatenate([a[split], mid])
    hi = np.concatenate([mid, b[split]])
    v, e, _ = _gk21(g, lo, hi)
    return (np.concatenate([a[keep], lo]), np.concatenate([b[keep], hi]),
            np.concatenate([val[keep], v]), np.concatenate([err[keep], e]))


def adaptive(g, edges, epsabs: float, epsrel: float, limit: int) -> float:
    """Adaptive G10K21 quadrature of g over [edges[0], edges[-1]].

    The inner edges are initial breakpoints.  Each round bisects the
    subintervals with the largest error estimates, as many as it takes to
    bring the rest within half the tolerance, and evaluates all their
    halves in one call of g.  It stops, as QUADPACK's qags does, when the
    summed estimate is at most max(epsabs, epsrel |integral|), and raises
    QuadratureError when that needs more than `limit` subintervals.
    """
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    val, err, blind = _gk21(g, a, b)
    if np.any(blind):
        # as in qags: a saturated first estimate may come from nodes that
        # all missed where g lives (a narrow well far from the centre), so
        # such a piece is bisected before its estimate can end the loop
        a, b, val, err = _halves(g, a, b, val, err, np.flatnonzero(blind))
    while True:
        total, est = float(np.sum(val)), float(np.sum(err))
        tol = max(epsabs, epsrel * abs(total))
        if est <= tol:
            return total
        room = limit - len(a)
        if room <= 0:
            raise QuadratureError(
                f"quadrature on [{edges[0]:g}, {edges[-1]:g}] needs more "
                f"than {limit} subintervals: error estimate {est:.3g} "
                f"against the tolerance {tol:.3g}")
        order = np.argsort(-err, kind="stable")
        rest = est - np.cumsum(err[order])
        n = min(np.count_nonzero(rest > 0.5 * tol) + 1, room)
        a, b, val, err = _halves(g, a, b, val, err, order[:n])
