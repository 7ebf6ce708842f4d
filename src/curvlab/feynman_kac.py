"""Curvature-weighted Feynman-Kac diagnostics along simulated paths.

Three checks, all returning InequalityReport with the Monte Carlo 4-sigma
pass rule:

- supermartingale_check: Y_t = g(X_t) exp(-int (Lg/g)(X_s) ds) must not
  drift above its starting value, E[Y_t] <= g(x0).
- gradient_bound: |grad P_t f(x)| <= E[|grad f(X_t)| exp(-int rho(X_s) ds)],
  the pathwise form of gradient commutation.
- commutation_check: |grad P_t f(x)|^p <= e^{-beta t} g(x)
  (P_t |grad f|^{p/(p-1)})^{p-1}, valid once the certificate inequality
  Lg/g <= p rho - beta holds everywhere; that precondition is re-checked on
  the standard scan grid, never assumed.

Each check's right side is one `multilevel_mean` over all its points and
times: multilevel Monte Carlo over Euler levels, whose expectation is
that of the Euler chain at the check's dt.  Path integrals use
left-endpoint Riemann sums, matching the weak order of the Euler scheme.  The left sides of the gradient
and commutation checks come from a deterministic engine's `value_grad`,
never from paths that share the right side's random numbers.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import CertificationError, ParameterError
from .potentials import (LyapunovCertificate, Potential, _check_dimension,
                         as_points, scan_certificate)
from .sde import _check_paths, _times, multilevel_mean
from .semigroup import TestFunction
from .verify import InequalityReport, Record

__all__ = [
    "supermartingale_check",
    "gradient_bound",
    "commutation_check",
]


def _check_lhs_engine(lhs_engine) -> None:
    # a Monte Carlo left side would draw from SeedSequence(seed), the same
    # random numbers as the right side's paths
    if lhs_engine.kind == "monte-carlo":
        raise ParameterError("the left side needs a deterministic engine")


def supermartingale_check(potential: Potential, cert: LyapunovCertificate,
                          x0, ts: Sequence = (0.25, 0.5, 1.0),
                          n_paths: int = 100_000, dt: float = 1e-3,
                          seed: int = 0) -> InequalityReport:
    """E[g(X_t) e^{-int (Lg/g)}] <= g(x0) at each grid time, for the
    certificate's g, with Lg/g derived from its closures."""
    _check_dimension(potential, cert)
    _check_paths(n_paths)
    pts = as_points(x0, potential.n)
    if len(pts) != 1:
        raise ParameterError(f"the supermartingale check starts from one "
                             f"point, got {len(pts)}")
    ts = _times(ts)
    # the path functional reads grad V off the Euler step's drift
    lhs_at, se_at = multilevel_mean(
        potential, pts, ts,
        lambda j, x, ints: cert.g_value(x) * np.exp(-ints["w"]), dt, n_paths,
        seed, {"w": cert.lg_over_g})
    rhs = float(cert.g_value(pts)[0])
    records = [Record(x=tuple(float(v) for v in pts[0]), t=float(t),
                      alpha=None, lhs=lhs, rhs=rhs, stderr=se)
               for t, lhs, se in zip(ts, lhs_at[:, 0].tolist(),
                                     se_at[:, 0].tolist())]
    return InequalityReport(
        label=f"supermartingale[{cert.label}|{potential.label}]",
        records=tuple(records), tolerance=0.0)


def gradient_bound(potential: Potential, f: TestFunction, xs, ts: Sequence,
                   lhs_engine, n_paths: int = 50_000, dt: float = 1e-3,
                   seed: int = 0) -> InequalityReport:
    """|grad P_t f(x)| <= E[|grad f(X_t)| e^{-int rho(X_s) ds}]."""
    _check_paths(n_paths)
    _check_lhs_engine(lhs_engine)
    pts = as_points(xs, potential.n)
    ts = _times(ts)
    # (T, k) left sides from one evolution, right sides from one
    # multilevel estimate
    lhs_at = np.linalg.norm(lhs_engine.value_grad(f, ts, pts)[2], axis=-1)
    rhs_at, se_at = multilevel_mean(
        potential, pts, ts,
        lambda j, x, ints: np.linalg.norm(f.gradient(x), axis=-1)
        * np.exp(-ints["rho"]), dt, n_paths, seed,
        {"rho": lambda x, drift: potential.curvature(x)})
    records = [Record(x=tuple(float(v) for v in x), t=float(t), alpha=None,
                      lhs=lhs, rhs=rhs, stderr=se)
               for t, lhs_t, rhs_t, se_t in zip(
                   ts, lhs_at.tolist(), rhs_at.tolist(), se_at.tolist())
               for x, lhs, rhs, se in zip(pts, lhs_t, rhs_t, se_t)]
    return InequalityReport(
        label=f"gradient-bound[{f.label}|{potential.label}|{lhs_engine.kind}]",
        records=tuple(records), tolerance=lhs_engine.tolerance)


def commutation_check(potential: Potential, cert: LyapunovCertificate,
                      f: TestFunction, xs, ts: Sequence, lhs_engine,
                      n_paths: int = 50_000, dt: float = 1e-3,
                      seed: int = 0) -> InequalityReport:
    """|grad P_t f(x)|^p <= e^{-beta t} g(x) (P_t |grad f|^{p/(p-1)})^{p-1}.

    The certificate inequality Lg/g <= p rho - beta is re-verified on the
    standard scan grid first; a negative margin there is a certification
    error, not a report.
    """
    _check_paths(n_paths)
    _check_lhs_engine(lhs_engine)
    scan = scan_certificate(potential, cert)
    if not scan.passed:
        raise CertificationError(
            f"certificate {cert.label!r} fails its own inequality on the "
            f"scan grid (worst margin {scan.min_margin:.6g}); the commutation "
            f"bound is unsupported")
    p = cert.p
    q = p / (p - 1.0)
    pts = as_points(xs, potential.n)
    ts = _times(ts)
    grad_at = np.linalg.norm(lhs_engine.value_grad(f, ts, pts)[2], axis=-1)
    # the bound needs only the endpoints: no path integral
    m_at, se_at = multilevel_mean(
        potential, pts, ts,
        lambda j, x, ints: np.linalg.norm(f.gradient(x), axis=-1) ** q, dt,
        n_paths, seed, {})
    g_at = np.asarray(cert.g_value(pts)).tolist()
    records = []
    for t, grad_t, m_t, se_t in zip(ts, grad_at.tolist(), m_at.tolist(),
                                    se_at.tolist()):
        for x, grad, m, se_m, gx in zip(pts, grad_t, m_t, se_t, g_at):
            scale = math.exp(-cert.beta * float(t)) * gx
            rhs = scale * m ** (p - 1.0)
            se = scale * (p - 1.0) * m ** (p - 2.0) * se_m if m > 0.0 else 0.0
            lhs = grad ** p
            records.append(Record(x=tuple(float(v) for v in x), t=float(t),
                                  alpha=None, lhs=lhs, rhs=rhs,
                                  stderr=float(se)))
    return InequalityReport(
        label=f"commutation[p={p:g}|{cert.label}|{f.label}"
              f"|{potential.label}|{lhs_engine.kind}]",
        records=tuple(records), tolerance=lhs_engine.tolerance)

