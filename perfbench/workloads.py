"""The benchmark's workloads: CLI argument lists run in order by one caller.

Each workload is shaped around one kernel, so that a change to that kernel
moves one workload and leaves the others where they were:

- exact: gaussian potential, Mehler engine and adaptive quadrature; the
  exp-integrability special function does most of the work.
- grid: Crank-Nicolson marches on the double well and the spherical
  potential, used twice: a local sweep and a monotone check whose sampled
  function nests further marches.
- mc-local: the Monte Carlo engine over the default schedule; many
  medium-sized simulate calls, so engine orchestration dominates.
- feynman-kac: a few large path batches carrying the curvature integral;
  raw SDE throughput, the opposite use of simulate from mc-local.

The seed reaches the program only as ``--seed``.  Only the Monte Carlo
engine and the Feynman-Kac checks read it, so the exact and grid workloads
compute the same margins for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass

REF_SEED = 0

# `run doublewell-falsify` refutes a false curvature claim; its worst
# margin must stay at or below this value
FALSIFY = ("run", "doublewell-falsify")
FALSIFY_MARGIN = -1e-3

MC_PATHS = "200"
FK_PATHS = "16384"


@dataclass(frozen=True)
class Workload:
    name: str
    checks: tuple      # argv tuples for curvlab.cli.main, without --out
    seeded: bool       # whether any check reads --seed


def _fk(check: str, *extra: str) -> tuple:
    return ("feynman-kac", "--check", check, "--paths", FK_PATHS,
            "--sim-dt", "0.001") + extra


_POLYTRIG = ("linear", "affine", "quadratic", "quad-mix", "hermite3",
             "hermite4", "sine", "cos-mix", "shifted-sine", "unit-sine")


def _functions(*names: str) -> tuple:
    return tuple(x for n in names for x in ("--function", n))


WORKLOADS = {w.name: w for w in (
    Workload(
        "exact",
        (
            ("run", "ou-local-suite"),
            ("verify", "--mfunction", "poincare", "--mfunction", "log-sobolev",
             "--mfunction", "beckner:p=1.2", "--mfunction", "beckner:p=1.5",
             "--mfunction", "beckner:p=1.8", "--function", "shifted-sine"),
            ("verify", "--mfunction", "bobkov", "--function", "unit-gauss"),
            ("verify", "--mfunction", "exp-integrability",
             "--function", "gauss-bump"),
            ("verify", "--mfunction", "sqrt-y", "--mfunction", "y",
             "--function", "sine"),
            ("verify-reverse", "--mfunction", "reverse-poincare",
             "--function", "linear"),
            ("verify-reverse", "--mfunction", "reverse-log-sobolev",
             "--mfunction", "reverse-beckner:p=1.5",
             "--function", "shifted-sine"),
            ("integrated", "--check", "limit", "--mfunction", "poincare",
             "--function", "linear"),
            ("integrated", "--check", "limit", "--mfunction", "log-sobolev")
            + _functions("gauss-bump", "exp03", "shifted-sine", "unit-sine",
                         "one-plus-square", "cosh03"),
            ("integrated", "--check", "exp-bound")
            + _functions("linear", "sine", "cos-mix", "gauss-bump",
                         "shifted-sine", "unit-sine"),
            ("integrated", "--check", "condition", "--variant", "plain",
             "--mfunction", "y") + _functions(*_POLYTRIG),
            ("integrated", "--check", "condition", "--variant", "enhanced",
             "--mfunction", "y") + _functions(*_POLYTRIG),
        ),
        seeded=False,
    ),
    Workload(
        "grid",
        (
            FALSIFY,
            ("monotone", "--engine", "grid", "--potential", "double-well",
             "--lo", "-6", "--hi", "6", "--m", "2001", "--dt", "0.001",
             "--rho", "-1", "--mfunction", "poincare", "--function", "sine"),
            ("verify", "--engine", "grid", "--potential",
             "spherical:alpha=1.5", "--rho", "0", "--mfunction", "poincare",
             "--function", "sine"),
        ),
        seeded=False,
    ),
    Workload(
        "mc-local",
        (
            ("verify", "--engine", "monte-carlo", "--n-paths", MC_PATHS,
             "--mfunction", "poincare", "--function", "sine"),
            ("verify-reverse", "--engine", "monte-carlo", "--n-paths",
             MC_PATHS, "--mfunction", "reverse-log-sobolev",
             "--function", "shifted-sine"),
        ),
        seeded=True,
    ),
    Workload(
        "feynman-kac",
        (
            _fk("supermartingale", "--potential", "spherical:alpha=1.5",
                "--cert", "auto", "--x0", "1", "--ts", "0.25,0.5,1"),
            _fk("gradient", "--potential", "gaussian", "--function", "sine",
                "--xs", "0,1", "--ts", "0.25,1", "--engine", "mehler"),
            _fk("gradient", "--potential", "spherical:alpha=1.5",
                "--function", "gauss-bump", "--xs", "0,1", "--ts", "0.25,1",
                "--engine", "grid", "--lo", "-8", "--hi", "8", "--m", "1601"),
            _fk("commutation", "--potential", "gaussian", "--cert", "unit",
                "--p", "2", "--function", "linear", "--xs", "0.7",
                "--ts", "0.5,1", "--engine", "mehler"),
        ),
        seeded=True,
    ),
)}
