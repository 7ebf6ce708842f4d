"""Write every benchmark report to a directory, for byte-for-byte diffs.

    PYTHONPATH=src python tools/golden_reports.py OUT --seeds 0 1

runs, through `curvlab.cli.main` and in csv and json, every check of the
benchmark's workloads (`perfbench/workloads.py`, which covers the local
checks of acceptance criteria 2 and 3), both presets, the configuration of
acceptance criterion 12, a `run` of a monotone check at t = 0.7 and
s_count = 11 (its H(s) plot ends at s = t), Monte Carlo local checks on an unsorted schedule
with a repeated time, t = 0 and a time off the dt grid, a Monte Carlo local
check of `quadratic` on the default schedule, one of `sine` at 12 500
paths, which runs three Euler levels, local checks at t = 0 alone
on the grid and Mehler engines, and monotone checks beyond the benchmark's:
on the grid at a t off the dt grid and at t = 0, and a reverse one on the
Mehler engine; a grid `verify-reverse`; grid `verify` runs on the gaussian
with `--lo -2 --hi 2`, on `spherical:alpha=1.2`, whose node window is wide,
and on the double well at its readout bound, 3.6; and checks that share one
evolution across M-functions: Monte Carlo `verify` and `verify-reverse`, a
grid monotone check of a forward and a reverse M-function, and a grid
`verify` of `sqrt-y`, which is not affine in y, with `y` and `poincare`,
which are; on each engine, a local check at `--rho -352`, whose
right sides are not finite on the Mehler and Monte Carlo engines (exit 2)
and finite on the grid; a Mehler `verify` and an integrated limit of
`exp-integrability` at rho = 0.3, whose F arguments reach below 0.025 and
above 8; `psd-check` of every catalog M-function (the
beckners at p = 1.5); `lyapunov-scan` of the spherical certificates at
alpha = 1, 1.2 and 1.5 and of the product-power one at alpha = 1.5 in
n = 1 and 2; `houdre-kagan` of x^3; a unit-certificate
supermartingale check on the 2-D gaussian, and auto-certificate ones on
the 2-D spherical and product-power potentials at alpha = 1.5; and
Feynman-Kac gradient bounds with one Euler level (at --sim-dt 0.01, plain
Monte Carlo), with two (at a time of 0.33, not a whole number of 0.025
steps), and at 8229 paths, whose last block is short.  Checkpoints out of
time order: a grid `verify` at unsorted, repeated times with 0 and a time
below dt, a grid monotone check at unsorted points, a Monte Carlo `verify`
at 8229 paths on an unsorted schedule, and a supermartingale check at
unsorted times.  Rejected inputs (exit 2): `--tol inf` on a `verify` of a
false claim and on `run doublewell-falsify`, and `lyapunov-scan` at
`--n 0`.  Each run
gets its own directory under OUT/seed-S/ holding its output files, its
stdout and stderr, and its exit status in `exit`.  `timestamp` and
`wall_time_s` are dropped from every JSON document, so two trees with the
same reports compare equal with `diff -r before after`.  Set
CURVLAB_THREADS to compare thread counts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from curvlab.cli import PRESETS, main as cli_main  # noqa: E402
from curvlab.mfunctions import MFUNCTION_NAMES  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

VOLATILE = ("timestamp", "wall_time_s")

CRITERION_12 = ("checks = local\nmfunctions = poincare\nfunctions = sine\n"
                "engine = monte-carlo\nengine.n_paths = 2000\nts = 0.3\n"
                "alphas = 0.5\nseed = 7\n")

MONOTONE_PLOT = ("checks = monotone\nmfunctions = poincare\nfunctions = sine\n"
                 "t = 0.7\ns_count = 11\n")

MC_TS = ("--engine", "monte-carlo", "--dt", "0.01",
         "--ts", "0.25,0,0.1,0.255,0.25")

FK_GRADIENT = ("feynman-kac", "--check", "gradient", "--potential", "gaussian",
               "--function", "sine", "--xs", "0,1", "--engine", "mehler",
               "--paths", "16384")

GRID_MONOTONE = ("monotone", "--engine", "grid", "--potential", "double-well",
                 "--lo", "-6", "--hi", "6", "--m", "2001", "--dt", "0.001",
                 "--rho", "-1", "--mfunction", "poincare", "--function",
                 "sine")


def cases(configs: dict, seed: int) -> list:
    """(name, argv) of every run at `seed`, without --format and --out;
    `configs` maps a run name to its config file, and criterion 12 keeps
    its config's seed."""
    out = [(f"{w.name}-{i}", check) for w in WORKLOADS.values()
           for i, check in enumerate(w.checks)]
    out += [(f"preset-{name}", ("run", name)) for name in sorted(PRESETS)]
    for n_paths in ("200", "8292"):  # one block, and two
        out += [(f"mc-ts-{n_paths}-local", ("verify", *MC_TS, "--n-paths",
                 n_paths, "--mfunction", "poincare", "--function", "sine")),
                (f"mc-ts-{n_paths}-reverse", ("verify-reverse", *MC_TS,
                 "--n-paths", n_paths, "--mfunction", "reverse-log-sobolev",
                 "--function", "shifted-sine"))]
    out += [("mc-quadratic-local", ("verify", "--engine", "monte-carlo",
                                     "--n-paths", "200", "--mfunction",
                                     "poincare", "--function", "quadratic")),
            ("mc-three-levels-local", ("verify", "--engine", "monte-carlo",
                                        "--n-paths", "12500", "--mfunction",
                                        "poincare", "--function", "sine"))]
    out += [(f"{engine}-t0-local", ("verify", "--engine", engine, "--ts", "0",
                                    "--mfunction", "poincare", "--function",
                                    "sine")) for engine in ("grid", "mehler")]
    out += [("monotone-grid-off-dt", (*GRID_MONOTONE, "--t", "0.2555",
                                      "--s-count", "6")),
            ("monotone-grid-t0", (*GRID_MONOTONE, "--t", "0")),
            ("monotone-mehler-reverse", ("monotone", "--mfunction",
                                         "reverse-poincare", "--function",
                                         "sine"))]
    out += [("grouped-mc-local", ("verify", "--engine", "monte-carlo",
                                   "--n-paths", "200", "--mfunction",
                                   "poincare", "--mfunction", "log-sobolev",
                                   "--function", "shifted-sine")),
            ("grouped-mc-reverse", ("verify-reverse", "--engine",
                                     "monte-carlo", "--n-paths", "200",
                                     "--mfunction", "reverse-poincare",
                                     "--mfunction", "reverse-log-sobolev",
                                     "--function", "shifted-sine")),
            ("grouped-monotone-grid", (*GRID_MONOTONE[:-4], "--mfunction",
                                        "poincare", "--mfunction",
                                        "reverse-poincare", "--function",
                                        "sine")),
            ("grid-reverse", ("verify-reverse", "--engine", "grid",
                              "--mfunction", "reverse-log-sobolev",
                              "--function", "shifted-sine")),
            ("grid-narrow-window", ("verify", "--engine", "grid", "--lo", "-2",
                                    "--hi", "2", "--xs=-1.9,-1,0,1,1.9",
                                    "--mfunction", "poincare", "--function",
                                    "linear")),
            ("grid-wide-nodes", ("verify", "--engine", "grid", "--potential",
                                 "spherical:alpha=1.2", "--rho", "0",
                                 "--mfunction", "poincare", "--function",
                                 "sine")),
            ("grid-readout-bound", ("verify", "--engine", "grid",
                                    "--potential", "double-well", "--lo", "-6",
                                    "--hi", "6", "--xs=-3.6,-3.5,3.5,3.6",
                                    "--rho", "-1", "--mfunction", "poincare",
                                    "--function", "sine")),
            ("grouped-grid-mixed", ("verify", "--engine", "grid",
                                    "--mfunction", "sqrt-y", "--mfunction",
                                    "y", "--mfunction", "poincare",
                                    "--function", "sine"))]
    out += [(f"overflow-{engine}-local", ("verify", "--engine", engine, *extra,
                                          "--ts", "1", "--rho", "-352",
                                          "--mfunction", "poincare",
                                          "--function", "quadratic"))
            for engine, extra in (("mehler", ()),
                                  ("monte-carlo", ("--n-paths", "200")),
                                  ("grid", ()))]
    # at rho = 0.3 F's arguments run from below 1e-8 to above 12, so every
    # segment of its rule is reached; the benchmark's checks stop short of 8
    out += [(f"exp-integrability-{name}-rho03", (*argv, "--mfunction",
                                                  "exp-integrability",
                                                  "--function", "gauss-bump",
                                                  "--rho", "0.3"))
            for name, argv in (("local", ("verify",)),
                               ("limit", ("integrated", "--check", "limit")))]
    out += [(f"psd-{name}", ("psd-check", "--mfunction",
                             f"{name}:p=1.5" if "beckner" in name else name))
            for name in MFUNCTION_NAMES]
    out += [(f"lyapunov-{kind}-{alpha}-n{n}", ("lyapunov-scan", "--kind", kind,
                                               "--alpha", alpha, "--n", n))
            for kind, alpha, n in (("spherical", "1", "1"),
                                   ("spherical", "1.2", "1"),
                                   ("spherical", "1.5", "1"),
                                   ("product-power", "1.5", "1"),
                                   ("product-power", "1.5", "2"))]
    out += [("houdre-kagan-x3", ("houdre-kagan", "--coeffs", "0,0,0,1",
                                 "--N", "2")),
            ("supermartingale-unit-n2", ("feynman-kac", "--check",
                                         "supermartingale", "--cert", "unit",
                                         "--potential", "gaussian:n=2",
                                         "--x0", "0.3,-0.4"))]
    out += [(f"supermartingale-auto-{kind}-n2", ("feynman-kac", "--check",
                                                "supermartingale", "--cert",
                                                "auto", "--potential",
                                                f"{kind}:alpha=1.5:n=2",
                                                "--x0", "0.3,-0.4"))
            for kind in ("spherical", "product-power")]
    out += [(f"fk-gradient-{name}", (*FK_GRADIENT, *extra))
            for name, extra in (("one-level", ("--sim-dt", "0.01")),
                                ("two-levels", ("--ts", "0.33")),
                                ("uneven-block", ("--paths", "8229")))]
    out += [("grid-unsorted-ts-local", ("verify", "--engine", "grid", "--ts",
                                        "1,0.3,0.3,0,0.005", "--mfunction",
                                        "poincare", "--function", "sine")),
            ("monotone-grid-unsorted-xs", (*GRID_MONOTONE, "--t", "0.3",
                                           "--s-count", "6", "--xs",
                                           "2,-1,0.5,-3")),
            ("mc-unsorted-8229-local", ("verify", "--engine", "monte-carlo",
                                        "--dt", "0.01", "--n-paths", "8229",
                                        "--ts", "0.5,0.1,0.3,0.1",
                                        "--mfunction", "poincare",
                                        "--function", "sine")),
            ("supermartingale-unsorted-ts", ("feynman-kac", "--check",
                                             "supermartingale", "--cert",
                                             "auto", "--potential",
                                             "spherical:alpha=1.5", "--x0",
                                             "1", "--ts", "1,0.25,0.5",
                                             "--paths", "16384"))]
    out += [("tol-inf-local", ("verify", "--mfunction", "poincare",
                               "--function", "sine", "--rho", "5", "--tol",
                               "inf")),
            ("tol-inf-falsify", ("run", "doublewell-falsify", "--tol",
                                 "inf")),
            ("lyapunov-spherical-1.5-n0", ("lyapunov-scan", "--kind",
                                           "spherical", "--alpha", "1.5",
                                           "--n", "0"))]
    out += [("monotone-plot", ("run", configs["monotone-plot"]))]
    out = [(name, (*argv, "--seed", str(seed))) for name, argv in out]
    return out + [("criterion-12", ("run", configs["criterion-12"]))]


def _strip(doc):
    if isinstance(doc, dict):
        return {k: _strip(v) for k, v in doc.items() if k not in VOLATILE}
    if isinstance(doc, list):
        return [_strip(v) for v in doc]
    return doc


def _stable(text: str) -> str:
    """text without its volatile fields, if it is one JSON document."""
    try:
        doc = json.loads(text)
    except ValueError:
        return text
    return json.dumps(_strip(doc), indent=2) + "\n"


def record(argv: tuple, out: Path) -> int:
    out.mkdir(parents=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli_main([*argv, "--out", str(out / "files")])
        except SystemExit as exc:  # argparse rejections
            code = exc.code
    for path in sorted((out / "files").glob("*.json")):
        path.write_text(_stable(path.read_text()))
    (out / "stdout").write_text(_stable(stdout.getvalue()))
    (out / "stderr").write_text(stderr.getvalue())
    (out / "exit").write_text(f"{code}\n")
    return code


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out", help="directory to create; must not exist")
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(args.out)
    root.mkdir(parents=True)
    with tempfile.TemporaryDirectory() as tmp:
        configs = {}
        for name, text in (("criterion-12", CRITERION_12),
                           ("monotone-plot", MONOTONE_PLOT)):
            configs[name] = str(Path(tmp) / f"{name}.conf")
            Path(configs[name]).write_text(text)
        for seed in args.seeds:
            for name, argv in cases(configs, seed):
                for fmt in ("csv", "json"):
                    code = record((*argv, "--format", fmt),
                                  root / f"seed-{seed}" / f"{name}-{fmt}")
                    print(f"seed {seed} {name} {fmt}: exit {code}",
                          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
