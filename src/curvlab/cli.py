"""Batch driver: subcommands, experiment configs, and report emission.

Configs come in a flat key = value format (documented in the README) or as
JSON; either way the canonical form is hashed with sha256, so reordering
fields never changes the config hash.  Run summaries carry that hash plus
per-check outcomes, and everything written is deterministic for a fixed
config: checks execute in sorted id order and the only varying fields are
the timestamp and wall time.

`run` and the check subcommands (verify, verify-reverse, monotone and the
limit and condition halves of integrated) share one executor: a subcommand
turns its arguments into an ExperimentConfig, and `_check_plan` plus
`_execute` turn that into verifier calls, one per function and verifier
for the engine checks, whose M-functions share one evolution.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import locale  # noqa: F401  argparse's gettext loads it at the first parser
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import CurvlabError, ParameterError
from .feynman_kac import (commutation_check, gradient_bound,
                          supermartingale_check)
from .mfunctions import MATRIX_KINDS, MFUNCTION_NAMES, catalog, certify_psd
from .potentials import (POTENTIAL_KINDS, _id_segments, constant_certificate,
                         make_lyapunov, parse_potential_id, scan_certificate)
from .semigroup import ENGINE_KINDS, check_engine_params, make_engine
from .suite import get
from .suite import catalog as function_catalog
from .verify import (InequalityReport, Schedule,
                     exp_integrability_bound_check, verify_H_monotone,
                     verify_integrated_condition, verify_integrated_limit,
                     verify_local)

__all__ = ["ExperimentConfig", "RunSummary", "parse_config", "run",
           "list_catalogs", "emit_plot_data", "PRESETS", "main"]

CHECK_NAMES = ("local", "reverse", "monotone", "integrated-limit",
               "integrated-condition")
# the checks that evaluate the semigroup through an engine
ENGINE_CHECKS = ("local", "reverse", "monotone")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _finite(key: str, value, at_least: float = -math.inf) -> None:
    # None passes: psd-check's rho is optional
    if value is not None and not at_least <= value < math.inf:
        bound = "" if at_least == -math.inf else f" >= {at_least:g}"
        raise ParameterError(f"{key} must be a finite number{bound}, "
                             f"got {value}")


@dataclass(frozen=True)
class ExperimentConfig:
    potential: str = "gaussian"
    engine: str = "mehler"
    checks: tuple = ("local",)
    mfunctions: tuple = ("poincare",)
    functions: tuple = ("linear",)
    rho: float = 1.0
    ts: tuple | None = None
    alphas: tuple | None = None
    xs: tuple | None = None
    s_count: int = 21
    t: float = 0.6
    alpha: float = 0.2
    variant: str = "plain"
    seed: int = 0
    tol: float | None = None
    expected_fail: bool = False
    engine_params: dict = field(default_factory=dict)

    def __post_init__(self):
        for c in self.checks:
            if c not in CHECK_NAMES:
                raise ParameterError(f"unknown check {c!r}; choose from "
                                     f"{CHECK_NAMES}")
        if not self.checks or not self.mfunctions or not self.functions:
            raise ParameterError("checks, mfunctions, and functions must "
                                 "not be empty")
        for key in ("checks", "mfunctions", "functions"):
            names = getattr(self, key)
            if len(set(names)) < len(names):
                raise ParameterError(f"{key} repeats a name: {names}")
        if self.engine not in ENGINE_KINDS:
            raise ParameterError(f"unknown engine {self.engine!r}")
        object.__setattr__(self, "engine_params", check_engine_params(
            self.engine, self.engine_params))
        _finite("rho", self.rho)
        _finite("t", self.t, 0.0)
        _finite("alpha", self.alpha, 0.0)
        if self.s_count < 2:
            raise ParameterError("monotonicity grid needs at least 2 points")
        for seed in (self.seed, self.engine_params.get("seed", 0)):
            if seed < 0:
                raise ParameterError(f"seed must be >= 0, got {seed}")
        if self.tol is not None and not 0.0 < self.tol < math.inf:
            raise ParameterError(f"tol must be a finite number > 0, got "
                                 f"{self.tol}")
        if self.ts is not None and not self.ts:
            raise ParameterError("empty schedule")
        if self.alphas is not None and not self.alphas:
            raise ParameterError("empty schedule")
        if self.xs is not None and not self.xs:
            raise ParameterError("empty schedule")

    def canonical(self) -> dict:
        d = asdict(self)
        d["checks"] = sorted(self.checks)
        d["mfunctions"] = sorted(self.mfunctions)
        d["functions"] = sorted(self.functions)
        d["engine_params"] = {k: self.engine_params[k]
                              for k in sorted(self.engine_params)}
        return d

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def schedule(self) -> Schedule:
        kw = {}
        if self.ts is not None:
            kw["ts"] = self.ts
        if self.alphas is not None:
            kw["alphas"] = self.alphas
        if self.xs is not None:
            kw["xs"] = np.asarray(self.xs, dtype=float)
        return Schedule(**kw)


_LIST_KEYS = {"checks", "mfunctions", "functions"}
_FLOAT_LIST_KEYS = {"ts", "alphas", "xs"}
_FLOAT_KEYS = {"rho", "t", "alpha", "tol"}
_INT_KEYS = {"s_count", "seed"}
_BOOL_KEYS = {"expected_fail"}
_STR_KEYS = {"potential", "engine", "variant"}
_CONFIG_FIELDS = frozenset(f.name for f in fields(ExperimentConfig))
_NULLABLE_KEYS = frozenset(f.name for f in fields(ExperimentConfig)
                           if f.default is None)


def _number(key: str, raw, cast=float):
    # a JSON number goes through its text as well, so 2.5 is no int in
    # either format
    try:
        return cast(str(raw))
    except ValueError:
        raise ParameterError(f"{key} must be numeric, got {raw!r}") from None


def _field(key: str, value):
    """Config field `key` converted and checked, for flat files and JSON
    alike; a flat file hands over strings, and lists already split."""
    if value is None and key in _NULLABLE_KEYS:
        return None
    if key in _LIST_KEYS | _FLOAT_LIST_KEYS:
        if not isinstance(value, list):
            raise ParameterError(f"{key} must be a list, got {value!r}")
        if key in _FLOAT_LIST_KEYS:
            return tuple(_number(key, v) for v in value)
        if not all(isinstance(v, str) for v in value):
            raise ParameterError(f"{key} must list names, got {value!r}")
        return tuple(value)
    if key in _FLOAT_KEYS:
        return _number(key, value)
    if key in _INT_KEYS:
        return _number(key, value, int)
    if key in _BOOL_KEYS:
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        raise ParameterError(f"{key} must be true or false, got {value!r}")
    if key in _STR_KEYS:
        if not isinstance(value, str):
            raise ParameterError(f"{key} must be a string, got {value!r}")
        return value
    # engine_params: ExperimentConfig checks and converts the entries
    if not isinstance(value, dict):
        raise ParameterError(f"{key} must map names to numbers, got "
                             f"{value!r}")
    return value


def parse_config(text: str) -> ExperimentConfig:
    """Flat ``key = value`` lines ('#' comments, commas for lists), or JSON."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"malformed JSON config: {exc}") from None
        unknown = sorted(set(data) - _CONFIG_FIELDS)
        if unknown:
            raise ParameterError(f"unknown config keys {unknown}")
        return ExperimentConfig(**{k: _field(k, v) for k, v in data.items()})
    kv: dict = {}
    engine_params: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"config line {lineno} is not key = value: "
                                 f"{line!r}")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key.startswith("engine."):
            # ExperimentConfig checks and converts engine parameters
            engine_params[key[len("engine."):]] = raw
        elif key in _CONFIG_FIELDS - {"engine_params"}:
            if key in _LIST_KEYS | _FLOAT_LIST_KEYS:
                raw = [s.strip() for s in raw.split(",") if s.strip()]
            kv[key] = _field(key, raw)
        else:
            raise ParameterError(f"unknown config key {key!r} "
                                 f"(line {lineno})")
    if engine_params:
        kv["engine_params"] = engine_params
    return ExperimentConfig(**kv)


PRESETS = {
    "ou-local-suite": """\
# all-pass defaults on the gaussian potential with the exact engine
potential = gaussian
engine = mehler
checks = local, reverse, monotone, integrated-limit, integrated-condition
mfunctions = poincare, log-sobolev, reverse-poincare, reverse-log-sobolev
functions = shifted-sine
rho = 1
t = 0.6
alpha = 0.2
seed = 0
""",
    "doublewell-falsify": """\
# claimed curvature 0.5 is false for the double well; the local check
# must FAIL, and expected_fail turns that into a successful run.  The grid
# evolves in its eigenbasis, with no time step; engine.m is kept, but
# sets nothing
potential = double-well
engine = grid
engine.lo = -6
engine.hi = 6
engine.m = 2001
checks = local
mfunctions = y
functions = linear
rho = 0.5
expected_fail = true
""",
}


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _mfunction_from_id(text: str):
    name, kv = _id_segments(text, "M-function")
    return catalog(name, **{k: _number(f"{k} in {text!r}", v)
                            for k, v in kv.items()})


def _check_plan(config: ExperimentConfig) -> list:
    """(check_id, check, mf, f) tuples in argument order.

    Every id is resolved here, before any computation.  Reverse checks
    take the reverse M-functions, monotone takes both kinds, and the other
    checks take the forward ones.  An M-function that no configured check
    takes is an error.
    """
    mfs = {mf_id: _mfunction_from_id(mf_id) for mf_id in config.mfunctions}
    fns = {name: get(name) for name in config.functions}
    plan = []
    used = set()
    for check in config.checks:
        for mf_id in config.mfunctions:
            mf = mfs[mf_id]
            if check != "monotone" and mf.reverse != (check == "reverse"):
                continue
            used.add(mf_id)
            plan += [(f"{check}:{mf_id}:{fn}", check, mf, fns[fn])
                     for fn in config.functions]
    unused = [m for m in config.mfunctions if m not in used]
    if unused:
        raise ParameterError(
            f"no check of {', '.join(config.checks)} takes the M-function "
            f"{', '.join(unused)}; reverse checks take reverse-* "
            f"M-functions, monotone takes both kinds, the others forward ones")
    return plan


def _make_engine(kind: str, potential, params: dict, seed: int):
    """The one engine builder of the CLI; a Monte Carlo engine without a
    seed parameter takes `seed`."""
    params = dict(params)
    if kind == "monte-carlo":
        params.setdefault("seed", seed)
    return make_engine(kind, potential, **params)


def _execute(config: ExperimentConfig, plan: list,
             half_width: float | None = None) -> tuple:
    """The engine (None when no check of the plan needs one) and the
    (check_id, report) pairs of the plan, in its order; the local and
    reverse checks of one function make one verify_local call, and its
    monotone checks one verify_H_monotone call.  The integrated checks
    integrate over [-half_width, half_width], or their default window."""
    potential = parse_potential_id(config.potential)
    groups = {}  # (monotone?, f) -> [(check_id, mf)], in plan order
    for check_id, check, mf, f in plan:
        if check in ENGINE_CHECKS:
            groups.setdefault((check == "monotone", f), []).append(
                (check_id, mf))
    engine = _make_engine(config.engine, potential, config.engine_params,
                          config.seed) if groups else None
    sched = config.schedule()
    reports = {}
    for check_id, check, mf, f in plan:
        if check == "integrated-limit":
            reports[check_id] = verify_integrated_limit(
                mf, potential, f, half_width=half_width, rho=config.rho)
        elif check == "integrated-condition":
            reports[check_id] = verify_integrated_condition(
                mf, potential, f, half_width=half_width, rho=config.rho,
                variant=config.variant)
        elif check_id not in reports:
            ids, mfs = zip(*groups[check == "monotone", f])
            reps = verify_H_monotone(
                mfs, engine, f, t=config.t, alpha=config.alpha,
                rho=config.rho, s_count=config.s_count, xs=sched.xs) \
                if check == "monotone" \
                else verify_local(mfs, engine, f, sched, rho=config.rho)
            reports.update(zip(ids, reps))
    if config.tol is not None:
        reports = {k: replace(rep, tolerance=config.tol)
                   for k, rep in reports.items()}
    return engine, [(check_id, reports[check_id]) for check_id, *_ in plan]


@dataclass(frozen=True)
class RunSummary:
    config_hash: str
    checks: tuple            # (id, label, passed, min_margin, worst dict)
    all_pass: bool
    expected_fail: bool
    succeeded: bool
    engine: dict | None      # None when no check runs on an engine
    wall_time_s: float
    timestamp: str

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "all_pass": self.all_pass,
            "expected_fail": self.expected_fail,
            "succeeded": self.succeeded,
            "engine": self.engine,
            "checks": [
                {"id": cid, "label": label, "pass": ok,
                 "min_margin": mm, "worst": worst}
                for cid, label, ok, mm, worst in self.checks
            ],
            "wall_time_s": self.wall_time_s,
            "timestamp": self.timestamp,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def run(config: ExperimentConfig, out_dir: str | None = None) -> RunSummary:
    """Execute the configured checks and assemble a summary.

    With out_dir set, writes summary.json, a margins CSV per check, and
    plot CSVs.  Exit-status semantics live in main(): succeeded means
    all_pass, inverted when expected_fail is set.
    """
    t0 = time.monotonic()
    # sorted on the check id alone: the plan's M-functions do not compare
    engine, reports = _execute(config, sorted(_check_plan(config),
                                              key=lambda item: item[0]))
    rows = [(check_id, rep.label, rep.passed, rep.min_margin,
             rep.worst.to_dict()) for check_id, rep in reports]
    all_pass = all(r[2] for r in rows)
    summary = RunSummary(
        config_hash=config.config_hash,
        checks=tuple(rows),
        all_pass=all_pass,
        expected_fail=config.expected_fail,
        succeeded=(not all_pass) if config.expected_fail else all_pass,
        engine=None if engine is None else engine.describe(),
        wall_time_s=round(time.monotonic() - t0, 6),
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "summary.json").write_text(summary.to_json() + "\n")
        for check_id, rep in reports:
            safe = check_id.replace(":", "_").replace("/", "_")
            (out / f"margins-{safe}.csv").write_text(rep.to_csv())
            emit_plot_data(rep, out, safe)
    return summary


def emit_plot_data(report: InequalityReport, out_dir, tag: str) -> list:
    """Margin-vs-t and H(s) curves as CSV files; returns written paths."""
    out = Path(out_dir)
    written = []
    recs = report.records
    if any(r.s is not None for r in recs):
        xs = []
        for r in recs:
            if r.x not in xs:
                xs.append(r.x)
        # record j holds H at s_j (lhs) and s_{j+1} (rhs), and the last
        # s is t; rebuild H(s) by rank to dodge float-addition duplicates
        s_grid = sorted({r.s for r in recs})
        rank = {s: j for j, s in enumerate(s_grid)}
        out_s = s_grid + [recs[0].t]
        curves = {x: [None] * len(out_s) for x in xs}
        for r in recs:
            j = rank[r.s]
            curves[r.x][j] = r.lhs
            curves[r.x][j + 1] = r.rhs
        path = out / f"plot-hs-{tag}.csv"
        head = "s," + ",".join("H[x=" + " ".join(f"{v:g}" for v in x) + "]"
                               for x in xs)
        lines = [head]
        for j, s in enumerate(out_s):
            lines.append(",".join([repr(s)] + [repr(curves[x][j])
                                               for x in xs]))
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    elif any(r.t is not None for r in recs):
        ts = sorted({r.t for r in recs})
        path = out / f"plot-margin-vs-t-{tag}.csv"
        lines = ["t,min_margin"]
        for t in ts:
            mm = min(r.margin for r in recs if r.t == t)
            lines.append(f"{t!r},{mm!r}")
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    return written


def list_catalogs() -> str:
    lines = ["potentials:"]
    lines += [f"  {k}" for k in POTENTIAL_KINDS]
    lines.append("engines:")
    lines += [f"  {k}" for k in ENGINE_KINDS]
    lines.append("m-functions:")
    lines += [f"  {k}" for k in MFUNCTION_NAMES]
    lines.append("test functions:")
    lines += [f"  {k}" for k in sorted(function_catalog())]
    lines.append("presets:")
    lines += [f"  {k}" for k in sorted(PRESETS)]
    lines.append("checks:")
    lines += [f"  {k}" for k in CHECK_NAMES]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _floats(text: str) -> tuple:
    return tuple(float(s) for s in text.split(",") if s.strip())


def _tolerance(text: str) -> float:
    # an infinite tolerance passes every claim, and nan or one <= 0 fails
    # every record
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text!r}")
    return value


_ENGINE_FLAGS = {"order": int, "m": int, "lo": float, "hi": float,
                 "dt": float, "n_paths": int}


def _add_engine(sub, skip: tuple = ()):
    sub.add_argument("--potential", default="gaussian",
                     help="potential id, e.g. gaussian or spherical:alpha=1.5")
    sub.add_argument("--engine", default="mehler", choices=ENGINE_KINDS)
    sub.add_argument("--xs", type=_floats, default=None)
    for key, cast in _ENGINE_FLAGS.items():
        if key not in skip:
            sub.add_argument("--" + key.replace("_", "-"), type=cast,
                             default=None)


def _add_common(sub, schedule: bool = True):
    _add_engine(sub)
    sub.add_argument("--rho", type=float, default=1.0)
    if schedule:
        sub.add_argument("--ts", type=_floats, default=None)
        sub.add_argument("--alphas", type=_floats, default=None)


# the check each check subcommand runs
_SUBCOMMAND_CHECKS = {"verify": "local", "verify-reverse": "reverse",
                      "monotone": "monotone"}


def _engine_params(args) -> dict:
    return {k: getattr(args, k) for k in _ENGINE_FLAGS
            if getattr(args, k, None) is not None}


def _emit_reports(reports, args) -> int:
    if args.tol is not None:
        reports = [replace(r, tolerance=args.tol) for r in reports]
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for rep in reports:
            safe = rep.label.replace("|", "_").replace(":", "_") \
                .replace("[", "_").replace("]", "").replace("/", "_") \
                .replace("=", "")
            if args.format == "json":
                (out / f"{safe}.json").write_text(rep.to_json() + "\n")
            else:
                (out / f"{safe}.csv").write_text(rep.to_csv())
    else:
        for rep in reports:
            if args.format == "json":
                print(rep.to_json())
            else:
                print(f"# {rep.label}")
                print(rep.to_csv(), end="")
    return 0 if all(r.passed for r in reports) else 1


def _write_or_print(args, name: str, text: str) -> None:
    """Write `text` to the file `name` under --out, or print it."""
    if args.out is None:
        print(text, end="")
        return
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(text)


def _global_flags(p, suppress: bool):
    # defined on the root parser and again on every subparser (with
    # SUPPRESS defaults) so they work on either side of the subcommand
    d = argparse.SUPPRESS if suppress else None
    p.add_argument("--seed", type=int, default=d,
                   help="random seed (default 0); on run, overrides the "
                        "config's seed")
    p.add_argument("--tol", type=_tolerance, default=d)
    p.add_argument("--out", default=d, metavar="DIR")
    p.add_argument("--format", choices=("json", "csv"),
                   default=argparse.SUPPRESS if suppress else "json")


@functools.cache  # parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvlab",
        description="verify local and integrated functional inequalities "
                    "for diffusion semigroups")
    _global_flags(parser, suppress=False)
    subs = parser.add_subparsers(dest="command", required=True)

    for name in ("verify", "verify-reverse"):
        sub = subs.add_parser(name)
        sub.add_argument("--mfunction", required=True, action="append")
        sub.add_argument("--function", required=True, action="append")
        _add_common(sub)

    sub = subs.add_parser("monotone")
    sub.add_argument("--mfunction", required=True, action="append")
    sub.add_argument("--function", required=True, action="append")
    sub.add_argument("--t", type=float, default=0.6)
    sub.add_argument("--alpha", type=float, default=0.2)
    sub.add_argument("--s-count", type=int, default=21)
    _add_common(sub, schedule=False)

    sub = subs.add_parser("integrated")
    sub.add_argument("--check", choices=("limit", "condition", "exp-bound"),
                     default="limit")
    sub.add_argument("--mfunction", action="append", default=None)
    sub.add_argument("--function", required=True, action="append")
    sub.add_argument("--variant", choices=("plain", "enhanced"),
                     default="plain")
    sub.add_argument("--half-width", type=float, default=None)
    sub.add_argument("--potential", default="gaussian")
    sub.add_argument("--rho", type=float, default=1.0)

    sub = subs.add_parser("psd-check")
    sub.add_argument("--mfunction", required=True, action="append")
    sub.add_argument("--kind", default=None, choices=MATRIX_KINDS,
                     help="condition matrix (default: B-reverse for a "
                          "reverse M-function, A-forward otherwise)")
    sub.add_argument("--rho", type=float, default=None)

    sub = subs.add_parser("feynman-kac")
    sub.add_argument("--check", required=True,
                     choices=("supermartingale", "gradient", "commutation"))
    sub.add_argument("--cert", default="unit",
                     help="unit or auto (potential-matched certificate)")
    sub.add_argument("--p", type=float, default=2.0)
    sub.add_argument("--beta", type=float, default=None)
    sub.add_argument("--function", default="sine")
    sub.add_argument("--x0", type=_floats, default=(0.0,))
    sub.add_argument("--ts", type=_floats, default=(0.25, 0.5, 1.0))
    # no check here reads rho, and the engine that computes the left sides
    # is deterministic, so it takes no path count
    _add_engine(sub, skip=("n_paths",))
    sub.add_argument("--sim-dt", type=float, default=1e-3)
    sub.add_argument("--paths", type=int, default=50_000)

    sub = subs.add_parser("houdre-kagan")
    sub.add_argument("--coeffs", required=True, type=_floats,
                     help="monomial coefficients, ascending")
    sub.add_argument("--N", type=int, default=2)

    sub = subs.add_parser("lyapunov-scan")
    sub.add_argument("--kind", required=True,
                     choices=("spherical", "product-power"))
    sub.add_argument("--alpha", type=float, required=True)
    sub.add_argument("--p", type=float, default=2.0)
    sub.add_argument("--n", type=int, default=1)

    subs.add_parser("list")

    sub = subs.add_parser("run")
    sub.add_argument("config", help="config file path or preset name")

    for sub in subs.choices.values():
        _global_flags(sub, suppress=True)
    return parser


def _cmd_checks(args, check: str) -> int:
    """Run one check subcommand through the executor of `run`."""
    # --tol is left to _emit_reports, which applies it to every subcommand
    kw = {k: v for k, v in vars(args).items()
          if k in _CONFIG_FIELDS and k != "tol" and v is not None}
    config = ExperimentConfig(checks=(check,),
                              mfunctions=tuple(args.mfunction),
                              functions=tuple(args.function),
                              engine_params=_engine_params(args), **kw)
    _, reports = _execute(config, _check_plan(config),
                          getattr(args, "half_width", None))
    return _emit_reports([rep for _, rep in reports], args)


def _cmd_integrated(args) -> int:
    if args.check != "exp-bound":
        if not args.mfunction:
            raise ParameterError(f"--mfunction is required for "
                                 f"--check {args.check}")
        return _cmd_checks(args, f"integrated-{args.check}")
    _finite("rho", args.rho)
    potential = parse_potential_id(args.potential)
    return _emit_reports([exp_integrability_bound_check(
        potential, get(f), half_width=args.half_width, rho=args.rho)
        for f in args.function], args)


def _cmd_psd(args) -> int:
    _finite("rho", args.rho)
    out = []
    ok = True
    for m in args.mfunction:
        mf = _mfunction_from_id(m)
        kind = args.kind or ("B-reverse" if mf.reverse else "A-forward")
        rep = certify_psd(mf, kind, rho=args.rho)
        out.append(rep.to_dict())
        ok = ok and rep.passed
    text = json.dumps(out if len(out) > 1 else out[0], indent=2)
    _write_or_print(args, "psd-check.json", text + "\n")
    return 0 if ok else 1


def _auto_certificate(args, potential):
    if args.cert == "unit":
        return constant_certificate(p=args.p, beta=args.beta, n=potential.n)
    if args.cert == "auto":
        if potential.family not in ("spherical", "product-power"):
            raise ParameterError(
                f"no automatic certificate for potential family "
                f"{potential.family!r}; use --cert unit")
        return make_lyapunov(potential.family,
                             alpha=float(potential.params["alpha"]),
                             p=args.p, n=potential.n)
    raise ParameterError(f"unknown certificate {args.cert!r}")


def _cmd_feynman_kac(args) -> int:
    potential = parse_potential_id(args.potential)
    cert = _auto_certificate(args, potential)
    seed = args.seed or 0
    if args.check == "supermartingale":
        rep = supermartingale_check(potential, cert, x0=args.x0,
                                    ts=args.ts, n_paths=args.paths,
                                    dt=args.sim_dt, seed=seed)
    else:
        engine = _make_engine(args.engine, potential, _engine_params(args),
                              seed)
        xs = (0.0,) if args.xs is None else args.xs
        if args.check == "gradient":
            rep = gradient_bound(potential, get(args.function), xs=xs,
                                 ts=args.ts, lhs_engine=engine,
                                 n_paths=args.paths, dt=args.sim_dt,
                                 seed=seed)
        else:
            rep = commutation_check(potential, cert, get(args.function),
                                    xs=xs, ts=args.ts, lhs_engine=engine,
                                    n_paths=args.paths, dt=args.sim_dt,
                                    seed=seed)
    return _emit_reports([rep], args)


def _cmd_houdre_kagan(args) -> int:
    from .spectral import houdre_kagan  # no other command needs spectral

    hk = houdre_kagan(np.asarray(args.coeffs, dtype=float), args.N)
    lines = ["k,partial_sum,variance"]
    for k, s in enumerate(hk.partial_sums, start=1):
        lines.append(f"{k},{s!r},{hk.variance!r}")
    _write_or_print(args, "houdre-kagan.csv", "\n".join(lines) + "\n")
    return 0 if hk.brackets else 1


def _cmd_lyapunov_scan(args) -> int:
    cert = make_lyapunov(args.kind, alpha=args.alpha, p=args.p, n=args.n)
    potential_id = f"{args.kind}:alpha={args.alpha:g}:n={args.n}"
    scan = scan_certificate(parse_potential_id(potential_id), cert)
    result = {
        "certificate": cert.label,
        "potential": potential_id,
        "n_scan_points": scan.n_points,
        "min_margin": scan.min_margin,
        "argmin": [float(v) for v in scan.argmin],
        "pass": scan.passed,
        "constants": {"c": cert.c, "beta": cert.beta, "theta": cert.theta},
    }
    _write_or_print(args, "lyapunov-scan.json",
                    json.dumps(result, indent=2) + "\n")
    return 0 if result["pass"] else 1


def _cmd_run(args) -> int:
    name = args.config
    if name in PRESETS:
        text = PRESETS[name]
    else:
        path = Path(name)
        if not path.exists():
            raise ParameterError(f"config {name!r} is neither a preset "
                                 f"({', '.join(sorted(PRESETS))}) nor a file")
        text = path.read_text()
    config = parse_config(text)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.tol is not None:
        config = replace(config, tol=args.tol)
    summary = run(config, out_dir=args.out)
    print(summary.to_json())
    return 0 if summary.succeeded else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in _SUBCOMMAND_CHECKS:
            return _cmd_checks(args, _SUBCOMMAND_CHECKS[args.command])
        if args.command == "integrated":
            return _cmd_integrated(args)
        if args.command == "psd-check":
            return _cmd_psd(args)
        if args.command == "feynman-kac":
            return _cmd_feynman_kac(args)
        if args.command == "houdre-kagan":
            return _cmd_houdre_kagan(args)
        if args.command == "lyapunov-scan":
            return _cmd_lyapunov_scan(args)
        if args.command == "list":
            print(list_catalogs())
            return 0
        if args.command == "run":
            return _cmd_run(args)
        raise ParameterError(f"unknown command {args.command!r}")
    except CurvlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
