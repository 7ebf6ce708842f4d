"""One pass of a workload in a fresh interpreter.

    python child.py JOB_FILE SPAWN_TIME

run.py starts this once per pass and reads the result file it writes.  The
job file names the checks, the seed, the output directory and whether to
trace.  SPAWN_TIME is time.monotonic() in the parent just before the
process started; on Linux that clock is shared between processes, so
set-up time counts interpreter start-up too.

Set-up is `import curvlab.cli` plus building each check's config and engine
through the public API.  The timed part runs the checks one after another
through `curvlab.cli.main`, each writing its reports under its own
directory.  Digesting those reports happens after the last check, outside
the timed part.
"""

import contextlib
import csv
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

# strip these before hashing: the only report fields allowed to vary
VARYING_KEYS = ("timestamp", "wall_time_s")

ENGINE_FLAGS = {"--lo": ("lo", float), "--hi": ("hi", float),
                "--m": ("m", int), "--dt": ("dt", float),
                "--order": ("order", int), "--n-paths": ("n_paths", int)}


def construct(argv: list, seed: int):
    """The config and engine a check's arguments name, built as set-up."""
    from curvlab.cli import PRESETS, parse_config
    from curvlab.potentials import parse_potential_id
    from curvlab.semigroup import make_engine

    if argv[0] == "run":
        cfg = parse_config(PRESETS[argv[1]])
        return make_engine(cfg.engine, parse_potential_id(cfg.potential),
                           **cfg.engine_params)
    opts = dict(zip(argv[1::2], argv[2::2]))
    if "--engine" not in opts:
        return None
    params = {key: cast(opts[flag])
              for flag, (key, cast) in ENGINE_FLAGS.items() if flag in opts}
    if opts["--engine"] == "monte-carlo":
        params["seed"] = seed
    potential = parse_potential_id(opts.get("--potential", "gaussian"))
    return make_engine(opts["--engine"], potential, **params)


def _strip(data):
    if isinstance(data, dict):
        return {k: _strip(v) for k, v in data.items()
                if k not in VARYING_KEYS}
    if isinstance(data, list):
        return [_strip(v) for v in data]
    return data


def digest(out: Path) -> dict:
    """Hash, size and margin records of the files one check wrote."""
    h = hashlib.sha256()
    margins, stderrs = [], []
    files = sorted(p for p in out.rglob("*") if p.is_file())
    n_bytes = 0
    for path in files:
        raw = path.read_bytes()
        n_bytes += len(raw)
        h.update(str(path.relative_to(out)).encode() + b"\0")
        if path.suffix == ".json":
            data = _strip(json.loads(raw))
            h.update(json.dumps(data, sort_keys=True).encode())
        else:
            h.update(raw)
        if path.suffix == ".csv":
            rows = csv.DictReader(io.StringIO(raw.decode()))
            if {"margin", "stderr"} <= set(rows.fieldnames or ()):
                for row in rows:
                    margins.append(float(row["margin"]))
                    stderrs.append(float(row["stderr"]))
    return {"hash": h.hexdigest(), "files": len(files), "bytes": n_bytes,
            "margins": margins, "stderrs": stderrs}


def main() -> None:
    job = json.loads(Path(sys.argv[1]).read_text())
    t_spawn = float(sys.argv[2])
    import curvlab.cli as cli

    seed = job["seed"]
    for argv in job["checks"]:
        construct(argv, seed)
    setup_s = time.monotonic() - t_spawn

    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer(job["run"])
        tracer.install()

    out = Path(job["out"])
    checks = []
    for i, argv in enumerate(job["checks"]):
        target = out / f"check-{i:02d}"
        full = [*argv, "--seed", str(seed), "--format", "csv",
                "--out", str(target)]
        rc, error = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(full)
        # a check that raises is recorded and the pass goes on; argparse
        # rejecting a check's arguments exits, which counts the same way
        except (Exception, SystemExit) as exc:
            error = f"{type(exc).__name__}: {exc}"
        checks.append({"argv": list(argv), "rc": rc, "error": error,
                       "seconds": time.perf_counter() - t0})
    wall_s = sum(c["seconds"] for c in checks)

    for i, check in enumerate(checks):
        check.update(digest(out / f"check-{i:02d}"))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"setup_s": setup_s, "wall_s": wall_s,
              "peak_rss_mb": peak_kb / 1024.0, "checks": checks,
              "spans": tracer.spans if tracer else []}
    Path(job["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
