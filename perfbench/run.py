"""curvlab benchmark: wall time, throughput, set-up and memory per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from its
`src/`.  One caller drives the workload's checks through
`curvlab.cli.main` in a closed loop: each check starts when the previous
one returns.  Every pass runs in a fresh interpreter with one thread
(CURVLAB_THREADS and the BLAS/OpenMP thread counts set to 1), because
curvlab caches special-function values, quadrature nodes and grid
generators per process and a command-line user pays for them on every
invocation.  A run makes at least two passes and ends as close to S
seconds as whole passes allow; every metric is the median over its passes.

--trace 0 prints the end-to-end metrics: wall_s (the checks, set-up
excluded), records_per_s (margin records per second of wall_s), setup_s
(interpreter start through import and config/engine construction),
peak_rss_mb, and ok_frac (checks that ran and kept the verdict recorded in
reference.json, over checks attempted).  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics of spans.py.

Correctness: every check must keep its recorded verdict, raise nothing,
and write reports that hash the same in every pass of the run (timestamp
and wall_time_s excluded); `run doublewell-falsify` must also refute its
claim by a margin of at least 1e-3.  The largest margin shift against the
reference margins (comparable when the workload ignores the seed or the
seed is the reference seed) and the largest stderr are printed, not gated.

The last line of output is one JSON object: correct, attempted, failed,
metrics.  Work files go under .perfbench/ at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import layer_metrics, layer_self, median_metrics
from workloads import FALSIFY, FALSIFY_MARGIN, REF_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
BUDGET_S = 170.0   # every run ends well inside the 180 s a run may take

THREAD_VARS = ("CURVLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not run; it prints no result."""


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({k: "1" for k in THREAD_VARS})
    return env


def warm_up(deadline: float) -> None:
    """Import once untimed, so the first pass does not pay to compile."""
    proc = subprocess.run([sys.executable, "-c", "import curvlab.cli"],
                          env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=deadline - time.monotonic())
    if proc.returncode != 0:
        raise BenchError(f"cannot import curvlab from {ROOT / 'src'}:\n"
                         f"{proc.stderr.strip()}")


def run_pass(checks, seed: int, trace: bool, run_dir: Path, run_id: int,
             deadline: float) -> dict:
    """One pass over the checks in a fresh interpreter; returns the result
    child.py wrote."""
    pass_dir = run_dir / f"pass-{run_id:03d}"
    pass_dir.mkdir()
    job = {"checks": [list(c) for c in checks], "seed": seed, "trace": trace,
           "run": run_id, "out": str(pass_dir / "out"),
           "result": str(pass_dir / "result.json")}
    job_file = pass_dir / "job.json"
    job_file.write_text(json.dumps(job))
    with open(pass_dir / "stderr.txt", "w") as err:
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(job_file),
                 repr(t_spawn)],
                env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                stderr=err, timeout=max(deadline - t_spawn, 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"pass {run_id} overran the run's time budget")
    if proc.returncode != 0:
        tail = (pass_dir / "stderr.txt").read_text()[-2000:]
        raise BenchError(f"pass {run_id} exited with {proc.returncode}:\n"
                         f"{tail}")
    result = json.loads((pass_dir / "result.json").read_text())
    result["traced"] = trace
    return result


def run_passes(checks, seed, seconds, trace, run_dir, deadline) -> list:
    """At least two passes, then more while that brings the run closer to
    `seconds` long; with trace, untraced and traced passes alternate."""
    start = time.monotonic()
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.monotonic()
        passes.append(run_pass(checks, seed, traced, run_dir, len(passes),
                               deadline))
        last = time.monotonic() - t0
        if len(passes) >= 2 and time.monotonic() - start + last / 2 >= seconds:
            return passes


def judge(passes, reference) -> tuple:
    """(attempted, failed, problems) under the correctness gate."""
    attempted = failed = 0
    problems = []
    first = passes[0]["checks"]
    for n, p in enumerate(passes):
        for i, (check, ref) in enumerate(zip(p["checks"], reference)):
            attempted += 1
            why = None
            if check["error"] is not None:
                why = f"raised {check['error']}"
            elif check["rc"] != ref["verdict"]:
                why = f"verdict {check['rc']}, recorded {ref['verdict']}"
            elif tuple(check["argv"]) == FALSIFY and min(
                    check["margins"], default=0.0) > FALSIFY_MARGIN:
                why = f"falsification margin above {FALSIFY_MARGIN}"
            elif check["hash"] != first[i]["hash"]:
                why = "reports differ from the first pass"
            if why:
                failed += 1
                problems.append(f"pass {n} check {i} "
                                f"({' '.join(check['argv'])}): {why}")
    return attempted, failed, problems


def reference_shift(checks, reference, comparable: bool) -> str:
    stderr_max = max((s for c in checks for s in c["stderrs"]), default=0.0)
    if not comparable:
        shift = f"n/a (seed is not the reference seed {REF_SEED})"
    elif any(len(c["margins"]) != len(r["margins"])
             for c, r in zip(checks, reference)):
        shift = "n/a (record counts differ from the reference)"
    else:
        shift = repr(max((abs(a - b) for c, r in zip(checks, reference)
                          for a, b in zip(c["margins"], r["margins"])),
                         default=0.0))
    return f"margin_shift_max={shift} stderr_max={stderr_max!r}"


def end_to_end(passes, attempted, failed) -> dict:
    def med(key):
        return statistics.median(p[key] for p in passes)

    records = statistics.median(
        sum(len(c["margins"]) for c in p["checks"]) / p["wall_s"]
        for p in passes)
    return {
        "wall_s": {"value": med("wall_s"), "unit": "s"},
        "records_per_s": {"value": records, "unit": "1/s"},
        "setup_s": {"value": med("setup_s"), "unit": "s"},
        "peak_rss_mb": {"value": med("peak_rss_mb"), "unit": "MB"},
        "ok_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
    }


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_per_record", "_per_check")):
        return "ratio"
    return "count"


def per_layer(passes, n_checks: int) -> tuple:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    each = []
    for p in traced:
        m = layer_metrics(p["spans"], n_checks, p["wall_s"])
        m["cli.files_written"] = sum(c["files"] for c in p["checks"])
        m["cli.bytes_written"] = sum(c["bytes"] for c in p["checks"])
        each.append(m)
    m = median_metrics(each)
    m["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in plain) - 1.0)
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in m.items()}
    return metrics, layer_self(traced[-1]["spans"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    # turn a termination request into an exception, so that subprocess.run
    # kills and reaps the running pass and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + BUDGET_S
    workload = WORKLOADS[args.workload]
    try:
        if not (ROOT / "src" / "curvlab" / "cli.py").is_file():
            raise BenchError(f"no curvlab sources under {ROOT / 'src'}")
        reference = json.loads(REFERENCE.read_text())[workload.name]
        if [r["argv"] for r in reference] != [list(c)
                                              for c in workload.checks]:
            raise BenchError("reference.json does not match the workload's "
                             "checks; run record_reference.py")
        WORK.mkdir(exist_ok=True)
        run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
        try:
            warm_up(deadline)
            passes = run_passes(workload.checks, args.seed, args.seconds,
                                bool(args.trace), run_dir, deadline)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, problems = judge(passes, reference)
    for n, p in enumerate(passes):
        records = sum(len(c["margins"]) for c in p["checks"])
        print(f"pass {n}{' traced' if p['traced'] else ''}: "
              f"setup {p['setup_s']:.3f} s, wall {p['wall_s']:.3f} s, "
              f"{records} records, peak {p['peak_rss_mb']:.1f} MB")
    for line in problems:
        print(f"FAILED {line}")
    comparable = not workload.seeded or args.seed == REF_SEED
    print("reference: " + reference_shift(passes[0]["checks"], reference,
                                          comparable))
    if args.trace:
        metrics, selfs = per_layer(passes, len(workload.checks))
        WORK.joinpath(f"trace-{workload.name}.json").write_text(json.dumps(
            [p["spans"] for p in passes if p["traced"]]))
        ranked = sorted(selfs.items(), key=lambda kv: -kv[1])
        print("self time by layer (last traced pass): " + ", ".join(
            f"{k} {v:.3f} s" for k, v in ranked))
    else:
        metrics = end_to_end(passes, attempted, failed)
    print(f"{len(passes)} passes, medians reported")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
