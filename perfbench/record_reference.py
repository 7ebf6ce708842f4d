"""Record each check's verdict and margins at the reference seed.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Writes perfbench/reference.json, which run.py gates verdicts against and
measures margin shifts from.  Re-record only when the workloads change;
a program change that moves a verdict is what the gate is there to catch.
"""

import json
import sys
import tempfile
import time
from pathlib import Path

from run import BUDGET_S, REFERENCE, WORK, run_pass, warm_up
from workloads import REF_SEED, WORKLOADS


def main(names) -> None:
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    WORK.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        deadline = time.monotonic() + BUDGET_S
        warm_up(deadline)
        with tempfile.TemporaryDirectory(dir=WORK) as run_dir:
            result = run_pass(WORKLOADS[name].checks, REF_SEED, False,
                              Path(run_dir), 0, deadline)
        bad = [c for c in result["checks"] if c["error"] is not None]
        if bad:
            raise SystemExit(f"{name}: {bad[0]['argv']} raised "
                             f"{bad[0]['error']}")
        reference[name] = [{"argv": c["argv"], "verdict": c["rc"],
                            "margins": c["margins"]} for c in result["checks"]]
        print(f"{name}: {[c['rc'] for c in result['checks']]}")
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
