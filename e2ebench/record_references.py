"""Record reference outputs for the checks, from the current program.

    python3 e2ebench/record_references.py

Runs one untraced pass of every workload at its default seed (the
program's own: ``PAPER.seed`` for fig12, ``WorkloadSpec``'s for the
service) and at a held-out seed that benchmark tuning never used, and
writes their outputs to ``references.json``.  Re-run it only when a
change alters the outputs on purpose, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from run import WORK, Workers  # noqa: E402

HELD_OUT_SEED = 1009
SEEDS = {
    "fig12_paper": (20120704, HELD_OUT_SEED),
    "svc_stream": (7, HELD_OUT_SEED),
    "svc_chaos": (7, HELD_OUT_SEED),
}


def main() -> int:
    table = {}
    for workload, seeds in SEEDS.items():
        table[workload] = {}
        for seed in seeds:
            workdir = WORK / f"references-{workload}-{seed}"
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                workers = Workers(workload, seed, workdir)
                result = workers.run("pass")
                # Only the invariants: the references are what is re-recorded.
                failed = [c for c in result["checks"] if not c[1] and ".ref." not in c[0]]
                if workload == "svc_chaos":
                    crash_free = workers.run("crash-free")["digest"]
                    failed += [
                        c for c in checks.check_crash_free_parity(
                            result["outputs"]["digest"], crash_free
                        )
                        if not c[1]
                    ]
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if failed:
                print(f"{workload} seed {seed}: invariant checks failed: {failed}")
                return 1
            table[workload][str(seed)] = result["outputs"]
            print(f"{workload} seed {seed}: {json.dumps(result['outputs'])}")
    checks.REFERENCES.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
