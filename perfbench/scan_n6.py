"""Find the six-point kinematics on which the scattering op fails.

    PYTHONPATH=src python3 perfbench/scan_n6.py 0 400

For every seed in [start, stop) and both kinds (generic, positive) this
runs the scattering workload's op on pg.sample_kinematics(6, seed,
positive) and prints one JSON line: seed, kind, passed, seconds, failure.
The scattering workload draws its kinematics from the scanned range minus
the failing seeds (N6_POOL_SIZE and N6_FAILING in workloads.py), and a
failing seed outside the range (N6_DEFECT_SEED) is its defect probe.
The solver is deterministic, so a seed passes or fails on every run.
"""

from __future__ import annotations

import json
import sys
import time
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import posgeom as pg  # noqa: E402

from workloads import scattering_op  # noqa: E402


def main(argv: list[str]) -> int:
    start, stop = int(argv[0]), int(argv[1])
    warnings.simplefilter("ignore", RuntimeWarning)
    for seed in range(start, stop):
        for positive in (False, True):
            op = scattering_op(pg.sample_kinematics(6, seed, positive=positive), positive)
            began = time.perf_counter()
            try:
                verdict = op.run()
                passed, detail = verdict.ok, verdict.detail
            except Exception as exc:
                passed, detail = False, f"{type(exc).__name__}: {exc}"
            kind = "positive" if positive else "generic"
            print(json.dumps([seed, kind, passed, round(time.perf_counter() - began, 3), detail]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
