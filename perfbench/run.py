"""Run one posgeom benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 25 --trace 0

Workloads: exact, scattering, euler, cli (see perfbench/README.md).  With
--trace 0 the last line of stdout is a JSON object whose metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 they are the
per-layer metrics.  Every line before it is a human-readable report, and
the full record, with provenance, is written to perfbench/out/.

The workload runs in WORKERS fresh worker processes started from here, one
after the other.  Each sets up (setup_s is the median of their set-up
times) and runs a share of the timed phase; the ops of all of them are
pooled.  A traced run uses one worker.  This process never imports posgeom.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from summary import summarize
from tracing import MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("exact", "scattering", "euler", "cli")
WORKERS = 3
DEADLINE_S = 170  # the whole run, set-up processes included, ends before this

END_TO_END = {"setup_s": "s", "norm_ops_per_s": "1/s", "norm_op_ms_p50": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{module}.{kind}": unit for module in MODULES for kind, unit in (("calls", "count"), ("self_s", "s"), ("errors", "count"))},
    "harness.self_s": "s",
    "trees.triangulations": "count",
    "grassmann.cone_facets.calls": "count",
    "chy.roots": "count",
    "chy.worst_residual": "ratio",
    "chy.min_root_sep": "ratio",
    "chy.max_rel_dev": "ratio",
    "chy.runtime_warnings": "count",
    "quadrature.evals": "count",
    "gkz.integrand_s": "s",
    "euler.max_rel_err": "ratio",
    "cli.exit_2": "count",
    "cli.exit_3": "count",
    "cli.out_bytes": "bytes",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead": "ratio",
    "trace.self_coverage": "ratio",
    "defects.reproduced": "count",
}
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "unknown"


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(ROOT),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "load": "one worker process at a time, one closed-loop client thread",
    }


def start_worker(args, deadline: float, part: int, parts: int) -> dict:
    """Run a worker process to completion and return its JSON report."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--part", str(part),
        "--parts", str(parts),
        "--t0", repr(time.time()),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic())
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def report_lines(record: dict) -> list[str]:
    prov = record["provenance"]
    phase = record["phase"]
    lines = [
        f"posgeom benchmark: workload={prov['workload']} seed={prov['seed']} trace={prov['trace']}"
        f" commit={prov['git_commit']}",
        f"machine: {prov['nproc']} cpus ({prov['cpus_usable']} usable), {prov['cpu_model']}; python"
        f" {prov['python']}, numpy {prov['numpy']}, scipy {prov['scipy']}",
        f"threads: {', '.join(f'{k}={v}' for k, v in prov['thread_env'].items() if v) or 'no thread variables set'}",
        f"timed phase: {phase['attempted']} ops in {phase['decks']} decks in {phase['processes']} worker process(es),"
        f" {phase['wall_s']:.2f} s wall,"
        f" {phase['op_time_s']:.2f} s wall and {phase['op_cpu_s']:.2f} s CPU in ops",
        f"  setup_s         {record['setup_s']:.4f} s    (median of {len(record['setup_samples'])} set-ups, rescaled CPU"
        f" time; {record['setup_wall_s']:.4f} s wall)",
        f"  norm_ops_per_s  {phase['norm_ops_per_s']:.4f} 1/s  ({phase['attempted'] - phase['failed']} verified ops"
        " per reference second)",
        f"  norm_op_ms_p50  {phase['norm_op_ms_p50']:.4f} ms   (n={phase['attempted']}, reference ms)",
        f"  ops_per_s       {phase['ops_per_s']:.4f} 1/s  (verified ops per wall second in ops)",
        f"  op_ms_p50       {phase['op_ms_p50']:.4f} ms   (n={phase['attempted']}, wall)",
        f"  op_cpu_ms_p50   {phase['op_cpu_ms_p50']:.4f} ms   (n={phase['attempted']}, CPU)",
        f"  reference       {phase['reference_ms_p50']:.4f} ms   (median CPU time of one reference run;"
        " 2.0 ms on a quiet host)",
        "  op_ms_p90       "
        + (
            f"{phase['op_ms_p90']:.4f} ms   (n={phase['attempted']}, wall)"
            if phase["op_ms_p90"] is not None
            else f"not reported: {phase['attempted']} ops < 100"
        ),
        f"  fail_frac       {phase['fail_frac']:.4f}      ({phase['failed']} of {phase['attempted']} failed)",
        f"  peak_rss_mb     {record['peak_rss_mb']:.2f} MB",
        f"inputs drawn again because they hit a known defect: {record['redrawn']}",
    ]
    lines += [
        f"  family {name:26s} n={f['ops']:5d}  p50 {f['norm_ms_p50']:10.3f} reference ms" for name, f in phase["families"].items()
    ]
    lines += [f"  failure: {text}" for text in phase["failures"]]
    if "layers" in record:
        plain = record["untraced_phase"]
        lines.append(
            f"untraced phase: {plain['attempted']} ops in {plain['decks']} decks, ops_per_s {plain['ops_per_s']:.4f} 1/s;"
            " the phase above was traced"
        )
        lines += [f"  layer  {name:32s} {value:.6g}" for name, value in record["layers"].items()]
        lines += [
            f"  defect probe: {'reproduced' if p['reproduced'] else 'NOT reproduced'}: {p['defect']}"
            + (f" ({p['detail']})" if p["detail"] else "")
            for p in record["probes"]
        ]
        lines.append(f"  spans written to {record['spans_file']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "posgeom" / "__init__.py").is_file():
        print(f"posgeom sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # byte-compile first, so that no measured set-up pays for it
    if not (compileall.compile_dir(ROOT / "src", quiet=1) and compileall.compile_dir(HERE, quiet=1)):
        print("byte-compiling the sources failed", file=sys.stderr)
        return 2
    parts = 1 if args.trace else WORKERS
    try:
        workers = [start_worker(args, deadline, part, parts) for part in range(parts)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    record = dict(workers[0])
    record["setup_samples"] = [{key: w[key] for key in ("setup_s", "setup_wall_s", "setup_cpu_s")} for w in workers]
    for key in ("setup_s", "setup_wall_s"):
        record[key] = statistics.median(w[key] for w in workers)
    record["peak_rss_mb"] = max(w["peak_rss_mb"] for w in workers)
    record["redrawn"] = sum(w["redrawn"] for w in workers)
    record["phase_ops"] = [w["phase"]["ops"] for w in workers]
    record["phase"] = summarize([w["phase"] for w in workers])
    if args.trace:
        record["untraced_phase"] = summarize([record["untraced_phase"]])
    record["provenance"] = provenance(args)

    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    for line in report_lines(record):
        print(line)

    phase = record["phase"]
    if args.trace:
        values, units = record["layers"], PER_LAYER
    else:
        values = {"setup_s": record["setup_s"], "peak_rss_mb": record["peak_rss_mb"]}
        values.update({key: phase[key] for key in ("norm_ops_per_s", "norm_op_ms_p50")})
        units = END_TO_END
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    phases = [phase, record["untraced_phase"]] if args.trace else [phase]
    result = {
        "correct": all(p["failed"] == 0 for p in phases),
        "attempted": sum(p["attempted"] for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
