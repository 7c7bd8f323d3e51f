"""One workload process: set up, warm up, run timed decks, print a JSON report.

Started by run.py, never by hand; the process is a single closed-loop
client, so the next op starts only when the previous one has finished.
A run splits its timed phase over --parts processes, one after the other;
part k runs decks k, k + parts, k + 2 parts, ... and stops at the deck
boundary nearest to --seconds / --parts.  With --trace 1 the one process
runs an untraced phase and then a traced phase of half that length each,
over the same decks, and then runs the workload's defect probes once.

Set-up runs from process start to the first timed op.  Its wall time is
measured from --t0 (taken by the parent just before it started this
process); setup_s is the main thread's CPU time for it, rescaled by the
reference computation (reference.py) like the op times.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

from checks import Verdict
from reference import REFERENCE_MS, reference, rescale
from summary import summarize
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# per-op figures aggregated by maximum; every other figure is summed
MAX_FIGURES = {"chy.max_rel_dev", "euler.max_rel_err"}
SETUP_REFERENCES = 3  # reference runs after the imports and again after the warm-up
# per-op figures reported with the traced run's per-layer metrics
LAYER_FIGURES = (
    "chy.runtime_warnings",
    "chy.max_rel_dev",
    "euler.max_rel_err",
    "cli.exit_2",
    "cli.exit_3",
    "cli.out_bytes",
)


def execute(op, tracer, op_id: int):
    """Run one op; returns (verdict, RuntimeWarnings raised, per module file)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            verdict = tracer.run_op(op_id, op.run) if tracer else op.run()
        except Exception as exc:  # an exception the op did not expect fails the op
            verdict = Verdict(False, f"{type(exc).__name__}: {exc}")
    sources = Counter(
        Path(w.filename).stem for w in caught if issubclass(w.category, RuntimeWarning)
    )
    return verdict, sources


def run_phase(workload, first_deck, seconds: float, tracer=None, part: int = 0, parts: int = 1) -> dict:
    """Run whole decks for about `seconds` of wall time.

    Every op is timed on the wall clock and on the process CPU clock, which
    leaves out the time the host takes the CPU away from this process.  The
    reference computation runs before every op and after the last one, and
    the CPU times rescaled by it (reference.py) give the norm_ metrics.
    """
    wall: list[float] = []
    cpu: list[float] = []
    reference_ms = [reference()]
    passed: list[bool] = []
    families: list[str] = []
    failures: list[str] = []
    figures: dict[str, float] = {}
    runtime_warnings: Counter = Counter()
    start = time.perf_counter()
    deck, decks = first_deck, 0
    while True:
        for op in deck:
            began, began_cpu = time.perf_counter(), time.process_time()
            verdict, sources = execute(op, tracer, len(cpu))
            elapsed_cpu = time.process_time() - began_cpu
            elapsed = time.perf_counter() - began
            reference_ms.append(reference())
            wall.append(elapsed)
            cpu.append(elapsed_cpu)
            passed.append(verdict.ok)
            families.append(op.family)
            runtime_warnings.update(sources)
            for name, value in verdict.figures.items():
                if name in MAX_FIGURES:
                    figures[name] = max(figures.get(name, 0.0), value)
                else:
                    figures[name] = figures.get(name, 0) + value
            if not verdict.ok and len(failures) < 20:
                failures.append(f"{op.family}: {verdict.detail}")
        decks += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / decks / 2 >= seconds:  # the deck boundary nearest to `seconds`
            break
        deck = workload.deck(part + parts * decks)
    figures["chy.runtime_warnings"] = runtime_warnings["chy"]
    return {
        "wall_s": time.perf_counter() - start,
        "decks": decks,
        "reference_ms_p50": statistics.median(reference_ms),
        "failures": failures,
        # per op, in run order: family, wall s, CPU s, rescaled s, passed
        "ops": list(zip(families, wall, cpu, rescale(cpu, reference_ms), passed)),
        "figures": figures,
        "runtime_warnings": dict(runtime_warnings),
    }


def run_probes(workload) -> list[dict]:
    """Run each defect probe once, untimed; a failing check reproduces the defect."""
    results = []
    for probe in workload.defect_probes():
        verdict, _ = execute(probe, None, -1)
        results.append({"defect": probe.defect, "reproduced": not verdict.ok, "detail": verdict.detail})
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="epoch time the parent started this process")
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    setup_reference_ms = [reference() for _ in range(SETUP_REFERENCES)]
    workload = WORKLOADS[args.workload](args.seed, OUT / f"work-{os.getpid()}")
    try:
        first = workload.deck(args.part)
        for op in workload.warm_up():
            execute(op, None, -1)
        setup_wall_s = time.time() - args.t0
        # CPU time of the main thread since the process started: the BLAS
        # threads' start-up spin runs beside it and is left out
        setup_cpu_s = time.thread_time() - sum(setup_reference_ms) / 1e3
        setup_reference_ms += [reference() for _ in range(SETUP_REFERENCES)]
        report = {
            "setup_s": setup_cpu_s * REFERENCE_MS / statistics.median(setup_reference_ms),
            "setup_wall_s": setup_wall_s,
            "setup_cpu_s": setup_cpu_s,
        }
        if args.trace:
            report.update(traced_run(workload, first, args))
        else:
            report["phase"] = run_phase(workload, first, args.seconds / args.parts, None, args.part, args.parts)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report["redrawn"] = workload.redrawn
    finally:
        workload.close()
    print(json.dumps(report))
    return 0


def traced_run(workload, first, args) -> dict:
    plain = run_phase(workload, first, args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_phase(workload, first, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans)
    layers = tracer.layer_metrics()
    layers.update({name: traced["figures"].get(name, 0) for name in LAYER_FIGURES})
    plain_rate, traced_summary = summarize([plain])["ops_per_s"], summarize([traced])
    layers["trace.untraced_ops_per_s"] = plain_rate
    layers["trace.traced_ops_per_s"] = traced_summary["ops_per_s"]
    layers["trace.overhead"] = plain_rate / traced_summary["ops_per_s"]
    layers["trace.self_coverage"] = sum(tracer.self_s.values()) / traced_summary["op_time_s"]
    probes = run_probes(workload)
    layers["defects.reproduced"] = sum(p["reproduced"] for p in probes)
    return {
        "phase": traced,
        "untraced_phase": plain,
        "layers": layers,
        "probes": probes,
        "spans_file": str(spans.relative_to(ROOT)),
    }


if __name__ == "__main__":
    sys.exit(main())
