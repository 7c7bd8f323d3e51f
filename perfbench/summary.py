"""Summary figures of timed phases, pooled over the processes of a run.

A run times its ops in several worker processes, because one process can
run the same ops up to 10% faster than another at the same host speed;
pooling every op of every process averages that out.  Each phase holds
its ops as (family, wall s, CPU s, rescaled s, passed) tuples.
"""

from __future__ import annotations

import statistics

P90_MIN_OPS = 100


def summarize(phases: list[dict]) -> dict:
    ops = [op for phase in phases for op in phase["ops"]]
    wall = [op[1] for op in ops]
    cpu = [op[2] for op in ops]
    norm = [op[3] for op in ops]
    failed = sum(not op[4] for op in ops)
    verified = len(ops) - failed
    by_family: dict[str, list[float]] = {}
    for op in ops:
        by_family.setdefault(op[0], []).append(op[3])
    return {
        "processes": len(phases),
        "decks": sum(phase["decks"] for phase in phases),
        "wall_s": sum(phase["wall_s"] for phase in phases),
        "attempted": len(ops),
        "failed": failed,
        "op_time_s": sum(wall),
        "op_cpu_s": sum(cpu),
        "norm_ops_per_s": verified / sum(norm),
        "norm_op_ms_p50": statistics.median(norm) * 1e3,
        "ops_per_s": verified / sum(wall),
        "op_ms_p50": statistics.median(wall) * 1e3,
        "op_ms_p90": statistics.quantiles(wall, n=10)[-1] * 1e3 if len(ops) >= P90_MIN_OPS else None,
        "op_cpu_ms_p50": statistics.median(cpu) * 1e3,
        "reference_ms_p50": statistics.median(phase["reference_ms_p50"] for phase in phases),
        "fail_frac": failed / len(ops),
        "families": {
            name: {"ops": len(ts), "norm_ms_p50": statistics.median(ts) * 1e3} for name, ts in sorted(by_family.items())
        },
        "failures": [text for phase in phases for text in phase["failures"]][:20],
    }
