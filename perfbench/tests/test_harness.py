"""Smoke sizes of every workload, the tracer's accounting, and the
benchmark's contract with BENCHMARK.json."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import posgeom as pg

import run
from reference import REFERENCE_MS, reference, rescale
from summary import summarize
from tracing import MODULES, Tracer
from worker import run_phase, run_probes
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_deck_passes(name, tmp_path):
    workload = WORKLOADS[name](7, tmp_path / "work")
    try:
        phase = summarize([run_phase(workload, workload.smoke(), seconds=0)])
    finally:
        workload.close()
    assert phase["attempted"] >= 1 and phase["decks"] == 1
    assert phase["failed"] == 0, phase["failures"]


@pytest.mark.parametrize("name", ["exact", "cli"])
def test_defect_probes_reproduce_the_documented_defects(name, tmp_path):
    """The cheap probes; the scattering and euler ones take 4 to 6 s each."""
    workload = WORKLOADS[name](1, tmp_path / "work")
    try:
        probes = run_probes(workload)
    finally:
        workload.close()
    assert probes and all(p["reproduced"] for p in probes), probes


def test_rescale_follows_the_reference_and_ignores_one_disturbed_sample():
    assert reference() > 0
    steady = rescale([0.1, 0.2], [2 * REFERENCE_MS] * 3)
    assert steady == pytest.approx([0.05, 0.1])
    # one reference sample ten times slower than its neighbours leaves the ops unchanged
    cpu = [0.1] * 4
    disturbed = rescale(cpu, [REFERENCE_MS, REFERENCE_MS, 10 * REFERENCE_MS, REFERENCE_MS, REFERENCE_MS])
    assert disturbed == pytest.approx(cpu)


def test_decks_are_reproducible_from_the_seed():
    first, second = WORKLOADS["exact"](5, Path()), WORKLOADS["exact"](5, Path())
    assert [op.family for op in first.deck(2)] == [op.family for op in second.deck(2)]
    assert [op.family for op in first.deck(2)] != [op.family for op in WORKLOADS["exact"](6, Path()).deck(2)]


@pytest.mark.parametrize("name", ["exact", "cli", "euler"])
def test_traced_self_time_sums_to_op_wall_time(name, tmp_path):
    workload = WORKLOADS[name](11, tmp_path / "work")
    tracer = Tracer()
    tracer.install()
    try:
        phase = summarize([run_phase(workload, workload.smoke(), 0, tracer)])
    finally:
        tracer.uninstall()
        workload.close()
    assert phase["failed"] == 0, phase["failures"]
    layers = tracer.layer_metrics()
    coverage = sum(tracer.self_s.values()) / phase["op_time_s"]
    assert 0.95 <= coverage <= 1.05
    assert all(tracer.self_s[layer] >= 0 for layer in tracer.self_s)
    if name == "euler":
        assert layers["quadrature.evals"] > 0
        assert 0 < layers["gkz.integrand_s"] < layers["gkz.self_s"]
        assert layers["quadrature.self_s"] > 0
    if name == "exact":
        assert layers["trees.triangulations"] > 0 and layers["chy.roots"] > 0
    if name == "cli":
        assert layers["cli.calls"] > 0 and layers["exact.calls"] > 0


def test_tracer_patches_imported_names_and_restores_them():
    original_det = pg.polytope.det
    original_quad = pg.gkz.adaptive_quad
    original_mul = pg.Polynomial.__mul__
    tracer = Tracer()
    tracer.install()
    try:
        assert pg.polytope.det is not original_det and pg.polytope.det.__wrapped__ is original_det
        assert pg.exact.det is pg.polytope.det and pg.det is pg.polytope.det
        assert pg.gkz.adaptive_quad.__wrapped__ is original_quad
        assert pg.Polynomial.__mul__ is not original_mul
        # outside an op the wrappers pass through without counting
        assert pg.det([[1, 2], [3, 4]]) == -2 and not tracer.calls
        tracer.run_op(0, lambda: pg.det([[1, 2], [3, 4]]))
        assert tracer.calls["exact"] == 1 and tracer.spans[0][3] == "exact"
    finally:
        tracer.uninstall()
    assert pg.polytope.det is original_det and pg.gkz.adaptive_quad is original_quad
    assert pg.Polynomial.__mul__ is original_mul


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == sorted(WORKLOADS, key=run.WORKLOADS.index)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(f"{module}.self_s" in run.PER_LAYER for module in MODULES)


def test_runner_fails_without_the_sources(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    runner exits non-zero without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
