"""Smoke variants of every workload: same code paths, inputs that run in
seconds."""

import json
import subprocess
import sys

import pytest

import pins
import suite
from run import ROOT


def end_to_end_names():
    """The manifest's end-to-end metrics a workload reports itself
    (``run.py`` adds ``setup_s``)."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in manifest["end_to_end"]} - {"setup_s"}


def run_smoke(name, tmp_path, trace=False, pinned=None, seconds=0.1):
    bench = suite.make(name, 3, tmp_path / name, seconds, trace=trace,
                       smoke=True, pinned=pinned)
    try:
        bench.setup()
        return bench.run_traced(seconds) if trace else bench.run(seconds)
    finally:
        bench.close()


@pytest.mark.parametrize("name", ["sgemm-oversub", "solver-sweep"])
def test_sim_smoke(name, tmp_path):
    outcome = run_smoke(name, tmp_path)
    report = outcome.report()
    assert report["correct"] and report["failed"] == 0
    assert set(report["metrics"]) == end_to_end_names()
    assert all(m["value"] > 0 for m in report["metrics"].values())


def test_planted_pin_mismatch_counts_as_failed(tmp_path):
    outcome = run_smoke("sgemm-oversub", tmp_path, pinned={"point0": "0" * 32})
    assert outcome.attempted >= 1
    assert outcome.failed == outcome.attempted
    assert outcome.report()["correct"] is False


@pytest.mark.parametrize("name", ["sgemm-oversub", "solver-sweep"])
def test_sim_traced_smoke(name, tmp_path):
    metrics = run_smoke(name, tmp_path, trace=True).report()["metrics"]
    assert metrics["core.bins"]["value"] > 0
    assert metrics["gpu.run_phase_calls"]["value"] > 0
    assert 0.5 < metrics["trace.coverage"]["value"] <= 1.0
    if name == "solver-sweep":  # spans of forked pool workers arrived
        assert metrics["runner.pool_efficiency"]["value"] > 0


def _solo_fleet_pins():
    from repro.experiments.runner import simulate
    from repro.serve.jobs import JobSpec
    from repro.serve.results import result_to_doc

    import inputs

    out = {}
    for spec in {json.dumps(a.spec, sort_keys=True): a.spec for a in
                 inputs.fleet_arrivals(3, 0.1, min_fresh=15, smoke=True)}.values():
        doc = result_to_doc(simulate(*JobSpec.from_dict(spec).build()))
        out[pins.spec_id(spec)] = pins.doc_digest(doc)
    return out


@pytest.mark.parametrize("trace", [False, True])
def test_fleet_smoke_matches_solo_simulate(tmp_path, trace):
    outcome = run_smoke("fleet-openloop", tmp_path, trace=trace, pinned=_solo_fleet_pins())
    report = outcome.report()
    assert report["failed"] == 0 and report["attempted"] >= 15
    if trace:
        assert report["metrics"]["serve.worker_ms"]["value"] > 0
        assert report["metrics"]["fleet.hop_ms"]["value"] > 0
        assert report["metrics"]["loadgen.hit_p50_ms"]["value"] > 0
    else:
        assert set(report["metrics"]) == end_to_end_names()
        assert all(m["value"] > 0 for m in report["metrics"].values())


def test_exits_nonzero_without_program_sources(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench_dir / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sgemm-oversub",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_held_out_seed_draws_its_own_spec_slice():
    import inputs

    def keys(seed):
        return {pins.spec_id(a.spec) for a in inputs.fleet_arrivals(seed, 1.0)}

    held_out = keys(inputs.HELD_OUT_SEED)
    assert held_out.isdisjoint(keys(1) | keys(2))
    assert held_out <= set(pins.load("fleet-openloop"))


def test_rejects_a_window_the_spec_pool_cannot_fill():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-openloop",
         "--seed", "1", "--seconds", "1000", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == "" and "spec pool" in proc.stderr
