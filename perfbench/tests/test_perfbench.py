"""Tests of the benchmark itself, on a tiny slice of every workload.

    python3 -m pytest -q perfbench/tests

Each test runs ``perfbench/run.py --tiny`` in a subprocess (one pass over a
slice, one set-up run) and reads the JSON result on its last line.
"""

import cmath
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracing import LAYER_TABLE  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DETERMINISTIC_COUNTS = (
    "amplitude.spec_builds",
    "quadrature.evals",
    "expansion.watson_terms",
    "oracle.evals",
)


def run(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in SPEC["per_layer"]} == set(LAYER_TABLE)
    for m in SPEC["per_layer"]:
        assert (m["unit"], m["better"]) == LAYER_TABLE[m["name"]][:2]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_present_with_units(workload):
    result = run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_metrics_present_with_units(workload):
    result = run(workload, trace=1)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_deterministic_counts_repeat_exactly(workload):
    first, second = (run(workload, trace=1)["metrics"] for _ in range(2))
    for name in DETERMINISTIC_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    if workload == "figures":
        assert first["quadrature.evals"]["value"] > 0 and first["amplitude.spec_builds"]["value"] > 0
    if workload == "large_z":
        assert first["expansion.watson_terms"]["value"] > 0


def test_large_z_inputs_follow_the_seed():
    assert workloads.large_z_inputs(7) == workloads.large_z_inputs(7)
    assert workloads.large_z_inputs(7) != workloads.large_z_inputs(8)
    points = workloads.large_z_inputs(7)[0]
    assert len(points) * 2 == 72
    for _i, level, z in points:
        assert abs(abs(z) / level - 1.0) <= workloads.Z_JITTER
        assert 0.0 <= cmath.phase(z) <= workloads.THETA_MAX_OVER_PI * math.pi


def test_known_overflow_is_probed_not_timed():
    """hadamard_sum(pole) raises OverflowError for |z| >~ 404: out of the passes, in the probe."""
    wl = workloads.LargeZ(tiny=False)
    wl.setup(seed=1)
    wl.inputs = [[p for p in wl.inputs[0] if p[1] == 1600.0 and p[0] == 2]]
    res = wl.run_pass(0, calibrate=lambda: None)
    assert res.ops == 3 and not res.failures
    assert wl.check().wrong == 0
    probe = wl.probe_known_defects()
    assert probe.failures == {"pole(0.1pi) hadamard_sum |z|~1600 OverflowError": 3}
    assert probe.wrong == 0


def test_wrong_figure_value_is_caught():
    ref = (workloads.REFERENCE / "figures" / "fig2a-0.csv").read_text()
    lines = ref.splitlines(keepends=True)
    cells = lines[5].split(",")
    cells[5] = repr(float(cells[5]) * (1.0 + 1e-9))  # oracle_re off by 1e-9 relative
    bad = "".join(lines[:5] + [",".join(cells)] + lines[6:])
    assert workloads.compare_csv(ref, ref) == (49, 0, 0)
    assert workloads.compare_csv(bad, ref) == (49, 0, 1)


def test_verify_numbers_within_printed_precision():
    ref = "max |log10(|R|e^(r|z|))| = 2.956 (required <= 1.5), defect 8.16e-15"
    assert workloads.numbers_match(ref, ref)
    assert workloads.numbers_match(ref.replace("2.956", "2.957").replace("8.16e-15", "3e-16"), ref)
    assert not workloads.numbers_match(ref.replace("2.956", "2.966"), ref)
    assert not workloads.numbers_match(ref.replace("8.16e-15", "2e-12"), ref)


def test_hooks_replace_every_binding_and_restore():
    from laplasym import expansion, oracle, sweep
    from tracing import Tracer

    original = expansion.watson_sum
    tracer = Tracer()
    tracer.install()
    try:
        for module in (expansion, oracle, sweep, workloads.laplasym):
            assert module.watson_sum is not original
            assert module.watson_sum.__wrapped__ is original
    finally:
        tracer.uninstall()
    for module in (expansion, oracle, sweep, workloads.laplasym):
        assert module.watson_sum is original


def test_missing_hook_target_is_reported_absent(monkeypatch):
    from laplasym import expansion, summation
    from tracing import Tracer, layer_metrics

    monkeypatch.delattr(summation, "neumaier_csum")
    monkeypatch.delattr(summation, "neumaier_sum")
    tracer = Tracer()
    tracer.install()
    try:
        spec = workloads.laplasym.builtin_spec("pole", psi=0.3)
        expansion.watson_sum(spec, 20.0 + 5.0j, 0.8)
    finally:
        tracer.uninstall()
    metrics, absent = layer_metrics(tracer, passes=1)
    assert "neumaier_csum not found" in absent["summation.calls"]
    assert metrics["summation.calls"]["value"] == 0
    assert metrics["expansion.watson_calls"]["value"] == 1
    assert metrics["amplitude.spec_builds"]["value"] == 1
