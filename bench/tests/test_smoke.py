"""Smoke test of the benchmark harness: one short round of every workload.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
It asserts that every metric is printed with its unit and that no op
failed; it makes no timing assertion.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import PER_LAYER, TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
QUALITY = {"direction_fit": ("fit_kappa_rel_err", "1"), "train": ("train_final_mean_deg", "deg")}


def _run(cwd, workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "0",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_round_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, lines

    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}

    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split("#")[0].split()
            printed[name] = (float(value), unit)
    for m in expected:
        assert printed[m["name"]][1] == m["unit"]
    assert printed["failed_op_ratio"] == (0.0, "1")
    if workload in QUALITY:
        name, unit = QUALITY[workload]
        assert printed[name][1] == unit


def test_spec_matches_harness():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER) + [("trace.overhead", "1")]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_wrappers_follow_imported_bindings_and_absent_targets(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import angmf.cli
    from angmf import refine, sampling, synth

    originals = (sampling.invert_error_cdf, angmf.cli.select_pixels, refine.RngState.uniform)
    tracer = Tracer()
    tracer.install(TARGETS + (("refine.gone", "angmf.refine", "batch_nll_removed", {}),))
    try:
        assert synth.invert_error_cdf is sampling.invert_error_cdf is not originals[0]
        assert angmf.cli.select_pixels is refine.select_pixels is not originals[1]
        assert refine.RngState.uniform is not originals[2]
        assert tracer.absent == ["refine.gone"]
        tracer.op_id = 0
        assert angmf.cli.main(["expected-error", "--kappa", "1", "--out-json", str(tmp_path / "e.json")]) == 0
    finally:
        tracer.uninstall()
    assert (sampling.invert_error_cdf, angmf.cli.select_pixels, refine.RngState.uniform) == originals
    layers = tracer.per_layer()
    assert layers["distributions.expected_angular_error.calls"] == (1, "count")
    assert layers["cli.main.self_s"][0] > 0.0
