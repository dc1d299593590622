"""Tests of the benchmark itself, on the smoke sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
from run import WORKLOADS  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


def _smoke(trace: int) -> dict:
    rc, out = _run("--workload", "all", "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--smoke")
    assert rc == 0, out
    return json.loads(out.strip().splitlines()[-1])


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_untraced_smoke_reports_every_end_to_end_metric():
    result = _smoke(trace=0)
    assert result["correct"] and result["failed"] == 0
    expected = {f"{w}.{m['name']}" for w in WORKLOADS for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == expected
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for key, metric in result["metrics"].items():
        assert metric["value"] > 0, key
        assert metric["unit"] == units[key.split(".", 1)[1]]


def test_traced_smoke_reports_layers_and_exact_counts():
    result = _smoke(trace=1)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {f"{w}.{m['name']}" for w in WORKLOADS
                            for m in SPEC["per_layer"]}
    assert metrics["detect_suite.morphosift.ms3d_calls"] == 3
    assert metrics["sift_fullres.morphosift.ms3d_calls"] == 4
    assert metrics["train_fit.morphosift.ms3d_calls"] == 0
    assert metrics["detect_suite.features.shell_calls_per_candidate"] == 6
    # four m_try forests of 1000 trees, then the refit of the chosen size
    assert metrics["train_fit.classifiers.rf_trees_grown"] - 4000 in range(100, 1001, 100)
    assert metrics["train_fit.classifiers.rusboost_rounds"] == 20
    # detect_suite fits its models in set-up, through ``siftcad train``
    assert metrics["detect_suite.classifiers.rusboost_rounds"] == 20
    assert metrics["detect_suite.classifiers.predict_calls"] > 0
    for w in WORKLOADS:
        assert metrics[f"{w}.trace.coverage"] >= 0.9
        assert metrics[f"{w}.phantom.generate_s"] > 0
        assert (HERE / "out" / f"trace-{w}-seed1.jsonl").is_file()


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    rc, out = _run("--workload", "train_fit", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert rc != 0
    assert "correct" not in out


def test_self_time_subtracts_direct_children():
    tracer = Tracer("unit")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    own = self_times(tracer.spans, tracer.children())
    assert inner.parent == outer.id
    assert own[outer.id] == pytest.approx(outer.duration - inner.duration)
    assert own[inner.id] == inner.duration


def test_clock_divides_each_segment_by_the_kernel_at_its_ends(monkeypatch):
    kernel_s = iter([1.0, 3.0, 2.0])
    monkeypatch.setattr(reference, "timed", lambda: next(kernel_s))
    with reference.Clock() as clock:
        time.sleep(0.02)
        clock.tick()
        time.sleep(0.02)
    # two segments of about 0.02 s, read against kernel means 2.0 and 2.5
    assert clock.wall_s >= 0.04
    assert clock.wall_s / 2.5 < clock.rel < clock.wall_s / 2.0
