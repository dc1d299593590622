"""Tests for the command-line interface."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from siftcad.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    RunConfig,
    load_config,
    main,
)
from siftcad.morphosift import lse_magnitudes, ms3d, normalize16
from siftcad.nrrd_io import load_case, load_manifest, load_mask, save_mask, save_volume
from siftcad.volume import BinaryMask, VolumeError, subtract


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny but complete run: 2-case dataset, models, detections."""
    root = tmp_path_factory.mktemp("cliws")
    data = root / "data"
    assert main(["phantom", "--out", str(data), "--cases", "2",
                 "--seed", "9"]) == EXIT_OK
    models = root / "models"
    assert main(["train", "--manifest", str(data / "manifest.json"),
                 "--out", str(models), "--n-trees", "20",
                 "--seed", "9"]) == EXIT_OK
    det = root / "det"
    assert main(["detect", "--manifest", str(data / "manifest.json"),
                 "--models", str(models), "--out", str(det),
                 "--split", "all", "--seed", "9"]) == EXIT_OK
    return root


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert (cfg.m_scales, cfg.n_orient, cfg.t_count) == (3, 10, 16)
        p = cfg.pipeline_params()
        assert p.min_diameter_mm == pytest.approx(4.0)
        assert p.max_diameter_mm == pytest.approx(63.0)

    def test_file_then_flag_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_orient": 6, "seed": 4}))
        cfg = load_config(path, {"seed": 8, "t_count": None})
        assert cfg.n_orient == 6
        assert cfg.seed == 8
        assert cfg.t_count == 16

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"nope": 1}))
        with pytest.raises(VolumeError):
            load_config(path, {})

    def test_invalid_values_rejected(self):
        with pytest.raises(VolumeError):
            RunConfig(m_scales=0)
        with pytest.raises(VolumeError):
            RunConfig(v_min=10.0, v_max=5.0)
        with pytest.raises(VolumeError):
            RunConfig(threads=0)

    def test_config_flag_reaches_commands(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threads": 2}))
        # invalid JSON value type surfaces as a runtime error
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        rc = main(["phantom", "--out", str(tmp_path / "x"), "--cases", "1",
                   "--config", str(bad)])
        assert rc == EXIT_RUNTIME


class TestExitCodes:
    def test_no_subcommand_is_usage(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_flag_is_usage(self):
        assert main(["phantom", "--out", "x", "--bogus"]) == EXIT_USAGE

    def test_missing_required_flag_is_usage(self):
        assert main(["train", "--manifest", "m.json"]) == EXIT_USAGE

    def test_missing_manifest_is_runtime(self, tmp_path):
        rc = main(["train", "--manifest", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "m")])
        assert rc == EXIT_RUNTIME

    def test_unknown_case_id_is_runtime(self, workspace):
        rc = main(["sift", "--manifest", str(workspace / "data/manifest.json"),
                   "--case", "no_such_case", "--out", str(workspace / "s2")])
        assert rc == EXIT_RUNTIME

    def test_bad_detections_format_is_runtime(self, workspace, tmp_path):
        bogus = tmp_path / "detections.json"
        bogus.write_text(json.dumps({"format": "other"}))
        rc = main(["evaluate", "--detections", str(bogus),
                   "--manifest", str(workspace / "data/manifest.json"),
                   "--out", str(tmp_path / "e")])
        assert rc == EXIT_RUNTIME

    def test_help_exits_zero(self):
        assert main(["--help"]) == EXIT_OK


class TestPhantomCommand:
    def test_single_case_run(self, tmp_path):
        out = tmp_path / "one"
        assert main(["phantom", "--out", str(out), "--cases", "1",
                     "--seed", "2"]) == EXIT_OK
        assert (out / "manifest.json").exists()
        doc = json.loads((out / "manifest.json").read_text())
        assert len(doc["cases"]) == 1

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["phantom", "--out", str(out), "--cases", "1",
                         "--seed", "5"]) == EXIT_OK
        assert (a / "manifest.json").read_bytes() == \
            (b / "manifest.json").read_bytes()
        case = json.loads((a / "manifest.json").read_text())["cases"][0]
        rel = case["dce"][1]
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


class TestPipelineCommands:
    def test_sift_writes_candidates_and_debug_volume(self, workspace):
        out = workspace / "sift"
        rc = main(["sift", "--manifest", str(workspace / "data/manifest.json"),
                   "--out", str(out)])
        assert rc == EXIT_OK
        cand_files = list(out.glob("*_candidates.json"))
        assert len(cand_files) == 1
        doc = json.loads(cand_files[0].read_text())
        assert doc["format"] == "siftcad-candidates"
        assert len(doc["candidates"]) > 0
        assert list(out.glob("*_ms3d.nrrd"))

    def test_sift_debug_volume_is_full_resolution_response(self, workspace, tmp_path):
        manifest = workspace / "data/manifest.json"
        assert main(["sift", "--manifest", str(manifest),
                     "--out", str(tmp_path)]) == EXIT_OK
        record = load_manifest(manifest)[0]
        case = load_case(record)
        cfg = RunConfig()
        d, _, big_d = case.spacing
        plan = lse_magnitudes(cfg.v_min, cfg.v_max, d, big_d, cfg.m_scales)
        response = ms3d(subtract(case.dce[1], case.dce[0]), plan, cfg.n_orient)
        save_volume(tmp_path / "want.nrrd", normalize16(response, case.breast_mask))
        assert (tmp_path / f"{record.case_id}_ms3d.nrrd").read_bytes() == \
            (tmp_path / "want.nrrd").read_bytes()

    def test_sift_empty_breast_mask_is_runtime(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        record = load_manifest(data / "manifest.json")[0]
        mask_path = data / record.breast_mask
        mask = load_mask(mask_path)
        save_mask(mask_path, BinaryMask(np.zeros_like(mask.data), mask.spacing))
        rc = main(["sift", "--manifest", str(data / "manifest.json"),
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_RUNTIME
        assert "normalisation mask is empty" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("*_ms3d.nrrd"))

    def test_train_writes_models_and_summary(self, workspace):
        models = workspace / "models"
        assert (models / "lesion_model.json").exists()
        summary = json.loads((models / "train_summary.json").read_text())
        assert summary["n_positive"] >= 1
        assert summary["n_negative"] >= 1
        assert "generated" not in " ".join(summary)

    def test_detect_writes_detections_with_masks(self, workspace):
        doc = json.loads((workspace / "det/detections.json").read_text())
        assert doc["format"] == "siftcad-detections"
        assert len(doc["cases"]) == 2
        for entry in doc["cases"]:
            for d in entry["detections"]:
                assert (workspace / "det" / d["mask"]).exists()
                assert 0.0 <= d["lesion_score"] <= 1.0

    def test_detect_is_byte_deterministic(self, workspace):
        out2 = workspace / "det2"
        rc = main(["detect", "--manifest", str(workspace / "data/manifest.json"),
                   "--models", str(workspace / "models"), "--out", str(out2),
                   "--split", "all", "--seed", "9"])
        assert rc == EXIT_OK
        assert (out2 / "detections.json").read_bytes() == \
            (workspace / "det/detections.json").read_bytes()
        masks = sorted((workspace / "det/masks").iterdir())
        masks2 = sorted((out2 / "masks").iterdir())
        assert [m.name for m in masks] == [m.name for m in masks2]
        for m, m2 in zip(masks, masks2):
            assert m.read_bytes() == m2.read_bytes()

    def test_evaluate_writes_report_and_curves(self, workspace):
        out = workspace / "eval"
        rc = main(["evaluate", "--detections",
                   str(workspace / "det/detections.json"),
                   "--manifest", str(workspace / "data/manifest.json"),
                   "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert "detection" in report and "arcg" in report
        assert (out / "froc.csv").read_text().startswith("threshold,tpr,fpp")
        assert (out / "roc.csv").read_text().startswith("fpr,tpr")

    def test_evaluate_identical_modulo_timestamp_line(self, workspace):
        outs = [workspace / "eval_a", workspace / "eval_b"]
        for out in outs:
            assert main(["evaluate", "--detections",
                         str(workspace / "det/detections.json"),
                         "--manifest", str(workspace / "data/manifest.json"),
                         "--out", str(out)]) == EXIT_OK
        lines = [(o / "report.json").read_text().splitlines() for o in outs]
        assert len(lines[0]) == len(lines[1])
        diffs = [i for i, (a, b) in enumerate(zip(*lines)) if a != b]
        assert all("generated_at" in lines[0][i] for i in diffs)
        assert len(diffs) <= 1
        assert (outs[0] / "froc.csv").read_bytes() == \
            (outs[1] / "froc.csv").read_bytes()

    def test_threads_flag_keeps_results(self, workspace):
        out = workspace / "det_threaded"
        rc = main(["detect", "--manifest", str(workspace / "data/manifest.json"),
                   "--models", str(workspace / "models"), "--out", str(out),
                   "--split", "all", "--threads", "2", "--seed", "9"])
        assert rc == EXIT_OK
        assert (out / "detections.json").read_bytes() == \
            (workspace / "det/detections.json").read_bytes()
