"""Tests for the command-line interface."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from siftcad import cli, evaluation, nrrd_io, wavelet
from siftcad.classifiers import (
    DEFAULT_RF_NTREE_GRID,
    LabeledSample,
    load_model,
    model_to_dict,
    rf_mtry_grid,
    split_features,
    train_rf,
    train_rusboost,
)
from siftcad.candidates import DEFAULT_V_MAX, DEFAULT_V_MIN, diameter_to_volume
from siftcad.features import COST_TIERS, FEATURE_SCHEMA, FeatureExtractor, FeatureVector
from siftcad.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    RunConfig,
    load_config,
    main,
)
from siftcad.morphosift import lse_magnitudes, ms3d, normalize16
from siftcad.nrrd_io import (
    load_case,
    load_manifest,
    load_mask,
    save_manifest,
    save_mask,
    save_volume,
)
from siftcad.phantom import generate_suite
from siftcad.volume import BinaryMask, Volume3D, VolumeError, subtract


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
        assert cfg.v_min == diameter_to_volume(4.0)
        assert cfg.v_max == diameter_to_volume(63.0)

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

    @pytest.mark.parametrize("doc", [
        '{"m_scales": 2.5}',
        '{"theta_lesion": NaN}',
        '{"m_scales": true}',
        '{"seed": "abc"}',
    ])
    def test_mistyped_config_values_rejected(self, tmp_path, doc):
        path = tmp_path / "cfg.json"
        path.write_text(doc)
        with pytest.raises(VolumeError, match=next(iter(json.loads(doc)))):
            load_config(path, {})

    def test_mistyped_config_value_exits_runtime(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"m_scales": 2.5}))
        rc = main(["sift", "--manifest", str(workspace / "data/manifest.json"),
                   "--out", str(tmp_path / "out"), "--config", str(bad)])
        assert rc == EXIT_RUNTIME
        assert "m_scales must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content, message", [
        (b'{"seed": 4, "t_count": }', "config is not valid JSON"),
        (b'{"seed": 4}\xff', "config is not UTF-8 text"),
        (b'{"theta_lesion": "x"}', "theta_lesion must be a finite number"),
        (b'{"v_max": 20.0}', "need 0 < v_min < v_max"),
    ], ids=["json", "bytes", "mistyped", "window"])
    def test_config_errors_name_the_file(self, tmp_path, capsys, content, message):
        path = tmp_path / "run config.json"
        path.write_bytes(content)
        with pytest.raises(VolumeError, match=message) as err:
            load_config(path, {})
        assert str(err.value).startswith(f"{path}: ")
        rc = main(["phantom", "--out", str(tmp_path / "x"), "--cases", "1",
                   "--config", str(path)])
        assert rc == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith(f"siftcad: error: {path}: ")
        assert not (tmp_path / "x").exists()

    def test_flag_errors_leave_the_file_unnamed(self, tmp_path):
        path = tmp_path / "cfg.json"
        # v_max alone is below the default v_min; the flag mends the window
        path.write_text(json.dumps({"v_max": 20.0}))
        assert load_config(path, {"v_min": 10.0}).v_max == 20.0
        with pytest.raises(VolumeError, match="threads") as err:
            load_config(path, {"v_min": 10.0, "threads": 0})
        assert str(path) not in str(err.value)

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

    def test_empty_nrrd_volume_is_runtime(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        record = load_manifest(data / "manifest.json")[0]
        (data / record.t1).write_bytes(
            b"NRRD0004\ntype: unsigned short\ndimension: 3\nsizes: 0 80 40\n"
            b"spacings: 1.0 1.0 1.0\nencoding: raw\nendian: little\n\n")
        rc = main(["sift", "--manifest", str(data / "manifest.json"),
                   "--case", record.case_id, "--out", str(tmp_path / "out")])
        assert rc == EXIT_RUNTIME
        assert "sizes must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        (b"sizes: abc 80 40\nspacings: 1.0 1.0 1.0", "sizes must be integers"),
        (b"sizes: 80 80 40\nspacings: nan 1.0 1.0", "spacings must be finite and positive"),
        (b"sizes: 80 80 40\nspacings: 1.0 -1.0 1.0", "spacings must be finite and positive"),
    ], ids=["non_integer_size", "nan_spacing", "negative_spacing"])
    def test_malformed_nrrd_header_names_file(self, workspace, tmp_path, capsys, line, message):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        record = load_manifest(data / "manifest.json")[0]
        (data / record.t1).write_bytes(
            b"NRRD0004\ntype: unsigned short\ndimension: 3\n" + line +
            b"\nencoding: raw\nendian: little\n\n")
        rc = main(["sift", "--manifest", str(data / "manifest.json"),
                   "--case", record.case_id, "--out", str(tmp_path / "out")])
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert message in err
        assert str(data / record.t1) in err

    @pytest.mark.parametrize("doc, field", [
        ([1, 2], "must be a JSON object, not array"),
        ({"cases": [5]}, "cases[0] must be a JSON object"),
        ({"cases": {"a": 1}}, "field 'cases' must be a list"),
        ("dce", "cases[0]: field 'dce' must be a list of file names"),
        ("acquisition_times", "cases[0]: field 'acquisition_times' must be a list of numbers"),
        ("malignant", "cases[0]: field 'malignant' must be a list of booleans"),
        ("ground_truth", "cases[0]: field 'malignant' must hold one flag per "
                         "'ground_truth' entry, has 1 for 2"),
    ], ids=["list_document", "case_not_object", "cases_not_list", "dce_number",
            "times_strings", "malignant_string", "lesion_without_flag"])
    def test_malformed_manifest_names_manifest_and_field(self, workspace, tmp_path,
                                                         capsys, doc, field):
        manifest = tmp_path / "manifest.json"
        if isinstance(doc, str):  # one field of the first real case spoiled
            good = json.loads((workspace / "data/manifest.json").read_text())
            lesions = good["cases"][0]["ground_truth"]
            good["cases"][0][doc] = {"dce": 3, "acquisition_times": ["0", "90"],
                                     "malignant": "yes",
                                     "ground_truth": lesions * 2}[doc]
            doc = good
        manifest.write_text(json.dumps(doc))
        for argv in (["sift", "--out", str(tmp_path / "s")],
                     ["train", "--out", str(tmp_path / "m")]):
            rc = main(argv + ["--manifest", str(manifest)])
            assert rc == EXIT_RUNTIME
            err = capsys.readouterr().err
            assert str(manifest) in err and field in err, err


def _drop(key):
    return lambda d: {k: v for k, v in d.items() if k != key}


def _set(key, value):
    return lambda d: {**d, key: value}


def _set_tree0(key, edit):
    def apply(d):
        tree = dict(d["trees"][0])
        tree[key] = edit(tree)
        return {**d, "trees": [tree] + d["trees"][1:]}
    return apply


def _without_tree0(key):
    def apply(d):
        tree = {k: v for k, v in d["trees"][0].items() if k != key}
        return {**d, "trees": [tree] + d["trees"][1:]}
    return apply


_LESION, _MALIGNANCY = "lesion_model.json", "malignancy_model.json"


class TestBadModelFiles:
    """`detect` exits 2 on a malformed model and names the field."""

    @pytest.fixture(scope="class")
    def docs(self, workspace):
        lesion = json.loads((workspace / "models" / _LESION).read_text())
        rng = np.random.default_rng(0)
        x = rng.normal(size=(12, len(FEATURE_SCHEMA)))
        y = np.array([1.0, -1.0] * 6)
        forest = train_rf(x, y, seed=0, n_tree_grid=(3,), m_try_grid=(2,))
        return {_LESION: lesion,
                _MALIGNANCY: {**model_to_dict(forest), "schema_id": lesion["schema_id"]}}

    @pytest.mark.parametrize("name,edit,field", [
        (_LESION, lambda d: [d], "JSON object"),
        (_LESION, _drop("kind"), "'kind'"),
        (_LESION, _set("kind", "boosted"), "'boosted'"),
        (_LESION, _drop("schema_id"), "'schema_id'"),
        (_LESION, _set("schema_id", "siftcad-features-0"), "'schema_id'"),
        (_LESION, _drop("trees"), "'trees'"),
        (_LESION, _set("trees", {"0": {}}), "'trees'"),
        (_LESION, _set("trees", [[]]), "trees[0]"),
        (_LESION, _without_tree0("threshold"), "'threshold'"),
        (_LESION, _without_tree0("n_features"), "'n_features'"),
        (_LESION, _set_tree0("left", lambda t: ["a"] * len(t["left"])), "'left'"),
        (_LESION, _set_tree0("value", lambda t: t["value"][:-1]), "'value'"),
        (_LESION, _set_tree0("feature", lambda t: [t["n_features"]] * len(t["feature"])),
         "'feature'"),
        (_LESION, _drop("alphas"), "'alphas'"),
        (_LESION, lambda d: {**d, "alphas": d["alphas"][:-1]}, "'alphas'"),
        (_LESION, _set("learning_rate", "fast"), "'learning_rate'"),
        (_MALIGNANCY, _drop("n_tree"), "'n_tree'"),
        (_MALIGNANCY, _set("n_tree", "3"), "'n_tree'"),
        (_MALIGNANCY, _set("n_tree", 4), "'n_tree'"),
        (_MALIGNANCY, _drop("m_try"), "'m_try'"),
        (_MALIGNANCY, _set("m_try", 1.5), "'m_try'"),
        (_MALIGNANCY, _drop("oob_error"), "'oob_error'"),
        (_MALIGNANCY, _set("oob_error", "low"), "'oob_error'"),
    ], ids=[
        "list-document",
        "no-kind",
        "unknown-kind",
        "no-schema-id",
        "foreign-schema-id",
        "no-trees",
        "trees-not-list",
        "tree-not-object",
        "no-threshold",
        "no-n-features",
        "left-not-integers",
        "short-value",
        "feature-out-of-range",
        "no-alphas",
        "short-alphas",
        "learning-rate-text",
        "no-n-tree",
        "n-tree-text",
        "n-tree-mismatch",
        "no-m-try",
        "m-try-float",
        "no-oob-error",
        "oob-error-text",
    ])
    def test_detect_names_the_bad_field(self, workspace, docs, tmp_path, capsys,
                                        name, edit, field):
        models = tmp_path / "models"
        models.mkdir()
        for fname, doc in docs.items():
            (models / fname).write_text(json.dumps(doc))
        (models / name).write_text(json.dumps(edit(docs[name])))
        rc = main(["detect", "--manifest", str(workspace / "data/manifest.json"),
                   "--models", str(models), "--out", str(tmp_path / "det")])
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert name in err and field in err
        assert not (tmp_path / "det").exists()

    # the JSON kinds each field of a model file takes (see _WRONG_KINDS):
    # the header of every model, the fields of each kind, and each tree's
    HEADER_KINDS = {"format": set(), "version": set(), "kind": set(),
                    "schema_id": {"null"}, "trees": set()}
    KIND_KINDS = {_LESION: {"alphas": set(), "learning_rate": {"float"}},
                  _MALIGNANCY: {"n_tree": set(), "m_try": set(), "oob_error": {"float"}}}
    TREE_KINDS = {"feature": set(), "threshold": set(), "left": set(), "right": set(),
                  "value": set(), "n_features": set()}

    def test_detect_rejects_every_seeded_mutation(self, workspace, docs, tmp_path, capsys):
        rng = np.random.default_rng(19)
        drop = object()
        # (file, tree index or None for the document, field, value, what
        # the message must name besides the file)
        mutations = []
        for name in (_LESION, _MALIGNANCY):
            places = [(None, f, ok) for f, ok in
                      {**self.HEADER_KINDS, **self.KIND_KINDS[name]}.items()]
            places += [(int(rng.integers(len(docs[name]["trees"]))), f, ok)
                       for f, ok in self.TREE_KINDS.items()]
            for tree, field, ok in places:
                for kind in ["drop", *(k for k in _WRONG_KINDS if k not in ok)]:
                    value = drop if kind == "drop" else _json_value(kind, rng)
                    if tree is not None:
                        named = [f"trees[{tree}]", repr(field)]
                    elif field == "trees" and kind == "list":
                        named = ["trees[0]"]
                    else:
                        named = [repr(field)]
                    mutations.append((name, tree, field, value, named))

        models = tmp_path / "models"
        models.mkdir()
        for name, tree, field, value, named in mutations:
            for fname, doc in docs.items():
                (models / fname).write_text(json.dumps(doc))
            doc = json.loads(json.dumps(docs[name]))
            entry = doc if tree is None else doc["trees"][tree]
            if value is drop:
                del entry[field]
            else:
                entry[field] = value
            (models / name).write_text(json.dumps(doc))
            rc = main(["detect", "--manifest", str(workspace / "data/manifest.json"),
                       "--models", str(models), "--out", str(tmp_path / "det")])
            err = capsys.readouterr().err
            assert rc == EXIT_RUNTIME, (name, tree, field, value)
            assert all(s in err for s in [str(models / name), *named]), (field, value, err)
            assert "Traceback" not in err
            assert not (tmp_path / "det").exists()

    @pytest.mark.parametrize("name", [_LESION, _MALIGNANCY])
    def test_detect_rejects_another_feature_count_before_reading_cases(
            self, workspace, docs, tmp_path, capsys, monkeypatch, name):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(12, len(FEATURE_SCHEMA) - 1))
        y = np.array([1.0, -1.0] * 6)
        narrow = (train_rusboost(x, y, n_trees=3, seed=0) if name == _LESION else
                  train_rf(x, y, seed=0, n_tree_grid=(3,), m_try_grid=(2,)))
        models = tmp_path / "models"
        models.mkdir()
        for fname, doc in {**docs, name: model_to_dict(narrow)}.items():
            (models / fname).write_text(json.dumps(doc))

        def no_case(record):
            raise AssertionError("a case was read before the models were checked")

        monkeypatch.setattr(cli, "load_case", no_case)
        rc = main(["detect", "--manifest", str(workspace / "data/manifest.json"),
                   "--models", str(models), "--out", str(tmp_path / "det")])
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert name in err and "'n_features'" in err and str(len(FEATURE_SCHEMA)) in err
        assert not (tmp_path / "det").exists()


class TestBadDetectionFiles:
    """`evaluate` exits 2 on a malformed detections file and names the
    file and the field."""

    def _evaluate(self, workspace, path, tmp_path, capsys):
        rc = main(["evaluate", "--detections", str(path),
                   "--manifest", str(workspace / "data/manifest.json"),
                   "--out", str(tmp_path / "eval")])
        return rc, capsys.readouterr().err

    def test_evaluate_names_the_bad_field(self, workspace, tmp_path, capsys):
        det = tmp_path / "det"
        shutil.copytree(workspace / "det", det)
        path = det / "detections.json"
        good = json.loads(path.read_text())
        assert self._evaluate(workspace, path, tmp_path, capsys)[0] == EXIT_OK
        k = next(i for i, entry in enumerate(good["cases"]) if entry["detections"])

        def document(d):
            return d

        def case(d):
            return d["cases"][k]

        def detection(d):
            return d["cases"][k]["detections"][0]

        # (field, where it lives, required, values of the wrong type or range)
        table = [
            ("format", document, True, [5, "siftcad-candidates"]),
            ("version", document, True, ["1", 2, True]),
            ("split", document, False, [5, ["test"]]),
            ("cases", document, True, [{}, "all"]),
            ("case_id", case, True, [5, None]),
            ("detections", case, True, [{}, 5]),
            ("mask", detection, True, [5, None, ["m.nrrd"]]),
            ("lesion_score", detection, True, ["high", None, 1.5, float("nan"), True]),
            ("malignancy_score", detection, False, ["x", -0.5, float("inf")]),
            ("malignant", detection, False, ["yes", 1]),
            ("scale_index", detection, False, [0, "1", 2.0, True]),
            ("threshold_index", detection, False, [-1, 1.5, None]),
        ]
        drop = object()
        for name, where, required, wrong in table:
            for value in [drop] * required + wrong:
                doc = json.loads(json.dumps(good))
                if value is drop:
                    del where(doc)[name]
                else:
                    where(doc)[name] = value
                path.write_text(json.dumps(doc))
                rc, err = self._evaluate(workspace, path, tmp_path, capsys)
                assert rc == EXIT_RUNTIME, (name, value)
                assert str(path) in err and repr(name) in err, err
                assert "Traceback" not in err

    @pytest.mark.parametrize("content, message", [
        ("{", "not valid JSON"),
        ("[]", "must be a JSON object"),
        ('{"format": "siftcad-detections", "version": 1, "cases": [3]}',
         "cases[0] must be a JSON object"),
    ], ids=["truncated", "list_document", "case_not_object"])
    def test_evaluate_names_a_malformed_document(self, workspace, tmp_path, capsys,
                                                 content, message):
        path = tmp_path / "detections.json"
        path.write_text(content)
        rc, err = self._evaluate(workspace, path, tmp_path, capsys)
        assert rc == EXIT_RUNTIME
        assert str(path) in err and message in err, err


# JSON kinds a mutation sets a field to; a list holds elements no list
# field takes, so it is wrong for list fields too
_WRONG_KINDS = ("string", "null", "float", "bool", "list", "object")


def _json_value(kind, rng):
    return {"string": "".join(rng.choice(list("abxyz"), 4)),
            "null": None,
            "float": float(rng.uniform(-5.0, 5.0)),
            "bool": bool(rng.integers(2)),
            "list": [int(rng.integers(9)), {"k": int(rng.integers(9))}],
            "object": {"k": int(rng.integers(9))}}[kind]


class TestMutatedManifestsAndConfigs:
    """Seeded mutations of manifests and config files: each one makes
    `sift` exit 2 with a message that names the file, and no traceback."""

    # manifest case fields: (required, the JSON kinds that are valid)
    CASE_FIELDS = {
        "case_id": (True, {"string"}), "side": (True, {"string"}),
        "t1": (True, {"string"}), "t2": (True, {"string"}),
        "dce": (True, set()), "acquisition_times": (True, set()),
        "ground_truth": (False, set()), "malignant": (False, set()),
        "split": (False, {"string"}),
        "breast_mask": (False, {"string", "null"}), "fat_mask": (False, {"string", "null"}),
    }

    def _sift(self, tmp_path, capsys, manifest, *flags):
        rc = main(["sift", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
                   *flags])
        err = capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert "Traceback" not in err
        return rc, err

    @pytest.mark.parametrize("doc, argv, message", [
        ({}, [], "manifest: missing field 'cases'"),
        ({"cases": []}, [], "manifest has no cases"),
        (None, ["--case", "no_such_case"], "manifest has no case 'no_such_case'"),
    ], ids=["no_cases_field", "empty_cases", "unknown_case"])
    def test_sift_names_the_manifest_when_it_has_no_case_to_sift(
            self, workspace, tmp_path, capsys, doc, argv, message):
        manifest = tmp_path / "manifest.json"
        if doc is None:
            shutil.copy(workspace / "data/manifest.json", manifest)
        else:
            manifest.write_text(json.dumps(doc))
        rc, err = self._sift(tmp_path, capsys, manifest, *argv)
        assert rc == EXIT_RUNTIME
        assert err == f"siftcad: error: {manifest}: {message}\n"

    def test_manifest_mutations(self, workspace, tmp_path, capsys):
        good = json.loads((workspace / "data/manifest.json").read_text())
        manifest = tmp_path / "manifest.json"
        rng = np.random.default_rng(18)
        drop = object()

        def mutated(where, name, value):
            doc = json.loads(json.dumps(good))
            entry = doc if where is None else doc["cases"][where]
            if value is drop:
                del entry[name]
            else:
                entry[name] = value
            return doc

        # (case index or None for the document, field, value, what the
        # message must name besides the file)
        mutations = [(None, "cases", v, ["'cases'"]) for v in
                     [drop] + [_json_value(k, rng) for k in _WRONG_KINDS if k != "list"]]
        mutations.append((None, "cases", _json_value("list", rng), ["cases[0]"]))
        for name, (required, valid) in self.CASE_FIELDS.items():
            for value in [drop] * required + [_json_value(k, rng) for k in _WRONG_KINDS
                                              if k not in valid]:
                i = int(rng.integers(len(good["cases"])))
                mutations.append((i, name, value, [f"cases[{i}]: ", repr(name)]))
        # lists of numbers that are no series of frame times
        times = good["cases"][0]["acquisition_times"]
        for value in ([times[0], float("nan"), *times[2:]],
                      [times[0], times[1], times[1], *times[3:]],
                      times[::-1], [*times[:-1], float("inf")]):
            i = int(rng.integers(len(good["cases"])))
            mutations.append((i, "acquisition_times", value,
                              [f"cases[{i}]: ", "'acquisition_times'", "strictly increasing"]))
        for where, name, value, named in mutations:
            manifest.write_text(json.dumps(mutated(where, name, value)))
            rc, err = self._sift(tmp_path, capsys, manifest)
            assert rc == EXIT_RUNTIME, (name, value)
            assert all(s in err for s in [str(manifest), *named]), (name, value, err)

        text = json.dumps(good).encode()
        at = int(rng.integers(len(text)))
        manifest.write_bytes(text[:at] + b"\xff" + text[at + 1:])
        rc, err = self._sift(tmp_path, capsys, manifest)
        assert rc == EXIT_RUNTIME
        assert f"{manifest}: manifest is not UTF-8 text" in err

    def test_config_mutations(self, workspace, tmp_path, capsys):
        config = tmp_path / "config.json"
        rng = np.random.default_rng(18)
        for f in fields(RunConfig):
            valid = {"int": set(), "float": {"float"}}[f.type]
            for kind in _WRONG_KINDS:
                if kind in valid:
                    continue
                value = _json_value(kind, rng)
                config.write_text(json.dumps({f.name: value}))
                rc, err = self._sift(tmp_path, capsys, workspace / "data/manifest.json",
                                     "--config", str(config))
                assert rc == EXIT_RUNTIME, (f.name, value)
                assert err.startswith(f"siftcad: error: {config}: {f.name} must be "), err

        text = json.dumps({"seed": 4, "n_orient": 6}).encode()
        at = int(rng.integers(len(text)))
        config.write_bytes(text[:at] + b"\xff" + text[at + 1:])
        rc, err = self._sift(tmp_path, capsys, workspace / "data/manifest.json",
                             "--config", str(config))
        assert rc == EXIT_RUNTIME
        assert f"{config}: config is not UTF-8 text" in err


class TestReadsOnFirstUse:
    """Each command reads a payload only when it uses the volume, and
    still rejects a bad file of a case before sifting that case."""

    # the two frames are read as stored, for their subtraction alone, and
    # no volume is loaded as float64
    def test_sift_reads_only_the_frames_and_the_mask_it_sifts(
            self, workspace, tmp_path, monkeypatch):
        reads = {"load_volume": [], "load_mask": [], "_read_stored": []}
        for name, paths in reads.items():
            load = getattr(nrrd_io, name)
            monkeypatch.setattr(nrrd_io, name, lambda path, load=load, paths=paths:
                                paths.append(path) or load(path))
        manifest = workspace / "data/manifest.json"
        assert main(["sift", "--manifest", str(manifest),
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        record = load_manifest(manifest)[0]
        assert reads == {
            "load_volume": [],
            "load_mask": [workspace / "data" / record.breast_mask],
            "_read_stored": [workspace / "data" / p for p in reversed(record.dce[:2])]}

    # the subtraction reads frames 1 and 0 as stored and keeps neither;
    # the extractor then reads T1, T2 and every frame as stored, once,
    # and no volume is loaded as float64
    @pytest.mark.parametrize("command", ["train", "detect"])
    def test_train_and_detect_read_every_volume_as_stored(self, workspace, tmp_path,
                                                           monkeypatch, command):
        reads = {"load_volume": [], "_read_stored": []}
        for name, paths in reads.items():
            load = getattr(nrrd_io, name)
            monkeypatch.setattr(nrrd_io, name, lambda path, load=load, paths=paths:
                                paths.append(path) or load(path))
        manifest = workspace / "data/manifest.json"
        split = {"train": "train", "detect": "test"}[command]
        argv = {"train": ["train", "--n-trees", "5"],
                "detect": ["detect", "--split", split, "--models", str(workspace / "models")]}
        assert main(argv[command] + ["--manifest", str(manifest),
                                     "--out", str(tmp_path / "out")]) == EXIT_OK
        data = workspace / "data"
        expected = [data / p for r in load_manifest(manifest) if r.split == split
                    for p in (r.dce[1], r.dce[0], r.t1, r.t2, *r.dce)]
        assert expected
        assert reads == {"load_volume": [], "_read_stored": expected}

    # a volume read after load_case checked its header is checked again
    @pytest.mark.parametrize("command", ["train", "detect"])
    @pytest.mark.parametrize("field", ["t2", "dce"])
    def test_volume_rewritten_on_another_grid_is_named(self, workspace, tmp_path, capsys,
                                                       monkeypatch, command, field):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        split = {"train": "train", "detect": "test"}[command]
        record = next(r for r in load_manifest(data / "manifest.json") if r.split == split)
        path = data / {"t2": record.t2, "dce": record.dce[-1]}[field]
        real_load_case = cli.load_case

        def load_then_rewrite(rec):
            case = real_load_case(rec)
            nx, ny, nz = case.dims
            save_volume(path, Volume3D(np.ones((nx, ny, nz + 1)), case.spacing))
            return case

        monkeypatch.setattr(cli, "load_case", load_then_rewrite)
        argv = {"train": ["train", "--n-trees", "5"],
                "detect": ["detect", "--split", split, "--models", str(workspace / "models")]}
        rc = main(argv[command] + ["--manifest", str(data / "manifest.json"),
                                   "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == EXIT_RUNTIME
        assert f"{path}: grid changed after the case was loaded" in err, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field", ["t2", "dce", "ground_truth", "fat_mask"])
    def test_truncated_file_fails_before_sifting(self, workspace, tmp_path, capsys,
                                                 monkeypatch, field):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        record = load_manifest(data / "manifest.json")[0]  # sifted first by every command
        path = data / {"t2": record.t2, "dce": record.dce[-1],
                       "ground_truth": record.ground_truth[0],
                       "fat_mask": record.fat_mask}[field]
        path.write_bytes(path.read_bytes()[:-3])

        def no_sifting(case, **kw):
            raise AssertionError("a case was sifted before its files were checked")

        monkeypatch.setattr(cli, "generate_candidates", no_sifting)
        monkeypatch.setattr(evaluation, "generate_candidates", no_sifting)
        manifest = str(data / "manifest.json")
        for argv in (["sift", "--manifest", manifest],
                     ["train", "--manifest", manifest],
                     ["detect", "--manifest", manifest, "--split", "all",
                      "--models", str(workspace / "models")]):
            rc = main(argv + ["--out", str(tmp_path / argv[0])])
            err = capsys.readouterr().err
            assert rc == EXIT_RUNTIME, argv[0]
            assert f"{path}: raw payload too short" in err and "Traceback" not in err, err

    # the breast mask and the working grids of generate_candidates: 5.65
    # on seeds 1-3 with the two frames read as stored for an int16
    # subtraction and not kept; holding both frames and the subtraction
    # in float64 made it 8.4 with levels 2 and 3 decimated before scale 1
    # is sifted, 8.2 before that, 9.1 in float32 over every slice; reading every volume of the case and writing through
    # full-grid temporaries made it 13. At this size ms3d's fixed 256 KB
    # scratch blocks are a quarter of a grid, so the peak cannot show
    # the grid-sized savings: the guard on generate_candidates at
    # 128x128x64 in test_candidates does
    def test_sift_peak_in_grids(self, tmp_path):
        dims = (64, 64, 32)
        generate_suite(1, 3, tmp_path / "data", dims=dims, spacing=(0.7, 0.7, 1.3))
        argv = ["sift", "--manifest", str(tmp_path / "data" / "manifest.json"),
                "--out", str(tmp_path / "out")]
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert main(argv) == EXIT_OK
            rise = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert rise / (8 * np.prod(dims)) <= 8.5


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

    # a noise level that is not a finite non-negative number is refused,
    # named, before any file is written
    @pytest.mark.parametrize("sigma", ["nan", "inf", "-inf"])
    def test_non_finite_noise_sigma_is_refused(self, tmp_path, capsys, sigma):
        out = tmp_path / "suite"
        # the = form, as argparse reads a separate "-inf" as an option
        assert main(["phantom", "--out", str(out), "--cases", "2",
                     f"--noise-sigma={sigma}"]) == EXIT_RUNTIME
        assert f"noise_sigma must be finite and non-negative, got {sigma}" \
            in capsys.readouterr().err
        assert not out.exists()


def _evaluation_suite(root, n_cases, dims=(64, 64, 32)):
    """A manifest of ``n_cases`` cases of two cube lesions each and a
    detections document of one hit and one false positive per case, the
    masks written with save_mask and no volume file: all that evaluate
    reads. Returns the evaluate arguments."""
    root.mkdir(parents=True)
    spacing = (0.7, 0.7, 1.3)

    def cube(name, corner):
        m = np.zeros(dims, dtype=bool)
        m[tuple(slice(c, c + 4) for c in corner)] = True
        save_mask(root / name, BinaryMask(m, spacing))
        return name

    records, cases = [], []
    for k in range(n_cases):
        case_id = f"case_{k:03d}"
        records.append(nrrd_io.CaseRecord(
            case_id=case_id, side="left", t1="t1.nrrd", t2="t2.nrrd",
            dce=["dce0.nrrd", "dce1.nrrd"], acquisition_times=[0.0, 90.0],
            ground_truth=[cube(f"{case_id}_gt0.nrrd", (4, 4, 4)),
                          cube(f"{case_id}_gt1.nrrd", (30, 30, 12))],
            malignant=[True, False], split="test"))
        cases.append({"case_id": case_id, "detections": [
            {"mask": cube(f"{case_id}_det0.nrrd", (5, 5, 4)), "lesion_score": 0.9,
             "malignancy_score": 0.8, "malignant": True},
            {"mask": cube(f"{case_id}_det1.nrrd", (40, 8, 20)), "lesion_score": 0.6,
             "malignancy_score": 0.3, "malignant": False}]})
    save_manifest(root / "manifest.json", records)
    (root / "detections.json").write_text(json.dumps(
        {"format": cli.DETECTIONS_FORMAT, "version": cli.DETECTIONS_VERSION,
         "split": "test", "cases": cases}))
    return ["evaluate", "--manifest", str(root / "manifest.json"),
            "--detections", str(root / "detections.json"), "--out", str(root / "eval")]


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

    def test_sift_empty_breast_mask_is_runtime(self, workspace, tmp_path, capsys,
                                                monkeypatch):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        record = load_manifest(data / "manifest.json")[0]
        mask_path = data / record.breast_mask
        mask = load_mask(mask_path)
        save_mask(mask_path, BinaryMask(np.zeros_like(mask.data), mask.spacing))

        def no_decimation(data):
            raise AssertionError("a level was decimated before the mask was checked")

        monkeypatch.setattr(wavelet, "_lll_once", no_decimation)
        rc = main(["sift", "--manifest", str(data / "manifest.json"),
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_RUNTIME
        assert f"{mask_path}: normalisation mask is empty" in capsys.readouterr().err
        assert not list((tmp_path / "out").rglob("*"))

    @pytest.mark.parametrize("flags,window", [
        ([], (DEFAULT_V_MIN, DEFAULT_V_MAX)),
        (["--v-min", "40.5", "--v-max", "99999.25"], (40.5, 99999.25)),
    ], ids=["defaults", "flags"])
    def test_volume_window_reaches_every_command_unchanged(
            self, workspace, tmp_path, monkeypatch, flags, window):
        class Sieved(Exception):
            pass

        def record(case, **kw):
            raise Sieved(kw["v_min"], kw["v_max"])

        monkeypatch.setattr(cli, "generate_candidates", record)
        monkeypatch.setattr(evaluation, "generate_candidates", record)
        manifest = str(workspace / "data/manifest.json")
        for argv in (["sift", "--manifest", manifest],
                     ["train", "--manifest", manifest],
                     ["detect", "--manifest", manifest,
                      "--models", str(workspace / "models")]):
            with pytest.raises(Sieved) as exc:
                main(argv + ["--out", str(tmp_path / argv[0])] + flags)
            assert exc.value.args == window, argv[0]

    def test_train_writes_models_and_summary(self, workspace):
        models = workspace / "models"
        assert (models / "lesion_model.json").exists()
        summary = json.loads((models / "train_summary.json").read_text())
        assert summary["n_positive"] >= 1
        assert summary["n_negative"] >= 1
        assert "generated" not in " ".join(summary)

    def test_train_summary_holds_the_rf_oob_grid(self, workspace, tmp_path, monkeypatch):
        # the phantom split holds no benign lesion, so both models are fit
        # on random vectors instead of the cases' candidates
        rng = np.random.default_rng(4)

        def samples(record, config):
            def vec():
                return FeatureVector(rng.normal(size=len(FEATURE_SCHEMA)))
            return ([LabeledSample(vec(), label, record.case_id) for label in (1, -1, -1)],
                    [LabeledSample(vec(), label, record.case_id) for label in (1, -1)])

        monkeypatch.setattr(cli, "_case_training_samples", samples)
        out = tmp_path / "models"
        assert main(["train", "--manifest", str(workspace / "data/manifest.json"),
                     "--out", str(out), "--n-trees", "5"]) == EXIT_OK
        summary = json.loads((out / "train_summary.json").read_text())
        model = json.loads((out / "malignancy_model.json").read_text())
        grid = summary["rf_oob_grid"]
        assert [row[:2] for row in grid] == [
            [nt, m] for nt in DEFAULT_RF_NTREE_GRID for m in rf_mtry_grid(len(FEATURE_SCHEMA))]
        assert min(grid, key=lambda row: row[2]) == \
            [summary["rf_n_tree"], summary["rf_m_try"], model["oob_error"]]
        assert "oob_grid" not in model

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

    def test_evaluate_names_a_detection_mask_on_another_grid(self, workspace, tmp_path,
                                                             capsys):
        det = tmp_path / "det"
        shutil.copytree(workspace / "det", det)
        doc = json.loads((det / "detections.json").read_text())
        name = next(d["mask"] for e in doc["cases"] for d in e["detections"])
        mask = load_mask(det / name)
        save_mask(det / name, BinaryMask(np.ones((4, 4, 4), bool), mask.spacing))
        rc = main(["evaluate", "--detections", str(det / "detections.json"),
                   "--manifest", str(workspace / "data/manifest.json"),
                   "--out", str(tmp_path / "eval")])
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert str(det / name) in err and "(4, 4, 4)" in err
        assert "Traceback" not in err

    def test_evaluate_names_a_truth_mask_on_another_grid(self, tmp_path, capsys):
        argv = _evaluation_suite(tmp_path / "suite", 1)
        second = tmp_path / "suite" / "case_000_gt1.nrrd"
        save_mask(second, BinaryMask(np.ones((4, 4, 4), bool), (0.7, 0.7, 1.3)))
        assert main(argv) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert str(second) in err and "(4, 4, 4)" in err and "'case_000'" in err
        assert "Traceback" not in err

    def test_evaluate_names_a_case_without_malignancy_flags(self, tmp_path, capsys):
        argv = _evaluation_suite(tmp_path / "suite", 2)
        manifest = tmp_path / "suite" / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["cases"][1]["malignant"] = []
        manifest.write_text(json.dumps(doc))
        assert main(argv) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert f"{manifest}: manifest case 'case_001' has no 'malignant' flags" in err
        assert "Traceback" not in err
        # detections with no malignancy score need no flags
        detections = tmp_path / "suite" / "detections.json"
        doc = json.loads(detections.read_text())
        for entry in doc["cases"]:
            for d in entry["detections"]:
                d["malignancy_score"] = d["malignant"] = None
        detections.write_text(json.dumps(doc))
        assert main(argv) == EXIT_OK

    # evaluate keeps each case's truths and detections as index arrays
    # and holds at most two masks' grids at a time; holding every case's
    # masks as grids added 4 grids a case here
    def test_evaluate_peak_does_not_grow_with_the_cases(self, tmp_path):
        dims = (64, 64, 32)
        rise = {}
        for n_cases in (2, 8):
            argv = _evaluation_suite(tmp_path / f"suite{n_cases}", n_cases, dims)
            tracemalloc.start()
            try:
                entry = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                assert main(argv) == EXIT_OK
                rise[n_cases] = tracemalloc.get_traced_memory()[1] - entry
            finally:
                tracemalloc.stop()
        # six more cases may add their index arrays, not half a mask grid
        assert rise[8] - rise[2] <= np.prod(dims) // 2, rise

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


# SHA-256 of what phantom -> train -> detect writes for a 4-case suite, and
# each case's candidate count, frozen from the implementation that extracted
# every feature of every candidate (numpy 2.4, scipy 1.17, x86-64)
_GOLDEN_MODELS = {
    "lesion_model.json": "f62a36a0fc39c21d250a34fa16d9259c0caa2672e33c0f1ce125e3b76f426126",
    "malignancy_model.json": "cfed84dd5e6a5666c9083afb61d2188536403c038495826839bb7a006a3769f0",
}
_GOLDEN_DETECTIONS = "81011744344b00bb3f3a1a5388462025a133d9708bdc47830dd3e78e4a6b1ed4"
_GOLDEN_MASKS = {
    "phantom_000_detection_000.nrrd": "59139be5616d00c902c2ef343d79d9513239a44c5599e03aed5f765289033f25",
    "phantom_001_detection_000.nrrd": "de438c275dc1a8c8caa2100a0caea450c21542761f6b3012ab7378d37a5656ad",
    "phantom_002_detection_000.nrrd": "ac3b52fbcb03e135fff98b19f846741dc0858cb51c4875fa6ff4136a41ab4945",
    "phantom_003_detection_000.nrrd": "b71cd33cad2ad8c2591730b42f38cd81e0ff8411eefd81b1fdd3d9df0611a018",
}
_GOLDEN_CANDIDATES = {"phantom_000": 28, "phantom_001": 24, "phantom_002": 24,
                      "phantom_003": 27}


# run in a fresh interpreter, since this one has imported every module:
# phantom, sift and evaluate never fit a curve, build a hull or fuse, so
# they import none of the three; train fits, so the guard is not vacuous
_IMPORT_GUARD = """
import json, sys
from siftcad import cli

HEAVY = ("scipy.optimize", "scipy.spatial", "scipy.sparse.csgraph")
data, out = sys.argv[1] + "/data", sys.argv[1] + "/out"
manifest = data + "/manifest.json"
loaded = {}
assert cli.main(["phantom", "--out", data, "--cases", "2", "--seed", "9"]) == 0
assert cli.main(["sift", "--manifest", manifest, "--out", out + "/sift"]) == 0
# the test split's truths are its detections
cases = [{"case_id": c["case_id"], "detections": [
            {"mask": m, "lesion_score": 0.9, "malignancy_score": 0.5}
            for m in c["ground_truth"]]}
         for c in json.load(open(manifest))["cases"] if c["split"] == "test"]
json.dump({"format": cli.DETECTIONS_FORMAT, "version": cli.DETECTIONS_VERSION,
           "cases": cases}, open(data + "/detections.json", "w"))
assert cli.main(["evaluate", "--manifest", manifest, "--detections",
                 data + "/detections.json", "--out", out + "/eval"]) == 0
loaded["evaluate"] = [m for m in HEAVY if m in sys.modules]
assert cli.main(["train", "--manifest", manifest, "--out", out + "/models",
                 "--n-trees", "5"]) == 0
loaded["train"] = [m for m in HEAVY if m in sys.modules]
print(json.dumps(loaded))
"""


def test_phantom_sift_and_evaluate_import_no_fit_hull_or_graph_module(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(tmp_path)],
                         capture_output=True, text=True, timeout=600,
                         env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr
    loaded = json.loads(run.stdout.splitlines()[-1])
    assert loaded["evaluate"] == []
    assert "scipy.optimize" in loaded["train"]


def test_end_to_end_outputs_match_frozen_golden(tmp_path, monkeypatch):
    # three train cases: the kinetic classes cycle M, M, B, so the third
    # holds the benign lesion the malignancy model needs
    records = generate_suite(4, 3, tmp_path / "data", dims=(64, 64, 32),
                             diameter_range_mm=(5.0, 12.0))
    records = [replace(r, split="train" if i < 3 else "test")
               for i, r in enumerate(records)]
    manifest = tmp_path / "data" / "manifest.json"
    save_manifest(manifest, records)
    assert main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "models"),
                 "--n-trees", "20", "--seed", "3"]) == EXIT_OK

    counts = {}
    generate = evaluation.generate_candidates

    def counted(case, **kw):
        cands = generate(case, **kw)
        counts[case.case_id] = len(cands)
        return cands

    asked = []
    extract = FeatureExtractor.extract

    def extract_counted(self, rc, need):
        asked.append((id(rc), frozenset(int(k) for k in need)))
        return extract(self, rc, need)

    monkeypatch.setattr(evaluation, "generate_candidates", counted)
    monkeypatch.setattr(FeatureExtractor, "extract", extract_counted)
    det = tmp_path / "det"
    assert main(["detect", "--manifest", str(manifest), "--models", str(tmp_path / "models"),
                 "--out", str(det), "--split", "all"]) == EXIT_OK

    def sha(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    assert {p.name: sha(p) for p in (tmp_path / "models").glob("*_model.json")} == \
        _GOLDEN_MODELS
    assert counts == _GOLDEN_CANDIDATES
    # the lesion model reads columns past the voxel-value tier, and the
    # vote bound settles some candidates before them
    costly = frozenset(split_features(load_model(tmp_path / "models" / "lesion_model.json")
                                      ).tolist()) - COST_TIERS[0]
    reached = {rc for rc, need in asked if costly & need}
    assert costly and 0 < len(reached) < sum(counts.values())
    assert sha(det / "detections.json") == _GOLDEN_DETECTIONS
    assert {p.name: sha(p) for p in (det / "masks").iterdir()} == _GOLDEN_MASKS


# SHA-256 of what ``siftcad sift`` writes for one clinical-spacing phantom
# case, frozen from the implementation that labelled every threshold on the
# whole grid (numpy 2.4, scipy 1.17, x86-64)
_GOLDEN_SIFT = {
    "phantom_000_candidates.json":
        "63aeb9697782bbe6b71cc0b1bd6a8399f29a30391fe7e7021832deda41826798",
    "phantom_000_ms3d.nrrd":
        "c884f947e5a92a16e408c0ebf8a223aeec1e3c375d3d2370781365e62668d198",
}


def test_sift_outputs_match_frozen_golden(tmp_path):
    generate_suite(1, 3, tmp_path / "data", dims=(64, 64, 32), spacing=(0.7, 0.7, 1.3))
    out = tmp_path / "sift"
    assert main(["sift", "--manifest", str(tmp_path / "data" / "manifest.json"),
                 "--out", str(out)]) == EXIT_OK
    doc = json.loads((out / "phantom_000_candidates.json").read_text())
    assert sorted({c["scale_index"] for c in doc["candidates"]}) == [1, 2, 3]
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()} == _GOLDEN_SIFT
