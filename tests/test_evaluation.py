"""Fusion, pipeline wiring, and metric fixtures."""

import json
from dataclasses import replace

import numpy as np
import pytest

from siftcad import evaluation, features
from siftcad.candidates import generate_candidates
from siftcad.classifiers import DecisionTree, RandomForestModel, RusBoostModel
from siftcad.evaluation import (
    Detection,
    DetectionMetrics,
    FrocCurve,
    RunConfig,
    arcg,
    detection_metrics,
    fuse_labels,
    malignancy_metrics,
    roc_curve,
    run_pipeline,
    tpr_at_fpp,
    write_detection_masks,
    write_froc_csv,
    write_report_json,
    write_roc_csv,
)
from siftcad.features import FEATURE_SCHEMA, FeatureExtractor
from siftcad.nrrd_io import load_mask
from siftcad.volume import BinaryMask, VolumeError, dsi

from helpers import make_mini_case
from oracles import ball_mask, full_vector_pipeline, fusion_survivors

DIMS = (16, 16, 8)
SP = (1.0, 1.0, 1.0)


def _bar(x0, x1, y=4, z=4):
    m = np.zeros(DIMS, dtype=bool)
    m[x0:x1, y, z] = True
    return m


def _region(x0, x1, y=4, z=4):
    """The bar's sorted flat indices, as lesions are given to the metrics."""
    return np.flatnonzero(_bar(x0, x1, y, z))


def _det(mask, score, **kw):
    return Detection(np.flatnonzero(mask), DIMS, SP, score, **kw)


def _assert_disjoint(dets):
    voxels = np.concatenate([np.zeros(0, np.int64), *(d.indices for d in dets)])
    assert np.unique(voxels).size == voxels.size


# ---------------------------------------------------------------------------
# dsi
# ---------------------------------------------------------------------------

def test_dsi_identical_masks():
    a = _bar(0, 4)
    assert dsi(a, a) == 1.0


def test_dsi_disjoint_masks():
    assert dsi(_bar(0, 4), _bar(8, 12)) == 0.0


def test_dsi_half_overlap():
    # |a| = |b| = 4, intersection 2 -> 2*2 / 8 = 0.5
    assert dsi(_bar(0, 4), _bar(2, 6)) == 0.5


def test_dsi_empty_conventions():
    empty = BinaryMask(np.zeros(DIMS, dtype=bool), SP)
    assert dsi(empty, empty) == 1.0
    assert dsi(empty, _bar(0, 4)) == 0.0
    assert dsi(_bar(0, 4), empty) == 0.0


def test_dsi_symmetric_and_bounded():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = BinaryMask(rng.random(DIMS) < 0.3, SP)
        b = BinaryMask(rng.random(DIMS) < 0.3, SP)
        assert dsi(a, b) == dsi(b, a)
        assert 0.0 <= dsi(a, b) <= 1.0


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

def test_fuse_three_overlapping_keeps_highest_score():
    dets = [_det(_bar(0, 6), 0.7), _det(_bar(2, 8), 0.9), _det(_bar(4, 10), 0.8)]
    out = fuse_labels(dets)
    assert len(out) == 1
    assert out[0].lesion_score == 0.9


def test_fuse_disjoint_detections_survive():
    dets = [_det(_bar(0, 4), 0.7), _det(_bar(8, 12), 0.3)]
    assert fuse_labels(dets) == dets


def test_fuse_single_detection_identity():
    dets = [_det(_bar(0, 4), 0.5)]
    assert fuse_labels(dets) == dets


def test_fuse_transitive_overlap_is_one_group():
    # a-b overlap and b-c overlap, a-c do not; still one survivor
    dets = [_det(_bar(0, 5), 0.6), _det(_bar(4, 9), 0.5), _det(_bar(8, 13), 0.4)]
    out = fuse_labels(dets)
    assert len(out) == 1
    assert out[0].lesion_score == 0.6


def test_fuse_tie_prefers_larger_volume_then_lower_scale():
    small = _det(_bar(0, 4), 0.8, scale_index=1)
    large = _det(_bar(0, 8), 0.8, scale_index=2)
    assert fuse_labels([small, large]) == [large]
    coarse = _det(_bar(0, 4), 0.8, scale_index=3)
    fine = _det(_bar(2, 6), 0.8, scale_index=2)
    assert fuse_labels([coarse, fine]) == [fine]


def test_fused_output_pairwise_disjoint():
    rng = np.random.default_rng(1)
    dets = []
    for _ in range(12):
        x0 = int(rng.integers(0, 12))
        dets.append(_det(_bar(x0, x0 + 4, y=int(rng.integers(3, 6))),
                         float(rng.random())))
    _assert_disjoint(fuse_labels(dets))


def test_fuse_matches_brute_force_oracle():
    # few score and size values, so ties on every key occur
    rng = np.random.default_rng(5)
    for _ in range(60):
        masks, dets = [], []
        for _ in range(int(rng.integers(0, 10))):
            m = np.zeros(DIMS, dtype=bool)
            x0, y0 = rng.integers(0, 12, size=2)
            m[x0:x0 + int(rng.integers(1, 5)), y0:y0 + int(rng.integers(1, 3)),
              int(rng.integers(0, 2)):2] = True
            masks.append(m)
            dets.append(_det(m, float(rng.choice([0.3, 0.6, 0.9])),
                             scale_index=int(rng.integers(1, 4))))
        out = fuse_labels(dets)
        keys = [(d.lesion_score, int(m.sum()), -d.scale_index)
                for d, m in zip(dets, masks)]
        expected = fusion_survivors(masks, keys)
        assert [dets.index(d) for d in out] == expected
        _assert_disjoint(out)


def test_detection_validation():
    with pytest.raises(VolumeError):
        _det(np.zeros(DIMS, dtype=bool), 0.5)
    with pytest.raises(VolumeError):
        _det(_bar(0, 4), 1.5)


# ---------------------------------------------------------------------------
# ROC
# ---------------------------------------------------------------------------

def test_roc_perfect_separation():
    roc = roc_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    assert roc.auc == 1.0


def test_roc_constant_score_is_half():
    roc = roc_curve([0.5] * 8, [1, 0, 1, 0, 1, 0, 1, 0])
    assert roc.auc == 0.5


def test_roc_reversed_ranking_is_zero():
    roc = roc_curve([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])
    assert roc.auc == 0.0


def test_roc_known_value():
    # one inversion among 2x2: AUC = 3/4 by pair counting
    roc = roc_curve([0.9, 0.4, 0.6, 0.2], [1, 1, 0, 0])
    assert roc.auc == 0.75


def test_roc_degenerate_conventions():
    assert roc_curve([0.5, 0.9], [1, 1]).auc == 1.0
    assert roc_curve([0.5, 0.9], [0, 0]).auc == 0.0
    assert np.isnan(roc_curve([], []).auc)


# ---------------------------------------------------------------------------
# detection metrics
# ---------------------------------------------------------------------------

def _micro_fixture():
    # case A: lesions L1 (hit at DSI 0.5), L2 (hit at DSI 0.5), one FP
    # case B: lesion L3 missed, one FP
    lesions_a = [_region(0, 4, y=2), _region(0, 4, y=6)]
    dets_a = [
        _det(_bar(2, 6, y=2), 0.9),
        _det(_bar(2, 6, y=6), 0.8),
        _det(_bar(10, 14, y=2), 0.7),
    ]
    lesions_b = [_region(0, 4, y=4)]
    dets_b = [_det(_bar(8, 12, y=4), 0.6)]
    return [dets_a, dets_b], [lesions_a, lesions_b]


def test_detection_micro_fixture_counts():
    dets, truths = _micro_fixture()
    m = detection_metrics(dets, truths)
    assert m.tpr == pytest.approx(2.0 / 3.0)
    assert m.fpp == 1.0


def test_detection_perfect_detector():
    lesion = ball_mask(DIMS, SP, (8, 8, 4), 3.0)
    m = detection_metrics([[_det(lesion, 1.0)]], [[np.flatnonzero(lesion)]])
    assert m.tpr == 1.0
    assert m.fpp == 0.0
    assert m.roc.auc == 1.0


def test_detection_empty_detections():
    lesion = _region(0, 4)
    m = detection_metrics([[]], [[lesion]])
    assert m.tpr == 0.0
    assert m.fpp == 0.0


def test_detection_requires_ground_truth():
    with pytest.raises(ValueError):
        detection_metrics([[_det(_bar(0, 4), 0.5)]], [[]])


def test_froc_monotone_in_threshold():
    dets, truths = _micro_fixture()
    froc = detection_metrics(dets, truths).froc
    assert np.all(np.diff(froc.tpr) <= 1e-12)
    assert np.all(np.diff(froc.fpp) <= 1e-12)


def _froc_by_threshold(scores_per_case, match_per_case, total_targets, n_cases):
    """The FROC counted threshold by threshold and case by case."""
    thresholds = np.unique(np.concatenate(scores_per_case))
    tpr, fpp = np.zeros(len(thresholds)), np.zeros(len(thresholds))
    for k, th in enumerate(thresholds):
        hit = false_pos = 0
        for scores, mat in zip(scores_per_case, match_per_case):
            active = scores >= th
            hit += int(mat[active].any(axis=0).sum())
            false_pos += int((active & ~mat.any(axis=1)).sum())
        tpr[k] = hit / total_targets if total_targets else 0.0
        fpp[k] = false_pos / n_cases
    return thresholds, tpr, fpp


def test_froc_sweep_matches_the_threshold_by_threshold_count():
    # scores are drawn from a few levels so that ties across detections
    # and cases occur; cases without detections or without targets too
    rng = np.random.default_rng(18)
    for trial in range(300):
        n_cases = int(rng.integers(1, 5))
        scores_pc, match_pc = [], []
        for _ in range(n_cases):
            n_det, n_tgt = int(rng.integers(0, 6)), int(rng.integers(0, 4))
            scores_pc.append(rng.integers(0, 8, n_det) / 7.0)
            match_pc.append(rng.random((n_det, n_tgt)) < 0.3)
        if not np.concatenate(scores_pc).size:
            continue
        total = sum(m.shape[1] for m in match_pc) + int(rng.integers(0, 2))
        total *= trial % 10 != 0  # some sweeps have no targets at all
        got = evaluation._froc_from_matches(scores_pc, match_pc, total, n_cases)
        want = _froc_by_threshold(scores_pc, match_pc, total, n_cases)
        for a, b in zip((got.thresholds, got.tpr, got.fpp), want):
            assert a.tobytes() == b.tobytes()


def test_tpr_at_fpp_budget():
    froc = FrocCurve(np.array([0.1, 0.5, 0.9]),
                     np.array([0.9, 0.6, 0.3]),
                     np.array([3.0, 1.0, 0.0]))
    assert tpr_at_fpp(froc, 4.0) == 0.9
    assert tpr_at_fpp(froc, 2.0) == 0.6
    assert tpr_at_fpp(froc, 0.0) == 0.3
    assert tpr_at_fpp(FrocCurve(np.zeros(1), np.zeros(1), np.ones(1)), 0.5) == 0.0


# ---------------------------------------------------------------------------
# ARCG
# ---------------------------------------------------------------------------

def test_arcg_perfect_candidates():
    lesion = _region(0, 4)
    mean, std = arcg([[lesion]], [[lesion]])
    assert (mean, std) == (1.0, 0.0)


def test_arcg_no_candidates():
    assert arcg([[]], [[_region(0, 4)]]) == (0.0, 0.0)


def test_arcg_mixed_values():
    # lesion 1 best DSI 0.5, lesion 2 uncovered -> mean 0.25, std 0.25
    lesions = [_region(0, 4, y=2), _region(0, 4, y=6)]
    cands = [_region(2, 6, y=2)]
    mean, std = arcg([cands], [lesions])
    assert mean == pytest.approx(0.25)
    assert std == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# malignancy metrics
# ---------------------------------------------------------------------------

def test_malignancy_micro_fixture():
    # one case: malignant lesion hit by a flagged detection, benign
    # lesion hit by another flagged detection -> TPR 1.0, FPP 1.0
    malignant = _region(0, 4, y=2)
    benign = _region(0, 4, y=6)
    dets = [
        _det(_bar(1, 5, y=2), 0.9, malignancy_score=0.9, malignant=True),
        _det(_bar(1, 5, y=6), 0.8, malignancy_score=0.8, malignant=True),
    ]
    m = malignancy_metrics([dets], [[malignant, benign]], [[True, False]])
    assert m.tpr == 1.0
    assert m.fpp == 1.0


def test_malignancy_all_hits_malignant():
    lesion = _region(0, 4)
    dets = [_det(_bar(0, 4), 0.9, malignancy_score=1.0, malignant=True)]
    m = malignancy_metrics([dets], [[lesion]], [[True]])
    assert m.tpr == 1.0
    assert m.fpp == 0.0


def test_malignancy_unscored_detections_ignored():
    lesion = _region(0, 4)
    dets = [_det(_bar(0, 4), 0.9)]  # no malignancy score
    m = malignancy_metrics([dets], [[lesion]], [[True]])
    assert m.tpr == 0.0
    assert m.fpp == 0.0


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

class _ConstModel:
    schema_id = None
    trees = ()

    def __init__(self, p):
        self.p = p

    def predict_proba(self, x):
        return np.full(len(x), self.p)


def test_pipeline_threshold_above_range_empty():
    case = make_mini_case(seed=3)
    out = run_pipeline(case, _ConstModel(1.0),
                       config=RunConfig(theta_lesion=1.01))
    assert out == []


def test_pipeline_zero_threshold_returns_fused_set():
    case = make_mini_case(seed=3)
    out = run_pipeline(case, _ConstModel(0.5),
                       config=RunConfig(theta_lesion=0.0))
    assert len(out) >= 1
    _assert_disjoint(out)
    # every surviving region lives on the original grid
    assert all((d.dims, d.spacing) == (case.dims, case.spacing) for d in out)


def test_pipeline_malignancy_stage_flags_survivors():
    case = make_mini_case(seed=3)
    out = run_pipeline(case, _ConstModel(0.8), _ConstModel(0.7),
                       config=RunConfig(theta_lesion=0.5, theta_malig=0.6))
    assert len(out) >= 1
    assert all(d.malignancy_score == 0.7 for d in out)
    assert all(d.malignant is True for d in out)
    low = run_pipeline(case, _ConstModel(0.8), _ConstModel(0.3),
                       config=RunConfig(theta_lesion=0.5, theta_malig=0.6))
    assert all(d.malignant is False for d in low)


class _CountingModel(_ConstModel):
    def __init__(self, p):
        super().__init__(p)
        self.batch_sizes = []

    def predict_proba(self, x):
        self.batch_sizes.append(len(x))
        return super().predict_proba(x)


def test_pipeline_scores_each_stage_in_one_batch():
    case = make_mini_case(seed=3)
    lesion, malignancy = _CountingModel(0.8), _CountingModel(0.7)
    out = run_pipeline(case, lesion, malignancy,
                       config=RunConfig(theta_lesion=0.5, theta_malig=0.6))
    assert len(out) >= 1
    assert len(lesion.batch_sizes) == 1 and lesion.batch_sizes[0] >= len(out)
    assert malignancy.batch_sizes == [len(out)]


# two features of each feature group; where a group has one output, a
# column of another group rides with it
_GROUP_FEATURES = {
    "t1": ("t1_kurtosis", "t1_std"),
    "t2": ("t2_p90", "t2_skewness"),
    "dce0": ("dce0_std", "dce0_mean"),
    "curves": ("enh_washout_rate", "var_peak"),
    "fit": ("fit_rmse", "fit_beta"),
    "core_rim": ("blooming", "flag_kinetic_guarded"),
    "glcm_t2": ("t2_glcm_contrast", "t2_glcm_entropy"),
    "glcm_dce1": ("dce1_glcm_idm", "dce1_glcm_asm"),
    "glcm_dcesub": ("dcesub_glcm_correlation", "dcesub_glcm_entropy"),
    "texture_flag": ("flag_texture_degenerate", "dcesub_glcm_asm"),
    "margin": ("t2_rgi", "dcesub_margin_sharpness"),
    "edema": ("edema_t2_p92_2mm", "flag_edema_shell_empty"),
    "edema_10mm": ("edema_t2_p98_10mm", "t2_p20"),
    "edema_20mm": ("edema_t2_p98_20mm", "edema_t2_p98_10mm"),
    "shape": ("solidity", "esd_mm"),
}


@pytest.fixture(scope="module")
def stump_case():
    """A case and a stump maker cutting a feature at its median (or its
    ``q``-th percentile) over the case's candidates, so that every stump
    splits them."""
    case = make_mini_case(seed=5, noise=0.3, clutter=2.0)
    extractor = FeatureExtractor(case)
    x = np.stack([extractor.extract(rc).values for rc in generate_candidates(case)])

    def stump(name, low, high, q=None):
        k = FEATURE_SCHEMA.index(name)
        cut = np.median(x[:, k]) if q is None else np.percentile(x[:, k], q)
        return DecisionTree(
            feature=np.array([k, -1, -1]), threshold=np.array([cut, 0.0, 0.0]),
            left=np.array([1, -1, -1]), right=np.array([2, -1, -1]),
            value=np.array([0.5, low, high]), n_features=len(FEATURE_SCHEMA))

    return case, stump


@pytest.mark.parametrize("group", list(_GROUP_FEATURES))
def test_pipeline_equals_full_vector_oracle(stump_case, group):
    # the lesion model splits on an intensity feature and on the group;
    # the malignancy model on the group and on the next group
    case, stump = stump_case
    names = list(_GROUP_FEATURES)
    first, second = _GROUP_FEATURES[group]
    other = _GROUP_FEATURES[names[(names.index(group) + 1) % len(names)]][0]
    lesion = RusBoostModel((stump("t2_mean", 0.0, 1.0), stump(first, 0.0, 1.0),
                            stump(second, 1.0, 0.0)),
                           np.array([1.0, 2.5, 0.5]), 0.1)
    malignancy = RandomForestModel((stump(second, 0.0, 1.0), stump(first, 1.0, 0.0),
                                    stump(other, 0.0, 1.0)), 3, 1)
    config = RunConfig(theta_lesion=0.5, theta_malig=0.5)
    _assert_same_detections(run_pipeline(case, lesion, malignancy, config),
                            full_vector_pipeline(case, lesion, malignancy, config))


def _assert_same_detections(got, want):
    assert len(got) == len(want) >= 1
    for a, b in zip(got, want):
        assert np.array_equal(a.indices, b.indices)
        assert (a.dims, a.spacing) == (b.dims, b.spacing)
        assert (a.lesion_score, a.malignancy_score, a.malignant, a.scale_index,
                a.threshold_index) == (b.lesion_score, b.malignancy_score, b.malignant,
                                       b.scale_index, b.threshold_index)


def test_pipeline_settles_candidates_before_their_costly_columns(stump_case, monkeypatch):
    # the t2_mean stump outweighs the other trees together, so the 80% of
    # candidates below its cut score under 0.5 whatever their GLCM, edema
    # and kinetic columns hold: the voxel-value tier settles them
    case, stump = stump_case
    lesion = RusBoostModel((stump("t2_mean", 0.0, 1.0, q=80),
                            stump("t2_glcm_contrast", 0.0, 1.0),
                            stump("edema_t2_p98_10mm", 1.0, 0.0),
                            stump("enh_peak", 0.0, 1.0)),
                           np.array([3.0, 0.5, 0.5, 0.5]), 0.1)
    malignancy = RandomForestModel((stump("dce0_std", 0.0, 1.0),
                                    stump("t2_glcm_contrast", 1.0, 0.0),
                                    stump("blooming", 0.0, 1.0)), 3, 1)
    made, extracted, asked, heavy = [], [], [], []
    generate, extract = evaluation.generate_candidates, FeatureExtractor.extract

    def generate_counted(case, **kw):
        made.extend(generate(case, **kw))
        return made

    def extract_counted(self, rc, need):
        extracted.append(rc)
        asked.append(sorted(FEATURE_SCHEMA[k] for k in need))
        return extract(self, rc, need)

    def counted(name, real):
        def build(*args, **kw):
            heavy.append((name, id(extracted[-1])))
            return real(*args, **kw)
        return build

    config = RunConfig(theta_lesion=0.5, theta_malig=0.5)
    with monkeypatch.context() as patch:
        patch.setattr(evaluation, "generate_candidates", generate_counted)
        patch.setattr(FeatureExtractor, "extract", extract_counted)
        for name in ("_SurfaceField", "_GlcmPairs", "kinetic_features"):
            patch.setattr(features, name, counted(name, getattr(features, name)))
        got = run_pipeline(case, lesion, malignancy, config)
    _assert_same_detections(got, full_vector_pipeline(case, lesion, malignancy, config))

    k = FEATURE_SCHEMA.index("t2_mean")
    probe = FeatureExtractor(case)
    settled = {id(rc) for rc in made
               if probe.extract(rc, [k]).values[k] < lesion.trees[0].threshold[0]}
    assert len(made) / 2 < len(settled) < len(made)
    assert {name for name, _ in heavy} == {"_SurfaceField", "_GlcmPairs", "kinetic_features"}
    assert settled.isdisjoint(rc for _, rc in heavy)
    # a settled candidate is extracted once, for its voxel-value columns
    assert sorted(id(rc) for rc in extracted if id(rc) in settled) == sorted(settled)
    # the malignancy stage extracts only what the lesion stage did not
    assert asked[-len(got):] == [["blooming", "dce0_std"]] * len(got)

    # a threshold equal to an attainable score keeps that score
    top = max(d.lesion_score for d in got)
    at_top = RunConfig(theta_lesion=top, theta_malig=0.5)
    want = full_vector_pipeline(case, lesion, malignancy, at_top)
    assert {d.lesion_score for d in want} == {top}
    _assert_same_detections(run_pipeline(case, lesion, malignancy, at_top), want)


def test_pipeline_refuses_other_schema_even_when_all_are_settled(stump_case):
    # no score reaches 1.01, so the bound would settle every candidate on
    # its voxel values and no row would reach predict
    case, stump = stump_case
    lesion = RusBoostModel((stump("t2_mean", 0.0, 1.0), stump("enh_peak", 0.0, 1.0)),
                           np.array([1.0, 1.0]), 0.1, schema_id="siftcad-features-0")
    with pytest.raises(ValueError, match="^lesion model: field 'schema_id'"):
        run_pipeline(case, lesion, config=RunConfig(theta_lesion=1.01))


def _no_candidates(monkeypatch):
    seen = []
    monkeypatch.setattr(evaluation, "generate_candidates",
                        lambda case, **kw: seen.append(case) or [])
    return seen


def test_pipeline_refuses_a_foreign_lesion_model_with_no_candidates(stump_case, monkeypatch):
    case, stump = stump_case
    seen = _no_candidates(monkeypatch)
    tree = stump("t2_mean", 0.0, 1.0)
    foreign = RusBoostModel((tree,), np.array([1.0]), 0.1, schema_id="siftcad-features-0")
    narrow = RusBoostModel((replace(tree, n_features=3),), np.array([1.0]), 0.1)
    for model, field in ((foreign, "schema_id"), (narrow, "n_features")):
        with pytest.raises(ValueError, match=f"^lesion model: field '{field}'"):
            run_pipeline(case, model)
    # the check runs before any candidate is generated
    assert seen == []
    assert run_pipeline(case, replace(foreign, schema_id=None)) == []
    assert len(seen) == 1


def test_pipeline_refuses_a_foreign_malignancy_model_when_nothing_is_fused(stump_case,
                                                                          monkeypatch):
    case, stump = stump_case
    seen = _no_candidates(monkeypatch)
    lesion = RusBoostModel((stump("t2_mean", 0.0, 1.0),), np.array([1.0]), 0.1)
    malignancy = RandomForestModel((stump("enh_peak", 0.0, 1.0),), 1, 1,
                                   schema_id="siftcad-features-0")
    with pytest.raises(ValueError, match="^malignancy model: field 'schema_id'"):
        run_pipeline(case, lesion, malignancy)
    assert seen == []
    assert run_pipeline(case, lesion, replace(malignancy, schema_id=None)) == []


@pytest.mark.parametrize("config", [
    RunConfig(),
    RunConfig(m_scales=2, n_orient=6, t_count=9, v_min=40.5, v_max=99999.25),
], ids=["defaults", "custom"])
def test_pipeline_sieves_with_the_configured_window_exactly(config, monkeypatch):
    seen = []
    monkeypatch.setattr(evaluation, "generate_candidates",
                        lambda case, **kw: seen.append(kw) or [])
    assert run_pipeline(make_mini_case(seed=3), _ConstModel(0.9),
                        config=config) == []
    assert seen == [dict(m_scales=config.m_scales, n_orient=config.n_orient,
                         t_count=config.t_count, v_min=config.v_min,
                         v_max=config.v_max)]


def test_pipeline_deterministic():
    case = make_mini_case(seed=5, noise=0.3)
    a = run_pipeline(case, _ConstModel(0.9), config=RunConfig(theta_lesion=0.5))
    b = run_pipeline(case, _ConstModel(0.9), config=RunConfig(theta_lesion=0.5))
    assert len(a) == len(b)
    for da, db in zip(a, b):
        assert np.array_equal(da.indices, db.indices)
        assert da.lesion_score == db.lesion_score


def test_pipeline_reaches_lesion_area_with_stub_models():
    # constant scores make fusion keep the largest region of each
    # overlap group, so only overlap (not a DSI level) is guaranteed
    case = make_mini_case(seed=3)
    out = run_pipeline(case, _ConstModel(0.9), config=RunConfig(theta_lesion=0.5))
    truth = case.ground_truth[0]
    assert any(truth.data.ravel()[d.indices].any() for d in out)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_files_roundtrip(tmp_path):
    dets, truths = _micro_fixture()
    dm = detection_metrics(dets, truths)
    mm = malignancy_metrics(
        [[_det(_bar(0, 4), 0.9, malignancy_score=0.9)], []],
        [[_region(0, 4)], [_region(0, 4)]],
        [[True], [False]])
    report = tmp_path / "report.json"
    write_report_json(report, dm, mm, arcg_stats=(0.5, 0.1),
                      extra={"cases": 2})
    doc = json.loads(report.read_text())
    assert "generated_at" in doc
    assert doc["detection"]["tpr"] == pytest.approx(2.0 / 3.0)
    assert doc["malignancy"]["tpr"] == 1.0
    assert doc["arcg"] == {"mean": 0.5, "std": 0.1}
    assert doc["cases"] == 2

    froc_csv = tmp_path / "froc.csv"
    write_froc_csv(froc_csv, dm.froc)
    lines = froc_csv.read_text().strip().splitlines()
    assert lines[0] == "threshold,tpr,fpp"
    assert len(lines) == len(dm.froc.thresholds) + 1

    roc_csv = tmp_path / "roc.csv"
    write_roc_csv(roc_csv, dm.roc)
    assert roc_csv.read_text().startswith("fpr,tpr")


def test_detection_masks_written_per_case(tmp_path):
    dets = [_det(_bar(0, 4), 0.9), _det(_bar(8, 12), 0.7)]
    paths = write_detection_masks(tmp_path, "caseX", dets)
    assert [p.name for p in paths] == [
        "caseX_detection_000.nrrd", "caseX_detection_001.nrrd"]
    back = load_mask(paths[0])
    assert (back.dims, back.spacing) == (DIMS, SP)
    assert np.array_equal(np.flatnonzero(back.data), dets[0].indices)
