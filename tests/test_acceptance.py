"""Acceptance criteria, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion. Criteria with runtime budgets measure wall time and
assert it; quantitative thresholds are stated inline next to each
assert.
"""

import json
import math
import time

import numpy as np
import pytest

from siftcad.candidates import diameter_to_volume, generate_candidates
from siftcad.classifiers import train_rf, train_rusboost, rusboost_cv_curve
from siftcad.cli import main as cli_main
from siftcad.evaluation import (
    Detection,
    FrocCurve,
    detection_metrics,
    fuse_labels,
    roc_curve,
    tpr_at_fpp,
)
from siftcad.morphosift import (
    MagnitudePlan,
    gray_open,
    lse_magnitudes,
    ms2d,
    ms3d,
    rasterize_lse,
)
from siftcad.nrrd_io import load_case, load_manifest
from siftcad.volume import BinaryMask, Volume3D, dsi, otsu_multilevel_indices, region_mask
from siftcad.wavelet import dwt3_db2, idwt3_db2

from oracles import (
    direct_ms2d,
    direct_ms3d,
    multilevel_otsu_exhaustive,
    shift_open,
)

SUITE_SEED = 11
SUITE_CASES = 20


@pytest.fixture(scope="module")
def suite_dir(tmp_path_factory):
    """The 20-case phantom dataset shared by criteria 6 and 7."""
    out = tmp_path_factory.mktemp("acceptance") / "data"
    rc = cli_main(["phantom", "--out", str(out), "--cases", str(SUITE_CASES),
                   "--seed", str(SUITE_SEED)])
    assert rc == 0
    return out


def test_criterion_01_sift_matches_direct_evaluation():
    """ms2d/ms3d bit-equal a naive shift-based evaluation; < 1 min."""
    rng = np.random.default_rng(42)
    start = time.monotonic()
    for trial in range(50):
        n_orient = (1, 2, 4, 10)[trial % 4]
        dims = tuple(rng.integers(4, 17, size=3))
        vol = rng.standard_normal(dims)
        pairs = []
        for _ in range(3):
            ml1 = float(rng.uniform(2.0, 6.0))
            pairs.append((ml1, ml1 + float(rng.uniform(1.0, 6.0))))
        plan = MagnitudePlan(pairs[0], pairs[1], pairs[2],
                             pairs[0][0], pairs[0][1])

        got2d = ms2d(vol[:, :, 0], *pairs[0], n_orient)
        want2d = direct_ms2d(vol[:, :, 0], *pairs[0], n_orient, rasterize_lse)
        assert np.array_equal(got2d, want2d)

        got = ms3d(Volume3D(vol, (1.0, 1.0, 1.0)), plan, n_orient)
        want = direct_ms3d(vol, plan, n_orient, rasterize_lse)
        assert np.array_equal(got.data, want)
    assert time.monotonic() - start < 60.0


def test_criterion_02_opening_laws():
    """gray_open is anti-extensive and idempotent on 100 random slices."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        dims = tuple(rng.integers(6, 25, size=2))
        f = rng.standard_normal(dims)
        se = rasterize_lse(float(rng.uniform(2.0, 9.0)),
                           float(rng.uniform(0.0, math.pi)))
        opened = gray_open(f, se)
        assert (opened <= f).all()
        assert np.array_equal(gray_open(opened, se), opened)


def test_criterion_03_wavelet_roundtrip_and_lll_gain():
    """Decompose/reconstruct error <= 1e-9; constant LLL gain 2*sqrt(2)."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        vol = Volume3D(rng.standard_normal((16, 16, 16)), (1.0, 1.0, 1.0))
        back = idwt3_db2(dwt3_db2(vol))
        assert np.abs(back.data - vol.data).max() <= 1e-9
    const = Volume3D(np.full((16, 16, 16), 3.7), (1.0, 1.0, 1.0))
    lll = dwt3_db2(const).bands["LLL"]
    assert np.abs(lll - 2.0 * math.sqrt(2.0) * 3.7).max() <= 1e-9


def test_criterion_04_multilevel_otsu_matches_exhaustive():
    """Threshold indices equal exhaustive search, 100 trials, T in 1..3."""
    rng = np.random.default_rng(5)
    for _ in range(100):
        hist = rng.integers(0, 50, size=64).astype(np.float64)
        hist[rng.integers(0, 64, size=8)] = 0.0
        hist[0] += 1.0  # keep the histogram non-degenerate
        for t_count in (1, 2, 3):
            got = tuple(int(t) for t in otsu_multilevel_indices(hist, t_count))
            assert got == multilevel_otsu_exhaustive(hist, t_count)


def test_criterion_05_line_magnitude_constants():
    """Pixel magnitudes for 4-63 mm lesions at 0.7/1.3 mm spacing."""
    plan = lse_magnitudes(diameter_to_volume(4.0), diameter_to_volume(63.0),
                          0.7, 1.3, 3)
    assert plan.axial[0] == pytest.approx(5.714285714285714, abs=1e-6)
    assert plan.axial[1] == pytest.approx(22.5, abs=1e-6)
    for view in (plan.coronal, plan.sagittal):
        assert view[0] == pytest.approx(3.0769230769230770, abs=1e-6)
        assert view[1] == pytest.approx(22.5, abs=1e-6)


def test_criterion_06_candidate_recall_on_phantoms(suite_dir):
    """Every suite lesion has a candidate with DSI >= 0.6; ARCG >= 0.70;
    20 cases within 10 minutes."""
    start = time.monotonic()
    records = load_manifest(suite_dir / "manifest.json")
    assert len(records) == SUITE_CASES
    per_lesion_best = []
    arcg_scores = []
    for record in records:
        case = load_case(record)
        cands = generate_candidates(case)
        masks = [region_mask(c.original_indices(), c.original_dims, c.original_spacing)
                 for c in cands]
        for lesion in case.ground_truth:
            best = max((dsi(m, lesion) for m in masks), default=0.0)
            per_lesion_best.append(best)
            arcg_scores.append(best)
    elapsed = time.monotonic() - start
    assert min(per_lesion_best) >= 0.6
    assert np.mean(arcg_scores) >= 0.70
    assert elapsed <= 600.0


def test_criterion_07_end_to_end_phantom_pipeline(suite_dir, tmp_path_factory):
    """Train 10 / test 10: TPR >= 0.9 at FPP <= 4 (DSI >= 0.2 match),
    mean per-lesion segmentation DSI >= 0.65, malignancy AUC >= 0.8."""
    work = tmp_path_factory.mktemp("e2e")
    manifest = str(suite_dir / "manifest.json")
    # 200 boosting rounds: scores plateau long before the 2000 default
    # and keep this run inside a few minutes
    assert cli_main(["train", "--manifest", manifest,
                     "--out", str(work / "models"),
                     "--n-trees", "200", "--seed", str(SUITE_SEED)]) == 0
    assert cli_main(["detect", "--manifest", manifest,
                     "--models", str(work / "models"),
                     "--out", str(work / "det")]) == 0
    assert cli_main(["evaluate", "--detections", str(work / "det/detections.json"),
                     "--manifest", manifest,
                     "--out", str(work / "eval")]) == 0
    report = json.loads((work / "eval/report.json").read_text())

    froc = report["detection"]["froc"]
    curve = FrocCurve(np.asarray(froc["thresholds"]),
                      np.asarray(froc["tpr"]), np.asarray(froc["fpp"]))
    assert tpr_at_fpp(curve, 4.0) >= 0.9
    assert report["arcg"]["mean"] >= 0.65
    assert report["malignancy"]["auc"] >= 0.8


def test_criterion_08_sift_runtime_full_volume():
    """ms3d on 256x256x128, M=3, N=10 finishes within 60 s."""
    rng = np.random.default_rng(1)
    vol = Volume3D(rng.standard_normal((256, 256, 128)), (0.7, 0.7, 1.3))
    plan = lse_magnitudes(diameter_to_volume(4.0), diameter_to_volume(63.0),
                          0.7, 1.3, 3)
    start = time.monotonic()
    ms3d(vol, plan, 10)
    assert time.monotonic() - start <= 60.0


def test_criterion_09_classifier_properties():
    """RUSBoost separates 1000:10 perfectly; CV loss non-increasing to a
    plateau; RF grid selection is seed-deterministic."""
    rng = np.random.default_rng(0)
    xn = rng.normal(loc=-2.0, scale=0.5, size=(1000, 3))
    xp = rng.normal(loc=2.0, scale=0.5, size=(10, 3))
    x = np.vstack([xn, xp])
    y = np.concatenate([-np.ones(1000), np.ones(10)])
    model = train_rusboost(x, y, n_trees=20, seed=1)
    pred = np.where(model.predict_proba(x) >= 0.5, 1.0, -1.0)
    balanced = 0.5 * ((pred[y > 0] == 1.0).mean() + (pred[y < 0] == -1.0).mean())
    assert balanced == 1.0

    rng = np.random.default_rng(19)
    xn = rng.normal(loc=-2.0, scale=0.5, size=(150, 3))
    xp = rng.normal(loc=2.0, scale=0.5, size=(15, 3))
    xc = np.vstack([xn, xp])
    yc = np.concatenate([-np.ones(150), np.ones(15)])
    groups = [f"c{i % 10}" for i in range(len(xc))]
    losses = rusboost_cv_curve(xc, yc, groups=groups,
                               n_trees_list=(1, 4, 16, 32), k=5, seed=5)
    for a, b in zip(losses, losses[1:]):
        assert b <= a + 1e-9
    assert abs(losses[-1] - losses[-2]) <= 0.02

    xa = np.vstack([rng.normal(-1.0, 1.0, size=(40, 4)),
                    rng.normal(1.0, 1.0, size=(40, 4))])
    ya = np.concatenate([-np.ones(40), np.ones(40)])
    rf1 = train_rf(xa, ya, seed=9)
    rf2 = train_rf(xa, ya, seed=9)
    assert (rf1.n_tree, rf1.m_try) == (rf2.n_tree, rf2.m_try)
    assert rf1.oob_error == rf2.oob_error
    probe = rng.normal(0.0, 1.5, size=(10, 4))
    assert np.array_equal(rf1.predict_proba(probe), rf2.predict_proba(probe))


def test_criterion_10_metric_micro_fixtures():
    """DSI, TPR/FPP, ROC-AUC and fusion equal hand-computed values."""
    dims, sp = (16, 16, 8), (1.0, 1.0, 1.0)

    def bar(x0, x1, y=4):
        m = np.zeros(dims, dtype=bool)
        m[x0:x1, y, 4] = True
        return BinaryMask(m, sp)

    def region(mask):
        return np.flatnonzero(mask.data)

    def det(mask, score):
        return Detection(indices=region(mask), dims=dims, spacing=sp, lesion_score=score)

    # DSI: identical, disjoint, half-overlapping bars, empty conventions
    assert dsi(bar(0, 4), bar(0, 4)) == 1.0
    assert dsi(bar(0, 4), bar(8, 12)) == 0.0
    assert dsi(bar(0, 4), bar(2, 6)) == 0.5
    empty = BinaryMask(np.zeros(dims, dtype=bool), sp)
    assert dsi(empty, empty) == 1.0
    assert dsi(empty, bar(0, 4)) == 0.0

    # TPR/FPP micro-fixture: 2 of 3 lesions hit, 2 FPs over 2 cases
    dets_a = [det(bar(2, 6, y=2), 0.9), det(bar(2, 6, y=6), 0.8),
              det(bar(10, 14, y=2), 0.7)]
    dets_b = [det(bar(8, 12), 0.6)]
    truths = [[region(bar(0, 4, y=2)), region(bar(0, 4, y=6))], [region(bar(0, 4))]]
    metrics = detection_metrics([dets_a, dets_b], truths)
    assert metrics.tpr == pytest.approx(2.0 / 3.0)
    assert metrics.fpp == 1.0

    # ROC-AUC: one inversion among the 2x2 pairings -> 3/4
    assert roc_curve([0.9, 0.4, 0.6, 0.2], [1, 1, 0, 0]).auc == 0.75
    assert roc_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]).auc == 1.0
    assert roc_curve([0.5] * 8, [1, 0, 1, 0, 1, 0, 1, 0]).auc == 0.5

    # fusion: overlapping chain keeps the highest score; disjoint survive
    chain = [det(bar(0, 6), 0.7), det(bar(2, 8), 0.9), det(bar(4, 10), 0.8)]
    fused = fuse_labels(chain)
    assert len(fused) == 1 and fused[0].lesion_score == 0.9
    pair = [det(bar(0, 4), 0.7), det(bar(8, 12), 0.3)]
    assert fuse_labels(pair) == pair
