"""Label fusion, the end-to-end detection pipeline, and evaluation metrics.

Detections carry their region as sorted flat voxel indices on the
original grid, with their lesion and malignancy scores; only a mask
file holds it as a full grid. Overlapping detections are fused down to
the highest-scoring region, lesion detection is scored with FROC/ROC
curves under a DSI >= 0.2 match rule, candidate generation quality
with ARCG, and malignancy identification with its own curves where
benign-lesion hits count as false positives.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .candidates import DEFAULT_V_MAX, DEFAULT_V_MIN, generate_candidates
from .classifiers import DEFAULT_N_TREES, check_schema, predict, split_features
from .features import COST_TIERS, FEATURE_SCHEMA, FeatureExtractor
from .nrrd_io import save_mask
from .volume import VolumeError, dsi_matrix, region_mask

# a detection hits a target lesion when their DSI is at least this
MATCH_DSI = 0.2

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


# ---------------------------------------------------------------------------
# detections and label fusion
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Detection:
    """A surviving region with its scores: sorted flat ``indices`` on the
    original grid ``dims`` at ``spacing``."""

    indices: np.ndarray
    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    lesion_score: float
    scale_index: int = 1
    threshold_index: int = 0
    malignancy_score: float | None = None
    malignant: bool | None = None

    def __post_init__(self):
        if self.indices.size == 0:
            raise VolumeError("detections need a non-empty region")
        if not 0.0 <= self.lesion_score <= 1.0:
            raise VolumeError(
                f"lesion score must be in [0,1], got {self.lesion_score}")
        if self.malignancy_score is not None and \
                not 0.0 <= self.malignancy_score <= 1.0:
            raise VolumeError(
                f"malignancy score must be in [0,1], got {self.malignancy_score}")


def fuse_labels(detections) -> list[Detection]:
    """Keep one detection per group of transitively overlapping regions.

    Overlap means sharing at least one voxel. Within a group the
    highest lesion score wins; ties go to the larger region, then the
    lower scale index, then input order. Survivors keep input order and
    are pairwise disjoint.
    """
    if len(detections) <= 1:
        return list(detections)
    # imported here: only detect fuses, and scipy.sparse.csgraph adds
    # about 8 MB to a process that imports it
    from scipy.sparse.csgraph import connected_components
    regions = [d.indices for d in detections]
    _, group = connected_components(dsi_matrix(regions, regions) > 0,
                                    directed=False)
    members: dict[int, list[int]] = {}
    for k, g in enumerate(group):
        members.setdefault(g, []).append(k)
    keep = [max(ks, key=lambda k: (detections[k].lesion_score,
                                   regions[k].size,
                                   -detections[k].scale_index))
            for ks in members.values()]
    return [detections[k] for k in sorted(keep)]


# ---------------------------------------------------------------------------
# end-to-end pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Pipeline knobs shared by every subcommand and :func:`run_pipeline`.

    Integer knobs must be ``int`` (not ``bool``) and float knobs finite
    real numbers; anything else raises :class:`VolumeError`.
    """

    m_scales: int = 3
    n_orient: int = 10
    t_count: int = 16
    v_min: float = DEFAULT_V_MIN
    v_max: float = DEFAULT_V_MAX
    theta_lesion: float = 0.5
    theta_malig: float = 0.5
    seed: int = 0
    threads: int = 1
    n_trees: int = DEFAULT_N_TREES

    def __post_init__(self):
        # annotations are strings here (``from __future__ import annotations``)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool)
                                    or not isinstance(value, int)):
                raise VolumeError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and (isinstance(value, bool)
                                      or not isinstance(value, numbers.Real)
                                      or not math.isfinite(value)):
                raise VolumeError(
                    f"{f.name} must be a finite number, got {value!r}")
        if self.m_scales < 1 or self.n_orient < 1 or self.t_count < 1:
            raise VolumeError("m_scales, n_orient and t_count must be >= 1")
        if not 0.0 < self.v_min < self.v_max:
            raise VolumeError("need 0 < v_min < v_max")
        if self.threads < 1 or self.n_trees < 1:
            raise VolumeError("threads and n_trees must be >= 1")


def run_pipeline(case, lesion_model, malignancy_model=None,
                 config: RunConfig = RunConfig()) -> list[Detection]:
    """Candidates -> features -> lesion scoring -> fusion -> malignancy.

    Both models are checked to take rows of the feature schema
    (``check_schema``) before any candidate is generated, so a foreign
    model is refused even when no candidate would reach it.
    Candidates are sieved by exactly ``config.v_min``/``config.v_max``.
    Those scoring at least ``theta_lesion`` are upscaled to the
    original grid and fused; survivors get a malignancy score when a
    malignancy model is supplied, flagged at ``theta_malig``. With the
    inputs and models fixed the output is deterministic.

    Each stage extracts only the features its model splits on. A tree
    reads no other column, and a computed column does not depend on what
    else was extracted with it, so the scores equal those of full
    feature vectors. The lesion stage fills each candidate's row one
    cost tier (``COST_TIERS``) at a time. After each tier but the last
    the model's ``upper_proba`` bounds the score of every completion of
    the rows so far, and a candidate whose bound is below
    ``theta_lesion`` is settled: its score would be too, so none of its
    costlier columns is extracted. The candidates left are scored in one
    batch. The
    malignancy stage extends the fused survivors' rows by the columns
    the lesion stage did not compute.
    """
    check_schema(lesion_model, "lesion model")
    if malignancy_model is not None:
        check_schema(malignancy_model, "malignancy model")
    candidates = generate_candidates(
        case, m_scales=config.m_scales, n_orient=config.n_orient,
        t_count=config.t_count, v_min=config.v_min, v_max=config.v_max)
    extractor = FeatureExtractor(case)
    rows = np.full((len(candidates), len(FEATURE_SCHEMA)), np.nan)

    def fill(i, cols):
        rows[i, cols] = extractor.extract(candidates[i], cols).values[cols]

    need = split_features(lesion_model)
    tiers = [cols for cols in (need[np.isin(need, list(t))] for t in COST_TIERS)
             if cols.size]
    live = np.arange(len(candidates))
    for k, cols in enumerate(tiers):
        for i in live:
            fill(i, cols)
        # after the last tier the bound is the score itself: predict decides
        if k + 1 < len(tiers):
            live = live[lesion_model.upper_proba(rows[live]) >= config.theta_lesion]
    scores = predict(lesion_model, rows[live]) if live.size else []
    kept = [(i, float(score)) for i, score in zip(live, scores)
            if score >= config.theta_lesion]
    detections = [
        Detection(indices=candidates[i].original_indices(),
                  dims=candidates[i].original_dims,
                  spacing=candidates[i].original_spacing, lesion_score=score,
                  scale_index=candidates[i].scale_index,
                  threshold_index=candidates[i].threshold_index)
        for i, score in kept
    ]
    row_of = {id(d): i for d, (i, _) in zip(detections, kept)}
    fused = fuse_labels(detections)
    if malignancy_model is not None and fused:
        survivors = [row_of[id(det)] for det in fused]
        missing = np.setdiff1d(split_features(malignancy_model), need)
        if missing.size:
            for i in survivors:
                fill(i, missing)
        malig = predict(malignancy_model, rows[survivors])
        for det, m in zip(fused, malig):
            det.malignancy_score = float(m)
            det.malignant = det.malignancy_score >= config.theta_malig
    return fused


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrocCurve:
    """Operating points, thresholds ascending (first = keep everything)."""

    thresholds: np.ndarray
    tpr: np.ndarray
    fpp: np.ndarray


@dataclass(frozen=True)
class RocCurve:
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


def roc_curve(scores, labels) -> RocCurve:
    """Per-candidate ROC with trapezoid AUC.

    Tied scores collapse into a single operating point. Degenerate
    label sets fix the AUC by convention: no negatives -> 1.0 (nothing
    can be ranked wrongly), no positives -> 0.0, empty input -> nan.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    if s.shape != y.shape:
        raise ValueError("scores and labels differ in length")
    n_pos = int(y.sum())
    n_neg = int(len(y) - n_pos)
    if len(s) == 0:
        return RocCurve(np.array([0.0, 1.0]), np.array([0.0, 1.0]), math.nan)
    order = np.argsort(-s, kind="stable")
    ys = y[order]
    ss = s[order]
    cuts = np.flatnonzero(np.r_[ss[1:] != ss[:-1], True])
    tp = np.cumsum(ys)[cuts].astype(np.float64)
    fp = (cuts + 1.0) - tp
    tpr = np.r_[0.0, tp / n_pos] if n_pos else np.zeros(len(cuts) + 1)
    fpr = np.r_[0.0, fp / n_neg] if n_neg else np.zeros(len(cuts) + 1)
    if n_pos == 0 and n_neg == 0:
        auc = math.nan
    elif n_neg == 0:
        auc = 1.0
    elif n_pos == 0:
        auc = 0.0
    else:
        auc = float(_trapezoid(tpr, fpr))
    return RocCurve(fpr, tpr, auc)


def tpr_at_fpp(froc: FrocCurve, fpp_budget: float) -> float:
    """Highest TPR among operating points with FPP within the budget."""
    ok = froc.fpp <= fpp_budget
    return float(froc.tpr[ok].max()) if ok.any() else 0.0


# ---------------------------------------------------------------------------
# detection and malignancy metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetectionMetrics:
    """FROC over score thresholds, per-detection ROC, and the
    keep-everything operating point."""

    froc: FrocCurve
    roc: RocCurve
    tpr: float
    fpp: float


def _froc_from_matches(scores_per_case, match_per_case, total_targets, n_cases):
    all_scores = np.concatenate(scores_per_case)
    if all_scores.size == 0:
        return FrocCurve(np.zeros(1), np.zeros(1), np.zeros(1))
    thresholds = np.unique(all_scores)
    # a target is hit at every threshold up to its best matching score, and
    # a detection that matches nothing is a false positive up to its own
    pairs = list(zip(scores_per_case, match_per_case))
    best = np.sort(np.concatenate([
        np.where(m[:, m.any(axis=0)], s[:, None], -np.inf).max(axis=0, initial=-np.inf)
        for s, m in pairs]))
    unmatched = np.sort(np.concatenate([s[~m.any(axis=1)] for s, m in pairs]))
    hits = len(best) - np.searchsorted(best, thresholds)
    false_pos = len(unmatched) - np.searchsorted(unmatched, thresholds)
    tpr = hits / total_targets if total_targets else np.zeros(len(thresholds))
    return FrocCurve(thresholds, tpr, false_pos / n_cases)


def _curve_metrics(per_case, total_targets: int) -> DetectionMetrics:
    """Curves of scored detections against target lesions.

    ``per_case`` holds one ``(scores, regions, targets)`` triple per
    case, regions and targets as sorted flat indices on the case's grid.
    A target is hit at a threshold when a detection scoring at least
    that overlaps it with DSI >= ``MATCH_DSI``; a detection that hits
    no target is a false positive, normalized per case. The ROC labels
    each detection by whether it hits a target.
    """
    scores_pc, match_pc = [], []
    for scores, regions, targets in per_case:
        scores_pc.append(np.asarray(scores, dtype=np.float64))
        match_pc.append(dsi_matrix(regions, targets) >= MATCH_DSI)
    froc = _froc_from_matches(scores_pc, match_pc, total_targets, len(per_case))
    roc = roc_curve(np.concatenate(scores_pc),
                    np.concatenate([m.any(axis=1) for m in match_pc]))
    return DetectionMetrics(froc, roc, float(froc.tpr[0]), float(froc.fpp[0]))


def detection_metrics(detections_per_case, truths_per_case) -> DetectionMetrics:
    """Lesion-detection FROC/ROC over per-case detection lists, against
    each case's lesions as sorted flat indices on its grid.

    A lesion counts as detected when some kept detection overlaps it
    with DSI >= ``MATCH_DSI``; detections overlapping no lesion are the
    false positives, normalized per case. The ROC scores detections as
    lesion vs normal under the same match rule.
    """
    if len(detections_per_case) != len(truths_per_case):
        raise ValueError("need one truth list per case")
    if not detections_per_case:
        raise ValueError("need at least one case")
    total_lesions = sum(len(t) for t in truths_per_case)
    if total_lesions == 0:
        raise ValueError("no ground-truth lesions in any case")
    per_case = [([d.lesion_score for d in dets], [d.indices for d in dets], lesions)
                for dets, lesions in zip(detections_per_case, truths_per_case)]
    return _curve_metrics(per_case, total_lesions)


def malignancy_metrics(detections_per_case, truths_per_case,
                       malignant_per_case) -> DetectionMetrics:
    """Malignancy identification curves over scored detections, against
    each case's lesions as sorted flat indices and their malignancy flags.

    Sweeps the malignancy threshold: a true positive is a malignant
    lesion matched by a flagged detection; every other flagged
    detection is a false positive, so hits on benign lesions count
    against the system. Detections without a malignancy score are
    ignored.
    """
    if not len(detections_per_case) == len(truths_per_case) == \
            len(malignant_per_case):
        raise ValueError("need truths and malignancy flags for every case")
    if not detections_per_case:
        raise ValueError("need at least one case")
    per_case = []
    for dets, lesions, flags in zip(detections_per_case, truths_per_case,
                                    malignant_per_case):
        if len(lesions) != len(flags):
            raise ValueError("one malignancy flag per lesion required")
        scored = [d for d in dets if d.malignancy_score is not None]
        per_case.append(([d.malignancy_score for d in scored],
                         [d.indices for d in scored],
                         [m for m, f in zip(lesions, flags) if f]))
    total_malignant = sum(int(sum(flags)) for flags in malignant_per_case)
    return _curve_metrics(per_case, total_malignant)


def arcg(candidates_per_case, truths_per_case) -> tuple[float, float]:
    """Mean and population std of each lesion's best candidate DSI.

    Candidates and lesions are sorted flat indices on their case's grid.
    Lesions no candidate overlaps contribute 0.
    """
    best = []
    for cands, lesions in zip(candidates_per_case, truths_per_case):
        best.extend(np.max(dsi_matrix(cands, lesions), axis=0, initial=0.0))
    if not best:
        return 0.0, 0.0
    arr = np.asarray(best)
    return float(arr.mean()), float(arr.std())


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _curve_payload(metrics) -> dict:
    auc = metrics.roc.auc
    return {
        "tpr": round(metrics.tpr, 6),
        "fpp": round(metrics.fpp, 6),
        "auc": None if math.isnan(auc) else round(auc, 6),
        "froc": {
            "thresholds": metrics.froc.thresholds.tolist(),
            "tpr": metrics.froc.tpr.tolist(),
            "fpp": metrics.froc.fpp.tolist(),
        },
        "roc": {
            "fpr": metrics.roc.fpr.tolist(),
            "tpr": metrics.roc.tpr.tolist(),
        },
    }


def write_report_json(path, detection: DetectionMetrics,
                      malignancy: DetectionMetrics | None = None,
                      arcg_stats: tuple[float, float] | None = None,
                      extra: dict | None = None) -> None:
    """One JSON report with a single UTC timestamp line."""
    payload = {
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "detection": _curve_payload(detection),
    }
    if malignancy is not None:
        payload["malignancy"] = _curve_payload(malignancy)
    if arcg_stats is not None:
        payload["arcg"] = {"mean": round(arcg_stats[0], 6),
                           "std": round(arcg_stats[1], 6)}
    if extra:
        payload.update(extra)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_froc_csv(path, froc: FrocCurve) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "tpr", "fpp"])
        for th, tp, fp in zip(froc.thresholds, froc.tpr, froc.fpp):
            writer.writerow([repr(float(th)), repr(float(tp)), repr(float(fp))])


def write_roc_csv(path, roc: RocCurve) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fpr", "tpr"])
        for fp, tp in zip(roc.fpr, roc.tpr):
            writer.writerow([repr(float(fp)), repr(float(tp))])


def write_detection_masks(out_dir, case_id: str, detections) -> list[Path]:
    """One NRRD mask per detection, named by case and rank: the only
    place a detection's region becomes a full grid."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, det in enumerate(detections):
        p = out_dir / f"{case_id}_detection_{i:03d}.nrrd"
        save_mask(p, region_mask(det.indices, det.dims, det.spacing))
        paths.append(p)
    return paths
