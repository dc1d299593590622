"""Command-line batch interface.

Subcommands cover the full workflow: ``phantom`` writes a synthetic
dataset, ``sift`` runs candidate generation on one case (with a debug
volume of the sifted response), ``train`` fits the lesion and
malignancy classifiers on the training split, ``detect`` applies them
to a split, and ``evaluate`` turns stored detections into a metrics
report with FROC/ROC point tables.

Exit codes: 0 on success, 1 for usage errors, 2 for runtime failures
(missing files, malformed inputs). Identical config, inputs, and seed
give byte-identical outputs except for the single timestamp header
line in the evaluation report.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np

from .candidates import generate_candidates
from .classifiers import (
    LabeledSample,
    assign_training_labels,
    check_schema,
    load_model,
    save_model,
    train_rf,
    train_rusboost,
)
from .evaluation import (
    Detection,
    RunConfig,
    arcg,
    detection_metrics,
    malignancy_metrics,
    run_pipeline,
    write_detection_masks,
    write_froc_csv,
    write_report_json,
    write_roc_csv,
)
from .features import FeatureExtractor
# not called here: perfbench/bench.py cuts its reference-kernel clock at
# ``cli.ms3d``, so the name stays importable from this module
from .morphosift import ms3d  # noqa: F401
from .nrrd_io import (
    NrrdError,
    check_fields,
    integer_from,
    is_score,
    load_case,
    load_manifest,
    load_mask,
    of_type,
    one_of,
    or_null,
    read_document,
    save_volume,
)
from .phantom import generate_suite
from .volume import Volume3D, VolumeError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

DETECTIONS_FORMAT = "siftcad-detections"
DETECTIONS_VERSION = 1


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Config file values, then explicit CLI flags on top. Every error
    that the file takes part in names it."""
    data: dict = {}
    if path is not None:
        doc = read_document(path, "config", VolumeError)
        unknown = set(doc) - _CONFIG_KEYS
        if unknown:
            raise VolumeError(f"{path}: unknown config keys {sorted(unknown)}")
        data.update(doc)
    flags = {k: v for k, v in (overrides or {}).items() if v is not None}
    try:
        return RunConfig(**{**data, **flags})
    except VolumeError as exc:
        if path is None:
            raise
        RunConfig(**flags)  # an error the flags make on their own is theirs
        raise VolumeError(f"{path}: {exc}") from exc


def _config_from_args(args) -> RunConfig:
    overrides = {k: getattr(args, k, None) for k in _CONFIG_KEYS}
    return load_config(getattr(args, "config", None), overrides)


def _map_cases(fn, items, threads: int):
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _records_for_split(manifest_path, split: str):
    records = load_manifest(manifest_path)
    if split != "all":
        records = [r for r in records if r.split == split]
    if not records:
        raise VolumeError(f"{manifest_path}: no cases in split {split!r}")
    return records


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_phantom(args) -> int:
    config = _config_from_args(args)
    records = generate_suite(args.cases, config.seed, args.out,
                             noise_sigma=args.noise_sigma)
    n_lesions = sum(len(r.ground_truth) for r in records)
    print(f"wrote {len(records)} cases ({n_lesions} lesions) to {args.out}")
    return EXIT_OK


def cmd_sift(args) -> int:
    config = _config_from_args(args)
    matches = [r for r in load_manifest(args.manifest)
               if args.case in (None, r.case_id)]
    if not matches:
        what = "no cases" if args.case is None else f"no case {args.case!r}"
        raise VolumeError(f"{args.manifest}: manifest has {what}")
    record = matches[0]
    case = load_case(record)
    # the scale-1 response written below is normalised inside the breast
    if case.breast_mask.count == 0:
        raise VolumeError(
            f"{record.base_dir / record.breast_mask}: normalisation mask is empty")
    responses: dict[int, Volume3D] = {}
    cands = generate_candidates(
        case, m_scales=config.m_scales, n_orient=config.n_orient,
        t_count=config.t_count, v_min=config.v_min, v_max=config.v_max,
        responses=responses)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "format": "siftcad-candidates",
        "case_id": record.case_id,
        "candidates": [
            {
                "scale_index": c.scale_index,
                "threshold_index": c.threshold_index,
                "voxel_count": int(c.voxel_count),
                "physical_volume_mm3": c.physical_volume_mm3,
                "centroid_mm": list(c.centroid_mm),
            }
            for c in cands
        ],
    }
    (out / f"{record.case_id}_candidates.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")

    # full-resolution sifted response for visual inspection
    save_volume(out / f"{record.case_id}_ms3d.nrrd", responses[1])
    print(f"{record.case_id}: {len(cands)} candidates")
    return EXIT_OK


def _case_training_samples(record, config: RunConfig):
    case = load_case(record)
    cands = generate_candidates(
        case, m_scales=config.m_scales, n_orient=config.n_orient,
        t_count=config.t_count, v_min=config.v_min, v_max=config.v_max)
    labels = assign_training_labels(cands, case.ground_truth)
    extractor = FeatureExtractor(case)
    lesion_samples: list[LabeledSample] = []
    malig_samples: list[LabeledSample] = []
    for cand, lab in zip(cands, labels):
        if lab.label == 0:
            continue
        fv = extractor.extract(cand)
        lesion_samples.append(LabeledSample(fv, lab.label, record.case_id))
        if lab.label == 1 and record.malignant:
            malignant = bool(record.malignant[lab.lesion_index])
            malig_samples.append(
                LabeledSample(fv, 1 if malignant else -1, record.case_id))
    return lesion_samples, malig_samples


def cmd_train(args) -> int:
    config = _config_from_args(args)
    records = _records_for_split(args.manifest, "train")
    per_case = _map_cases(lambda r: _case_training_samples(r, config),
                          records, config.threads)
    lesion_samples = [s for ls, _ in per_case for s in ls]
    malig_samples = [s for _, ms in per_case for s in ms]
    labels = [s.label for s in lesion_samples]
    if 1 not in labels or -1 not in labels:
        raise VolumeError("training split lacks positive or negative candidates")

    rus_seed, rf_seed = (int(ss.generate_state(1, dtype=np.uint64)[0])
                         for ss in np.random.SeedSequence(config.seed).spawn(2))
    lesion_model = train_rusboost(lesion_samples, n_trees=config.n_trees,
                                  seed=rus_seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_model(out / "lesion_model.json", lesion_model)

    malig_labels = {s.label for s in malig_samples}
    if malig_labels == {1, -1}:
        malignancy_model = train_rf(malig_samples, seed=rf_seed)
        save_model(out / "malignancy_model.json", malignancy_model)
    else:
        malignancy_model = None
        print("note: malignancy labels are single-class, skipping that model")

    summary = {
        "n_cases": len(records),
        "n_lesion_samples": len(lesion_samples),
        "n_positive": labels.count(1),
        "n_negative": labels.count(-1),
        "n_malignancy_samples": len(malig_samples),
        "n_trees": len(lesion_model.trees),
        "rf_n_tree": None if malignancy_model is None else malignancy_model.n_tree,
        "rf_m_try": None if malignancy_model is None else malignancy_model.m_try,
        # [n_tree, m_try, OOB MSE] of every point the forest's size was chosen from
        "rf_oob_grid": None if malignancy_model is None else
        [list(point) for point in malignancy_model.oob_grid],
        "seed": config.seed,
    }
    (out / "train_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"trained on {len(records)} cases, "
          f"{labels.count(1)}+/{labels.count(-1)}- candidates")
    return EXIT_OK


def _load_schema_model(path):
    """A model file whose trees take this feature schema, checked before
    any case is read."""
    model = load_model(path)
    check_schema(model, str(path))
    return model


def cmd_detect(args) -> int:
    config = _config_from_args(args)
    records = _records_for_split(args.manifest, args.split)
    models_dir = Path(args.models)
    lesion_model = _load_schema_model(models_dir / "lesion_model.json")
    malignancy_path = models_dir / "malignancy_model.json"
    malignancy_model = (_load_schema_model(malignancy_path)
                        if malignancy_path.exists() else None)

    out = Path(args.out)
    masks_dir = out / "masks"

    def detect_one(record):
        case = load_case(record)
        return run_pipeline(case, lesion_model, malignancy_model, config)

    per_case = _map_cases(detect_one, records, config.threads)
    cases_doc = []
    total = 0
    for record, detections in zip(records, per_case):
        paths = write_detection_masks(masks_dir, record.case_id, detections)
        total += len(detections)
        cases_doc.append({
            "case_id": record.case_id,
            "detections": [
                {
                    "mask": str(p.relative_to(out)),
                    "lesion_score": det.lesion_score,
                    "malignancy_score": det.malignancy_score,
                    "malignant": det.malignant,
                    "scale_index": det.scale_index,
                    "threshold_index": det.threshold_index,
                }
                for det, p in zip(detections, paths)
            ],
        })
    doc = {"format": DETECTIONS_FORMAT, "version": DETECTIONS_VERSION,
           "split": args.split, "cases": cases_doc}
    out.mkdir(parents=True, exist_ok=True)
    (out / "detections.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"{total} detections over {len(records)} cases")
    return EXIT_OK


# the fields of a detections document, of each of its cases and of each
# detection: (name, required, valid, what a valid value is)
_DOCUMENT_FIELDS = (
    ("format", True, one_of(DETECTIONS_FORMAT), repr(DETECTIONS_FORMAT)),
    ("version", True, one_of(DETECTIONS_VERSION), str(DETECTIONS_VERSION)),
    ("split", False, of_type(str), "a string"),
    ("cases", True, of_type(list), "a list"),
)
_CASE_FIELDS = (
    ("case_id", True, of_type(str), "a string"),
    ("detections", True, of_type(list), "a list"),
)
_DETECTION_FIELDS = (
    ("mask", True, of_type(str), "a file name"),
    ("lesion_score", True, is_score, "a number in [0, 1]"),
    ("malignancy_score", False, or_null(is_score), "a number in [0, 1] or null"),
    ("malignant", False, or_null(of_type(bool)), "a boolean or null"),
    ("scale_index", False, integer_from(1), "a positive integer"),
    ("threshold_index", False, integer_from(0), "a non-negative integer"),
)


def _load_detections(path):
    """A detections document, checked field by field; VolumeError names
    the file and the first missing or malformed field."""
    doc = read_document(path, "detections file", VolumeError)
    check_fields(doc, _DOCUMENT_FIELDS, f"{path}: detections document", VolumeError)
    for i, entry in enumerate(doc["cases"]):
        check_fields(entry, _CASE_FIELDS, f"{path}: cases[{i}]", VolumeError)
        for j, det in enumerate(entry["detections"]):
            check_fields(det, _DETECTION_FIELDS, f"{path}: cases[{i}].detections[{j}]",
                         VolumeError)
    return doc


def cmd_evaluate(args) -> int:
    detections_path = Path(args.detections)
    doc = _load_detections(detections_path)
    records = {r.case_id: r for r in load_manifest(args.manifest)}
    scored = any(d.get("malignancy_score") is not None
                 for entry in doc["cases"] for d in entry["detections"])

    detections_per_case = []
    truths_per_case = []
    malignant_per_case = []
    for entry in doc["cases"]:
        case_id = entry["case_id"]
        if case_id not in records:
            raise VolumeError(f"{detections_path}: case {case_id!r} missing from manifest")
        record = records[case_id]
        if scored and len(record.malignant) != len(record.ground_truth):
            raise VolumeError(
                f"{args.manifest}: manifest case {case_id!r} has no 'malignant' flags "
                f"for its {len(record.ground_truth)} 'ground_truth' entries; the "
                f"detections carry malignancy scores, which need one flag per lesion")
        # each mask is kept as its indices only, and checked against the
        # grid of the case's first
        grid, regions = None, []
        for path in [*(record.base_dir / p for p in record.ground_truth),
                     *(detections_path.parent / d["mask"] for d in entry["detections"])]:
            mask = load_mask(path)
            grid = grid or mask.dims
            if mask.dims != grid:
                raise VolumeError(f"{path}: mask grid {mask.dims} differs from "
                                  f"case {case_id!r} grid {grid}")
            regions.append((np.flatnonzero(mask.data), mask.spacing))
        n_truths = len(record.ground_truth)
        truths_per_case.append([indices for indices, _ in regions[:n_truths]])
        malignant_per_case.append([bool(b) for b in record.malignant])
        detections_per_case.append([
            Detection(
                indices=indices, dims=grid, spacing=spacing,
                lesion_score=d["lesion_score"],
                scale_index=d.get("scale_index", 1),
                threshold_index=d.get("threshold_index", 0),
                malignancy_score=d.get("malignancy_score"),
                malignant=d.get("malignant"),
            )
            for (indices, spacing), d in zip(regions[n_truths:], entry["detections"])])

    detection = detection_metrics(detections_per_case, truths_per_case)
    arcg_stats = arcg([[d.indices for d in dets] for dets in detections_per_case],
                      truths_per_case)
    malignancy = None
    if scored:
        malignancy = malignancy_metrics(detections_per_case, truths_per_case,
                                        malignant_per_case)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_report_json(out / "report.json", detection, malignancy, arcg_stats,
                      extra={"split": doc.get("split"),
                             "n_cases": len(doc["cases"])})
    write_froc_csv(out / "froc.csv", detection.froc)
    write_roc_csv(out / "roc.csv", detection.roc)
    auc = "n/a" if malignancy is None else f"{malignancy.roc.auc:.3f}"
    print(f"TPR {detection.tpr:.3f} at FPP {detection.fpp:.2f}, "
          f"ARCG {arcg_stats[0]:.3f} +- {arcg_stats[1]:.3f}, "
          f"malignancy AUC {auc}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this interface reserves 2 for
    runtime failures, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    group = common.add_argument_group("pipeline configuration")
    group.add_argument("--config", metavar="JSON",
                       help="config file; explicit flags override it")
    group.add_argument("--m-scales", dest="m_scales", type=int)
    group.add_argument("--n-orient", dest="n_orient", type=int)
    group.add_argument("--t-count", dest="t_count", type=int)
    group.add_argument("--v-min", dest="v_min", type=float,
                       help="minimum lesion volume, mm^3")
    group.add_argument("--v-max", dest="v_max", type=float,
                       help="maximum lesion volume, mm^3")
    group.add_argument("--theta-lesion", dest="theta_lesion", type=float)
    group.add_argument("--theta-malig", dest="theta_malig", type=float)
    group.add_argument("--seed", type=int)
    group.add_argument("--threads", type=int,
                       help="per-case parallelism cap (default 1)")
    group.add_argument("--n-trees", dest="n_trees", type=int,
                       help="boosting rounds for the lesion classifier")

    parser = _Parser(prog="siftcad",
                     description="Multiscale-sifting breast MRI CAD pipeline")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("phantom", parents=[common],
                       help="write a synthetic phantom dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--cases", type=int, default=20)
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=4.0)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("sift", parents=[common],
                       help="candidate generation for one case")
    p.add_argument("--manifest", required=True)
    p.add_argument("--case", help="case id (default: first in manifest)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sift)

    p = sub.add_parser("train", parents=[common],
                       help="fit lesion and malignancy classifiers")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="model output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", parents=[common],
                       help="run the detection pipeline on a split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--models", required=True, help="directory from train")
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=("train", "test", "all"), default="test")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", parents=[common],
                       help="metrics report from stored detections")
    p.add_argument("--detections", required=True,
                   help="detections.json written by detect")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (VolumeError, NrrdError, OSError, ValueError, KeyError) as exc:
        print(f"siftcad: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
