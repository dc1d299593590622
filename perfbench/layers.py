"""Which siftcad functions the benchmark wraps, and the per-layer
metrics it derives from their spans.

Layers are the package modules. Each entry wraps a function at the
module attribute its caller looks it up through (``cli.ms3d`` for the
call in ``siftcad sift``, ``candidates.ms3d`` for the one inside
``generate_candidates``); the span is named after the module that
defines the function. Attributes a later version of the package no
longer has are skipped, so their metrics read 0.
"""

from __future__ import annotations

import inspect
import math
import os
from collections import defaultdict

from siftcad import (
    candidates,
    classifiers,
    cli,
    evaluation,
    features,
    morphosift,
    nrrd_io,
    phantom,
)

from spans import Tracer, self_times

THETA_LESION = cli.RunConfig().theta_lesion


def _file_bytes(span, args, kwargs, result):
    span.attrs["bytes"] = os.path.getsize(args[0])


def _case_of_record(args, kwargs):
    return {"case": args[0].case_id}


def _loaded_case(span, args, kwargs, result):
    span.attrs["spacing0"] = result.spacing[0]


def _case_of_case(args, kwargs):
    return {"case": args[0].case_id}


def _counts_by_scale(span, args, kwargs, result):
    for c in result:
        key = f"m{c.scale_index}"
        span.attrs[key] = span.attrs.get(key, 0) + 1


_MS3D_SIGNATURE = inspect.signature(morphosift.ms3d)


def _ms3d_input(args, kwargs):
    bound = _MS3D_SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    vol = bound.arguments["volume"]
    return {"dims": list(vol.dims), "voxels": int(vol.data.size),
            "spacing0": vol.spacing[0], "n_orient": bound.arguments["n_orient"]}


def _slice_shape(args, kwargs):
    return {"shape": list(args[0].shape)}


def _scores(span, args, kwargs, result):
    model = args[0]
    span.attrs["model"] = type(model).__name__
    if isinstance(model, classifiers.RusBoostModel):
        values = result if hasattr(result, "__len__") else [result]
        span.attrs["kept"] = int(sum(float(v) >= THETA_LESION for v in values))


def _rounds(span, args, kwargs, result):
    span.attrs["rounds"] = len(result.trees)


def _forest(span, args, kwargs, result):
    span.attrs.update(n_tree=result.n_tree, m_try=result.m_try)


# (owner, attribute, pre, post); the first three are the per-case
# boundaries of ``siftcad detect`` and are wrapped in untraced runs too
CASE_BOUNDARIES = (
    (cli, "load_case", _case_of_record, _loaded_case),
    (cli, "run_pipeline", _case_of_case, None),
    (cli, "write_detection_masks", lambda a, k: {"case": a[1]}, None),
)

LAYER_CALLS = (
    # phantom
    (phantom, "generate_suite", None, None),
    (phantom, "generate_case", None, None),
    (phantom, "save_volume", None, _file_bytes),
    (phantom, "save_mask", None, _file_bytes),
    # nrrd_io
    (nrrd_io, "load_case", _case_of_record, _loaded_case),
    (nrrd_io, "load_volume", None, _file_bytes),
    (nrrd_io, "load_mask", None, _file_bytes),
    (cli, "load_manifest", None, None),
    (cli, "load_mask", None, _file_bytes),
    (cli, "save_volume", None, _file_bytes),
    (evaluation, "save_mask", None, _file_bytes),
    # wavelet
    (candidates, "scale_image", None, None),
    (candidates, "downscale_mask", None, None),
    (candidates, "upscale_mask", None, None),
    (features, "scale_image", None, None),
    (features, "downscale_mask", None, None),
    # morphosift
    (cli, "ms3d", _ms3d_input, None),
    (candidates, "ms3d", _ms3d_input, None),
    (morphosift, "ms2d", _slice_shape, None),
    (cli, "normalize16", None, None),
    (candidates, "normalize16", None, None),
    # candidates
    (cli, "generate_candidates", _case_of_case, _counts_by_scale),
    (candidates, "generate_candidates", _case_of_case, _counts_by_scale),
    (evaluation, "generate_candidates", _case_of_case, _counts_by_scale),
    (candidates, "multilevel_otsu", None, None),
    # features
    (features.FeatureExtractor, "extract", None, None),
    (features, "shell_mask", None, None),
    (features, "erode_mm", None, None),
    (features, "haralick_features", None, None),
    (features, "shape_features", None, None),
    (features, "kinetic_features", None, None),
    # classifiers
    (cli, "assign_training_labels", None, None),
    (classifiers, "assign_training_labels", None, None),
    (cli, "train_rusboost", None, _rounds),
    (classifiers, "train_rusboost", None, _rounds),
    (cli, "train_rf", None, _forest),
    (classifiers, "train_rf", None, _forest),
    (cli, "save_model", None, None),
    (cli, "load_model", None, None),
    (evaluation, "predict", None, _scores),
    # evaluation
    (evaluation, "fuse_labels", None, None),
    (cli, "detection_metrics", None, None),
    (cli, "arcg", None, None),
    (cli, "malignancy_metrics", None, None),
    (cli, "write_report_json", None, None),
    (cli, "write_froc_csv", None, None),
    (cli, "write_roc_csv", None, None),
)


def _span_name(func) -> str:
    return f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}"


def install(tracer: Tracer, table) -> None:
    for owner, attr, pre, post in table:
        func = getattr(owner, attr, None)
        if func is not None:
            tracer.wrap(owner, attr, _span_name(func), pre, post)
    if table is LAYER_CALLS and hasattr(classifiers, "_grow_tree"):
        # every tree grown, boosting round, bootstrap or refit alike
        tracer.count_calls(classifiers, "_grow_tree", "trees")


# name -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "phantom.generate_s": "s",
    "nrrd_io.load_case_s": "s",
    "nrrd_io.read_mb": "MB",
    "nrrd_io.write_s": "s",
    "nrrd_io.write_mb": "MB",
    "nrrd_io.load_mask_s": "s",
    "wavelet.scale_image_s": "s",
    "wavelet.upscale_mask_s": "s",
    "morphosift.ms3d_s.m1": "s",
    "morphosift.ms3d_s.m2": "s",
    "morphosift.ms3d_s.m3": "s",
    "morphosift.ms3d_calls": "count",
    "morphosift.ms2d_calls": "count",
    "morphosift.ms2d_s.axial": "s",
    "morphosift.ms2d_s.sagittal": "s",
    "morphosift.ms2d_s.coronal": "s",
    "morphosift.line_voxel_rate": "1/s",
    "candidates.otsu_s": "s",
    "candidates.generate_self_s": "s",
    "candidates.count.m1": "count",
    "candidates.count.m2": "count",
    "candidates.count.m3": "count",
    "features.extract_ms_per_candidate": "ms",
    "features.shell_s": "s",
    "features.shell_calls_per_candidate": "count",
    "features.haralick_s": "s",
    "features.shape_s": "s",
    "features.kinetic_s": "s",
    "features.extract_self_s": "s",
    "classifiers.rusboost_fit_s": "s",
    "classifiers.rusboost_round_ms": "ms",
    "classifiers.rusboost_rounds": "count",
    "classifiers.rf_fit_s": "s",
    "classifiers.rf_trees_grown": "count",
    "classifiers.predict_s": "s",
    "classifiers.predict_calls": "count",
    "classifiers.rf_oob_mse": "mse",
    "evaluation.fuse_s": "s",
    "evaluation.kept_over_extracted": "ratio",
    "evaluation.extracted": "count",
    "evaluation.metrics_s": "s",
    "evaluation.tpr_at_4fpp": "ratio",
    "evaluation.arcg_mean": "dsi",
    "evaluation.malignancy_auc": "auc",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-layer figures of the traced pass (phase ``trace``), per
    operation (a case of ``detect_suite``, a fit, a sift run).

    Evaluate-step figures (``evaluation.metrics_s``,
    ``nrrd_io.load_mask_s``) are per pass, model-fit figures per fit,
    ``phantom.generate_s`` per set-up. Self times subtract the time of
    wrapped child calls.
    """
    by_id = {s.id: s for s in tracer.spans}
    traced = [s for s in tracer.spans if s.phase == "trace"]
    kids = tracer.children()
    own = self_times(traced, kids)
    named = defaultdict(list)
    for s in traced:
        named[s.name].append(s)

    def total(*names) -> float:
        return sum(s.duration for n in names for s in named[n])

    def calls(*names) -> int:
        return sum(len(named[n]) for n in names)

    def under(s, name) -> bool:
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == name:
                return True
        return False

    per = 1.0 / n_ops
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    setup = [s for s in tracer.spans if s.phase == "setup"]
    out["phantom.generate_s"] = _ratio(
        sum(s.duration for s in setup if s.name == "phantom.generate_suite"),
        sum(s.name == "setup" for s in setup))

    loads = ("nrrd_io.load_volume", "nrrd_io.load_mask")
    saves = ("nrrd_io.save_volume", "nrrd_io.save_mask")
    out["nrrd_io.load_case_s"] = total("nrrd_io.load_case") * per
    out["nrrd_io.read_mb"] = sum(s.attrs.get("bytes", 0) for n in loads
                                 for s in named[n]) / 1e6 * per
    out["nrrd_io.write_s"] = total(*saves) * per
    out["nrrd_io.write_mb"] = sum(s.attrs.get("bytes", 0) for n in saves
                                  for s in named[n]) / 1e6 * per
    out["nrrd_io.load_mask_s"] = sum(
        s.duration for s in named["nrrd_io.load_mask"]
        if not under(s, "nrrd_io.load_case"))

    out["wavelet.scale_image_s"] = total("wavelet.scale_image") * per
    out["wavelet.upscale_mask_s"] = total("wavelet.upscale_mask") * per

    base_spacing = {s.case: s.attrs["spacing0"] for s in tracer.spans
                    if s.name == "nrrd_io.load_case" and "spacing0" in s.attrs}
    line_work = 0.0
    for s in named["morphosift.ms3d"]:
        base = base_spacing.get(s.case, s.attrs["spacing0"])
        m = round(math.log2(s.attrs["spacing0"] / base)) + 1
        key = f"morphosift.ms3d_s.m{m}"
        if key in out:
            out[key] += s.duration * per
        line_work += s.attrs["voxels"] * 3 * s.attrs["n_orient"] * 2
        nx, ny, nz = s.attrs["dims"]
        views = (("axial", [nx, ny]), ("sagittal", [nx, nz]), ("coronal", [nz, ny]))
        for c in kids.get(s.id, ()):
            if c.name != "morphosift.ms2d":
                continue
            view = next((v for v, shape in views if shape == c.attrs["shape"]), None)
            if view is not None:
                out[f"morphosift.ms2d_s.{view}"] += c.duration * per
    out["morphosift.ms3d_calls"] = calls("morphosift.ms3d") * per
    out["morphosift.ms2d_calls"] = calls("morphosift.ms2d") * per
    out["morphosift.line_voxel_rate"] = _ratio(line_work, total("morphosift.ms3d"))

    gen = named["candidates.generate_candidates"]
    out["candidates.otsu_s"] = total("candidates.multilevel_otsu") * per
    out["candidates.generate_self_s"] = sum(own[s.id] for s in gen) * per
    for m in (1, 2, 3):
        out[f"candidates.count.m{m}"] = sum(s.attrs.get(f"m{m}", 0) for s in gen) * per

    n_extract = calls("features.extract")
    out["features.extract_ms_per_candidate"] = 1000.0 * _ratio(
        total("features.extract"), n_extract)
    out["features.shell_s"] = total("features.shell_mask", "features.erode_mm") * per
    out["features.shell_calls_per_candidate"] = _ratio(
        calls("features.shell_mask", "features.erode_mm"), n_extract)
    out["features.haralick_s"] = total("features.haralick_features") * per
    out["features.shape_s"] = total("features.shape_features") * per
    out["features.kinetic_s"] = sum(own[s.id] for s in named["features.kinetic_features"]) * per
    out["features.extract_self_s"] = sum(own[s.id] for s in named["features.extract"]) * per

    # per fit, wherever it ran: ``detect_suite`` fits in set-up
    fits = [s for s in tracer.spans if s.phase in ("setup", "trace")]
    boost = [s for s in fits if s.name == "classifiers.train_rusboost"]
    forest = [s for s in fits if s.name == "classifiers.train_rf"]
    boost_s = sum(s.duration for s in boost)
    rounds = sum(s.attrs.get("rounds", 0) for s in boost)
    out["classifiers.rusboost_fit_s"] = _ratio(boost_s, len(boost))
    out["classifiers.rusboost_rounds"] = _ratio(rounds, len(boost))
    out["classifiers.rusboost_round_ms"] = 1000.0 * _ratio(boost_s, rounds)
    out["classifiers.rf_fit_s"] = _ratio(sum(s.duration for s in forest), len(forest))
    out["classifiers.rf_trees_grown"] = _ratio(
        sum(s.attrs.get("trees", 0) for s in forest), len(forest))
    out["classifiers.predict_s"] = total("classifiers.predict") * per
    out["classifiers.predict_calls"] = calls("classifiers.predict") * per

    out["evaluation.fuse_s"] = total("evaluation.fuse_labels") * per
    kept = sum(s.attrs.get("kept", 0) for s in named["classifiers.predict"])
    out["evaluation.kept_over_extracted"] = _ratio(kept, n_extract)
    out["evaluation.extracted"] = n_extract * per
    out["evaluation.metrics_s"] = total("evaluation.detection_metrics",
                                        "evaluation.arcg",
                                        "evaluation.malignancy_metrics")

    ops = [s for s in traced if s.name.startswith("op.")]
    out["trace.coverage"] = _ratio(
        sum(c.duration for s in ops for c in kids.get(s.id, ())),
        sum(s.duration for s in ops))
    return out
