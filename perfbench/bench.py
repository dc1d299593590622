"""One benchmark workload in this process; started by ``run.py``.

Each workload generates its inputs from ``--seed`` in set-up, then
repeats passes over them, closed loop with one client, while the mean
pass so far would still end within ``--seconds`` (at least one pass).
Every pass is timed in seconds and in units of the reference kernel
(``reference.py``). Every operation's output
is checked after it has been timed: invariants of the output, and
equality with the same operation in the first pass. With ``--trace 1``
the run makes one untraced and one traced pass instead and reports
per-layer figures from the traced one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

import siftcad
from siftcad import candidates, classifiers, cli, evaluation, features, nrrd_io, phantom
# bound before layers.py wraps the module attributes, so the reads made by
# the output checks record no spans
from siftcad.nrrd_io import load_mask as _load_mask
from siftcad.nrrd_io import load_volume as _load_volume

import layers
from reference import Clock
from reference import timed as timed_reference
from run import THREAD_VARS, WORKLOADS
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_TRACE_COVERAGE = 0.9
SETUP_REPEATS = 3
SETUP_BUDGET_S = 5.0


class SetupError(RuntimeError):
    """The generated inputs cannot exercise the workload as intended."""


@dataclass(frozen=True)
class Sizes:
    """Input sizes. The phantom suite's first ``train_cases`` cases are
    the train split of ``detect_suite`` and ``train_fit``; three is the
    fewest that always hold a benign lesion (the generator's kinetic
    classes cycle M, M, B over the lesions). A pass of ``detect_suite``
    sums over ``test_cases`` cases, so that the inputs a seed draws move
    its time less."""

    train_cases: int = 3
    test_cases: int = 4
    suite_dims: tuple = (80, 80, 40)
    diameter_range_mm: tuple = (6.0, 16.0)
    n_trees: int = 200
    sift_dims: tuple = (160, 160, 80)
    sift_spacing: tuple = (0.7, 0.7, 1.3)


FULL = Sizes()
SMOKE = Sizes(test_cases=3, suite_dims=(64, 64, 32), diameter_range_mm=(5.0, 12.0),
              n_trees=20, sift_dims=(64, 64, 32))


@dataclass
class Op:
    """One checked operation of a pass."""

    key: str
    digest: str = ""
    problems: list = field(default_factory=list)


@dataclass
class Pass:
    """One pass over a workload's inputs; ``wall_s`` is its timed
    operation's wall time and ``rel`` the same time in units of the
    reference kernel. ``units`` is what per-layer figures are divided
    by: cases for ``detect_suite``, else the one operation."""

    ops: list
    wall_s: float
    rel: float
    units: int
    quality: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def _run_cli(argv: list) -> int:
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main([str(a) for a in argv])


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _require_benign_and_malignant(records) -> None:
    flags = {bool(m) for r in records if r.split == "train" for m in r.malignant}
    if flags != {True, False}:
        raise SetupError("the train split needs a benign and a malignant lesion, "
                         f"has malignant flags {sorted(flags)}")


def _suite(work: Path, seed: int, sizes: Sizes, test_cases: int):
    """The train cases and ``test_cases`` more. Each case's spec depends
    on its index only, so the train split is the same for any count."""
    records = phantom.generate_suite(
        sizes.train_cases + test_cases, seed, work / "data",
        dims=sizes.suite_dims, diameter_range_mm=sizes.diameter_range_mm)
    records = [replace(r, split="train" if i < sizes.train_cases else "test")
               for i, r in enumerate(records)]
    nrrd_io.save_manifest(work / "data" / "manifest.json", records)
    _require_benign_and_malignant(records)
    return records


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class DetectSuite:
    """``siftcad detect`` then ``siftcad evaluate`` on the test split,
    with models from ``siftcad train`` on the train split in set-up."""

    # where a pass is cut for the reference clock: between cases, outside
    # the per-case spans (``case_s``)
    TICKS = ((cli, "load_case"),)

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, work: Path, seed: int) -> None:
        records = _suite(work, seed, self.sizes, self.sizes.test_cases)
        self.manifest = work / "data" / "manifest.json"
        self.models = work / "models"
        self.det = work / "det"
        self.eval = work / "eval"
        self.test_ids = [r.case_id for r in records if r.split == "test"]
        if _run_cli(["train", "--manifest", self.manifest, "--out", self.models,
                     "--n-trees", self.sizes.n_trees, "--seed", seed,
                     "--threads", 1]) != 0:
            raise SetupError("siftcad train failed")
        rf_path = self.models / "malignancy_model.json"
        if not rf_path.exists():
            raise SetupError("siftcad train skipped the malignancy model: "
                             "its samples are single-class")
        self.rf_oob_mse = json.loads(rf_path.read_text())["oob_error"]
        self.inputs = (f"{len(records) - len(self.test_ids)} train and "
                       f"{len(self.test_ids)} test cases of {self.sizes.suite_dims}")

    def run_pass(self, tracer: Tracer, clock: Clock) -> Pass:
        shutil.rmtree(self.det, ignore_errors=True)
        shutil.rmtree(self.eval, ignore_errors=True)
        with clock:
            with tracer.span("op.detect") as detect:
                rc_detect = _run_cli(["detect", "--manifest", self.manifest,
                                      "--models", self.models, "--out", self.det,
                                      "--threads", 1])
            with tracer.span("op.evaluate") as evaluate:
                rc_eval = _run_cli(["evaluate", "--manifest", self.manifest,
                                    "--detections", self.det / "detections.json",
                                    "--out", self.eval])

        # per case: its load, pipeline and mask-write calls inside detect
        case_s = dict.fromkeys(self.test_ids, 0.0)
        for s in tracer.spans[detect.id + 1:evaluate.id]:
            if s.parent == detect.id and s.case in case_s:
                case_s[s.case] += s.duration
        ops = [Op(case_id) for case_id in case_s]
        if rc_detect != 0:
            for op in ops:
                op.problems.append(f"siftcad detect exited {rc_detect}")
        else:
            self._check_detections(ops)
        report_op = Op("evaluate")
        quality = {}
        if rc_eval != 0:
            report_op.problems.append(f"siftcad evaluate exited {rc_eval}")
        else:
            quality = self._check_report(report_op)
        quality["classifiers.rf_oob_mse"] = self.rf_oob_mse
        return Pass(ops + [report_op], clock.wall_s, clock.rel, len(ops), quality,
                    {"case_s": list(case_s.values()), "evaluate_s": [evaluate.duration]})

    def _check_detections(self, ops) -> None:
        doc = json.loads((self.det / "detections.json").read_text())
        entries = {c["case_id"]: c for c in doc.get("cases", [])}
        config = cli.RunConfig()
        for op in ops:
            entry = entries.get(op.key)
            if entry is None:
                op.problems.append("case missing from detections.json")
                continue
            chunks = [json.dumps(entry, sort_keys=True).encode()]
            union = None
            for d in entry["detections"]:
                path = self.det / d["mask"]
                chunks.append(path.read_bytes())
                mask = _load_mask(path).data
                if not mask.any():
                    op.problems.append(f"{d['mask']}: empty mask")
                if union is not None and (union & mask).any():
                    op.problems.append(f"{d['mask']}: overlaps a kept detection")
                union = mask if union is None else union | mask
                if not config.theta_lesion <= d["lesion_score"] <= 1.0:
                    op.problems.append(f"{d['mask']}: lesion score {d['lesion_score']}")
                score = d["malignancy_score"]
                if score is None or not 0.0 <= score <= 1.0 or \
                        d["malignant"] != (score >= config.theta_malig):
                    op.problems.append(f"{d['mask']}: malignancy {score}, {d['malignant']}")
            op.digest = _sha(*chunks)

    def _check_report(self, op: Op) -> dict:
        report = json.loads((self.eval / "report.json").read_text())
        froc = report["detection"]["froc"]
        curve = evaluation.FrocCurve(*(np.asarray(froc[k], dtype=float)
                                       for k in ("thresholds", "tpr", "fpp")))
        quality = {
            "evaluation.tpr_at_4fpp": evaluation.tpr_at_fpp(curve, 4.0),
            "evaluation.arcg_mean": report["arcg"]["mean"],
            "evaluation.malignancy_auc": (report.get("malignancy") or {}).get("auc"),
        }
        for name, value in quality.items():
            if value is None or not 0.0 <= value <= 1.0:
                op.problems.append(f"{name} = {value}")
        if report.get("n_cases") != len(self.test_ids):
            op.problems.append(f"report covers {report.get('n_cases')} cases")
        del report["generated_at"]
        op.digest = _sha(json.dumps(report, sort_keys=True).encode(),
                         (self.eval / "froc.csv").read_bytes(),
                         (self.eval / "roc.csv").read_bytes())
        return quality


class TrainFit:
    """The two model fits of ``siftcad train`` on feature matrices
    extracted from the train split in set-up."""

    TICKS = ((classifiers, "train_rf"),)

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, work: Path, seed: int) -> None:
        records = _suite(work, seed, self.sizes, 0)
        self.lesion_samples, self.malig_samples = [], []
        for record in (r for r in records if r.split == "train"):
            case = nrrd_io.load_case(record)
            cands = candidates.generate_candidates(case)
            labels = classifiers.assign_training_labels(cands, case.ground_truth)
            extractor = features.FeatureExtractor(case)
            for cand, lab in zip(cands, labels):
                if lab.label == 0:
                    continue
                fv = extractor.extract(cand)
                self.lesion_samples.append(
                    classifiers.LabeledSample(fv, lab.label, record.case_id))
                if lab.label == 1 and lab.lesion_index < len(record.malignant):
                    malignant = bool(record.malignant[lab.lesion_index])
                    self.malig_samples.append(classifiers.LabeledSample(
                        fv, 1 if malignant else -1, record.case_id))
        if {s.label for s in self.malig_samples} != {1, -1}:
            raise SetupError("malignancy samples of the train split are single-class")
        labels = [s.label for s in self.lesion_samples]
        self.inputs = (f"{len(labels)} lesion samples ({labels.count(1)} positive), "
                       f"{len(self.malig_samples)} malignancy samples")
        # the seed derivation of ``siftcad train``
        self.rus_seed, self.rf_seed = (
            int(ss.generate_state(1, dtype=np.uint64)[0])
            for ss in np.random.SeedSequence(seed).spawn(2))

    def run_pass(self, tracer: Tracer, clock: Clock) -> Pass:
        with clock, tracer.span("op.fit"):
            lesion = classifiers.train_rusboost(
                self.lesion_samples, n_trees=self.sizes.n_trees, seed=self.rus_seed)
            malig = classifiers.train_rf(self.malig_samples, seed=self.rf_seed)
        op = Op("fit")
        docs = [classifiers.model_to_dict(m) for m in (lesion, malig)]
        op.digest = _sha(json.dumps(docs, sort_keys=True).encode())
        if not 1 <= len(lesion.trees) <= self.sizes.n_trees or \
                not np.all(np.isfinite(lesion.alphas)):
            op.problems.append(f"boosting kept {len(lesion.trees)} rounds")
        n_features = self.lesion_samples[0].features.values.size
        if malig.n_tree not in classifiers.DEFAULT_RF_NTREE_GRID or \
                malig.m_try not in classifiers.rf_mtry_grid(n_features) or \
                len(malig.trees) != malig.n_tree:
            op.problems.append(f"forest n_tree={malig.n_tree} m_try={malig.m_try}")
        if not 0.0 <= malig.oob_error <= 4.0:
            op.problems.append(f"OOB MSE {malig.oob_error}")
        return Pass([op], clock.wall_s, clock.rel, 1,
                    {"classifiers.rf_oob_mse": malig.oob_error})


class SiftFullres:
    """``siftcad sift`` on one clinical-spacing case."""

    TICKS = ((candidates, "ms3d"), (cli, "ms3d"))

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, work: Path, seed: int) -> None:
        (record,) = phantom.generate_suite(
            1, seed, work / "data", dims=self.sizes.sift_dims,
            spacing=self.sizes.sift_spacing)
        self.case_id = record.case_id
        self.manifest = work / "data" / "manifest.json"
        self.breast = _load_mask(work / "data" / record.breast_mask).data
        self.out = work / "sift"
        self.inputs = f"one case of {self.sizes.sift_dims}"

    def run_pass(self, tracer: Tracer, clock: Clock) -> Pass:
        shutil.rmtree(self.out, ignore_errors=True)
        with clock, tracer.span("op.sift", case=self.case_id):
            rc = _run_cli(["sift", "--manifest", self.manifest, "--out", self.out,
                           "--threads", 1])
        op = Op(self.case_id)
        if rc != 0:
            op.problems.append(f"siftcad sift exited {rc}")
        else:
            self._check(op)
        return Pass([op], clock.wall_s, clock.rel, 1)

    def _check(self, op: Op) -> None:
        cand_path = self.out / f"{self.case_id}_candidates.json"
        sift_path = self.out / f"{self.case_id}_ms3d.nrrd"
        doc = json.loads(cand_path.read_text())
        config = cli.RunConfig()
        if doc.get("case_id") != self.case_id or not doc.get("candidates"):
            op.problems.append("no candidates")
        for c in doc.get("candidates", []):
            lo, hi = candidates.volume_window(c["scale_index"], config.m_scales,
                                              config.v_min, config.v_max)
            if not lo <= c["physical_volume_mm3"] <= hi or c["voxel_count"] < 1:
                op.problems.append(f"candidate outside its volume window: {c}")
                break
        response = _load_volume(sift_path).data
        if response.shape != self.breast.shape or response.min() < 0 or \
                response.max() > 65535 or response[~self.breast].any():
            op.problems.append("sifted response outside [0, 65535] or the breast")
        op.digest = _sha(cand_path.read_bytes(), sift_path.read_bytes())


WORKLOAD_CLASSES = {"detect_suite": DetectSuite, "train_fit": TrainFit,
                    "sift_fullres": SiftFullres}
assert tuple(WORKLOAD_CLASSES) == WORKLOADS


# ---------------------------------------------------------------------------
# running and reporting
# ---------------------------------------------------------------------------

def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "threads": {k: os.environ.get(k) for k in THREAD_VARS}}


def tail(values: list) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it; None below eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def run(workload, args, tracer: Tracer, work: Path) -> dict:
    layers.install(tracer, layers.CASE_BOUNDARIES)
    mark = tracer.patch_count
    if args.trace:
        layers.install(tracer, layers.LAYER_CALLS)
    # repeat a cheap set-up and report the median; a set-up is
    # deterministic, so the last one leaves the same state as the first
    setups = []
    while len(setups) < SETUP_REPEATS and sum(setups) < SETUP_BUDGET_S:
        with tracer.span("setup") as span:
            workload.setup(work, args.seed)
        setups.append(span.duration)
    tracer.restore(down_to=mark)

    # start another pass only while the mean pass so far would still end
    # inside the window, so a run does not overshoot by a whole pass
    tracer.phase = "measure"
    passes = []
    start = time.perf_counter()
    while True:
        clock = Clock()
        # traced passes are not cut, so their spans hold no kernel runs
        if not args.trace:
            for owner, attr in workload.TICKS:
                tracer.call_before(owner, attr, clock.tick)
        passes.append(workload.run_pass(tracer, clock))
        tracer.restore(down_to=mark)
        elapsed = time.perf_counter() - start
        if args.trace or elapsed + elapsed / len(passes) > args.seconds:
            break
    if args.trace:
        layers.install(tracer, layers.LAYER_CALLS)
        tracer.phase = "trace"
        passes.append(workload.run_pass(tracer, Clock()))
        tracer.restore(down_to=mark)

    # the digests cover every output, quality numbers included
    first = {op.key: op.digest for op in passes[0].ops}
    ops = [(i, op) for i, p in enumerate(passes) for op in p.ops]
    problems = []
    for i, op in ops:
        if op.digest != first[op.key]:
            op.problems.append("output differs from the first pass")
        if op.problems:
            problems.append(f"pass {i} {op.key}: {'; '.join(op.problems)}")
    return {"setup_s": statistics.median(setups), "inputs": workload.inputs,
            "passes": passes, "attempted": len(ops),
            "failed": len(problems), "problems": problems,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


# the printed name of each workload's operation wall time
OP_NAMES = {"detect_suite": "pass_s", "train_fit": "fit_s", "sift_fullres": "sift_case_s"}


def _tail_line(name: str, values: list) -> str:
    t = tail(values)
    if t is None:
        return f"{name}_tail = n/a (n={len(values)}, needs 11)"
    return f"{name}_tail = {t[1]:.4f} s at p{t[0]:.1f} (n={len(values)})"


def report(args, outcome: dict, tracer: Tracer, env: dict) -> dict:
    """Print the readable summary; return the result line's metrics."""
    passes = outcome["passes"]
    timed = passes[:1] if args.trace else passes
    op_s = [p.wall_s for p in timed]
    op_rel = [p.rel for p in timed]
    name = OP_NAMES[args.workload]
    lines = [f"setup_s = {outcome['setup_s']:.4f} s",
             f"{name} = {statistics.median(op_s):.4f} s "
             f"(median of n={len(op_s)} passes)",
             _tail_line(name, op_s),
             f"op_rel_p50 = {statistics.median(op_rel):.3f} ref "
             f"(op time over the reference kernel's, {timed_reference():.4f} s now)"]
    if args.workload == "detect_suite":
        case_s = [v for p in timed for v in p.extra["case_s"]]
        evaluate_s = [v for p in timed for v in p.extra["evaluate_s"]]
        lines += [f"case_s_p50 = {statistics.median(case_s):.4f} s (n={len(case_s)} cases)",
                  _tail_line("case_s", case_s),
                  f"evaluate_s = {statistics.median(evaluate_s):.4f} s"]
    for k, v in passes[0].quality.items():
        lines.append(f"{k.split('.', 1)[1]} = {v}")
    lines.append(f"peak_rss_mb = {outcome['peak_rss_mb']:.1f} MB")
    lines.append(f"failed_frac = {outcome['failed']}/{outcome['attempted']}")
    print(f"perfbench env {json.dumps(env, sort_keys=True)}")
    print(f"perfbench {args.workload} seed={args.seed} passes={len(passes)}: "
          f"{outcome['inputs']}")
    for line in lines:
        print(f"  {line}")
    for problem in outcome["problems"]:
        print(f"  FAILED {problem}")

    if not args.trace:
        return {"setup_s": {"value": outcome["setup_s"], "unit": "s"},
                "op_rel_p50": {"value": statistics.median(op_rel), "unit": "ref"},
                "peak_rss_mb": {"value": outcome["peak_rss_mb"], "unit": "MB"}}

    untraced, traced = passes[0], passes[-1]
    values = layers.per_layer(tracer, traced.units)
    values.update({k: v for k, v in traced.quality.items() if v is not None})
    values["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    values["trace.overhead_frac"] = values["trace.overhead_s"] / untraced.wall_s
    path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_jsonl(path, {"env": env, "workload": args.workload, "seed": args.seed,
                              "sizes": asdict(SMOKE if args.smoke else FULL),
                              "units_per_pass": traced.units,
                              "pass_wall_s": [p.wall_s for p in passes]})
    print(f"  trace: {len(tracer.spans)} spans in {path.relative_to(ROOT)}")
    for k, v in values.items():
        print(f"  {k} = {v:.6g} {layers.PER_LAYER_UNITS[k]}")
    if values["trace.coverage"] < MIN_TRACE_COVERAGE:
        outcome["problems"].append(
            f"child spans cover {values['trace.coverage']:.3f} of op time")
    return {k: {"value": float(v), "unit": layers.PER_LAYER_UNITS[k]}
            for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    package = Path(siftcad.__file__).resolve()
    if ROOT / "src" not in package.parents:
        print(f"perfbench: siftcad imported from {package}, not from this checkout",
              file=sys.stderr)
        return 2
    env = environment()
    # a terminated run still removes its inputs, in the finally below
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    tracer = Tracer(args.workload)
    workload = WORKLOAD_CLASSES[args.workload](SMOKE if args.smoke else FULL)
    try:
        outcome = run(workload, args, tracer, work)
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        tracer.restore()
        shutil.rmtree(work, ignore_errors=True)
    metrics = report(args, outcome, tracer, env)
    correct = not outcome["problems"]
    print(json.dumps({"correct": correct, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
