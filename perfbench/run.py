"""Benchmark launcher for siftcad.

    python3 perfbench/run.py --workload detect_suite --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from the repository root. Each workload runs in a process of its own
(``bench.py``) with the BLAS/OpenMP thread pools pinned to one thread and
``src`` on the import path, so the package is built from this checkout's
source and ``peak_rss_mb`` belongs to that workload alone. The last line
of standard output is the JSON result; ``--workload all`` runs every
workload in turn and ends with one combined result line. ``--smoke``
shrinks every input so that the benchmark's own tests finish in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("detect_suite", "train_fit", "sift_fullres")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# a run must end within 180 s; stop a workload that would overrun
WORKLOAD_TIMEOUT_S = 175


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _run_workload(name: str, args, capture: bool) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    with subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), text=True,
                          stdout=subprocess.PIPE if capture else None) as proc:
        try:
            out, _ = proc.communicate(timeout=WORKLOAD_TIMEOUT_S)
        except BaseException:
            # SIGTERM, not SIGKILL, so that the workload removes its inputs
            proc.terminate()
            proc.wait()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "siftcad" / "__init__.py").is_file():
        print(f"perfbench: no siftcad source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a terminated launcher takes its workload process down with it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if args.workload != "all":
            return _run_workload(args.workload, args, capture=False).returncode
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            proc = _run_workload(name, args, capture=True)
            print(proc.stdout, end="", flush=True)
            if proc.returncode != 0:
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    except subprocess.TimeoutExpired as exc:
        print(f"perfbench: workload exceeded {exc.timeout} s", file=sys.stderr)
        return 3
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
