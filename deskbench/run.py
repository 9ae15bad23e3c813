"""Desk benchmark for audiocap: one workload per process, one result line.

    python3 deskbench/run.py --workload train_desk --seed 7 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``. The
workloads (see ``workloads.py``) are

  train_desk      desk preset training steps, batch 8 (op = one step)
  caption_greedy  WAV -> greedy caption -> fluency gate (op = one clip)
  caption_beam3   the same with beam 3 (op = one clip)

With ``--trace 0`` the result holds the end-to-end metrics: ``setup_s``,
``peak_rss_mb``, ``op_ms_p50``, ``op_ms_tail`` and ``items_per_s``. With
``--trace 1`` it holds the per-layer metrics of ``spans.metric_names()``,
taken by wrapping the package's public functions from outside.

Standard output ends with a summary, one ``info`` line (host, inputs,
sample counts) and, last, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when that
object is printed, whether or not every check passed.
"""

import os

# One BLAS thread, set before numpy loads: multi-threaded OpenBLAS spends
# about twice the CPU time on these small matrices for slower steps, and
# the loss is bit-identical either way.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.util
import json
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train_desk", "caption_greedy", "caption_beam3")
# The highest percentile with at least ten samples beyond it at the
# benchmark's 30 s run length on a 2-core x86 VM, fixed per workload so
# that a faster program does not move its own tail percentile. Beam 3
# gets four passes over the 8 clips (32 samples), so its p75 has eight
# beyond it.
TAIL_PERCENTILE = {"train_desk": 90, "caption_greedy": 90, "caption_beam3": 75}
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "op_ms_p50": "ms",
              "op_ms_tail": "ms", "items_per_s": "1/s"}


def git_revision(root: Path) -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_info() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "machine": platform.machine(), "git_revision": git_revision(ROOT)}


def load_oracle():
    path = ROOT / "tests" / "_cider_oracle.py"
    spec = importlib.util.spec_from_file_location("_cider_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.oracle_cider


def run_workload(name, seed, seconds, workdir, tracer):
    import workloads
    cache = ROOT / ".deskbench" / "cache"
    if name == "train_desk":
        return workloads.train_desk(seed, seconds, workdir, tracer)
    beam = 1 if name == "caption_greedy" else 3
    return workloads.caption(seed, seconds, workdir, cache, beam,
                             load_oracle(), tracer)


def end_to_end(name, outcome) -> dict:
    import numpy as np
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": outcome.setup_s,
        "peak_rss_mb": peak_kib / 1024.0,
        "op_ms_p50": statistics.median(outcome.op_ms),
        "op_ms_tail": float(np.percentile(outcome.op_ms, TAIL_PERCENTILE[name])),
        "items_per_s": outcome.items / outcome.elapsed_s,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "audiocap" / "__init__.py").is_file():
        print(f"error: no audiocap package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans

    workdir = ROOT / ".deskbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = spans.Tracer() if args.trace else None
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, workdir,
                               tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not outcome.op_ms:
        print(f"error: no operation completed; {outcome.errors}", file=sys.stderr)
        return 1

    if tracer is None:
        values = end_to_end(args.workload, outcome)
        units = END_TO_END
    else:
        for message in tracer.violations:
            outcome.fail(message)
        values = tracer.per_layer_metrics(outcome.op_pairs)
        units = spans.metric_names()
    for message in outcome.errors:
        print(f"check failed: {message}", file=sys.stderr)
    for key, unit in units.items():
        print(f"{key:40s} {values[key]:14.4f} {unit}")
    samples = len(outcome.op_ms)
    pct = TAIL_PERCENTILE[args.workload]
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "op_samples": samples, "tail_percentile": pct,
            "samples_beyond_tail": samples - int(samples * pct / 100),
            "inputs": outcome.inputs, "host": host_info()}
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
