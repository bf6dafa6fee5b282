"""bosegas benchmark: one command for the three workloads.

    python3 perfbench/run.py --workload cli-session|trap-batch|scatter-batch \
        --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout (it needs ``src/bosegas``).  With --trace 0
it sets the workload up, then runs as many seeded passes of operations
as fit in S seconds at the workload's nominal pass time (at least
``min_passes``), and prints the end-to-end metrics.  With --trace 1 it runs ``min_passes`` untraced passes and one
traced pass on the inputs of the first, and prints the per-layer metrics;
the spans go to ``.perfbench_out/``.  The last line of standard output is the result
object; the line before it records the environment.  --tiny shrinks the
batch passes (used by selfcheck.py).

BLAS and OpenMP run with THREADS threads.  Every child process runs with
``src`` on PYTHONPATH and its own BOSEGAS_CACHE_DIR under the run's scratch
directory, which is removed at exit.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

THREADS = 1
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

if __name__ == "__main__":
    # pinned before numpy is imported here or in any child process
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(THREADS)

import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "threads": THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": commit,
            "src_sha256": src_digest()}


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bosegas").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


@dataclass
class Pass:
    seconds: float          # sum of the operation times, raw
    scaled: float           # the same, scaled to the reference machine speed
    results: list
    kernel: list            # (time, seconds) of every calibration kernel run


def run_pass(ctx, ops) -> Pass:
    """Run the operations one at a time, timing the calibration kernel
    between them, and scale each operation by the kernel times nearest it."""
    from calib import Speed
    from workloads import run_op
    speed = Speed()
    results = []
    for op in ops:
        speed.tick()
        results.append(run_op(ctx, op))
    speed.tick()
    for r in results:
        r.scale = speed.factor(r.start, r.start + r.seconds)
    return Pass(sum(r.seconds for r in results),
                sum(r.seconds * r.scale for r in results), results, speed.samples)


def run_for(ctx, wl, seed, seconds, tiny):
    """``wl.passes(seconds)`` passes with fresh inputs.  The count depends
    only on ``seconds``, never on how fast the passes ran, so a seed always
    gives the same operations and the same ``attempted`` and ``failed``."""
    return [run_pass(ctx, wl.make_pass(ctx, seed, p, tiny))
            for p in range(wl.passes(seconds))]


def end_to_end(wl, setup, passes) -> dict:
    walls = [p.scaled for p in passes]
    warm = [r.seconds * r.scale for p in passes for r in p.results if r.warm]
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-session" else resource.RUSAGE_SELF
    return {
        "setup_s": (setup["setup_s"], "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_s": (statistics.median(warm), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }


UNITS = {"calls": "count", "iterations": "count", "steps": "count",
         "builds": "count", "ms_per_iter": "ms", "us_per_step": "us",
         "error_rate": "ratio"}


def per_layer(wl, setup, passes, tracer) -> dict:
    """Per-layer metrics from ``wl.min_passes`` untraced passes and one
    traced pass on the inputs of the first.  Span times are raw; the tracing
    overhead and ``op_p90_s`` use times scaled to the reference speed."""
    import numpy as np
    from spans import layer_metrics, self_times
    *untraced, traced = passes
    m = layer_metrics(tracer.spans)
    selfs = self_times(tracer.spans)
    benchmark = [s for s in tracer.spans if s["name"].startswith(("op.", "setup."))]
    m["trace.unattributed_s"] = sum(selfs[s["id"]] for s in benchmark)
    m["trace.wall_s"] = sum(s["end"] - s["start"] for s in benchmark)
    m["trace.overhead_s"] = traced.scaled - untraced[0].scaled
    m["cli.import_s"] = setup["import_s"]
    results = [r for p in passes for r in p.results]
    m["error_rate"] = sum(not r.ok for r in results) / len(results)
    seconds = {r.label: r.seconds for r in untraced[0].results}
    m["cold_table_s"] = setup.get("cold_table_s", seconds.get("ll-cold", 0.0))
    m["verify_s"] = seconds.get("verify", 0.0)
    warm = [r.seconds * r.scale for p in untraced for r in p.results if r.warm]
    m["op_p90_s"] = float(np.percentile(warm, 90))
    return {k: (v, UNITS.get(k.rsplit(".", 1)[-1], UNITS.get(k, "s")))
            for k, v in m.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "bosegas" / "__init__.py").is_file():
        print(f"no bosegas sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from spans import Tracer
    from workloads import WORKLOADS, Context
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    warnings.simplefilter("ignore", RuntimeWarning)   # NaNs are gated below

    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("BOSEGAS_CACHE_DIR", None)
    ctx = Context(ROOT, work, env, OUT, src_digest())
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            tracer = Tracer()
            tracer.op = "setup"
            tracer.install()
            ctx.tracer = tracer
            setup = wl.setup(ctx)
            tracer.uninstall()
            ctx.tracer = None
            passes = [run_pass(ctx, wl.make_pass(ctx, args.seed, p, args.tiny))
                      for p in range(wl.min_passes)]
            traced_ops = wl.make_pass(ctx, args.seed, 0, args.tiny, repeat=1)
            tracer.install()
            ctx.tracer = tracer
            passes.append(run_pass(ctx, traced_ops))
            tracer.uninstall()
            ctx.tracer = None
            metrics = per_layer(wl, setup, passes, tracer)
            tracer.dump(OUT / f"{tag}-spans.jsonl")
        else:
            setup = wl.setup(ctx)
            passes = run_for(ctx, wl, args.seed, args.seconds, args.tiny)
            metrics = end_to_end(wl, setup, passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = [r for p in passes for r in p.results]
    failures = Counter(f"{r.label}: {r.why[:80]}" for r in results if not r.ok)
    info = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
            "passes": len(passes), "pass_raw_s": [p.seconds for p in passes],
            "pass_scaled_s": [p.scaled for p in passes],
            "ops": len(results), "warm_ops": sum(r.warm for r in results),
            "failures": failures, "setup": setup, "env": environment()}
    # a run that cannot set up, run or check an operation exits non-zero
    # before this point, so a printed result is always a checked one
    result = {"correct": True, "attempted": len(results),
              "failed": sum(not r.ok for r in results),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    detail = [[[r.label, r.start, r.seconds, r.scale, r.ok, r.why] for r in p.results]
              for p in passes]
    (OUT / f"{tag}.json").write_text(json.dumps(
        {"info": info, "result": result, "ops": detail,
         "kernel": [p.kernel for p in passes]}))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
