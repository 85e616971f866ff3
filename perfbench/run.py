"""cnnadapt benchmark: three seeded closed-loop workloads over the public API.

Usage (from the root of a checkout; no install or build step):

    python3 perfbench/run.py --workload infer416 --seed 1 --seconds 30 --trace 0

Workloads (one caller; the next operation starts when the previous returns):

  infer416     one 416x416 image through the fused float engine, the int
               engine and compare_traces (the ``compare`` command's work).
  prune_sweep  prune_routine with accuracy_evaluator at a 96x96 input.
  pipeline     save -> load -> fuse -> quantize -> save -> load -> digest of
               the full unfused model.

A run sets the workload up a fixed number of times per workload (``setup_s``
is the median; a fixed count keeps the heap, and so peak RSS, the same from
run to run; each set-up is freed before the next), then
repeats the operation until ``--seconds`` have passed and at least the
workload's minimum number of operations ran, checking every result outside
the timed region. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Earlier lines give
the environment, then every setup and operation time and the medians of
each workload's named stage metrics (``float_infer_s``, ``prune_sweep_s``,
``pipeline_s``, ...) with their units.

With ``--trace 1`` every second operation runs under the tracer (spans.py);
per-layer numbers come from those, the others give the tracing overhead, and
the spans are written to perfbench/out/ when the run ends. ``--smoke`` runs
toy sizes for the benchmark's own tests.

Exit status: 0 after a run (check ``correct``), 2 when the checkout holds no
cnnadapt sources.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("infer416", "prune_sweep", "pipeline")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CNNADAPT_THREADS")

STAGE_UNITS = {
    "float_infer_s": "s/image", "int_infer_s": "s/image", "compare_s": "s/image",
    "max_layer_mse": "mse", "int_saturations": "count",
    "prune_sweep_s": "s", "eval_samples_per_s": "samples/s",
    "prune_flop_reduction_pct": "%", "steps": "count", "accepted_steps": "count",
    "pipeline_s": "s/pass",
}


def _layer_metrics():
    """(name, unit, traced functions it needs, value from (profile, the operation's stage metrics))."""
    def s(*names):
        return lambda p, r: sum((p[n]["s"] for n in names if n in p), 0.0)

    def calls(name):
        return lambda p, r: p[name]["calls"] if name in p else 0

    def count(name, key, scale=None):
        def f(p, r):
            n = p[name]["counts"].get(key, 0) if name in p else 0
            return n / scale if scale else n
        return f

    def rate(name, scale):
        def f(p, r):
            busy = p[name]["s"] if name in p else 0.0
            return p[name]["counts"]["flop"] / scale / busy if busy else 0.0
        return f

    def layer_s(name, lid):
        return lambda p, r: p[name]["by_layer"].get(lid, 0.0) if name in p else 0.0

    def stage(key):
        return lambda p, r: r.get(key, 0)

    F, Q = "tensor.conv2d", "quantization.int_conv_forward"
    m = [(F + ".s", "s", [F], s(F)),
         (F + ".calls", "count", [F], calls(F)),
         (F + ".gflop", "GFLOP", [F], count(F, "flop", 1e9)),
         (F + ".gflops_per_s", "GFLOP/s", [F], rate(F, 1e9)),
         (F + ".mb_moved", "MB", [F], count(F, "bytes", 1e6))]
    m += [(f"{F}.{lid}.s", "s", [F], layer_s(F, lid)) for lid in LAYER_IDS]
    pointwise = ["tensor.batchnorm_forward", "tensor.leaky_relu"]
    shuffles = ["tensor.maxpool", "tensor.upsample_nearest", "tensor.concat"]
    int_other = ["tensor.maxpool_int", "tensor.upsample_nearest_int", "tensor.concat_int",
                 "quantization.quantize_input"]
    m += [("tensor.pointwise.s", "s", pointwise, s(*pointwise)),
          ("tensor.pool_upsample_concat.s", "s", shuffles, s(*shuffles)),
          (Q + ".s", "s", [Q], s(Q)),
          (Q + ".calls", "count", [Q], calls(Q)),
          (Q + ".gop", "GOP", [Q], count(Q, "flop", 1e9)),
          (Q + ".gops_per_s", "GOP/s", [Q], rate(Q, 1e9)),
          (Q + ".mb_moved", "MB", [Q], count(Q, "bytes", 1e6))]
    m += [(f"{Q}.{lid}.s", "s", [Q], layer_s(Q, lid)) for lid in LAYER_IDS]
    m += [("quantization.quant_leaky_relu.s", "s", ["quantization.quant_leaky_relu"],
           s("quantization.quant_leaky_relu")),
          ("quantization.int_other.s", "s", int_other, s(*int_other)),
          ("quantization.acc32_saturations", "count", [Q], count(Q, "acc32_saturations")),
          ("quantization.int16_saturations", "count", [Q], count(Q, "int16_saturations"))]
    for name in ("quantization.quantize_model", "quantization.save_quantized_model",
                 "quantization.load_quantized_model", "model.save_model", "model.load_model",
                 "model.model_digest", "fusion.fuse_model", "pruning.compute_metric_table",
                 "pruning.prune_below", "evaluation.evaluator", "evaluation.ordered_map",
                 "analysis.compare_traces", "analysis.count_flops", "analysis.count_params"):
        m.append((name + ".s", "s", [name], s(name)))
    m += [("model.float_infer.self_s", "s", ["model.float_infer"], s("model.float_infer")),
          ("quantization.int_infer.self_s", "s", ["quantization.int_infer"],
           s("quantization.int_infer")),
          ("pruning.prune_routine.self_s", "s", ["pruning.prune_routine"],
           s("pruning.prune_routine")),
          ("model.shape_infer.s", "s", ["model.shape_infer"], s("model.shape_infer")),
          ("model.shape_infer.calls", "count", ["model.shape_infer"], calls("model.shape_infer")),
          ("pruning.prune_below.calls", "count", ["pruning.prune_below"],
           calls("pruning.prune_below")),
          ("pruning.steps", "count", [], stage("steps")),
          ("pruning.accepted_steps", "count", [], stage("accepted_steps")),
          ("pruning.flop_reduction_pct", "%", [], stage("prune_flop_reduction_pct")),
          ("evaluation.evaluator.calls", "count", ["evaluation.accuracy_evaluator"],
           calls("evaluation.evaluator")),
          ("evaluation.float_infer.calls", "count",
           ["evaluation.accuracy_evaluator", "model.float_infer"],
           lambda p, r: p["model.float_infer"]["under_evaluator"]
           if "model.float_infer" in p else 0),
          ("analysis.max_layer_mse", "mse", [], stage("max_layer_mse"))]
    return m


LAYER_IDS = tuple(f"conv_{k}" for k in range(1, 14))
LAYER_METRICS = _layer_metrics()


def git_commit(root: Path):
    """Commit of a git checkout, read from .git without running git; None elsewhere."""
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
    return None


def environment(seed: int, workers: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "evaluator_workers": workers,
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description="cnnadapt benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="toy sizes, for the tests")
    return p.parse_args(argv)


def import_program():
    """Import cnnadapt from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "cnnadapt" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import cnnadapt
    if Path(cnnadapt.__file__).resolve().parent != (src / "cnnadapt").resolve():
        return None
    return cnnadapt


def _median(values):
    return statistics.median(values) if values else 0.0


def run(args, work_dir: str) -> dict:
    import spans
    import workloads
    from cnnadapt.evaluation import THREADS_ENV, worker_count

    # Keep the program's thread defaults, but never above the CPUs this process may use.
    affinity = len(os.sched_getaffinity(0))
    if THREADS_ENV not in os.environ and (os.cpu_count() or 1) > affinity:
        os.environ[THREADS_ENV] = str(affinity)
    env = environment(args.seed, worker_count())
    print(json.dumps({"env": env}), flush=True)

    cls = workloads.WORKLOADS[args.workload]
    setup_times, wl = [], None
    for _ in range(cls.setup_repeats):
        wl = None   # free the previous set-up first, so peak RSS holds one copy
        t0 = time.perf_counter()
        wl = cls(args.seed, args.smoke, work_dir)
        setup_times.append(time.perf_counter() - t0)

    tracer = spans.Tracer()
    plain, traced, profiles = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    while i < wl.min_ops or time.perf_counter() - start < args.seconds:
        under_trace = bool(args.trace) and i % 2 == 1
        attempted += 1
        try:
            if under_trace:
                first = len(tracer.spans)
                with tracer.installed(), tracer.root(f"op{i}"):
                    t0 = time.perf_counter()
                    stages, outputs = wl.op(i)
                    elapsed = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                stages, outputs = wl.op(i)
                elapsed = time.perf_counter() - t0
            failures = wl.check(i, outputs)
            del outputs
            if under_trace:
                profile = spans.op_profile(tracer.spans[first:])
                failures += tie_to_analysis(wl, profile)
                profiles.append((profile, stages))
                traced.append(elapsed)
            else:
                plain.append((elapsed, stages))
        except Exception:
            traceback.print_exc()
            failures = [f"operation {i} raised"]
        for f in failures:
            print(f"check failed: {f}", file=sys.stderr)
        failed += bool(failures)
        i += 1

    attempted += 1
    try:
        failures = wl.finish()
    except Exception:
        traceback.print_exc()
        failures = ["run-level checks raised"]
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    failed += bool(failures)

    stages = {}
    for key, unit in STAGE_UNITS.items():
        values = [r[key] for _, r in plain if key in r]
        if values:
            stages[key] = {"value": _median(values), "unit": unit, "n": len(values)}
    stages["error_rate"] = {"value": failed / attempted, "unit": "failed/attempted"}
    detail = {"workload": args.workload, "setup_s": setup_times,
              "op_s": [e for e, _ in plain], "stages": stages}
    if args.trace:
        # A function a later refactor removed has no spans: the metrics built
        # on it read 0 and are named here instead of failing the run.
        detail.update(traced_op_s=traced, untraced_functions=sorted(tracer.absent),
                      metrics_missing_functions=[
                          name for name, _, needs, _ in LAYER_METRICS
                          if tracer.absent.intersection(needs)])
    print(json.dumps(detail), flush=True)

    if args.trace:
        metrics = layer_metrics(profiles, traced, [e for e, _ in plain], env)
        write_spans(tracer, args)
    else:
        metrics = {
            "op_s": {"value": _median([e for e, _ in plain]), "unit": "s"},
            "setup_s": {"value": _median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def tie_to_analysis(wl, profile) -> list[str]:
    """Traced conv FLOPs per engine must equal what ``count_flops`` predicts."""
    failures = []
    expected = wl.expected_conv_flops()
    for engine, name in (("float", "tensor.conv2d"), ("int", "quantization.int_conv_forward")):
        seen = profile[name]["counts"].get("flop", 0) if name in profile else 0
        if seen != expected[engine]:
            failures.append(f"{name} did {seen} FLOPs; count_flops predicts {expected[engine]}")
    return failures


def layer_metrics(profiles, traced_s, plain_s, env) -> dict:
    """Per-layer metrics of one traced operation each (times: median over the
    traced operations; counts: the first, since they repeat exactly)."""
    metrics = {}
    for name, unit, _, value in LAYER_METRICS:
        values = [value(p, r) for p, r in profiles] or [0]
        exact = unit not in ("s", "GFLOP/s", "GOP/s")
        metrics[name] = {"value": values[0] if exact else _median(values), "unit": unit}
    overhead = (100.0 * (_median(traced_s) - _median(plain_s)) / _median(plain_s)
                if traced_s and plain_s else 0.0)
    # share of each traced operation's wall time spent inside traced calls
    accounted = [100.0 * (1 - p["op"]["s"] / p["op"]["duration"]) for p, _ in profiles]
    metrics["evaluation.workers"] = {"value": env["evaluator_workers"], "unit": "count"}
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    metrics["trace.accounted_pct"] = {"value": _median(accounted), "unit": "%"}
    metrics["trace.spans"] = {"value": sum(e["calls"] for e in profiles[0][0].values())
                              if profiles else 0, "unit": "count"}
    return metrics


def write_spans(tracer, args) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "absent": sorted(tracer.absent),
                   "spans": [s.to_dict() for s in tracer.spans]}, fh)
    print(f"spans written to {path.relative_to(ROOT)}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if import_program() is None:
        print(f"error: {ROOT / 'src'} holds no cnnadapt package; run from a full checkout",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work_dir:
        outcome = run(args, work_dir)
    print(json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
