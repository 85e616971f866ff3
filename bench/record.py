"""Alternating parent/change benchmark pairs, summarised into BENCH_<pr>.json.

Usage, from the root of a git checkout:

    python3 bench/record.py --pr 9 --base HEAD~1 --workload infer416 --seeds 5001-5010

Both sides are exported with ``git archive`` into temporary directories
under bench/out/ (``--base`` is the parent, ``--head`` the change, HEAD by
default), so the benchmark sees committed files only and the repository is
left untouched. For each seed, ``perfbench/run.py`` runs once on each side
with the run length of BENCHMARK.json, and the side that runs first
alternates from pair to pair. ``--trace`` adds one traced run per side, on
the first seed, for the per-layer metrics.

On the first seed, one more child per side measures allocation peaks apart
from the timed runs: it imports ``perfbench/workloads.py`` from that side's
export, builds the workload once untraced and drops it, so that lazy
imports and ``abc`` caches are filled and the set-up figure counts none of
them, then, under ``tracemalloc`` and with one evaluator worker so that no
two threads allocate at once, builds it again (``alloc_setup_mb``) and
runs ``ALLOC_WARMUP`` warm-up operations, by which the op peaks have
stopped drifting down, then ``ALLOC_OPS`` measured ones (``alloc_op_mb``,
their median). Each figure is the traced peak above what was traced just
before, in MiB, the unit of ``peak_rss_mb``. ``tracemalloc`` sees numpy's
buffers but not those OpenBLAS allocates itself, and it counts allocated
bytes whether or not their pages are ever touched, so these figures are
not RSS.

The workload's entry in BENCH_<pr>.json (other workloads' entries are kept;
runs of the same two commits are added to those already there) holds every
run (its end-to-end metrics, ``attempted``, ``failed`` and its ``env``
line) and, per end-to-end metric over all its pairs, each side's median and
quartiles, the change's win count, and whether the pairs meet the gain rule
(at least 10 pairs, the change better in at least 9 of 10, by a median gap
wider than the parent's interquartile range, every run correct, and a failed
share of attempted operations no larger than the parent's) and the metric's
regression bound. The allocation peaks are stored per side under ``alloc``.

Standard library only.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
ALLOC_WARMUP = 3
ALLOC_OPS = 3

# Run in a side's export: argv is the workload, the seed, 1 for smoke sizes,
# and the numbers of warm-up and measured ops.
_ALLOC_CHILD = """
import json, os, statistics, sys, tempfile, tracemalloc
sys.path[:0] = [os.path.abspath("src"), os.path.abspath(".")]
from perfbench import workloads

def peak_mb(fn):
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    result = fn()
    return result, (tracemalloc.get_traced_memory()[1] - before) / 2**20

name, seed, smoke = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
n_warmup, n_ops = int(sys.argv[4]), int(sys.argv[5])
with tempfile.TemporaryDirectory() as work_dir:
    workloads.WORKLOADS[name](seed, smoke, work_dir)  # fills lazy imports and caches, then drops
    tracemalloc.start()
    wl, setup = peak_mb(lambda: workloads.WORKLOADS[name](seed, smoke, work_dir))
    ops = [peak_mb(lambda: wl.op(i))[1] for i in range(n_warmup + n_ops)]
print(json.dumps({"alloc_setup_mb": setup, "alloc_op_mb": statistics.median(ops[n_warmup:])}))
"""


def parse_seeds(text: str) -> list[int]:
    """Seeds from "5001-5010", "7,9,11" or a mix of both."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric of BENCHMARK.json (``name``, ``better``,
    ``bound``): quartiles of both sides over the ``pairs`` (each
    {"parent": run, "change": run}, a run holding ``metrics`` by name),
    the change's wins (ties count for neither side), whether it meets the
    gain rule, and whether its median is worse than the parent's by no
    more than the bound, a fraction of the parent's median. A run's
    ``correct``, ``failed`` and ``attempted`` default to true, 0 and 0; no
    gain counts unless every run is correct and the change's failed share
    of attempted operations is no larger than the parent's."""
    runs = {side: [p[side] for p in pairs] for side in ("parent", "change")}
    failed_share = {side: sum(r.get("failed", 0) for r in rs)
                    / max(1, sum(r.get("attempted", 0) for r in rs)) for side, rs in runs.items()}
    sound = (failed_share["change"] <= failed_share["parent"]
             and all(r.get("correct", True) for rs in runs.values() for r in rs))
    summary = {}
    for m in metrics:
        sign = 1 if m["better"] == "lower" else -1
        parent = [p["parent"]["metrics"][m["name"]] for p in pairs]
        change = [p["change"]["metrics"][m["name"]] for p in pairs]
        qp, qc = quartiles(parent), quartiles(change)
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        gain = sign * (qp["median"] - qc["median"])
        worse = -gain / qp["median"] if qp["median"] else 0.0
        summary[m["name"]] = {
            "parent": qp, "change": qc, "change_wins": wins, "pairs": len(pairs),
            "median_change_pct": 100.0 * (qc["median"] - qp["median"]) / qp["median"]
            if qp["median"] else 0.0,
            "gain_rule_met": len(pairs) >= 10 and 10 * wins >= 9 * len(pairs)
            and gain > qp["q3"] - qp["q1"] and sound,
            "within_bound": worse <= m["bound"],
        }
    return summary


def add_runs(entry: dict | None, revs: dict, seconds: float, pairs: list[dict],
             traced: list[dict], metrics: list[dict]) -> dict:
    """A workload's entry with new ``pairs`` and ``traced`` runs: added to
    those of ``entry`` when it compares the same two commits, since the gain
    rule counts every pair run, else replacing it; the summary covers all."""
    if entry and (entry["parent"], entry["change"]) == (revs["parent"], revs["change"]):
        pairs, traced = entry["pairs"] + pairs, entry["traced"] + traced
    return {**revs, "seconds": seconds, "seeds": [p["seed"] for p in pairs],
            "failed": {side: sum(p[side]["failed"] for p in pairs) for side in revs},
            "summary": summarize(pairs, metrics), "pairs": pairs, "traced": traced}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, directory: str) -> None:
    """Extract the files of commit ``rev`` into ``directory``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(directory, filter="data")


def bench_run(checkout: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One perfbench run: its end-to-end (or, traced, per-layer) metrics,
    counts and ``env`` line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=checkout, capture_output=True, text=True, timeout=20 * seconds + 600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed in {checkout} (exit {done.returncode}):\n"
                           f"{done.stderr[-2000:]}")
    outcome = json.loads(lines[-1])
    return {"seed": seed, "correct": outcome["correct"], "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "metrics": {k: v["value"] for k, v in outcome["metrics"].items()},
            "env": json.loads(lines[0])["env"]}


def alloc_run(checkout: str, workload: str, seed: int, smoke: bool = False) -> dict:
    """Allocation peaks of one workload in ``checkout``: ``alloc_setup_mb``
    and ``alloc_op_mb`` (see the module docstring)."""
    done = subprocess.run(
        [sys.executable, "-c", _ALLOC_CHILD, workload, str(seed), str(int(smoke)),
         str(ALLOC_WARMUP), str(ALLOC_OPS)],
        cwd=checkout, capture_output=True, text=True, timeout=3600,
        env={**os.environ, "CNNADAPT_THREADS": "1"})
    if done.returncode != 0:
        raise RuntimeError(f"allocation run failed in {checkout} (exit {done.returncode}):\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def parse_args(argv):
    p = argparse.ArgumentParser(description="alternating parent/change perfbench pairs")
    p.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    p.add_argument("--base", required=True, help="the parent commit")
    p.add_argument("--head", default="HEAD", help="the change's commit (default HEAD)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=parse_seeds, required=True,
                   help='e.g. "5001-5010"; seeds not used while writing the change')
    p.add_argument("--trace", action="store_true",
                   help="add one traced run per side on the first seed")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    revs = {"parent": _git("rev-parse", args.base), "change": _git("rev-parse", args.head)}
    OUT_DIR.mkdir(exist_ok=True)
    pairs, traced = [], []
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        checkouts = {}
        for side, rev in revs.items():
            checkouts[side] = str(Path(work) / side)
            export(rev, checkouts[side])
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = bench_run(checkouts[side], args.workload, seed, seconds, False)
                print(f"seed {seed} {side}: {pair[side]['metrics']}", file=sys.stderr)
            pairs.append(pair)
        alloc = {side: alloc_run(checkouts[side], args.workload, args.seeds[0])
                 for side in ("parent", "change")}
        print(f"alloc: {alloc}", file=sys.stderr)
        if args.trace:
            traced.append({side: bench_run(checkouts[side], args.workload, args.seeds[0],
                                           seconds, True) for side in ("parent", "change")})

    path = ROOT / f"BENCH_{args.pr}.json"
    record = json.loads(path.read_text()) if path.exists() else {"pr": args.pr, "workloads": {}}
    entry = add_runs(record["workloads"].get(args.workload), revs, seconds, pairs, traced,
                     spec["end_to_end"])
    entry["alloc"] = alloc
    record["workloads"][args.workload] = entry
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({args.workload: entry["summary"]}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
