"""ciltrack benchmark: one workload, one process, one JSON result line.

    python3 bench/run.py --workload protocol_crowded --seed 1 --seconds 40 --trace 0

Runs set-up, one untimed warm-up round, then whole timed rounds until
``--seconds`` have passed (at least one), checks every round's outputs,
and prints as its last line ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones
(timed with tracing off; ``wall_s`` is the fastest round); with
``--trace 1`` the run traces set-up and one round, repeats the round
untraced, and prints the per-layer metrics.  The traced run also writes
its spans, self times, tracing overhead and an environment record
to ``bench/out/trace-<workload>-seed<seed>.json``.

``--smoke`` shrinks every world so the whole harness runs in seconds.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time

# One BLAS thread: the project targets one CPU, and on a shared host extra
# BLAS threads measure the scheduler rather than the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402


def process_age_s() -> float:
    """Seconds since this process started (Linux), so set-up time covers
    interpreter start-up and imports."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import ciltrack  # noqa: E402

if not os.path.abspath(ciltrack.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"bench: ciltrack must come from {ROOT}/src, found {ciltrack.__file__}")

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def environment() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name", "") + " " + deps[k].get("version", "")
                for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "platform": platform.platform(),
    }


class Tally:
    """Operations attempted and failed: each round is one operation and
    each of its output checks another."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, outcomes):
        self.attempted += 1 + len(outcomes)
        for check in outcomes:
            if not check.ok:
                self.failed += 1
                print(f"bench: check {check.name} failed: {check.error}", file=sys.stderr)


def timed_round(wl):
    t0 = time.perf_counter()
    out_dir = wl.run_round()
    elapsed = time.perf_counter() - t0
    result, outcomes = wl.finish_round(out_dir)
    return elapsed, result, outcomes


def run_untraced(wl, seconds: float, tally: Tally) -> dict:
    """Set-up, one untimed warm-up round, then timed rounds until
    ``seconds`` have passed, checks included (at least one timed round).
    ``wall_s`` is the fastest timed round: other tenants of a shared host
    only ever add time, and their load drifts within a run."""
    wl.setup()
    setup_s = process_age_s()
    _, result, outcomes = timed_round(wl)  # warm-up: first-touch allocations
    tally.record(outcomes)
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        elapsed, result, outcomes = timed_round(wl)
        walls.append(elapsed)
        tally.record(outcomes)
    values = {"wall_s": min(walls), "setup_s": setup_s,
              "peak_rss_mb": peak_rss_mb()}
    values.update(workloads.quality(result))
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
    print(f"bench: {len(walls)} timed round(s), wall {[round(w, 3) for w in walls]}",
          file=sys.stderr)
    return {k: {"value": v, "unit": units.get(k, "1")} for k, v in values.items()}


def run_traced(wl, args, tally: Tally) -> dict:
    tr = tracing.Tracer()
    tr.install(ciltrack)
    try:
        with tr.span("bench.setup"):
            wl.setup()
        with tr.span("bench.round"):
            out_dir = wl.run_round()
        tr.enabled = False
        traced, outcomes = wl.finish_round(out_dir)
        tally.record(outcomes)
    finally:
        tr.uninstall()
    untraced_wall, untraced, outcomes = timed_round(wl)
    traced_wall = tr.span_seconds("bench.round")[0]

    summary = tr.summary()
    layer = tracing.layer_metrics(summary, tr.counts)
    expected = wl.expected_counts()
    same = (traced.digests == untraced.digests
            and workloads.quality(traced) == workloads.quality(untraced))
    outcomes = outcomes + [
        checks.Check("trace_is_neutral", None if same else
                     "traced and untraced rounds differ in outputs or quality"),
        _count_check("score_proposals_calls",
                     summary.get("tracker.score_proposals", {}).get("calls", 0),
                     expected["score_proposals_calls"]),
        _count_check("sgd_steps", layer["model.sgd_steps"], expected["sgd_steps"]),
    ]
    tally.record(outcomes)

    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    iou_by_caller = {caller: n for (_, caller), n in sorted(tr.calls_by_caller.items())}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "environment": environment(),
        "wall_untraced_s": untraced_wall,
        "wall_traced_s": traced_wall,
        "overhead_s": traced_wall - untraced_wall,
        "per_layer": layer,
        "counts": dict(tr.counts),
        "expected_counts": expected,
        "data.iou_calls_by_caller": iou_by_caller,
        "layers": summary,
        "covered_sites": tr.sites,
        "span_names": tr.names,
        "spans": tr.spans,  # [name index, start ns, end ns, parent index]
    }
    with open(path, "w") as f:
        json.dump(record, f)
    print(f"bench: trace written to {os.path.relpath(path, ROOT)}; overhead "
          f"{traced_wall - untraced_wall:.3f} s on {untraced_wall:.3f} s", file=sys.stderr)
    return {k: {"value": v, "unit": _unit(k)} for k, v in layer.items()}


def _count_check(name, got, want):
    error = None if got == want else f"traced {got}, inputs give {want}"
    return checks.Check(f"count_{name}", error)


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_rate", "_per_frame")):
        return "1"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    tally = Tally()
    try:
        wl = workloads.make(args.workload, args.seed, work_dir, smoke=args.smoke)
        if args.trace:
            values = run_traced(wl, args, tally)
        else:
            values = run_untraced(wl, args.seconds, tally)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
