"""Smoke tests for the benchmark harness, on small worlds (``--smoke``):
every workload runs clean untraced and traced and prints exactly the
metrics BENCHMARK.json names, and the output checks fail on wrong output.

    python3 -m pytest -q bench
"""

import copy
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import workloads  # noqa: E402
from ciltrack import data, metrics  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_clean(workload, trace):
    result = run_bench(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    if trace:
        path = os.path.join(BENCH, "out", f"trace-{workload}-seed3.json")
        with open(path) as f:
            record = json.load(f)
        assert record["spans"] and "overhead_s" in record
        assert "ciltrack.tracker.iou -> data.iou" in record["covered_sites"]


def test_benchmark_json_names_the_workloads():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names and set(names) <= set(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def evaluated(tmp_path_factory):
    """A small world, tracked by a freshly trained model, and its report."""
    wl = workloads.make("track_eval", 2, str(tmp_path_factory.mktemp("wl")), smoke=True)
    wl.setup()
    out_dir = wl.run_round()
    gt, preds, read_back, report = wl.last_round
    return gt, preds, report, out_dir


def test_checks_pass_on_correct_output(evaluated):
    gt, preds, report, _ = evaluated
    outcomes = checks.report_checks(report, gt, preds) + [checks.round_trip(preds, preds)]
    assert [c.error for c in outcomes] == [None] * len(outcomes)


def test_checks_fail_on_wrong_counts_and_ap(evaluated):
    gt, preds, report, _ = evaluated
    bad = copy.deepcopy(report)
    c = min(bad.per_class)
    bad.per_class[c]["counts"].tp += 1
    bad.per_class[c]["AP"] = (bad.per_class[c]["AP"] or 0.0) + 1e-6
    failed = {x.name for x in checks.report_checks(bad, gt, preds) if not x.ok}
    assert {"tp_fn_equals_gt", "tp_fp_equals_pred", "ap_recomputed"} <= failed


def test_round_trip_detects_one_changed_bit(evaluated):
    _, preds, _, _ = evaluated
    sid, frames = preds.sequences[0]
    k = next(i for i, f in enumerate(frames) if f.annotations)
    ann = frames[k].annotations[0]
    box = replace(ann.box, cx=ann.box.cx + 2**-50)
    moved = replace(frames[k], annotations=(replace(ann, box=box),) + frames[k].annotations[1:])
    changed = data.SequenceDataset(
        sequences=((sid, frames[:k] + (moved,) + frames[k + 1:]),) + preds.sequences[1:],
        class_names=preds.class_names,
    )
    assert not checks.round_trip(preds, changed).ok


def test_recomputed_ap_matches_program_per_class(evaluated):
    gt, preds, _, _ = evaluated
    for c in sorted(gt.classes_present()):
        mine = checks.average_precision(gt, preds, c)
        theirs = metrics.average_precision(gt, preds, c)
        assert (mine is None and theirs is None) or abs(mine - theirs) <= 1e-9
