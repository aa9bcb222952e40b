"""Output checks.  Each returns a ``Check``: its name and, when it fails,
why.  None of them compares against a stored copy of earlier output;
each counts or recomputes what it checks from the inputs and outputs of
the run at hand, so a correct program passes and a wrong one can fail.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from ciltrack import continual, data, metrics

IOU_THR = 0.5  # the threshold metrics.evaluate uses by default
AP_TOL = 1e-9


@dataclass(frozen=True)
class Check:
    name: str
    error: str | None = None  # None when the check passed

    @property
    def ok(self) -> bool:
        return self.error is None


def _run(name, fn, *args) -> Check:
    """Run one check; a failed assertion or an exception fails it."""
    try:
        fn(*args)
    except Exception as err:  # a check that crashes is a failed check
        return Check(name, f"{type(err).__name__}: {err}")
    return Check(name)


def _require(cond, message):
    if not cond:
        raise AssertionError(message)


# ---------------------------------------------------------------------------
# Counting from inputs


def sequences_with_classes(ds, classes):
    """Sequences holding a ground-truth object of any of ``classes``: the
    videos a stage over those classes trains on."""
    classes = set(classes)
    return [
        (sid, frames)
        for sid, frames in ds.sequences
        if any(
            a.class_id in classes and a.confidence is None
            for f in frames
            for a in f.annotations
        )
    ]


def pairs_with_proposals(sequences) -> int:
    """Adjacent-frame pairs in which at least one frame has proposals."""
    return sum(
        1
        for _, frames in sequences
        for a, b in zip(frames, frames[1:])
        if a.proposals or b.proposals
    )


def _boxes_of_class(ds, class_id) -> int:
    """Boxes of ``class_id`` that carry an identity (what CLEAR-MOT scores)."""
    return sum(
        1
        for _, frames in ds.sequences
        for f in frames
        for a in f.annotations
        if a.class_id == class_id and a.instance_id is not None
    )


# ---------------------------------------------------------------------------
# Average precision, recomputed


def _xyxy(boxes):
    arr = np.array([(b.cx, b.cy, b.w, b.h) for b in boxes], dtype=np.float64)
    arr = arr.reshape(-1, 4)
    cx, cy, w, h = arr.T
    return cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2, w * h


def iou_matrix(pred_boxes, gt_boxes) -> np.ndarray:
    """(n_pred, n_gt) IoU, with the same float operations as ``data.iou``."""
    px1, py1, px2, py2, pa = _xyxy(pred_boxes)
    gx1, gy1, gx2, gy2, ga = _xyxy(gt_boxes)
    iw = np.minimum(px2[:, None], gx2[None, :]) - np.maximum(px1[:, None], gx1[None, :])
    ih = np.minimum(py2[:, None], gy2[None, :]) - np.maximum(py1[:, None], gy1[None, :])
    inter = iw * ih
    union = pa[:, None] + ga[None, :] - inter
    valid = (iw > 0) & (ih > 0)
    return np.divide(inter, union, out=np.zeros_like(inter), where=valid)


def average_precision(gt_ds, pred_ds, class_id, iou_thr=IOU_THR):
    """AP by the documented rule: detections in descending confidence
    (ties in dataset order) each take the best-IoU unmatched ground-truth
    box of their frame at or above the threshold; AP is the area under the
    all-point interpolated precision envelope."""
    gt_by_frame = {}
    for sid, frames in gt_ds.sequences:
        for f in frames:
            boxes = [a.box for a in f.annotations if a.class_id == class_id]
            if boxes:
                gt_by_frame[(sid, f.frame_index)] = boxes
    n_gt = sum(len(v) for v in gt_by_frame.values())
    if n_gt == 0:
        return None
    pred_by_sid = dict(pred_ds.sequences)
    conf, keys, boxes = [], [], []
    for sid, _ in gt_ds.sequences:
        for f in pred_by_sid.get(sid, ()):
            for a in f.annotations:
                if a.class_id == class_id:
                    conf.append(1.0 if a.confidence is None else a.confidence)
                    keys.append((sid, f.frame_index))
                    boxes.append(a.box)
    if not conf:
        return 0.0
    order = np.argsort(-np.asarray(conf), kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)

    tp = np.zeros(order.size, dtype=bool)
    by_frame = {}
    for i, key in enumerate(keys):
        by_frame.setdefault(key, []).append(i)
    for key, idx in by_frame.items():
        gts = gt_by_frame.get(key)
        if not gts:
            continue
        idx = sorted(idx, key=lambda i: rank[i])
        mat = iou_matrix([boxes[i] for i in idx], gts)
        taken = np.zeros(len(gts), dtype=bool)
        for row, i in enumerate(idx):
            cand = np.where(taken | (mat[row] < iou_thr), -1.0, mat[row])
            if cand.max() < iou_thr:
                continue
            k = len(cand) - 1 - int(np.argmax(cand[::-1]))  # last of the ties
            taken[k] = True
            tp[rank[i]] = True

    cum = np.cumsum(tp)
    precision = cum / np.arange(1, cum.size + 1)
    recall = cum / n_gt
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    return float(np.sum(np.diff(recall, prepend=0.0) * envelope))


# ---------------------------------------------------------------------------
# Checks on an evaluation


def _counts_vs_gt(report, gt_ds):
    for c, vals in report.per_class.items():
        counts, want = vals["counts"], _boxes_of_class(gt_ds, c)
        _require(
            counts.tp + counts.fn == want,
            f"class {c}: TP+FN={counts.tp + counts.fn}, ground truth has {want}",
        )


def _counts_vs_pred(report, pred_ds):
    for c, vals in report.per_class.items():
        counts, want = vals["counts"], _boxes_of_class(pred_ds, c)
        _require(
            counts.tp + counts.fp == want,
            f"class {c}: TP+FP={counts.tp + counts.fp}, predictions have {want}",
        )


def _ranges(report):
    _require(report.per_class, "empty evaluation")
    for c, vals in report.per_class.items():
        for key in ("IDF1", "AP"):
            v = vals[key]
            _require(v is None or 0.0 <= v <= 1.0, f"class {c}: {key}={v}")
        _require(vals["MOTA"] is None or vals["MOTA"] <= 1.0, f"class {c}: MOTA>1")


def _ap_agrees(report, gt_ds, pred_ds):
    for c, vals in report.per_class.items():
        mine = average_precision(gt_ds, pred_ds, c)
        theirs = vals["AP"]
        _require(
            (mine is None) == (theirs is None)
            and (mine is None or abs(mine - theirs) <= AP_TOL),
            f"class {c}: AP {theirs} but recomputed {mine}",
        )


def _perfect_self_score(gt_ds):
    part = data.SequenceDataset(
        sequences=gt_ds.sequences[:2], class_names=gt_ds.class_names
    )
    classes = sorted(part.classes_present())
    _require(classes, "ground-truth slice has no classes")
    report = metrics.evaluate(part, part, classes)
    for c, vals in report.per_class.items():
        for key in ("MOTA", "IDF1", "AP"):
            _require(
                vals[key] is not None and abs(vals[key] - 1.0) <= 1e-12,
                f"class {c}: {key}={vals[key]} scoring ground truth against itself",
            )


def report_checks(report, gt_ds, pred_ds) -> list[Check]:
    """The checks every workload runs on its last evaluation, given the
    evaluated world and the predictions that were scored."""
    return [
        _run("tp_fn_equals_gt", _counts_vs_gt, report, gt_ds),
        _run("tp_fp_equals_pred", _counts_vs_pred, report, pred_ds),
        _run("metric_ranges", _ranges, report),
        _run("ap_recomputed", _ap_agrees, report, gt_ds, pred_ds),
        _run("self_score_is_one", _perfect_self_score, gt_ds),
    ]


# ---------------------------------------------------------------------------
# Checks on a protocol run directory


def _lineage(run_dir, plan):
    expected = []
    for b, stage in enumerate(plan.stages):
        expected += sorted(stage)
        state, meta = continual.load_state(
            os.path.join(run_dir, f"stage_{b}", "checkpoint.bin")
        )
        _require(
            state.class_order == expected and meta["stage"] == b,
            f"stage {b}: class_order {state.class_order}, plan says {expected}",
        )


def checkpoint_lineage(run_dir, plan) -> Check:
    return _run("checkpoint_class_order", _lineage, run_dir, plan)


def _parents(run_dir, n_stages):
    for b in range(1, n_stages):
        with open(os.path.join(run_dir, f"stage_{b - 1}", "checkpoint.bin"), "rb") as f:
            want = hashlib.sha256(f.read()).hexdigest()
        _, meta = continual.load_state(
            os.path.join(run_dir, f"stage_{b}", "checkpoint.bin")
        )
        _require(meta["parent_digest"] == want, f"stage {b}: parent_digest mismatch")


def parent_digest(run_dir, n_stages) -> Check:
    return _run("parent_digest", _parents, run_dir, n_stages)


def _pl_classes(run_dir, plan):
    old = set(plan.stages[0])
    pls = data.load_dataset(os.path.join(run_dir, "stage_1", "pseudo_labels"))
    classes = [
        a.class_id for _, frames in pls.sequences for f in frames for a in f.annotations
    ]
    _require(classes, "no pseudo-labels were generated")
    stray = set(classes) - old
    _require(not stray, f"pseudo-labels of non-stage-0 classes {sorted(stray)}")


def pseudo_label_classes(run_dir, plan) -> Check:
    return _run("pseudo_label_classes", _pl_classes, run_dir, plan)


# ---------------------------------------------------------------------------
# Dataset round trip


def _box_bits(box):
    return tuple(v.hex() for v in (box.cx, box.cy, box.w, box.h))


def _same_annotation(a, b):
    return (
        _box_bits(a.box) == _box_bits(b.box)
        and (a.class_id, a.instance_id, a.confidence)
        == (b.class_id, b.instance_id, b.confidence)
        and a.feature.dtype == b.feature.dtype
        and a.feature.tobytes() == b.feature.tobytes()
    )


def _round_trip(written, read):
    _require(
        [sid for sid, _ in written.sequences] == [sid for sid, _ in read.sequences],
        "sequence ids differ",
    )
    for (sid, fw), (_, fr) in zip(written.sequences, read.sequences):
        _require(len(fw) == len(fr), f"sequence {sid}: frame count differs")
        for a, b in zip(fw, fr):
            _require(a.frame_index == b.frame_index, f"sequence {sid}: frame index")
            for kind in ("annotations", "proposals"):
                xs, ys = getattr(a, kind), getattr(b, kind)
                _require(
                    len(xs) == len(ys) and all(map(_same_annotation, xs, ys)),
                    f"sequence {sid} frame {a.frame_index}: {kind} differ",
                )


def round_trip(written, read) -> Check:
    return _run("predictions_round_trip", _round_trip, written, read)
