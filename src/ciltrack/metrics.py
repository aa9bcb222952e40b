"""Tracking and detection evaluation: MOTA, IDF1, AP per class, with
per-class means (mMOTA, mIDF1, mAP) and pooled overall metrics.

Matching is class-constrained everywhere.  Per-frame correspondence uses
the CLEAR convention: matches from the previous frame are kept while
still above the IoU threshold, the remainder is resolved by an optimal
assignment maximizing total IoU.  Classes with no ground truth are
undefined and excluded from the means.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .data import SequenceDataset, iou


@dataclass
class ClassCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    idsw: int = 0
    gt: int = 0


@dataclass(frozen=True)
class MetricReport:
    stage: int
    method: str
    per_class: dict[int, dict]  # class -> {"MOTA","IDF1","AP","counts"}
    overall: dict  # pooled MOTA/IDF1 and mAP
    means: dict  # mMOTA, mIDF1
    class_names: dict[int, str] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "stage": self.stage,
            "method": self.method,
            "per_class": {
                str(c): {
                    "name": self.class_names.get(c, str(c)),
                    "MOTA": vals["MOTA"],
                    "IDF1": vals["IDF1"],
                    "AP": vals["AP"],
                    "counts": vars(vals["counts"]),
                }
                for c, vals in sorted(self.per_class.items())
            },
            "overall": self.overall,
            "means": self.means,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def csv_rows(self):
        rows = []
        for c, vals in sorted(self.per_class.items()):
            counts = vals["counts"]
            rows.append(
                [
                    self.stage,
                    self.method,
                    self.class_names.get(c, str(c)),
                    _fmt(vals["MOTA"]),
                    _fmt(vals["IDF1"]),
                    _fmt(vals["AP"]),
                    counts.tp,
                    counts.fp,
                    counts.fn,
                    counts.idsw,
                    counts.gt,
                ]
            )
        rows.append(
            [
                self.stage,
                self.method,
                "__mean__",
                _fmt(self.means["mMOTA"]),
                _fmt(self.means["mIDF1"]),
                _fmt(self.overall["mAP"]),
                "",
                "",
                "",
                "",
                "",
            ]
        )
        rows.append(
            [
                self.stage,
                self.method,
                "__overall__",
                _fmt(self.overall["MOTA"]),
                _fmt(self.overall["IDF1"]),
                _fmt(self.overall["mAP"]),
                "",
                "",
                "",
                "",
                "",
            ]
        )
        return rows


CSV_HEADER = [
    "stage",
    "method",
    "class",
    "MOTA",
    "IDF1",
    "AP",
    "TP",
    "FP",
    "FN",
    "IDSW",
    "GT",
]


def _fmt(x):
    return "" if x is None else f"{x:.6f}"


# ---------------------------------------------------------------------------
# Per-frame correspondence (CLEAR)


def match_frames(
    gt_items, pred_items, iou_thr: float = 0.5, carry: dict | None = None
):
    """Match one frame's ground truth to predictions of a single class.

    ``gt_items``/``pred_items`` are (id, box) lists.  ``carry`` maps gt id
    to the pred id matched in the previous frame; those pairs are kept
    first when still above the threshold.  Returns the match dict
    gt_id -> pred_id for this frame.
    """
    carry = carry or {}
    gt_ids = [g for g, _ in gt_items]
    pred_ids = [p for p, _ in pred_items]
    gt_boxes = dict(gt_items)
    pred_boxes = dict(pred_items)

    matches = {}
    used_preds = set()
    for g, p in carry.items():
        if g in gt_boxes and p in pred_boxes and p not in used_preds:
            if iou(gt_boxes[g], pred_boxes[p]) >= iou_thr:
                matches[g] = p
                used_preds.add(p)

    rem_gt = [g for g in gt_ids if g not in matches]
    rem_pred = [p for p in pred_ids if p not in used_preds]
    if rem_gt and rem_pred:
        mat = np.zeros((len(rem_gt), len(rem_pred)))
        for i, g in enumerate(rem_gt):
            for j, p in enumerate(rem_pred):
                val = iou(gt_boxes[g], pred_boxes[p])
                if val >= iou_thr:
                    mat[i, j] = val
        rows, cols = linear_sum_assignment(-mat)
        for i, j in zip(rows, cols):
            if mat[i, j] > 0:
                matches[rem_gt[i]] = rem_pred[j]
    return matches


def _class_items(frame_anns, class_id):
    return [
        (ann.instance_id, ann.box)
        for ann in frame_anns
        if ann.class_id == class_id and ann.instance_id is not None
    ]


def clearmot_counts(
    gt_ds: SequenceDataset,
    pred_ds: SequenceDataset,
    class_id: int,
    iou_thr: float = 0.5,
) -> ClassCounts:
    counts = ClassCounts()
    pred_by_sid = dict(pred_ds.sequences)
    for sid, gt_frames in gt_ds.sequences:
        pred_frames = {
            f.frame_index: f for f in pred_by_sid.get(sid, ())
        }
        carry: dict = {}
        last_match: dict = {}
        for gt_frame in gt_frames:
            gt_items = _class_items(gt_frame.annotations, class_id)
            pred_frame = pred_frames.get(gt_frame.frame_index)
            pred_items = (
                _class_items(pred_frame.annotations, class_id) if pred_frame else []
            )
            matches = match_frames(gt_items, pred_items, iou_thr, carry)
            counts.gt += len(gt_items)
            counts.tp += len(matches)
            counts.fn += len(gt_items) - len(matches)
            counts.fp += len(pred_items) - len(matches)
            for g, p in matches.items():
                if g in last_match and last_match[g] != p:
                    counts.idsw += 1
                last_match[g] = p
            carry = matches
    return counts


def mota(counts: ClassCounts):
    if counts.gt == 0:
        return None
    return 1.0 - (counts.fn + counts.fp + counts.idsw) / counts.gt


# ---------------------------------------------------------------------------
# Identity metrics


def idf1_counts(
    gt_ds: SequenceDataset,
    pred_ds: SequenceDataset,
    class_id: int,
    iou_thr: float = 0.5,
):
    """(IDTP, total gt frames, total pred frames) for one class under the
    optimal bijective trajectory matching."""
    gt_traj: dict = {}
    pred_traj: dict = {}
    pred_by_sid = dict(pred_ds.sequences)
    for sid, gt_frames in gt_ds.sequences:
        for frame in gt_frames:
            for inst, box in _class_items(frame.annotations, class_id):
                gt_traj.setdefault((sid, inst), {})[frame.frame_index] = box
        for frame in pred_by_sid.get(sid, ()):
            for tid, box in _class_items(frame.annotations, class_id):
                pred_traj.setdefault((sid, tid), {})[frame.frame_index] = box

    gt_keys = sorted(gt_traj)
    pred_keys = sorted(pred_traj)
    n_gt_frames = sum(len(v) for v in gt_traj.values())
    n_pred_frames = sum(len(v) for v in pred_traj.values())
    if not gt_keys or not pred_keys:
        return 0, n_gt_frames, n_pred_frames

    overlap = np.zeros((len(gt_keys), len(pred_keys)), dtype=np.int64)
    for i, gk in enumerate(gt_keys):
        for j, pk in enumerate(pred_keys):
            if gk[0] != pk[0]:
                continue
            g, p = gt_traj[gk], pred_traj[pk]
            overlap[i, j] = sum(
                1
                for t in g.keys() & p.keys()
                if iou(g[t], p[t]) >= iou_thr
            )
    rows, cols = linear_sum_assignment(-overlap)
    idtp = int(overlap[rows, cols].sum())
    return idtp, n_gt_frames, n_pred_frames


def idf1_score(idtp: int, n_gt: int, n_pred: int):
    """IDF1 from identity counts; None when there is no ground truth."""
    return 2.0 * idtp / (n_gt + n_pred) if n_gt else None


def idf1(gt_ds, pred_ds, class_id: int, iou_thr: float = 0.5):
    return idf1_score(*idf1_counts(gt_ds, pred_ds, class_id, iou_thr))


# ---------------------------------------------------------------------------
# Detection average precision


def average_precision(
    gt_ds: SequenceDataset,
    pred_ds: SequenceDataset,
    class_id: int,
    iou_thr: float = 0.5,
):
    """Confidence-descending greedy matching, then the area under the
    monotone (all-point interpolated) precision-recall envelope."""
    gt_boxes: dict = {}
    detections = []
    pred_by_sid = dict(pred_ds.sequences)
    for sid, gt_frames in gt_ds.sequences:
        for frame in gt_frames:
            boxes = [a.box for a in frame.annotations if a.class_id == class_id]
            if boxes:
                gt_boxes[(sid, frame.frame_index)] = boxes
        for frame in pred_by_sid.get(sid, ()):
            for ann in frame.annotations:
                if ann.class_id == class_id:
                    conf = ann.confidence if ann.confidence is not None else 1.0
                    detections.append((conf, (sid, frame.frame_index), ann.box))

    n_gt = sum(len(v) for v in gt_boxes.values())
    if n_gt == 0:
        return None
    if not detections:
        return 0.0

    detections.sort(key=lambda d: -d[0])
    matched: dict = {key: [False] * len(v) for key, v in gt_boxes.items()}
    tp_flags = []
    for conf, key, box in detections:
        best, best_iou = None, iou_thr
        for k, gt_box in enumerate(gt_boxes.get(key, ())):
            if matched.get(key, [])[k]:
                continue
            val = iou(box, gt_box)
            if val >= best_iou:
                best, best_iou = k, val
        if best is not None:
            matched[key][best] = True
            tp_flags.append(True)
        else:
            tp_flags.append(False)

    # Precision-recall curve and monotone envelope (the running maximum of
    # precision from the right), integrated left-to-right in plain Python
    # for exact agreement with the enumeration oracle used in the tests.
    tp = 0
    recalls, precisions = [], []
    for k, flag in enumerate(tp_flags, start=1):
        if flag:
            tp += 1
        recalls.append(tp / n_gt)
        precisions.append(tp / k)
    return envelope_area(recalls, precisions)


def envelope_area(recalls, precisions) -> float:
    """Area under the all-point interpolated precision envelope: each rise
    in recall is weighted by the best precision at or after it."""
    envelope = precisions[:]
    for i in range(len(envelope) - 2, -1, -1):
        envelope[i] = max(envelope[i], envelope[i + 1])
    ap = 0.0
    prev_recall = 0.0
    for recall, best_prec in zip(recalls, envelope):
        if recall > prev_recall:
            ap += (recall - prev_recall) * best_prec
            prev_recall = recall
    return ap


def detection_f1(
    gt_ds: SequenceDataset,
    pred_ds: SequenceDataset,
    classes,
    iou_thr: float = 0.5,
):
    """Frame-level detection F1 over the given classes, identity-agnostic.

    Used to compare pseudo-label box quality between sources.
    """
    tp = fp = fn = 0
    pred_by_sid = dict(pred_ds.sequences)
    for sid, gt_frames in gt_ds.sequences:
        pred_frames = {f.frame_index: f for f in pred_by_sid.get(sid, ())}
        for gt_frame in gt_frames:
            pred_frame = pred_frames.get(gt_frame.frame_index)
            for c in classes:
                gt_items = [
                    (k, ann.box)
                    for k, ann in enumerate(gt_frame.annotations)
                    if ann.class_id == c
                ]
                pred_items = (
                    [
                        (k, ann.box)
                        for k, ann in enumerate(pred_frame.annotations)
                        if ann.class_id == c
                    ]
                    if pred_frame
                    else []
                )
                matches = match_frames(gt_items, pred_items, iou_thr, carry=None)
                tp += len(matches)
                fn += len(gt_items) - len(matches)
                fp += len(pred_items) - len(matches)
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


# ---------------------------------------------------------------------------
# Report assembly


def evaluate(
    gt_ds: SequenceDataset,
    pred_ds: SequenceDataset,
    classes,
    stage: int = 0,
    method: str = "",
    iou_thr: float = 0.5,
) -> MetricReport:
    per_class = {}
    pooled = ClassCounts()
    pooled_idtp = pooled_gt_fr = pooled_pred_fr = 0
    aps = []
    for c in sorted(classes):
        counts = clearmot_counts(gt_ds, pred_ds, c, iou_thr)
        idtp, n_gt_fr, n_pred_fr = idf1_counts(gt_ds, pred_ds, c, iou_thr)
        ap = average_precision(gt_ds, pred_ds, c, iou_thr)
        per_class[c] = {
            "MOTA": mota(counts),
            "IDF1": idf1_score(idtp, n_gt_fr, n_pred_fr),
            "AP": ap,
            "counts": counts,
        }
        for name in ("tp", "fp", "fn", "idsw", "gt"):
            setattr(pooled, name, getattr(pooled, name) + getattr(counts, name))
        pooled_idtp += idtp
        pooled_gt_fr += n_gt_fr
        pooled_pred_fr += n_pred_fr
        if ap is not None:
            aps.append(ap)

    defined_mota = [v["MOTA"] for v in per_class.values() if v["MOTA"] is not None]
    defined_idf1 = [v["IDF1"] for v in per_class.values() if v["IDF1"] is not None]
    means = {
        "mMOTA": float(np.mean(defined_mota)) if defined_mota else None,
        "mIDF1": float(np.mean(defined_idf1)) if defined_idf1 else None,
    }
    overall = {
        "MOTA": mota(pooled),
        "IDF1": idf1_score(pooled_idtp, pooled_gt_fr, pooled_pred_fr),
        "mAP": float(np.mean(aps)) if aps else None,
    }
    return MetricReport(
        stage=stage,
        method=method,
        per_class=per_class,
        overall=overall,
        means=means,
        class_names=dict(gt_ds.class_names),
    )


def write_report(report: MetricReport, json_path: str, csv_path: str) -> None:
    with open(json_path, "w") as f:
        f.write(report.to_json() + "\n")
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        writer.writerows(report.csv_rows())
