"""Metric implementations checked against brute-force enumeration oracles
on micro-sequences (at most 4 objects, 6 frames) small enough that every
matching can be enumerated exhaustively."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciltrack.data import Annotation, BoundingBox, Frame, SequenceDataset, iou
from ciltrack.metrics import (
    ClassCounts,
    average_precision,
    clearmot_counts,
    detection_f1,
    envelope_area,
    evaluate,
    idf1,
    idf1_counts,
    match_frames,
    mota,
    write_report,
)

IOU_THR = 0.5


# ---------------------------------------------------------------------------
# Oracles


def _enumerate_matchings(pairs_by_gt):
    """All injective gt -> pred mappings drawn from per-gt candidate lists.

    ``pairs_by_gt`` is a list of (gt_id, [(pred_id, iou), ...]).  Yields
    dicts gt_id -> pred_id.
    """
    if not pairs_by_gt:
        yield {}
        return
    (g, candidates), rest = pairs_by_gt[0], pairs_by_gt[1:]
    for sub in _enumerate_matchings(rest):
        yield sub  # g unmatched
        used = set(sub.values())
        for p, _ in candidates:
            if p not in used:
                yield {g: p, **sub}


def oracle_frame_match(gt_items, pred_items, carry):
    """Enumeration version of the per-frame CLEAR correspondence: keep
    carried pairs still above threshold, then pick the injective matching
    of the remainder with maximum total IoU."""
    gt_boxes, pred_boxes = dict(gt_items), dict(pred_items)
    matches, used = {}, set()
    for g, p in (carry or {}).items():
        if g in gt_boxes and p in pred_boxes and p not in used:
            if iou(gt_boxes[g], pred_boxes[p]) >= IOU_THR:
                matches[g] = p
                used.add(p)
    pairs_by_gt = []
    for g, gb in gt_boxes.items():
        if g in matches:
            continue
        cands = [
            (p, iou(gb, pb))
            for p, pb in pred_boxes.items()
            if p not in used and iou(gb, pb) >= IOU_THR
        ]
        pairs_by_gt.append((g, cands))
    best, best_total = {}, -1.0
    for cand in _enumerate_matchings(pairs_by_gt):
        total = sum(iou(gt_boxes[g], pred_boxes[p]) for g, p in cand.items())
        if total > best_total:
            best, best_total = cand, total
    matches.update(best)
    return matches


def oracle_clearmot(gt_ds, pred_ds, class_id):
    counts = ClassCounts()
    pred_by_sid = dict(pred_ds.sequences)
    for sid, gt_frames in gt_ds.sequences:
        pred_frames = {f.frame_index: f for f in pred_by_sid.get(sid, ())}
        carry, last = {}, {}
        for gt_frame in gt_frames:
            gt_items = [
                (a.instance_id, a.box)
                for a in gt_frame.annotations
                if a.class_id == class_id and a.instance_id is not None
            ]
            pf = pred_frames.get(gt_frame.frame_index)
            pred_items = (
                [
                    (a.instance_id, a.box)
                    for a in pf.annotations
                    if a.class_id == class_id and a.instance_id is not None
                ]
                if pf
                else []
            )
            matches = oracle_frame_match(gt_items, pred_items, carry)
            counts.gt += len(gt_items)
            counts.tp += len(matches)
            counts.fn += len(gt_items) - len(matches)
            counts.fp += len(pred_items) - len(matches)
            for g, p in matches.items():
                if g in last and last[g] != p:
                    counts.idsw += 1
                last[g] = p
            carry = matches
    return counts


def oracle_idf1(gt_ds, pred_ds, class_id):
    """IDF1 by exhaustive search over injective trajectory mappings."""
    gt_traj, pred_traj = {}, {}
    pred_by_sid = dict(pred_ds.sequences)
    for sid, gt_frames in gt_ds.sequences:
        for frame in gt_frames:
            for a in frame.annotations:
                if a.class_id == class_id and a.instance_id is not None:
                    gt_traj.setdefault((sid, a.instance_id), {})[frame.frame_index] = a.box
        for frame in pred_by_sid.get(sid, ()):
            for a in frame.annotations:
                if a.class_id == class_id and a.instance_id is not None:
                    pred_traj.setdefault((sid, a.instance_id), {})[frame.frame_index] = a.box
    n_gt = sum(len(v) for v in gt_traj.values())
    n_pred = sum(len(v) for v in pred_traj.values())
    if n_gt == 0:
        return None

    def overlap(gk, pk):
        if gk[0] != pk[0]:
            return 0
        g, p = gt_traj[gk], pred_traj[pk]
        return sum(1 for t in g.keys() & p.keys() if iou(g[t], p[t]) >= IOU_THR)

    gt_keys, pred_keys = sorted(gt_traj), sorted(pred_traj)
    best = 0
    k = min(len(gt_keys), len(pred_keys))
    for r in range(k + 1):
        for gs in itertools.combinations(gt_keys, r):
            for ps in itertools.permutations(pred_keys, r):
                best = max(best, sum(overlap(g, p) for g, p in zip(gs, ps)))
    return 2.0 * best / (n_gt + n_pred)


def oracle_ap(gt_ds, pred_ds, class_id):
    """AP recomputed with an independent right-to-left running-max
    envelope over the same greedy confidence-ordered matching."""
    gt_boxes, detections = {}, []
    pred_by_sid = dict(pred_ds.sequences)
    for sid, gt_frames in gt_ds.sequences:
        for frame in gt_frames:
            boxes = [a.box for a in frame.annotations if a.class_id == class_id]
            if boxes:
                gt_boxes[(sid, frame.frame_index)] = boxes
        for frame in pred_by_sid.get(sid, ()):
            for a in frame.annotations:
                if a.class_id == class_id:
                    conf = a.confidence if a.confidence is not None else 1.0
                    detections.append((conf, (sid, frame.frame_index), a.box))
    n_gt = sum(len(v) for v in gt_boxes.values())
    if n_gt == 0:
        return None
    if not detections:
        return 0.0
    detections.sort(key=lambda d: -d[0])
    matched = {key: [False] * len(v) for key, v in gt_boxes.items()}
    tps = []
    for _, key, box in detections:
        best, best_iou = None, IOU_THR
        for k, gb in enumerate(gt_boxes.get(key, ())):
            if matched[key][k]:
                continue
            val = iou(box, gb)
            if val >= best_iou:
                best, best_iou = k, val
        if best is not None:
            matched[key][best] = True
            tps.append(1)
        else:
            tps.append(0)
    tp_cum = np.cumsum(tps)
    recall = tp_cum / n_gt
    precision = tp_cum / np.arange(1, len(tps) + 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    ap, prev = 0.0, 0.0
    for r, p in zip(recall, envelope):
        if r > prev:
            ap += (r - prev) * p
            prev = r
    return float(ap)


# ---------------------------------------------------------------------------
# Random micro-sequence generator


def _box(rng):
    return BoundingBox(
        float(rng.uniform(0.15, 0.85)),
        float(rng.uniform(0.15, 0.85)),
        float(rng.uniform(0.08, 0.2)),
        float(rng.uniform(0.08, 0.2)),
    )


def _jitter(box, rng, scale):
    return BoundingBox(
        float(np.clip(box.cx + rng.normal(0, scale), 0.1, 0.9)),
        float(np.clip(box.cy + rng.normal(0, scale), 0.1, 0.9)),
        box.w,
        box.h,
    )


def micro_case(seed):
    """One ground-truth/prediction pair: jittered boxes, dropped and
    spurious predictions, and occasional identity swaps, so matchings near
    the IoU threshold and identity errors both occur."""
    rng = np.random.default_rng(seed)
    n_obj = int(rng.integers(1, 5))
    n_frames = int(rng.integers(2, 7))
    classes = rng.integers(0, 2, size=n_obj)
    present = [
        sorted(
            rng.choice(
                n_frames, size=int(rng.integers(1, n_frames + 1)), replace=False
            )
        )
        for _ in range(n_obj)
    ]
    boxes = {}
    for i in range(n_obj):
        b = _box(rng)
        for t in present[i]:
            b = _jitter(b, rng, 0.01)
            boxes[(i, t)] = b

    gt_frames, pred_frames = [], []
    pred_id = {i: i for i in range(n_obj)}
    next_pred = n_obj
    for t in range(n_frames):
        gt_anns, pred_anns = [], []
        for i in range(n_obj):
            if t not in present[i]:
                continue
            gt_anns.append(
                Annotation(
                    box=boxes[(i, t)],
                    class_id=int(classes[i]),
                    instance_id=i,
                    confidence=None,
                    feature=np.zeros(1),
                )
            )
            if rng.uniform() < 0.75:  # predicted
                if rng.uniform() < 0.15:  # identity break
                    pred_id[i] = next_pred
                    next_pred += 1
                pred_anns.append(
                    Annotation(
                        box=_jitter(boxes[(i, t)], rng, rng.uniform(0.0, 0.08)),
                        class_id=int(classes[i]),
                        instance_id=pred_id[i],
                        confidence=float(rng.uniform(0.3, 1.0)),
                        feature=np.zeros(1),
                    )
                )
        for _ in range(rng.poisson(0.5)):  # false positives
            pred_anns.append(
                Annotation(
                    box=_box(rng),
                    class_id=int(rng.integers(0, 2)),
                    instance_id=next_pred,
                    confidence=float(rng.uniform(0.3, 1.0)),
                    feature=np.zeros(1),
                )
            )
            next_pred += 1
        gt_frames.append(Frame(frame_index=t, annotations=tuple(gt_anns)))
        pred_frames.append(Frame(frame_index=t, annotations=tuple(pred_anns)))
    names = {0: "a", 1: "b"}
    return (
        SequenceDataset(sequences=(("000", tuple(gt_frames)),), class_names=names),
        SequenceDataset(sequences=(("000", tuple(pred_frames)),), class_names=names),
    )


class TestOracleAgreement:
    def test_mota_idf1_ap_exact_on_200_micro_cases(self):
        for seed in range(200):
            gt, pred = micro_case(seed)
            for c in (0, 1):
                ours = clearmot_counts(gt, pred, c, IOU_THR)
                ref = oracle_clearmot(gt, pred, c)
                assert vars(ours) == vars(ref), f"seed {seed} class {c} CLEAR"
                assert idf1(gt, pred, c, IOU_THR) == oracle_idf1(gt, pred, c), (
                    f"seed {seed} class {c} IDF1"
                )
                assert average_precision(gt, pred, c, IOU_THR) == oracle_ap(
                    gt, pred, c
                ), f"seed {seed} class {c} AP"


class TestHandComputed:
    def one_frame(self, items, names=None):
        anns = tuple(
            Annotation(
                box=BoundingBox(x, 0.5, 0.1, 0.1),
                class_id=c,
                instance_id=i,
                confidence=conf,
                feature=np.zeros(1),
            )
            for x, c, i, conf in items
        )
        return SequenceDataset(
            sequences=(("000", (Frame(frame_index=0, annotations=anns),)),),
            class_names=names or {0: "a"},
        )

    def test_perfect_single_frame(self):
        gt = self.one_frame([(0.5, 0, 1, None)])
        pred = self.one_frame([(0.5, 0, 7, 0.9)])
        counts = clearmot_counts(gt, pred, 0)
        assert (counts.tp, counts.fp, counts.fn, counts.idsw) == (1, 0, 0, 0)
        assert mota(counts) == 1.0
        assert idf1(gt, pred, 0) == 1.0
        assert average_precision(gt, pred, 0) == 1.0

    def test_miss_and_false_positive(self):
        gt = self.one_frame([(0.3, 0, 1, None)])
        pred = self.one_frame([(0.7, 0, 7, 0.9)])
        counts = clearmot_counts(gt, pred, 0)
        assert (counts.tp, counts.fp, counts.fn) == (0, 1, 1)
        assert mota(counts) == pytest.approx(-1.0)
        assert average_precision(gt, pred, 0) == 0.0

    def test_empty_class_undefined(self):
        gt = self.one_frame([(0.5, 0, 1, None)])
        pred = self.one_frame([(0.5, 0, 7, 0.9)])
        assert mota(clearmot_counts(gt, pred, 3)) is None
        assert idf1(gt, pred, 3) is None
        assert average_precision(gt, pred, 3) is None

    def test_id_switch_counted(self):
        def two_frames(pred_ids):
            frames = tuple(
                Frame(
                    frame_index=t,
                    annotations=(
                        Annotation(
                            box=BoundingBox(0.5, 0.5, 0.1, 0.1),
                            class_id=0,
                            instance_id=pid if pid is not None else 1,
                            confidence=0.9 if pid is not None else None,
                            feature=np.zeros(1),
                        ),
                    ),
                )
                for t, pid in enumerate(pred_ids)
            )
            return SequenceDataset(sequences=(("000", frames),), class_names={0: "a"})

        gt = two_frames([None, None])
        pred = two_frames([5, 6])
        counts = clearmot_counts(gt, pred, 0)
        assert counts.idsw == 1
        assert mota(counts) == pytest.approx(0.5)
        assert idf1(gt, pred, 0) == pytest.approx(0.5)

    def test_carry_preserves_previous_match(self):
        # Two gt boxes cross paths; carried matches keep identities while
        # IoU stays above threshold even if a fresh assignment would swap.
        gt_items = [(1, BoundingBox(0.5, 0.5, 0.2, 0.2))]
        pred_items = [
            (7, BoundingBox(0.52, 0.5, 0.2, 0.2)),
            (8, BoundingBox(0.5, 0.5, 0.2, 0.2)),
        ]
        free = match_frames(gt_items, pred_items, 0.5, carry=None)
        assert free == {1: 8}
        carried = match_frames(gt_items, pred_items, 0.5, carry={1: 7})
        assert carried == {1: 7}

    def test_ap_half(self):
        # one tp then one fp at lower confidence: AP = recall 1 at prec 1
        # only up to recall 0.5... two gt objects, one found.
        gt = self.one_frame([(0.2, 0, 1, None), (0.8, 0, 2, None)])
        pred = self.one_frame([(0.2, 0, 7, 0.9)])
        assert average_precision(gt, pred, 0) == pytest.approx(0.5)

    def test_detection_f1_identity_agnostic(self):
        gt = self.one_frame([(0.3, 0, 1, None), (0.7, 0, 2, None)])
        pred = self.one_frame([(0.3, 0, 99, 0.9), (0.7, 0, 98, 0.9)])
        assert detection_f1(gt, pred, [0]) == pytest.approx(1.0)

    def test_report_assembly_and_csv(self, tmp_path):
        gt = self.one_frame([(0.5, 0, 1, None)])
        pred = self.one_frame([(0.5, 0, 7, 0.9)])
        report = evaluate(gt, pred, [0], stage=1, method="track_pl")
        assert report.means["mMOTA"] == 1.0
        assert report.overall["IDF1"] == 1.0
        write_report(
            report, str(tmp_path / "m.json"), str(tmp_path / "m.csv")
        )
        lines = (tmp_path / "m.csv").read_text().strip().splitlines()
        assert lines[0].startswith("stage,method,class")
        assert any("__mean__" in line for line in lines)
        assert any("__overall__" in line for line in lines)


class TestIdf1CountsShape:
    def test_counts_tuple(self):
        gt, pred = micro_case(3)
        idtp, n_gt, n_pred = idf1_counts(gt, pred, 0)
        assert idtp >= 0 and n_gt >= 0 and n_pred >= 0
        assert idtp <= min(n_gt, n_pred)


def reference_envelope_area(recalls, precisions):
    """The quadratic envelope the linear pass replaced: rescan the precision
    suffix at every rise in recall."""
    points = list(zip(recalls, precisions))
    ap = 0.0
    prev_recall = 0.0
    for i, (recall, _) in enumerate(points):
        if recall > prev_recall:
            best_prec = max(p for r, p in points[i:])
            ap += (recall - prev_recall) * best_prec
            prev_recall = recall
    return ap


class TestEnvelope:
    @settings(max_examples=300, deadline=None)
    @given(
        flags=st.lists(st.booleans(), max_size=60),
        extra_gt=st.integers(0, 10),
    )
    def test_ranked_detections_match_reference_exactly(self, flags, extra_gt):
        n_gt = sum(flags) + extra_gt or 1
        tp, recalls, precisions = 0, [], []
        for k, flag in enumerate(flags, start=1):
            tp += flag
            recalls.append(tp / n_gt)
            precisions.append(tp / k)
        got = envelope_area(recalls, precisions)
        assert got == reference_envelope_area(recalls, precisions)

    @settings(max_examples=300, deadline=None)
    @given(
        points=st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=40
        )
    )
    def test_arbitrary_curves_match_reference_exactly(self, points):
        recalls = sorted(r for r, _ in points)
        precisions = [p for _, p in points]
        got = envelope_area(recalls, precisions)
        assert got == reference_envelope_area(recalls, precisions)

    def test_evaluate_idf1_equals_idf1(self):
        for seed in range(10):
            gt, pred = micro_case(seed)
            report = evaluate(gt, pred, [0])
            assert report.per_class[0]["IDF1"] == idf1(gt, pred, 0)
