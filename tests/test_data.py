import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciltrack.data import (
    PSEUDO_ID_BASE,
    Annotation,
    BoundingBox,
    Frame,
    Method,
    SequenceDataset,
    StagePlan,
    iou,
    load_dataset,
    merge_labels,
    save_dataset,
    select_sequences,
    strip_labels,
)
from ciltrack.errors import (
    ConflictError,
    FormatError,
    NotFoundError,
    PlanError,
)


def ann(cx, cy, w=0.1, h=0.1, cls=0, inst=0, conf=None, feat=None):
    return Annotation(
        box=BoundingBox(cx, cy, w, h),
        class_id=cls,
        instance_id=inst,
        confidence=conf,
        feature=np.zeros(4) if feat is None else np.asarray(feat, float),
    )


def seq(frames, sid="000", class_names=None):
    return SequenceDataset(
        sequences=((sid, tuple(frames)),),
        class_names=class_names or {0: "a", 1: "b"},
    )


class TestBoundingBox:
    def test_identical_boxes_iou_one(self):
        b = BoundingBox(0.5, 0.5, 0.2, 0.2)
        assert iou(b, b) == pytest.approx(1.0)

    def test_disjoint_boxes_iou_zero(self):
        assert iou(BoundingBox(0.2, 0.2, 0.1, 0.1), BoundingBox(0.8, 0.8, 0.1, 0.1)) == 0.0

    def test_half_overlap(self):
        # two unit-ratio boxes sharing half their area: inter 0.5A, union 1.5A
        a = BoundingBox(0.4, 0.5, 0.2, 0.2)
        b = BoundingBox(0.5, 0.5, 0.2, 0.2)
        assert iou(a, b) == pytest.approx(0.1 * 0.2 / (2 * 0.04 - 0.1 * 0.2))

    def test_nonpositive_size_rejected(self):
        with pytest.raises(FormatError):
            BoundingBox(0.5, 0.5, 0.0, 0.1)

    def test_outside_unit_square_rejected(self):
        with pytest.raises(FormatError):
            BoundingBox(2.0, 0.5, 0.1, 0.1)


class TestInvariants:
    def test_duplicate_instance_in_frame_rejected(self):
        with pytest.raises(FormatError):
            Frame(frame_index=0, annotations=(ann(0.3, 0.3), ann(0.6, 0.6)))

    def test_nonmonotonic_frames_rejected(self):
        f0 = Frame(frame_index=1, annotations=(ann(0.3, 0.3),))
        f1 = Frame(frame_index=0, annotations=(ann(0.3, 0.3),))
        with pytest.raises(FormatError):
            SequenceDataset(sequences=(("000", (f0, f1)),))

    def test_instance_changing_class_rejected(self):
        f0 = Frame(frame_index=0, annotations=(ann(0.3, 0.3, cls=0, inst=7),))
        f1 = Frame(frame_index=1, annotations=(ann(0.3, 0.3, cls=1, inst=7),))
        with pytest.raises(FormatError):
            SequenceDataset(sequences=(("000", (f0, f1)),))

    def test_confidence_out_of_range_rejected(self):
        with pytest.raises(FormatError):
            ann(0.5, 0.5, conf=1.5)


class TestStagePlan:
    def test_overlapping_stages_rejected(self):
        with pytest.raises(PlanError):
            StagePlan(stages=({0, 1}, {1, 2}), method=Method.FINETUNE)

    def test_seen_classes_accumulate(self):
        plan = StagePlan(stages=({0, 1}, {2}), method=Method.TRACK_PL)
        assert plan.seen_classes(0) == {0, 1}
        assert plan.seen_classes(1) == {0, 1, 2}


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        frames = [
            Frame(
                frame_index=t,
                annotations=(ann(0.3 + 0.01 * t, 0.4, inst=1, feat=rng.normal(size=4)),),
                proposals=(
                    ann(0.3, 0.4, inst=1, conf=0.9, feat=rng.normal(size=4)),
                ),
            )
            for t in range(3)
        ]
        ds = seq(frames)
        save_dataset(ds, str(tmp_path / "d"))
        back = load_dataset(str(tmp_path / "d"))
        assert back.class_names == ds.class_names
        assert len(back.sequences) == 1
        for (sa, fa), (sb, fb) in zip(ds.sequences, back.sequences):
            assert sa == sb
            for x, y in zip(fa, fb):
                assert x.frame_index == y.frame_index
                for p, q in zip(
                    x.annotations + x.proposals, y.annotations + y.proposals
                ):
                    assert p.box == q.box
                    assert p.class_id == q.class_id
                    assert p.instance_id == q.instance_id
                    assert p.confidence == q.confidence
                    assert np.array_equal(p.feature, q.feature)

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(NotFoundError):
            load_dataset(str(tmp_path / "nope"))

    def test_missing_sequence_file_named(self, tmp_path):
        ds = seq([Frame(frame_index=0, annotations=(ann(0.5, 0.5),))], sid="042")
        save_dataset(ds, str(tmp_path / "d"))
        (tmp_path / "d" / "seq_042.jsonl").unlink()
        with pytest.raises(NotFoundError, match="042"):
            load_dataset(str(tmp_path / "d"))


class TestAlgebra:
    def two_seq_ds(self):
        f_a = Frame(frame_index=0, annotations=(ann(0.3, 0.3, cls=0, inst=1),))
        f_b = Frame(frame_index=0, annotations=(ann(0.6, 0.6, cls=1, inst=2),))
        return SequenceDataset(
            sequences=(("000", (f_a,)), ("001", (f_b,))),
            class_names={0: "a", 1: "b"},
        )

    def test_select_keeps_whole_sequences(self):
        out = select_sequences(self.two_seq_ds(), {0})
        assert [sid for sid, _ in out.sequences] == ["000"]

    def test_strip_drops_other_classes_keeps_proposals(self):
        prop = ann(0.5, 0.5, cls=0, inst=None, conf=0.8)
        f = Frame(
            frame_index=0,
            annotations=(ann(0.3, 0.3, cls=0, inst=1), ann(0.6, 0.6, cls=1, inst=2)),
            proposals=(prop,),
        )
        out = strip_labels(seq([f]), {0})
        frame = out.sequences[0][1][0]
        assert [a.class_id for a in frame.annotations] == [0]
        assert len(frame.proposals) == 1

    def test_merge_offsets_pl_ids_into_reserved_range(self):
        gt = seq([Frame(frame_index=0, annotations=(ann(0.3, 0.3, cls=1, inst=5),))])
        pl = seq([Frame(frame_index=0, annotations=(ann(0.6, 0.6, cls=0, inst=3, conf=0.9),))])
        merged = merge_labels(gt, pl)
        ids = sorted(
            a.instance_id for a in merged.sequences[0][1][0].annotations
        )
        assert ids == [5, PSEUDO_ID_BASE + 3]

    def test_merge_empty_pl_returns_gt(self):
        gt = seq([Frame(frame_index=0, annotations=(ann(0.3, 0.3),))])
        pl = SequenceDataset(sequences=(), class_names={})
        assert merge_labels(gt, pl) is gt

    def test_merge_class_overlap_rejected(self):
        gt = seq([Frame(frame_index=0, annotations=(ann(0.3, 0.3, cls=0, inst=1),))])
        pl = seq([Frame(frame_index=0, annotations=(ann(0.6, 0.6, cls=0, inst=2, conf=0.9),))])
        with pytest.raises(ConflictError):
            merge_labels(gt, pl)

    def test_merge_frame_range_mismatch_rejected(self):
        gt = seq([Frame(frame_index=0, annotations=(ann(0.3, 0.3, cls=1, inst=1),))])
        pl = seq([Frame(frame_index=1, annotations=(ann(0.6, 0.6, cls=0, inst=2, conf=0.9),))])
        with pytest.raises(FormatError):
            merge_labels(gt, pl)


# ---------------------------------------------------------------------------
# Label-algebra properties

NEW, OLD = frozenset({0, 1, 2}), frozenset({3, 4, 5})
_FRAME_INDICES = st.lists(st.integers(0, 20), min_size=1, max_size=4, unique=True)


def _anns(draw, classes, pseudo):
    """Distinct-(class, id) annotations of ``classes`` in one frame.  An id
    fixes its class across a sequence: ground truth ``100 * class + k``,
    pseudo-labels ``class + 10 * j`` from 1000 up (distinct modulo the
    reserved range, or None)."""
    out = []
    for c in draw(st.lists(st.sampled_from(sorted(classes)), max_size=3)):
        if pseudo:
            j = draw(st.integers(100, 3 * PSEUDO_ID_BASE // 10))
            inst = draw(st.sampled_from([c + 10 * j, None]))
            conf = draw(st.floats(0.0, 1.0))
        else:
            inst, conf = 100 * c + len(out), None
        out.append(ann(draw(st.floats(0.1, 0.9)), draw(st.floats(0.1, 0.9)),
                       cls=c, inst=inst, conf=conf, feat=[len(out), c]))
    if pseudo:  # drop ids that would collide once shifted
        seen, unique = set(), []
        for a in out:
            key = None if a.instance_id is None else a.instance_id % PSEUDO_ID_BASE
            if key is None or key not in seen:
                seen.add(key)
                unique.append(a)
        out = unique
    return tuple(out)


@st.composite
def label_pairs(draw, gt_classes=NEW, pl_classes=OLD):
    """(gt, pl): two datasets over the same sequences and frames, ground
    truth (with proposals) of ``gt_classes`` and pseudo-labels of
    ``pl_classes``."""
    gt, pl = [], []
    for n in range(draw(st.integers(0, 3))):
        gt_frames, pl_frames = [], []
        for i in sorted(draw(_FRAME_INDICES)):
            props = tuple(
                ann(0.5, 0.5, cls=0, inst=None, conf=0.5, feat=[k, 0])
                for k in range(draw(st.integers(0, 2)))
            )
            gt_frames.append(Frame(i, _anns(draw, gt_classes, False), props))
            pl_frames.append(Frame(i, _anns(draw, pl_classes, True)))
        gt.append((f"{n:03d}", gt_frames))
        pl.append((f"{n:03d}", pl_frames))
    names = {c: str(c) for c in range(6)}
    return SequenceDataset(gt, names), SequenceDataset(pl, names)


def _key(ds):
    def anns(items):
        return tuple(
            (a.box, a.class_id, a.instance_id, a.confidence, a.feature.tobytes())
            for a in items
        )

    return ds.class_names, tuple(
        (sid, tuple((f.frame_index, anns(f.annotations), anns(f.proposals))
                    for f in fs))
        for sid, fs in ds.sequences
    )


def _stage_view(ds, classes):
    return strip_labels(select_sequences(ds, classes), classes)


def _overlay(gt, pl):
    """Both inputs' annotations in one dataset, whatever their classes."""
    return SequenceDataset(
        [
            (sid, [Frame(g.frame_index, g.annotations + p.annotations, g.proposals)
                   for g, p in zip(gt_frames, pl_frames)])
            for (sid, gt_frames), (_, pl_frames) in zip(gt.sequences, pl.sequences)
        ],
        gt.class_names,
    )


class TestAlgebraProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        pair=label_pairs(gt_classes=NEW | OLD, pl_classes=NEW | OLD),
        classes=st.sets(st.integers(0, 6), min_size=1),
    )
    def test_stage_view_idempotent(self, pair, classes):
        once = _stage_view(_overlay(*pair), classes)
        assert _key(_stage_view(once, classes)) == _key(once)

    @settings(max_examples=60, deadline=None)
    @given(pair=label_pairs())
    def test_strip_undoes_merge(self, pair):
        gt, pl = pair
        assert _key(strip_labels(merge_labels(gt, pl), set(NEW))) == _key(gt)

    @settings(max_examples=60, deadline=None)
    @given(pair=label_pairs())
    def test_merged_pseudo_ids_in_reserved_range(self, pair):
        gt, pl = pair
        merged = merge_labels(gt, pl)
        for (_, gt_frames), (_, frames) in zip(gt.sequences, merged.sequences):
            for gt_frame, frame in zip(gt_frames, frames):
                shifted = frame.annotations[len(gt_frame.annotations) :]
                assert {a.class_id for a in shifted} <= OLD
                for a in shifted:
                    if a.instance_id is not None:
                        assert PSEUDO_ID_BASE <= a.instance_id < 2 * PSEUDO_ID_BASE
