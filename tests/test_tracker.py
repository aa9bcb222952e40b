import os
import subprocess
import sys

import numpy as np
import pytest

from ciltrack.data import Annotation, BoundingBox, Frame
from ciltrack.errors import FormatError
from ciltrack.model import init_params
from ciltrack.tracker import (
    Detection,
    Track,
    TrackPoint,
    TrackerConfig,
    associate,
    bisoftmax_similarity,
    nms,
    score_proposals,
    track_sequence,
    tracks_to_dataset,
)

CFG = TrackerConfig()


def det(x, cls=0, conf=0.9, emb=None):
    return Detection(
        box=BoundingBox(x, 0.5, 0.1, 0.1),
        class_id=cls,
        confidence=conf,
        embedding=np.zeros(2) if emb is None else np.asarray(emb, float),
    )


class TestBisoftmax:
    def test_rows_and_columns_bounded(self):
        rng = np.random.default_rng(0)
        sim = bisoftmax_similarity(rng.normal(size=(3, 4)), rng.normal(size=(5, 4)))
        assert sim.shape == (3, 5)
        assert np.all(sim > 0) and np.all(sim < 1)

    def test_single_pair_is_one(self):
        sim = bisoftmax_similarity(np.ones((1, 4)), np.ones((1, 4)))
        assert sim[0, 0] == pytest.approx(1.0)

    def test_aligned_pair_dominates(self):
        tracks = np.array([[10.0, 0.0], [0.0, 10.0]])
        dets = np.array([[0.0, 10.0], [10.0, 0.0]])
        sim = bisoftmax_similarity(tracks, dets)
        assert sim[0, 1] > sim[0, 0] and sim[1, 0] > sim[1, 1]


class TestAssociate:
    def test_bijective_assignment(self):
        # Random instances: the match set must be one-to-one.
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n_t, n_d = rng.integers(1, 6), rng.integers(1, 6)
            embeds = rng.normal(size=(n_t, 3))
            classes = [int(c) for c in rng.integers(0, 2, size=n_t)]
            dets = [
                det(0.5, cls=int(rng.integers(0, 2)), emb=rng.normal(size=3))
                for _ in range(n_d)
            ]
            matches, un_t, un_d = associate(classes, embeds, dets, CFG)
            t_idx = [i for i, _ in matches]
            d_idx = [j for _, j in matches]
            assert len(set(t_idx)) == len(t_idx)
            assert len(set(d_idx)) == len(d_idx)
            assert sorted(t_idx + un_t) == list(range(n_t))
            assert sorted(d_idx + un_d) == list(range(n_d))

    def test_class_constraint(self):
        embeds = np.array([[5.0, 0.0]])
        dets = [det(0.5, cls=1, emb=[5.0, 0.0])]
        matches, un_t, un_d = associate([0], embeds, dets, CFG)
        assert matches == [] and un_t == [0] and un_d == [0]

    def test_prefers_higher_similarity(self):
        embeds = np.array([[5.0, 0.0], [0.0, 5.0]])
        dets = [det(0.4, emb=[0.0, 5.0]), det(0.6, emb=[5.0, 0.0])]
        matches, _, _ = associate([0, 0], embeds, dets, CFG)
        assert sorted(matches) == [(0, 1), (1, 0)]

    def test_empty_inputs(self):
        matches, un_t, un_d = associate([], np.empty((0, 2)), [], CFG)
        assert matches == [] and un_t == [] and un_d == []


class TestNMS:
    def test_suppresses_same_class_overlap(self):
        a = det(0.5, conf=0.9)
        b = det(0.51, conf=0.8)
        assert nms([b, a], 0.5) == [a]

    def test_keeps_different_classes(self):
        a = det(0.5, conf=0.9, cls=0)
        b = det(0.51, conf=0.8, cls=1)
        assert len(nms([a, b], 0.5)) == 2

    def test_keeps_disjoint_boxes(self):
        assert len(nms([det(0.2), det(0.8)], 0.5)) == 2


def make_frames(positions_by_t, feature_dim=6, conf=0.9):
    """Proposal-only frames; each entry of positions_by_t is a list of
    (x, class_id, feature)."""
    frames = []
    for t, items in enumerate(positions_by_t):
        props = tuple(
            Annotation(
                box=BoundingBox(x, 0.5, 0.1, 0.1),
                class_id=0,
                instance_id=None,
                confidence=conf,
                feature=np.asarray(feat, float),
            )
            for x, feat in items
        )
        frames.append(Frame(frame_index=t, annotations=(), proposals=props))
    return frames


class TestScoreProposals:
    def test_emits_detector_confidence(self):
        p = init_params(feature_dim=4, n_classes=2, hidden_dim=8, embed_dim=3, seed=0)
        frame = Frame(
            frame_index=0,
            annotations=(),
            proposals=(
                Annotation(
                    box=BoundingBox(0.5, 0.5, 0.1, 0.1),
                    class_id=0,
                    instance_id=None,
                    confidence=0.66,
                    feature=np.zeros(4),
                ),
            ),
        )
        dets = score_proposals(p, frame, TrackerConfig(det_conf_thresh=0.0))
        assert len(dets) == 1
        assert dets[0].confidence == pytest.approx(0.66)

    def test_empty_frame(self):
        p = init_params(feature_dim=4, n_classes=2, seed=0)
        frame = Frame(frame_index=0, annotations=(), proposals=())
        assert score_proposals(p, frame, CFG) == []


class TestLifecycle:
    """Tracking with a model trained offline is covered by the acceptance
    tests; here the lifecycle is exercised with an untrained model whose
    class decisions are made irrelevant (det_conf_thresh=0)."""

    def setup_method(self):
        self.p = init_params(
            feature_dim=6, n_classes=1, hidden_dim=8, embed_dim=4, seed=0
        )
        self.cfg = TrackerConfig(
            det_conf_thresh=0.0,
            match_sim_thresh=0.0,
            init_conf_thresh=0.5,
            max_age=3,
            min_hits=2,
        )

    def test_stable_object_yields_single_track(self):
        feat = np.array([1.0, -0.5, 0.25, 0.7, -0.2, 0.1])
        frames = make_frames([[(0.5, feat)]] * 6)
        out = track_sequence(self.p, "000", frames, self.cfg)
        assert len(out.tracks) == 1
        assert len(out.tracks[0].points) == 6

    def test_min_hits_filters_single_detections(self):
        feat = np.ones(6)
        frames = make_frames([[(0.5, feat)], [], [], [], [], []])
        out = track_sequence(self.p, "000", frames, self.cfg)
        assert out.tracks == ()

    def test_gap_is_interpolated(self):
        feat = np.array([1.0, -0.5, 0.25, 0.7, -0.2, 0.1])
        frames = make_frames(
            [[(0.4, feat)], [(0.45, feat)], [], [], [(0.6, feat)], [(0.65, feat)]]
        )
        out = track_sequence(self.p, "000", frames, self.cfg)
        assert len(out.tracks) == 1
        points = out.tracks[0].points
        assert [pt.frame_index for pt in points] == [0, 1, 2, 3, 4, 5]
        filled = [pt for pt in points if pt.interpolated]
        assert [pt.frame_index for pt in filled] == [2, 3]
        # linear interpolation between 0.45 and 0.6
        assert filled[0].box.cx == pytest.approx(0.50)
        assert filled[1].box.cx == pytest.approx(0.55)

    def test_track_retires_after_max_age(self):
        feat = np.ones(6)
        frames = make_frames(
            [[(0.5, feat)], [(0.5, feat)]] + [[]] * 5 + [[(0.5, feat)]]
        )
        out = track_sequence(self.p, "000", frames, self.cfg)
        # the reappearance exceeds max_age, so it cannot rejoin; it also
        # cannot confirm a new track with a single hit
        assert len(out.tracks) == 1
        assert [pt.frame_index for pt in out.tracks[0].points] == [0, 1]

    def test_low_confidence_never_initializes(self):
        feat = np.ones(6)
        frames = make_frames([[(0.5, feat)]] * 4, conf=0.3)
        out = track_sequence(self.p, "000", frames, self.cfg)
        assert out.tracks == ()

    def test_track_ids_respect_offset(self):
        feat = np.ones(6)
        frames = make_frames([[(0.5, feat)]] * 4)
        out = track_sequence(self.p, "000", frames, self.cfg, id_offset=17)
        assert out.tracks[0].track_id == 17


class TestTracksToDataset:
    def test_flatten_round_trip(self):
        p = init_params(feature_dim=6, n_classes=1, hidden_dim=8, embed_dim=4, seed=0)
        cfg = TrackerConfig(
            det_conf_thresh=0.0, match_sim_thresh=0.0,
            init_conf_thresh=0.5, max_age=3, min_hits=2,
        )
        feat = np.array([1.0, -0.5, 0.25, 0.7, -0.2, 0.1])
        frames = make_frames([[(0.5, feat)]] * 4)
        out = track_sequence(p, "000", frames, cfg)
        from ciltrack.data import SequenceDataset

        ref = SequenceDataset(sequences=(("000", tuple(frames)),), class_names={0: "a"})
        ds = tracks_to_dataset([out], ref)
        assert len(ds.sequences) == 1
        for frame in ds.sequences[0][1]:
            assert len(frame.annotations) == 1
            ann = frame.annotations[0]
            assert ann.instance_id == out.tracks[0].track_id
            assert ann.confidence is not None


class TestTrackInvariant:
    @staticmethod
    def points(indices):
        box = BoundingBox(0.5, 0.5, 0.1, 0.1)
        return tuple(TrackPoint(i, box, 0.9, np.zeros(2)) for i in indices)

    @pytest.mark.parametrize("indices", [(2, 1), (0, 0), (0, 3, 2)])
    def test_unordered_frames_rejected(self, indices):
        with pytest.raises(FormatError, match="frame indices"):
            Track(track_id=4, class_id=0, points=self.points(indices))

    def test_rejected_under_optimize(self):
        # ``python -O`` strips assert statements; the check must survive it.
        code = (
            "import numpy as np\n"
            "from ciltrack.data import BoundingBox\n"
            "from ciltrack.errors import FormatError\n"
            "from ciltrack.tracker import Track, TrackPoint\n"
            "box = BoundingBox(0.5, 0.5, 0.1, 0.1)\n"
            "pts = tuple(TrackPoint(i, box, 0.9, np.zeros(2)) for i in (1, 0))\n"
            "try:\n"
            "    Track(track_id=0, class_id=0, points=pts)\n"
            "except FormatError:\n"
            "    print('rejected')\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert out.stdout.strip() == "rejected"
