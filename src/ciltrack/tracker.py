"""Online tracking-by-detection inference.

Per frame: score proposals with the model, associate detections to live
tracks by bi-softmax embedding similarity under an equal-class
constraint, and manage track lifecycle (confirmation after ``min_hits``,
retirement after ``max_age`` unmatched frames).  Gaps up to ``max_age``
inside a track are bridged by linear box interpolation, which is what
makes the emitted boxes temporally refined relative to raw detections.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .data import Annotation, BoundingBox, Frame, SequenceDataset, iou
from .errors import FormatError, check_ranges
from .model import ModelParams, forward_batch
from .losses import softmax


@dataclass(frozen=True)
class TrackerConfig:
    det_conf_thresh: float = 0.5
    # Bi-softmax sims are diluted by every detection in the frame, so a
    # permissive cut is used and the class constraint plus the optimal
    # assignment carry the discrimination.
    match_sim_thresh: float = 0.1
    init_conf_thresh: float = 0.7
    max_age: int = 5
    min_hits: int = 2
    nms_iou: float = 0.5

    def __post_init__(self):
        check_ranges("tracker", self, max_age=">= 0", min_hits=">= 1")


@dataclass(frozen=True)
class Detection:
    box: BoundingBox
    class_id: int
    confidence: float
    embedding: np.ndarray


@dataclass(frozen=True)
class TrackPoint:
    frame_index: int
    box: BoundingBox
    confidence: float
    embedding: np.ndarray
    interpolated: bool = False


@dataclass(frozen=True)
class Track:
    track_id: int
    class_id: int
    points: tuple[TrackPoint, ...]

    def __post_init__(self):
        idx = [pt.frame_index for pt in self.points]
        if idx != sorted(set(idx)):
            raise FormatError(
                f"track {self.track_id}: frame indices must increase, got {idx}"
            )

    def mean_confidence(self) -> float:
        return float(np.mean([pt.confidence for pt in self.points]))


@dataclass(frozen=True)
class TrackOutput:
    sequence_id: str
    tracks: tuple[Track, ...]


def score_proposals(
    p: ModelParams, frame: Frame, cfg: TrackerConfig
) -> list[Detection]:
    """Classify proposals, drop background/uncertain ones, and apply
    class-wise greedy NMS at the configured IoU.

    The emitted confidence is the detector's proposal confidence (the
    classifier only gates class assignment), so downstream confidence
    cuts see the detector's noisy score distribution.
    """
    if not frame.proposals:
        return []
    feats = np.stack([prop.feature for prop in frame.proposals])
    cache = forward_batch(p, feats)
    probs = softmax(cache.logits)
    detections = []
    for i, prop in enumerate(frame.proposals):
        cls_probs = probs[i, :-1]
        c = int(np.argmax(cls_probs))
        if float(cls_probs[c]) < cfg.det_conf_thresh:
            continue
        conf = prop.confidence if prop.confidence is not None else float(cls_probs[c])
        detections.append(
            Detection(
                box=prop.box,
                class_id=c,
                confidence=float(conf),
                embedding=cache.embed[i],
            )
        )
    return nms(detections, cfg.nms_iou)


def nms(detections: list[Detection], iou_thr: float) -> list[Detection]:
    kept: list[Detection] = []
    for det in sorted(detections, key=lambda d: -d.confidence):
        if any(
            k.class_id == det.class_id and iou(k.box, det.box) >= iou_thr
            for k in kept
        ):
            continue
        kept.append(det)
    return kept


def bisoftmax_similarity(
    track_embeds: np.ndarray, det_embeds: np.ndarray
) -> np.ndarray:
    """0.5 * (softmax over tracks + softmax over detections) of the raw
    embedding dot products; shape (n_tracks, n_dets)."""
    dots = track_embeds @ det_embeds.T
    sm_tracks = softmax(dots.T).T  # normalize over tracks for each detection
    sm_dets = softmax(dots)  # normalize over detections for each track
    return 0.5 * (sm_tracks + sm_dets)


def associate(track_classes, track_embeds, detections, cfg: TrackerConfig):
    """One-to-one assignment maximizing total similarity among pairs with
    similarity above threshold and equal class.

    Returns (matches: list[(track_idx, det_idx)], unmatched_track_idxs,
    unmatched_det_idxs).
    """
    n_t, n_d = len(track_classes), len(detections)
    if n_t == 0 or n_d == 0:
        return [], list(range(n_t)), list(range(n_d))
    det_embeds = np.stack([d.embedding for d in detections])
    sim = bisoftmax_similarity(np.asarray(track_embeds), det_embeds)
    allowed = sim >= cfg.match_sim_thresh
    for i in range(n_t):
        for j in range(n_d):
            if detections[j].class_id != track_classes[i]:
                allowed[i, j] = False
    cost = np.where(allowed, -sim, 1.0)
    rows, cols = linear_sum_assignment(cost)
    matches = [(int(i), int(j)) for i, j in zip(rows, cols) if allowed[i, j]]
    matched_t = {i for i, _ in matches}
    matched_d = {j for _, j in matches}
    return (
        matches,
        [i for i in range(n_t) if i not in matched_t],
        [j for j in range(n_d) if j not in matched_d],
    )


@dataclass
class _LiveTrack:
    track_id: int
    class_id: int
    embedding: np.ndarray
    points: list[TrackPoint] = field(default_factory=list)
    hits: int = 1
    age: int = 0


def _interpolate_gaps(points: list[TrackPoint]) -> list[TrackPoint]:
    out = [points[0]]
    for pt in points[1:]:
        prev = out[-1]
        gap = pt.frame_index - prev.frame_index
        for k in range(1, gap):
            t = k / gap
            out.append(
                TrackPoint(
                    frame_index=prev.frame_index + k,
                    box=BoundingBox(
                        prev.box.cx * (1 - t) + pt.box.cx * t,
                        prev.box.cy * (1 - t) + pt.box.cy * t,
                        prev.box.w * (1 - t) + pt.box.w * t,
                        prev.box.h * (1 - t) + pt.box.h * t,
                    ),
                    confidence=0.5 * (prev.confidence + pt.confidence),
                    embedding=0.5 * (prev.embedding + pt.embedding),
                    interpolated=True,
                )
            )
        out.append(pt)
    return out


def track_sequence(
    p: ModelParams,
    sequence_id: str,
    frames,
    cfg: TrackerConfig,
    id_offset: int = 0,
) -> TrackOutput:
    """Frame-by-frame score + associate + lifecycle.  Only confirmed
    tracks (hits >= min_hits) are emitted."""
    live: list[_LiveTrack] = []
    finished: list[_LiveTrack] = []
    next_id = id_offset
    for frame in frames:
        detections = score_proposals(p, frame, cfg)
        matches, unmatched_t, unmatched_d = associate(
            [t.class_id for t in live],
            np.stack([t.embedding for t in live]) if live else np.empty((0, p.embed_dim)),
            detections,
            cfg,
        )
        for i, j in matches:
            trk, det = live[i], detections[j]
            trk.points.append(
                TrackPoint(
                    frame_index=frame.frame_index,
                    box=det.box,
                    confidence=det.confidence,
                    embedding=det.embedding,
                )
            )
            trk.embedding = det.embedding
            trk.hits += 1
            trk.age = 0
        retired = []
        for i in unmatched_t:
            live[i].age += 1
            if live[i].age > cfg.max_age:
                retired.append(i)
        for i in sorted(retired, reverse=True):
            finished.append(live.pop(i))
        for j in unmatched_d:
            det = detections[j]
            if det.confidence >= cfg.init_conf_thresh:
                live.append(
                    _LiveTrack(
                        track_id=next_id,
                        class_id=det.class_id,
                        embedding=det.embedding,
                        points=[
                            TrackPoint(
                                frame_index=frame.frame_index,
                                box=det.box,
                                confidence=det.confidence,
                                embedding=det.embedding,
                            )
                        ],
                    )
                )
                next_id += 1
    finished.extend(live)

    tracks = []
    for trk in finished:
        if trk.hits < cfg.min_hits:
            continue
        points = _interpolate_gaps(trk.points)
        tracks.append(
            Track(
                track_id=trk.track_id,
                class_id=trk.class_id,
                points=tuple(points),
            )
        )
    tracks.sort(key=lambda t: t.track_id)
    return TrackOutput(sequence_id=sequence_id, tracks=tuple(tracks))


def track_dataset(
    p: ModelParams, ds: SequenceDataset, cfg: TrackerConfig
) -> list[TrackOutput]:
    outputs = []
    offset = 0
    for sid, frames in ds.sequences:
        out = track_sequence(p, sid, frames, cfg, id_offset=offset)
        if out.tracks:
            offset = max(t.track_id for t in out.tracks) + 1
        outputs.append(out)
    return outputs


def tracks_to_dataset(
    outputs: list[TrackOutput], reference: SequenceDataset
) -> SequenceDataset:
    """Flatten tracks to per-frame annotations (instance_id = track_id,
    confidence filled) on the reference dataset's frame grid, so tracker
    output is an ordinary dataset usable as pseudo-labels or predictions."""
    by_sid = {out.sequence_id: out for out in outputs}
    sequences = []
    for sid, frames in reference.sequences:
        per_frame: dict[int, list[Annotation]] = {f.frame_index: [] for f in frames}
        out = by_sid.get(sid)
        if out is not None:
            for trk in out.tracks:
                for pt in trk.points:
                    if pt.frame_index in per_frame:
                        per_frame[pt.frame_index].append(
                            Annotation(
                                box=pt.box,
                                class_id=trk.class_id,
                                instance_id=trk.track_id,
                                confidence=pt.confidence,
                                feature=pt.embedding,
                            )
                        )
        sequences.append(
            (
                sid,
                tuple(
                    Frame(
                        frame_index=f.frame_index,
                        annotations=tuple(per_frame[f.frame_index]),
                    )
                    for f in frames
                ),
            )
        )
    return SequenceDataset(sequences=tuple(sequences), class_names=reference.class_names)
