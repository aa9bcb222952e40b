"""Stage orchestration: base training, pseudo-label generation, label
union, incremental training, and the baseline strategies.

Methods:
  TRACK_PL  -- tracker-generated pseudo-labels (boxes + identities) for
               old classes, plus the class-level contrastive terms.
  DET_PL    -- raw high-confidence detection pseudo-labels; fresh per-frame
               instance ids, so they contribute no cross-frame positives.
  FINETUNE  -- new-class ground truth only.
  ORACLE    -- single-stage joint training on all classes' ground truth.

Stages only ever see data labeled for their own class set; everything
about old classes reaches a stage through the previous checkpoint and the
pseudo-labels it generates.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from . import losses, metrics, model, tracker
from .data import (
    Annotation,
    Frame,
    Method,
    SequenceDataset,
    StagePlan,
    merge_labels,
    save_dataset,
    select_sequences,
    strip_labels,
)
from .errors import (
    FormatError,
    NumericalError,
    StateError,
    ValidationError,
    check_ranges,
)
from .losses import ClassPrototypes, ContrastiveConfig, MemoryQueue
from .simworld import NoiseConfig, WorldConfig, corrupt_detections, generate_world
from .tracker import TrackerConfig

VAL_SEED_OFFSET = 7_000_003
NOISE_SEED_OFFSET = 13


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = 6
    base_lr: float = 0.02
    batch_size: int = 1  # adjacent-frame pairs accumulated per SGD step
    clip_norm: float = 5.0  # global gradient-norm clip; 0 disables
    momentum: float = 0.9
    weight_decay: float = 1e-4
    hidden_dim: int = 64
    embed_dim: int = 16
    seed: int = 0
    pl_conf_thresh: float = 0.5
    det_pl_thresh: float = 0.7
    iou_thr: float = 0.5

    def __post_init__(self):
        limits = dict(epochs=">= 1", batch_size=">= 1", base_lr="> 0", clip_norm=">= 0")
        check_ranges("training", self, **limits)


@dataclass
class TrainedState:
    """Model parameters plus the embedding-distribution state that travels
    with them between stages."""

    params: model.ModelParams
    class_order: list[int]  # classifier row -> global class id
    protos: ClassPrototypes
    queue: MemoryQueue

    def row_of(self, class_id: int) -> int:
        return self.class_order.index(class_id)


# ---------------------------------------------------------------------------
# Checkpoint plumbing


def save_state(
    path: str, state: TrainedState, stage: int, method: Method, parent_digest=None
):
    proto_classes = state.protos.classes()
    extra = {}
    if proto_classes:
        extra["proto_classes"] = np.array(proto_classes, dtype=np.float64)
        extra["proto_mu"] = np.stack([state.protos.mu[c] for c in proto_classes])
        extra["proto_sigma"] = np.stack([state.protos.sigma[c] for c in proto_classes])
    queue_classes = sorted(state.queue.queues)
    if queue_classes:
        extra["queue_classes"] = np.array(queue_classes, dtype=np.float64)
        extra["queue_lengths"] = np.array(
            [len(state.queue.queues[c]) for c in queue_classes], dtype=np.float64
        )
        extra["queue_data"] = np.concatenate(
            [state.queue.queues[c] for c in queue_classes]
        )
    metadata = {
        "stage": stage,
        "method": method.value,
        "class_order": state.class_order,
        "parent_digest": parent_digest,
        "queue_caps": [
            state.queue.n_queue,
            state.queue.n_batch,
            state.queue.n_class,
        ],
        "queue_eta": state.queue.eta,
    }
    model.save_checkpoint(path, state.params, metadata, extra)


def load_state(path: str) -> tuple[TrainedState, dict]:
    params, metadata, extra = model.load_checkpoint(path)
    required = ("stage", "method", "class_order", "queue_caps", "queue_eta")
    missing = [key for key in required if key not in metadata]
    if missing:
        raise FormatError(f"{path}: checkpoint metadata lacks {', '.join(missing)}")
    protos = ClassPrototypes()
    if "proto_classes" in extra:
        for i, c in enumerate(extra["proto_classes"].astype(int)):
            protos.mu[int(c)] = extra["proto_mu"][i]
            protos.sigma[int(c)] = extra["proto_sigma"][i]
    caps = metadata["queue_caps"]
    queue = MemoryQueue(
        n_queue=int(caps[0]),
        n_batch=int(caps[1]),
        n_class=int(caps[2]),
        eta=float(metadata["queue_eta"]),
    )
    if "queue_classes" in extra:
        offset = 0
        for c, n in zip(
            extra["queue_classes"].astype(int),
            extra["queue_lengths"].astype(int),
        ):
            queue.queues[int(c)] = extra["queue_data"][offset : offset + n].copy()
            offset += n
    state = TrainedState(
        params=params,
        class_order=[int(c) for c in metadata["class_order"]],
        protos=protos,
        queue=queue,
    )
    return state, metadata


# ---------------------------------------------------------------------------
# Training loop


def _frame_pairs(ds: SequenceDataset):
    for sid, frames in ds.sequences:
        for k in range(len(frames) - 1):
            yield frames[k], frames[k + 1]


@dataclass(frozen=True)
class PairBatch:
    """The supervision of one adjacent-frame pair, fixed for a whole
    ``train_model`` call.

    Rows index the pair's proposals stacked frame t first; a frame without
    proposals adds no rows.  ``contrast_rows`` and ``class_rows`` are the
    scatter order of the embedding gradients: anchors, then each sample's
    positives and negatives, then each class's matched proposals.
    """

    features: tuple[np.ndarray, ...]  # one block per frame with proposals
    cuts: tuple[int, ...]  # row offsets splitting the stack into those blocks
    targets: np.ndarray  # classifier row per proposal, background last
    anchors: np.ndarray
    positives: tuple[np.ndarray, ...]  # one row array per anchor
    negatives: tuple[np.ndarray, ...]
    contrast_rows: np.ndarray
    class_rows: dict[int, np.ndarray]  # class id -> rows, first-seen order

    @classmethod
    def build(cls, frame_t: Frame, frame_t1: Frame, class_to_row, iou_thr: float):
        """Geometric matching only: each proposal takes the class of its
        best-IoU annotation, or the background row."""
        frames = [f for f in (frame_t, frame_t1) if f.proposals]
        background = len(class_to_row)
        targets, class_rows, offset = [], {}, 0
        for frame in frames:
            matched = losses.match_proposals(frame.proposals, frame.annotations, iou_thr)
            for i, m in enumerate(matched):
                if m is None:
                    targets.append(background)
                    continue
                c = frame.annotations[m].class_id
                targets.append(class_to_row.get(c, background))
                class_rows.setdefault(c, []).append(offset + i)
            offset += len(frame.proposals)

        n_t = len(frame_t.proposals)
        samples = []
        if len(frames) == 2:
            samples = losses.sample_pairs(frame_t, frame_t1, iou_thr)
        positives = tuple(np.array(s.positives, dtype=np.intp) + n_t for s in samples)
        negatives = tuple(np.array(s.negatives, dtype=np.intp) + n_t for s in samples)
        anchors = np.array([s.anchor for s in samples], dtype=np.intp)
        return cls(
            features=tuple(np.stack([p.feature for p in f.proposals]) for f in frames),
            cuts=(n_t,) if len(frames) == 2 else (),
            targets=np.array(targets, dtype=np.intp),
            anchors=anchors,
            positives=positives,
            negatives=negatives,
            contrast_rows=np.concatenate(
                [anchors] + [r for pn in zip(positives, negatives) for r in pn]
            ),
            class_rows={c: np.array(r, dtype=np.intp) for c, r in class_rows.items()},
        )


def train_model(
    state: TrainedState,
    ds: SequenceDataset,
    new_classes: set[int],
    cfg: TrainingConfig,
    ct_cfg: ContrastiveConfig,
    use_contrastive: bool,
    seed: int,
) -> TrainedState:
    """SGD over adjacent-frame pairs for the configured epoch schedule.

    Each step combines the detection cross-entropy on both frames'
    proposals, the cross-frame instance contrastive loss, and (when
    enabled) the class-level pushing/pulling terms.  The exemplar queue
    and prototypes are updated every step regardless of gating.
    """
    rng = np.random.default_rng(seed)
    params = state.params
    protos, queue = state.protos, state.queue
    class_to_row = {c: i for i, c in enumerate(state.class_order)}
    opt = model.OptState.fresh(
        params,
        lr=cfg.base_lr,
        momentum=cfg.momentum,
        weight_decay=cfg.weight_decay,
    )
    # Pairs without proposals contribute nothing and get no batch.
    batches = [
        PairBatch.build(a, b, class_to_row, cfg.iou_thr)
        if a.proposals or b.proposals
        else None
        for a, b in _frame_pairs(ds)
    ]
    sigma_p = None

    for epoch in range(cfg.epochs):
        opt = replace(opt, lr=model.lr_schedule(epoch, cfg.base_lr))
        order = [k for k in rng.permutation(len(batches)) if batches[k] is not None]
        acc, acc_count, step = None, 0, 0
        for n_done, k in enumerate(order, start=1):
            batch = batches[k]
            caches = [model.forward_batch(params, x) for x in batch.features]
            # Detection cross-entropy over both frames' proposals.
            _, dlogits = losses.detection_loss(
                np.concatenate([c.logits for c in caches]), batch.targets
            )
            embed = np.concatenate([c.embed for c in caches])
            rows, drows = [], []

            # Cross-frame instance contrastive loss.
            if batch.anchors.size:
                _, dan, dpos, dneg = losses.track_contrastive_loss(
                    embed[batch.anchors],
                    [embed[r] for r in batch.positives],
                    [embed[r] for r in batch.negatives],
                )
                rows.append(batch.contrast_rows)
                drows += [dan] + [g for pn in zip(dpos, dneg) for g in pn]

            # Class-level contrastive terms via batch statistics.
            embeds_by_class = {c: embed[r] for c, r in batch.class_rows.items()}
            losses.queue_update(queue, protos, embeds_by_class, rng)

            if use_contrastive:
                gated = {
                    c: v
                    for c, v in embeds_by_class.items()
                    if c not in new_classes
                    or epoch >= ct_cfg.defer_new_classes_epochs
                }
                stats = losses.batch_stats(gated, protos)
                if stats:
                    if sigma_p is None:
                        sigma_p = np.full(params.embed_dim, ct_cfg.sigma_p)
                    means = {c: mu for c, (mu, _) in stats.items()}
                    sigmas = {c: sg for c, (_, sg) in stats.items()}
                    _, dmu = losses.push_loss(means, protos, ct_cfg.delta_push)
                    _, dsig = losses.pull_loss(sigmas, sigma_p)
                    dmu = {c: ct_cfg.beta2 * g for c, g in dmu.items()}
                    dsig = {c: ct_cfg.beta1 * g for c, g in dsig.items()}
                    demb = losses.stats_backward(gated, protos, dmu, dsig)
                    rows += [batch.class_rows[c] for c in demb]
                    drows += list(demb.values())

            # np.add.at applies repeated rows in index order, so each row
            # sums its terms in the order listed in PairBatch.
            dembed = np.zeros_like(embed)
            if rows:
                np.add.at(dembed, np.concatenate(rows), np.concatenate(drows))
            backward = [
                model.backward_batch(params, cache, dlg, dmb)
                for cache, dlg, dmb in zip(
                    caches, np.split(dlogits, batch.cuts), np.split(dembed, batch.cuts)
                )
            ]
            grads = reduce(np.add, backward)
            acc = grads if acc is None else acc + grads
            acc_count += 1
            if acc_count >= cfg.batch_size or n_done == len(order):
                g = acc * (1.0 / acc_count)
                if cfg.clip_norm > 0:
                    g = model.clip_grads(g, cfg.clip_norm, params.shapes)
                try:
                    params, opt = model.sgd_step(params, g, opt)
                except NumericalError as err:
                    where = f"training diverged at epoch {epoch}, step {step}"
                    raise NumericalError(f"{where}: {err}") from err
                acc, acc_count, step = None, 0, step + 1

    return TrainedState(
        params=params, class_order=state.class_order, protos=protos, queue=queue
    )


# ---------------------------------------------------------------------------
# Pseudo-label generation


def relabel_tracks(outputs, class_order):
    relabeled = []
    for out in outputs:
        relabeled.append(
            tracker.TrackOutput(
                sequence_id=out.sequence_id,
                tracks=tuple(
                    tracker.Track(
                        track_id=t.track_id,
                        class_id=class_order[t.class_id],
                        points=t.points,
                    )
                    for t in out.tracks
                ),
            )
        )
    return relabeled


def generate_tracker_pls(
    state: TrainedState,
    videos: SequenceDataset,
    tracker_cfg: TrackerConfig,
    old_classes: set[int],
    pl_conf_thresh: float = 0.5,
) -> SequenceDataset:
    """Run the previous tracker over the stage's videos and keep old-class
    tracks above the mean-confidence cut; emits boxes and identities."""
    outputs = tracker.track_dataset(state.params, videos, tracker_cfg)
    outputs = relabel_tracks(outputs, state.class_order)
    filtered = [
        tracker.TrackOutput(
            sequence_id=out.sequence_id,
            tracks=tuple(
                t
                for t in out.tracks
                if t.class_id in old_classes
                and t.mean_confidence() >= pl_conf_thresh
            ),
        )
        for out in outputs
    ]
    return tracker.tracks_to_dataset(filtered, videos)


def generate_det_pls(
    state: TrainedState,
    videos: SequenceDataset,
    tracker_cfg: TrackerConfig,
    old_classes: set[int],
    tau: float = 0.7,
) -> SequenceDataset:
    """Per-frame detections above the confidence cut, with fresh per-frame
    instance ids (no association information)."""
    next_id = 0
    sequences = []
    for sid, frames in videos.sequences:
        new_frames = []
        for frame in frames:
            dets = tracker.score_proposals(state.params, frame, tracker_cfg)
            anns = []
            for det in dets:
                class_id = state.class_order[det.class_id]
                if class_id not in old_classes or det.confidence <= tau:
                    continue
                anns.append(
                    Annotation(
                        box=det.box,
                        class_id=class_id,
                        instance_id=next_id,
                        confidence=det.confidence,
                        feature=det.embedding,
                    )
                )
                next_id += 1
            new_frames.append(
                Frame(frame_index=frame.frame_index, annotations=tuple(anns))
            )
        sequences.append((sid, tuple(new_frames)))
    return SequenceDataset(sequences=tuple(sequences), class_names=videos.class_names)


# ---------------------------------------------------------------------------
# Stage training


def train_stage(
    prev_ckpt: str | None,
    ds: SequenceDataset,
    plan: StagePlan,
    b: int,
    cfg: TrainingConfig,
    ct_cfg: ContrastiveConfig,
    tracker_cfg: TrackerConfig,
    out_ckpt: str,
    pl_dir: str | None = None,
) -> TrainedState:
    """Train stage ``b`` and write its checkpoint.

    ``ds`` is the whole labelled dataset; the stage trains on the sequences
    holding its classes, with every other class's labels stripped (ORACLE:
    every class of the plan).  Stage 0 (and ORACLE) trains a fresh model;
    later stages start from the previous checkpoint with an extended
    classifier and, depending on the method, merge in pseudo-labels
    generated by the previous model.
    """
    method = plan.method
    if not 0 <= b < len(plan.stages):
        raise ValidationError(
            f"stage {b} is not in the {method.value} plan, which has "
            f"{len(plan.stages)} stages"
        )
    stage_classes = set(plan.stages[b]) if method is not Method.ORACLE else set(
        plan.seen_classes(len(plan.stages) - 1)
    )
    stage_data = strip_labels(select_sequences(ds, stage_classes), stage_classes)
    feature_dim = _dataset_feature_dim(stage_data)
    train_data, use_contrastive, parent_digest = stage_data, False, None

    if b == 0 or method is Method.ORACLE:
        params = model.init_params(
            feature_dim,
            n_classes=len(stage_classes),
            hidden_dim=cfg.hidden_dim,
            embed_dim=cfg.embed_dim,
            seed=cfg.seed,
        )
        state = TrainedState(
            params=params,
            class_order=sorted(stage_classes),
            protos=ClassPrototypes(),
            queue=MemoryQueue(),
        )
    else:
        if prev_ckpt is None:
            raise StateError(f"stage {b} requires the stage {b - 1} checkpoint")
        prev_state, prev_meta = load_state(prev_ckpt)
        _check_lineage(prev_ckpt, prev_meta, plan, b)
        parent_digest = model.checkpoint_digest(prev_ckpt)
        params = model.extend_classifier(
            prev_state.params, len(stage_classes), seed=cfg.seed + 1000 + b
        )
        state = TrainedState(
            params=params,
            class_order=prev_state.class_order + sorted(stage_classes),
            protos=prev_state.protos,
            queue=prev_state.queue,
        )
        use_contrastive = method is Method.TRACK_PL
        pl_source = {
            Method.TRACK_PL: (generate_tracker_pls, cfg.pl_conf_thresh),
            Method.DET_PL: (generate_det_pls, cfg.det_pl_thresh),
        }.get(method)
        if pl_source:
            generate, thresh = pl_source
            old_classes = set(prev_state.class_order)
            pls = generate(prev_state, stage_data, tracker_cfg, old_classes, thresh)
            if pl_dir:
                save_dataset(pls, pl_dir)
            train_data = merge_labels(stage_data, pls)

    try:
        state = train_model(
            state,
            train_data,
            new_classes=stage_classes,
            cfg=cfg,
            ct_cfg=ct_cfg,
            use_contrastive=use_contrastive,
            seed=cfg.seed + b,
        )
    except NumericalError as err:
        raise NumericalError(f"{err}, in stage {b}") from err
    save_state(out_ckpt, state, stage=b, method=method, parent_digest=parent_digest)
    return state


def _check_lineage(path: str, metadata: dict, plan: StagePlan, b: int) -> None:
    """Stage ``b`` of ``plan`` must start from that plan's stage ``b - 1``."""
    expected = {
        "stage": b - 1,
        "method": plan.method.value,
        "class_order": [c for classes in plan.stages[:b] for c in sorted(classes)],
    }
    for key, want in expected.items():
        got = metadata[key]
        if got != want:
            raise StateError(
                f"{path}: checkpoint {key} is {got!r}, but stage {b} of the "
                f"{plan.method.value} plan needs {want!r}"
            )


def _dataset_feature_dim(ds: SequenceDataset) -> int:
    for _, frames in ds.sequences:
        for frame in frames:
            for ann in frame.proposals:
                return ann.feature.shape[0]
            for ann in frame.annotations:
                return ann.feature.shape[0]
    raise StateError("cannot infer feature dimension from an empty dataset")


# ---------------------------------------------------------------------------
# Split builders


def plan_most_to_least(world: WorldConfig, method: Method) -> StagePlan:
    order = np.argsort(-np.asarray(world.class_frequencies, dtype=float), kind="stable")
    return StagePlan(
        stages=tuple(frozenset({int(c)}) for c in order), method=method
    )


def plan_general_specific(world: WorldConfig, method: Method) -> StagePlan:
    order = [
        int(c)
        for c in np.argsort(
            -np.asarray(world.class_frequencies, dtype=float), kind="stable"
        )
    ]
    half = (len(order) + 1) // 2
    return StagePlan(
        stages=(frozenset(order[:half]), frozenset(order[half:])), method=method
    )


def plan_semantic(groups, method: Method) -> StagePlan:
    return StagePlan(stages=tuple(frozenset(g) for g in groups), method=method)


# ---------------------------------------------------------------------------
# Full protocol


def evaluate_state(
    state: TrainedState,
    val_ds: SequenceDataset,
    seen_classes,
    tracker_cfg: TrackerConfig,
    stage: int,
    method: Method,
) -> metrics.MetricReport:
    outputs = tracker.track_dataset(state.params, val_ds, tracker_cfg)
    outputs = relabel_tracks(outputs, state.class_order)
    preds = tracker.tracks_to_dataset(outputs, val_ds)
    return metrics.evaluate(
        val_ds, preds, sorted(seen_classes), stage=stage, method=method.value
    )


def noisy_world(world: WorldConfig, noise: NoiseConfig) -> SequenceDataset:
    """The world with detector noise, seeded from ``world.seed``: what
    ``ciltrack gen`` writes and ``run_protocol`` trains on."""
    return corrupt_detections(
        generate_world(world), noise, world.seed + NOISE_SEED_OFFSET
    )


def run_protocol(
    world: WorldConfig,
    noise: NoiseConfig,
    plan: StagePlan,
    cfg: TrainingConfig,
    ct_cfg: ContrastiveConfig,
    tracker_cfg: TrackerConfig,
    out_dir: str,
) -> list[metrics.MetricReport]:
    """Generate the world, run every stage, and evaluate each stage's model
    on the held-out validation split over all seen classes.  ORACLE trains
    once, at stage 0, and every stage evaluates that model."""
    train_ds = noisy_world(world, noise)
    val_ds = noisy_world(replace(world, seed=world.seed + VAL_SEED_OFFSET), noise)

    os.makedirs(out_dir, exist_ok=True)
    reports, prev_ckpt = [], None
    for b in range(len(plan.stages)):
        stage_dir = os.path.join(out_dir, f"stage_{b}")
        os.makedirs(stage_dir, exist_ok=True)
        if b == 0 or plan.method is not Method.ORACLE:
            ckpt = os.path.join(stage_dir, "checkpoint.bin")
            state = train_stage(
                prev_ckpt,
                train_ds,
                plan,
                b,
                cfg,
                ct_cfg,
                tracker_cfg,
                out_ckpt=ckpt,
                pl_dir=os.path.join(stage_dir, "pseudo_labels") if b > 0 else None,
            )
            prev_ckpt = ckpt
        report = evaluate_state(
            state, val_ds, plan.seen_classes(b), tracker_cfg, b, plan.method
        )
        metrics.write_report(
            report,
            os.path.join(stage_dir, "metrics.json"),
            os.path.join(stage_dir, "metrics.csv"),
        )
        reports.append(report)

    protocol = {
        "method": plan.method.value,
        "stages": [sorted(s) for s in plan.stages],
        "world_seed": world.seed,
        "training_seed": cfg.seed,
    }
    with open(os.path.join(out_dir, "protocol.json"), "w") as f:
        json.dump(protocol, f, indent=2, sort_keys=True)
    return reports
