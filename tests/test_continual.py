from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from ciltrack import losses, model
from ciltrack.continual import (
    TrainedState,
    TrainingConfig,
    generate_det_pls,
    generate_tracker_pls,
    load_state,
    plan_general_specific,
    plan_most_to_least,
    plan_semantic,
    run_protocol,
    save_state,
    train_model,
    train_stage,
)
from ciltrack.data import Frame, Method, SequenceDataset, select_sequences, strip_labels
from ciltrack.errors import FormatError, StateError
from ciltrack.losses import ClassPrototypes, ContrastiveConfig, MemoryQueue
from ciltrack.model import init_params
from ciltrack.simworld import NoiseConfig, WorldConfig, corrupt_detections, generate_world
from ciltrack.tracker import TrackerConfig

TINY_WORLD = WorldConfig(
    n_classes=3,
    class_frequencies=(3.0, 2.0, 1.0),
    n_sequences=3,
    frames_per_sequence=8,
    objects_per_sequence=3,
    feature_dim=12,
)
FAST_TRAIN = TrainingConfig(epochs=1, hidden_dim=16, embed_dim=8)
CT = ContrastiveConfig()
TRK = TrackerConfig()


def tiny_dataset(seed=0):
    world = WorldConfig(**{**vars(TINY_WORLD), "seed": seed})
    return corrupt_detections(generate_world(world), NoiseConfig(), seed + 13)


class TestPlans:
    def test_most_to_least_one_class_per_stage(self):
        plan = plan_most_to_least(TINY_WORLD, Method.FINETUNE)
        assert [sorted(s) for s in plan.stages] == [[0], [1], [2]]

    def test_general_specific_frequency_halves(self):
        world = WorldConfig()  # default long-tailed 6-class frequencies
        plan = plan_general_specific(world, Method.TRACK_PL)
        assert sorted(plan.stages[0]) == [0, 1, 2]
        assert sorted(plan.stages[1]) == [3, 4, 5]

    def test_semantic_uses_given_groups(self):
        plan = plan_semantic([(0, 2), (1,)], Method.DET_PL)
        assert [sorted(s) for s in plan.stages] == [[0, 2], [1]]


def fresh_state(n_classes=3, seed=0):
    return TrainedState(
        params=init_params(
            TINY_WORLD.feature_dim, n_classes, hidden_dim=16, embed_dim=8, seed=seed
        ),
        class_order=list(range(n_classes)),
        protos=ClassPrototypes(),
        queue=MemoryQueue(),
    )


class TestStatePersistence:
    def test_round_trip_with_prototypes_and_queue(self, tmp_path):
        state = fresh_state()
        rng = np.random.default_rng(0)
        for c in (0, 2):
            state.protos.mu[c] = rng.normal(size=8)
            state.protos.sigma[c] = rng.uniform(0.01, 0.1, size=8)
            state.queue.queues[c] = [rng.normal(size=8) for _ in range(5)]
        path = str(tmp_path / "ckpt.bin")
        save_state(path, state, stage=1, method=Method.TRACK_PL)
        back, meta = load_state(path)
        assert back.class_order == state.class_order
        assert meta["stage"] == 1 and meta["method"] == "track_pl"
        assert back.protos.classes() == [0, 2]
        for c in (0, 2):
            assert np.array_equal(back.protos.mu[c], state.protos.mu[c])
            assert np.array_equal(back.protos.sigma[c], state.protos.sigma[c])
            assert len(back.queue.queues[c]) == 5
            for a, b in zip(back.queue.queues[c], state.queue.queues[c]):
                assert np.array_equal(a, b)
        assert back.queue.n_queue == state.queue.n_queue
        assert back.queue.eta == state.queue.eta

    def test_empty_state_round_trip(self, tmp_path):
        state = fresh_state()
        path = str(tmp_path / "ckpt.bin")
        save_state(path, state, stage=0, method=Method.FINETUNE)
        back, _ = load_state(path)
        assert back.protos.classes() == []
        assert back.queue.queues == {}

    @pytest.mark.parametrize(
        "key", ["stage", "method", "class_order", "queue_caps", "queue_eta"]
    )
    def test_incomplete_metadata_rejected(self, tmp_path, key):
        state = fresh_state()
        path = str(tmp_path / "ckpt.bin")
        save_state(path, state, stage=0, method=Method.FINETUNE)
        _, metadata, _ = model.load_checkpoint(path)
        del metadata[key]
        model.save_checkpoint(path, state.params, metadata)
        with pytest.raises(FormatError, match=key) as err:
            load_state(path)
        assert path in str(err.value)


class TestTrainModel:
    def test_deterministic(self):
        ds = tiny_dataset()
        a = train_model(fresh_state(), ds, {0, 1, 2}, FAST_TRAIN, CT, False, seed=3)
        b = train_model(fresh_state(), ds, {0, 1, 2}, FAST_TRAIN, CT, False, seed=3)
        assert a.params.vector.tobytes() == b.params.vector.tobytes()

    def test_training_reduces_detection_loss(self):
        from ciltrack.losses import detection_loss, match_proposals
        from ciltrack.model import forward_batch

        ds = tiny_dataset()

        def mean_ce(params):
            feats, targets = [], []
            for _, frames in ds.sequences:
                for frame in frames:
                    matched = match_proposals(frame.proposals, frame.annotations)
                    for prop, m in zip(frame.proposals, matched):
                        feats.append(prop.feature)
                        targets.append(
                            frame.annotations[m].class_id if m is not None else 3
                        )
            cache = forward_batch(params, np.stack(feats))
            value, _ = detection_loss(cache.logits, np.array(targets))
            return value

        state = fresh_state()
        before = mean_ce(state.params)
        trained = train_model(state, ds, {0, 1, 2}, FAST_TRAIN, CT, False, seed=3)
        after = mean_ce(trained.params)
        assert after < 0.5 * before

    def test_queue_populated_during_training(self):
        ds = tiny_dataset()
        trained = train_model(fresh_state(), ds, {0, 1, 2}, FAST_TRAIN, CT, False, seed=3)
        assert set(trained.queue.queues) == {0, 1, 2}
        assert all(len(q) <= trained.queue.n_queue for q in trained.queue.queues.values())


def reference_train_model(state, ds, new_classes, cfg, ct_cfg, use_contrastive, seed):
    """The per-step loop train_model replaced: every step matches the pair's
    proposals again and scatters embedding gradients row by row."""

    def assign_targets(frame, class_to_row, iou_thr):
        background = len(class_to_row)
        matched = losses.match_proposals(frame.proposals, frame.annotations, iou_thr)
        targets = [
            background if m is None
            else class_to_row.get(frame.annotations[m].class_id, background)
            for m in matched
        ]
        return np.array(targets, dtype=np.intp), matched

    rng = np.random.default_rng(seed)
    params = state.params
    protos, queue = state.protos, state.queue
    class_to_row = {c: i for i, c in enumerate(state.class_order)}
    opt = model.OptState.fresh(
        params, lr=cfg.base_lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay
    )
    pairs = [
        (frames[k], frames[k + 1])
        for _, frames in ds.sequences
        for k in range(len(frames) - 1)
    ]
    has_proposals = [bool(a.proposals or b.proposals) for a, b in pairs]
    sigma_p = None
    for epoch in range(cfg.epochs):
        opt = replace(opt, lr=model.lr_schedule(epoch, cfg.base_lr))
        order = [k for k in rng.permutation(len(pairs)) if has_proposals[k]]
        acc, acc_count = None, 0
        for n_done, k in enumerate(order, start=1):
            frame_t, frame_t1 = pairs[k]
            caches = [
                model.forward_batch(params, np.stack([p.feature for p in f.proposals]))
                if f.proposals
                else None
                for f in (frame_t, frame_t1)
            ]
            dlogits_list = [None if c is None else np.zeros_like(c.logits) for c in caches]
            dembed_list = [None if c is None else np.zeros_like(c.embed) for c in caches]
            logit_blocks, target_blocks, block_sizes, match_by_frame = [], [], [], []
            for frame, cache in zip((frame_t, frame_t1), caches):
                if cache is None:
                    match_by_frame.append([])
                    block_sizes.append(0)
                    continue
                targets, matched = assign_targets(frame, class_to_row, cfg.iou_thr)
                logit_blocks.append(cache.logits)
                target_blocks.append(targets)
                block_sizes.append(cache.logits.shape[0])
                match_by_frame.append(matched)
            _, dlog = losses.detection_loss(
                np.concatenate(logit_blocks), np.concatenate(target_blocks)
            )
            offset = 0
            for f_idx in range(2):
                n = block_sizes[f_idx]
                if n:
                    dlogits_list[f_idx] += dlog[offset : offset + n]
                    offset += n

            if caches[0] is not None and caches[1] is not None:
                samples = losses.sample_pairs(frame_t, frame_t1, cfg.iou_thr)
                if samples:
                    anchor_idx = [s.anchor for s in samples]
                    _, dan, dpos, dneg = losses.track_contrastive_loss(
                        caches[0].embed[anchor_idx],
                        [caches[1].embed[list(s.positives)] for s in samples],
                        [caches[1].embed[list(s.negatives)] for s in samples],
                    )
                    for row, i in enumerate(anchor_idx):
                        dembed_list[0][i] += dan[row]
                    for s, gp, gn in zip(samples, dpos, dneg):
                        for row, j in enumerate(s.positives):
                            dembed_list[1][j] += gp[row]
                        for row, j in enumerate(s.negatives):
                            dembed_list[1][j] += gn[row]

            embeds_by_class, owners = {}, {}
            for f_idx, (frame, cache) in enumerate(zip((frame_t, frame_t1), caches)):
                if cache is None:
                    continue
                for i, m in enumerate(match_by_frame[f_idx]):
                    if m is None:
                        continue
                    c = frame.annotations[m].class_id
                    embeds_by_class.setdefault(c, []).append(cache.embed[i])
                    owners.setdefault(c, []).append((f_idx, i))
            embeds_by_class = {c: np.stack(v) for c, v in embeds_by_class.items()}
            losses.queue_update(queue, protos, embeds_by_class, rng)

            if use_contrastive:
                gated = {
                    c: v
                    for c, v in embeds_by_class.items()
                    if c not in new_classes or epoch >= ct_cfg.defer_new_classes_epochs
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
                    for c, grad_rows in demb.items():
                        for row, (f_idx, i) in enumerate(owners[c]):
                            dembed_list[f_idx][i] += grad_rows[row]

            backward = [
                model.backward_batch(params, cache, dlg, dmb)
                for cache, dlg, dmb in zip(caches, dlogits_list, dembed_list)
                if cache is not None
            ]
            grads = reduce(np.add, backward)
            acc = grads if acc is None else acc + grads
            acc_count += 1
            if acc_count >= cfg.batch_size or n_done == len(order):
                g = acc * (1.0 / acc_count)
                if cfg.clip_norm > 0:
                    g = model.clip_grads(g, cfg.clip_norm, params.shapes)
                params, opt = model.sgd_step(params, g, opt)
                acc, acc_count = None, 0
    return TrainedState(
        params=params, class_order=state.class_order, protos=protos, queue=queue
    )


def edge_case_dataset():
    """tiny_dataset with one frame stripped of its proposals (so two pairs
    have proposals in one frame only) and one annotation without an
    instance id (matched for its class, never a contrastive anchor)."""
    ds = tiny_dataset()
    (sid, frames), *rest = ds.sequences
    frames = list(frames)
    frames[3] = Frame(frames[3].frame_index, frames[3].annotations)
    anns = list(frames[5].annotations)
    anns[0] = replace(anns[0], instance_id=None)
    frames[5] = replace(frames[5], annotations=tuple(anns))
    return SequenceDataset(((sid, tuple(frames)), *rest), ds.class_names)


class TestTrainModelReference:
    @pytest.mark.parametrize("batch_size", (1, 3))
    @pytest.mark.parametrize("use_contrastive", (False, True))
    def test_bitwise_equal_to_per_step_loop(self, use_contrastive, batch_size):
        ds = edge_case_dataset()
        cfg = replace(FAST_TRAIN, epochs=2, batch_size=batch_size)

        def start():
            # A small queue so both the prototype threshold and the
            # capacity are crossed, and class terms run from the first epoch.
            state = fresh_state()
            return replace(state, queue=MemoryQueue(n_queue=30, n_batch=2, n_class=3))

        args = (ds, {2}, cfg, CT, use_contrastive)
        got = train_model(start(), *args, seed=5)
        want = reference_train_model(start(), *args, seed=5)
        assert got.params.vector.tobytes() == want.params.vector.tobytes()
        assert list(got.queue.queues) == list(want.queue.queues)
        for c, q in want.queue.queues.items():
            assert np.stack(q).tobytes() == np.asarray(got.queue.queues[c]).tobytes()
        assert list(got.protos.mu) == list(want.protos.mu)
        for c in want.protos.mu:
            assert got.protos.mu[c].tobytes() == want.protos.mu[c].tobytes()
            assert got.protos.sigma[c].tobytes() == want.protos.sigma[c].tobytes()

    def test_edge_cases_present(self):
        frames = edge_case_dataset().sequences[0][1]
        assert not frames[3].proposals and frames[2].proposals and frames[4].proposals
        assert frames[5].annotations[0].instance_id is None


class TestPseudoLabels:
    def trained(self):
        ds = tiny_dataset()
        cfg = TrainingConfig(epochs=3, hidden_dim=16, embed_dim=8)
        return train_model(fresh_state(), ds, {0, 1, 2}, cfg, CT, False, seed=3), ds

    def test_tracker_pls_only_old_classes_with_identities(self):
        state, ds = self.trained()
        pls = generate_tracker_pls(state, ds, TRK, old_classes={0, 1})
        assert pls.classes_present() <= {0, 1}
        # identities persist across frames for at least one track
        spans = {}
        for _, frames in pls.sequences:
            for frame in frames:
                for a in frame.annotations:
                    assert a.confidence is not None
                    spans[a.instance_id] = spans.get(a.instance_id, 0) + 1
        assert spans and max(spans.values()) > 1

    def test_det_pls_fresh_ids_every_frame(self):
        state, ds = self.trained()
        pls = generate_det_pls(state, ds, TRK, old_classes={0, 1}, tau=0.7)
        assert pls.classes_present() <= {0, 1}
        seen = set()
        for _, frames in pls.sequences:
            for frame in frames:
                for a in frame.annotations:
                    assert a.instance_id not in seen  # never reused
                    seen.add(a.instance_id)
                    assert a.confidence > 0.7

    def test_confidence_threshold_respected(self):
        state, ds = self.trained()
        loose = generate_det_pls(state, ds, TRK, {0, 1, 2}, tau=0.0)
        tight = generate_det_pls(state, ds, TRK, {0, 1, 2}, tau=0.9)
        assert tight.n_annotations() < loose.n_annotations()


class TestTrainStage:
    def test_missing_previous_checkpoint_raises(self, tmp_path):
        ds = tiny_dataset()
        plan = plan_semantic([(0, 1), (2,)], Method.FINETUNE)
        with pytest.raises(StateError):
            train_stage(
                None, ds, plan, 1, FAST_TRAIN, CT, TRK,
                out_ckpt=str(tmp_path / "c.bin"),
            )

    def test_two_stage_finetune_extends_classifier(self, tmp_path):
        ds = tiny_dataset()
        plan = plan_semantic([(0, 1), (2,)], Method.FINETUNE)
        c0 = str(tmp_path / "s0.bin")
        c1 = str(tmp_path / "s1.bin")
        data0 = strip_labels(select_sequences(ds, {0, 1}), {0, 1})
        s0 = train_stage(None, data0, plan, 0, FAST_TRAIN, CT, TRK, out_ckpt=c0)
        assert s0.class_order == [0, 1]
        data1 = strip_labels(select_sequences(ds, {2}), {2})
        s1 = train_stage(c0, data1, plan, 1, FAST_TRAIN, CT, TRK, out_ckpt=c1)
        assert s1.class_order == [0, 1, 2]
        assert s1.params.n_classes == 3
        _, meta = load_state(c1)
        assert meta["parent_digest"] is not None

    @pytest.mark.parametrize(
        "key, value",
        [("stage", 1), ("method", Method.DET_PL), ("class_order", [1, 0])],
    )
    def test_previous_checkpoint_lineage_checked(self, tmp_path, key, value):
        # The stage-1 input must be stage 0 of the same plan: a finetune
        # stage-0 checkpoint of classes [0, 1], except in one field.
        ds = tiny_dataset()
        plan = plan_semantic([(0, 1), (2,)], Method.FINETUNE)
        meta = {"stage": 0, "method": Method.FINETUNE, "class_order": [0, 1]}
        meta[key] = value
        state = fresh_state(n_classes=2)
        state.class_order = meta["class_order"]
        c0 = str(tmp_path / "s0.bin")
        save_state(c0, state, stage=meta["stage"], method=meta["method"])
        data1 = strip_labels(select_sequences(ds, {2}), {2})
        with pytest.raises(StateError, match=key) as err:
            train_stage(
                c0, data1, plan, 1, FAST_TRAIN, CT, TRK,
                out_ckpt=str(tmp_path / "s1.bin"),
            )
        assert c0 in str(err.value)
        assert not (tmp_path / "s1.bin").exists()

    @pytest.mark.parametrize("method", [Method.FINETUNE, Method.ORACLE])
    def test_selects_its_own_labels(self, tmp_path, method):
        # The whole dataset and the stage's own selection train the same
        # model: selecting and stripping twice is the same as once.
        ds = tiny_dataset()
        plan = plan_semantic([(0, 1), (2,)], method)
        classes = {0, 1} if method is Method.FINETUNE else {0, 1, 2}
        whole, own = str(tmp_path / "whole.bin"), str(tmp_path / "own.bin")
        train_stage(None, ds, plan, 0, FAST_TRAIN, CT, TRK, out_ckpt=whole)
        stripped = strip_labels(select_sequences(ds, classes), classes)
        train_stage(None, stripped, plan, 0, FAST_TRAIN, CT, TRK, out_ckpt=own)
        with open(whole, "rb") as a, open(own, "rb") as b:
            assert a.read() == b.read()
        assert load_state(whole)[0].class_order == sorted(classes)

    def test_stage_data_isolation(self, tmp_path):
        # The stage-1 training input must contain no stage-1 ground truth
        # for old classes: anything old-class is pseudo-labeled.
        ds = tiny_dataset()
        data1 = strip_labels(select_sequences(ds, {2}), {2})
        for _, frames in data1.sequences:
            for frame in frames:
                for a in frame.annotations:
                    assert a.class_id == 2


class TestRunProtocol:
    def run(self, out, method=Method.FINETUNE):
        plan = plan_semantic([(0, 1), (2,)], method)
        return run_protocol(
            TINY_WORLD, NoiseConfig(), plan, FAST_TRAIN, CT, TRK, str(out)
        )

    def test_layout_and_reports(self, tmp_path):
        reports = self.run(tmp_path / "run")
        assert len(reports) == 2
        assert (tmp_path / "run" / "protocol.json").is_file()
        for b in range(2):
            stage = tmp_path / "run" / f"stage_{b}"
            assert (stage / "metrics.json").is_file()
            assert (stage / "metrics.csv").is_file()
        assert (tmp_path / "run" / "stage_0" / "checkpoint.bin").is_file()

    def test_deterministic_metrics(self, tmp_path):
        self.run(tmp_path / "a")
        self.run(tmp_path / "b")
        for b in range(2):
            csv_a = (tmp_path / "a" / f"stage_{b}" / "metrics.csv").read_text()
            csv_b = (tmp_path / "b" / f"stage_{b}" / "metrics.csv").read_text()
            assert csv_a == csv_b

    def test_oracle_trains_once_reports_per_stage(self, tmp_path):
        reports = self.run(tmp_path / "run", method=Method.ORACLE)
        assert len(reports) == 2
        assert not (tmp_path / "run" / "stage_1" / "checkpoint.bin").exists()
        assert (tmp_path / "run" / "stage_1" / "metrics.csv").is_file()

    def test_track_pl_writes_pseudo_labels(self, tmp_path):
        self.run(tmp_path / "run", method=Method.TRACK_PL)
        assert (
            tmp_path / "run" / "stage_1" / "pseudo_labels" / "manifest.json"
        ).is_file()
