import numpy as np
import pytest

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
from ciltrack.data import Method, select_sequences, strip_labels
from ciltrack.errors import StateError
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
