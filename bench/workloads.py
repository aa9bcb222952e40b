"""The benchmark's workloads: how each one prepares its inputs from a seed,
what one timed round does, and which output checks follow it.

Every workload drives ciltrack through its public entry points only:
the protocol workloads call ``continual.run_protocol`` (what
``ciltrack run-protocol`` runs); ``track_eval`` runs the steps of
``ciltrack train-stage`` in set-up and those of ``ciltrack track`` and
``ciltrack evaluate`` in the timed round.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass, replace

from ciltrack import continual, data, metrics, simworld, tracker
from ciltrack.data import Method
from ciltrack.losses import ContrastiveConfig
from ciltrack.simworld import NoiseConfig, WorldConfig
from ciltrack.tracker import TrackerConfig

import checks


@dataclass(frozen=True)
class RoundResult:
    """What one timed round leaves behind for the checks and the metrics."""

    report: metrics.MetricReport  # the last evaluation of the round
    old_classes: tuple[int, ...]  # stage-0 classes
    digests: dict  # output file -> sha256, to compare traced and untraced rounds


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def tree_digests(root: str) -> dict:
    """sha256 of every file under ``root``, keyed by relative path."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = file_sha256(path)
    return dict(sorted(out.items()))


def quality(result: RoundResult) -> dict:
    """The four end-to-end quality metrics of a round's last evaluation."""
    report = result.report
    old = [
        report.per_class[c]["IDF1"]
        for c in result.old_classes
        if report.per_class[c]["IDF1"] is not None
    ]
    return {
        "mMOTA": report.means["mMOTA"],
        "mIDF1": report.means["mIDF1"],
        "mAP": report.overall["mAP"],
        "old_IDF1": sum(old) / len(old),
    }


def _noisy_world(world: WorldConfig, noise: NoiseConfig):
    """A world with detector noise, seeded as ``ciltrack gen`` seeds it."""
    return simworld.corrupt_detections(
        simworld.generate_world(world), noise, world.seed + continual.NOISE_SEED_OFFSET
    )


# ---------------------------------------------------------------------------
# Protocol workloads


class ProtocolWorkload:
    """One two-stage ``track_pl`` protocol (general-to-specific split).

    Set-up only builds the configs; the timed round is the whole
    ``run_protocol`` call, world generation included.
    """

    def __init__(self, world: WorldConfig, noise: NoiseConfig, work_dir: str):
        self.world = world
        self.noise = noise
        self.cfg = continual.TrainingConfig(seed=world.seed)
        self.ct_cfg = ContrastiveConfig()
        self.tracker_cfg = TrackerConfig()
        self.plan = continual.plan_general_specific(world, Method.TRACK_PL)
        self.work_dir = work_dir

    def setup(self):
        pass

    def run_round(self) -> str:
        out_dir = os.path.join(self.work_dir, "round")
        self.reports = continual.run_protocol(
            self.world,
            self.noise,
            self.plan,
            self.cfg,
            self.ct_cfg,
            self.tracker_cfg,
            out_dir,
        )
        return out_dir

    def finish_round(self, out_dir: str) -> tuple[RoundResult, list]:
        """Untimed: check the round's outputs, then delete them."""
        n_stages = len(self.plan.stages)
        digests = {}
        for b in range(n_stages):
            for name in ("checkpoint.bin", "metrics.csv"):
                path = os.path.join(out_dir, f"stage_{b}", name)
                digests[f"stage_{b}/{name}"] = file_sha256(path)
        result = RoundResult(
            report=self.reports[-1],
            old_classes=tuple(sorted(self.plan.stages[0])),
            digests=digests,
        )
        outcomes = self._checks(out_dir, result.report)
        shutil.rmtree(out_dir)
        return result, outcomes

    def _checks(self, out_dir, report):
        # The protocol keeps its validation split and predictions in memory,
        # so the checks rebuild both the way run_protocol does: the split
        # from the world seed, the predictions by running the steps of
        # ``ciltrack track`` on the saved last-stage checkpoint.
        val_world = replace(self.world, seed=self.world.seed + continual.VAL_SEED_OFFSET)
        val_ds = _noisy_world(val_world, self.noise)
        last = len(self.plan.stages) - 1
        state, _ = continual.load_state(
            os.path.join(out_dir, f"stage_{last}", "checkpoint.bin")
        )
        preds = _track(state, val_ds, self.tracker_cfg)
        return checks.report_checks(report, val_ds, preds) + [
            checks.checkpoint_lineage(out_dir, self.plan),
            checks.parent_digest(out_dir, len(self.plan.stages)),
            checks.pseudo_label_classes(out_dir, self.plan),
        ]

    def expected_counts(self) -> dict:
        """Counts the trace must reproduce, taken from the workload's own
        inputs: frames the tracker is asked to score, and SGD steps."""
        train_ds = _noisy_world(self.world, self.noise)
        val_frames = self.world.n_sequences * self.world.frames_per_sequence
        n_stages = len(self.plan.stages)
        frames = val_frames * n_stages  # each stage's model scores the split
        steps = 0
        for b, stage in enumerate(self.plan.stages):
            seqs = checks.sequences_with_classes(train_ds, stage)
            steps += self.cfg.epochs * checks.pairs_with_proposals(seqs)
            if b > 0:  # the previous tracker labels the stage's videos
                frames += sum(len(f) for _, f in seqs)
        return {"score_proposals_calls": frames, "sgd_steps": steps}


# ---------------------------------------------------------------------------
# Tracking-and-evaluation workload


def _track(state, ds, tracker_cfg):
    """The steps of ``ciltrack track`` after loading."""
    outputs = tracker.track_dataset(state.params, ds, tracker_cfg)
    outputs = continual.relabel_tracks(outputs, state.class_order)
    return tracker.tracks_to_dataset(outputs, ds)


class TrackEvalWorkload:
    """Inference and scoring only, on a large held-out world on disk.

    Set-up trains a stage-0 model (``ciltrack train-stage``) and writes
    the held-out world (``ciltrack gen``); the timed round loads the world,
    tracks it, writes and reads back the predictions, and scores them.
    """

    def __init__(self, train_world: WorldConfig, eval_world: WorldConfig,
                 noise: NoiseConfig, work_dir: str):
        self.train_world = train_world
        self.eval_world = eval_world
        self.noise = noise
        self.cfg = continual.TrainingConfig(seed=train_world.seed)
        self.tracker_cfg = TrackerConfig()
        self.plan = continual.plan_general_specific(train_world, Method.TRACK_PL)
        self.stage0 = set(self.plan.stages[0])
        self.work_dir = work_dir
        self.ckpt = os.path.join(work_dir, "stage_0.bin")
        self.world_dir = os.path.join(work_dir, "heldout")
        self.last_round = None  # (world, predictions, read back, report)

    def setup(self):
        train_ds = _noisy_world(self.train_world, self.noise)
        stage_data = data.strip_labels(
            data.select_sequences(train_ds, self.stage0), self.stage0
        )
        continual.train_stage(
            None, stage_data, self.plan, 0, self.cfg, ContrastiveConfig(),
            self.tracker_cfg, out_ckpt=self.ckpt,
        )
        data.save_dataset(_noisy_world(self.eval_world, self.noise), self.world_dir)

    def run_round(self) -> str:
        out_dir = os.path.join(self.work_dir, "round")
        pred_dir = os.path.join(out_dir, "pred")
        state, _ = continual.load_state(self.ckpt)
        gt = data.load_dataset(self.world_dir)
        preds = _track(state, gt, self.tracker_cfg)
        data.save_dataset(preds, pred_dir)
        read_back = data.load_dataset(pred_dir)
        report = metrics.evaluate(
            gt, read_back, sorted(self.stage0), stage=0, method=self.plan.method.value
        )
        metrics.write_report(
            report,
            os.path.join(out_dir, "metrics.json"),
            os.path.join(out_dir, "metrics.csv"),
        )
        self.last_round = (gt, preds, read_back, report)
        return out_dir

    def finish_round(self, out_dir: str) -> tuple[RoundResult, list]:
        gt, preds, read_back, report = self.last_round
        self.last_round = None
        result = RoundResult(
            report=report,
            old_classes=tuple(sorted(self.stage0)),
            digests=tree_digests(out_dir),
        )
        outcomes = checks.report_checks(report, gt, read_back) + [
            checks.round_trip(preds, read_back),
        ]
        shutil.rmtree(out_dir)
        return result, outcomes

    def expected_counts(self) -> dict:
        train_ds = _noisy_world(self.train_world, self.noise)
        seqs = checks.sequences_with_classes(train_ds, self.stage0)
        return {
            "score_proposals_calls": (
                self.eval_world.n_sequences * self.eval_world.frames_per_sequence
            ),
            "sgd_steps": self.cfg.epochs * checks.pairs_with_proposals(seqs),
        }


# ---------------------------------------------------------------------------
# Registry

# ``protocol_default`` is the project's reference protocol, kept for traced
# and manual runs.  BENCHMARK.json leaves it out: one round takes 30-50 s,
# and its time drifts with the host's load more than a bound allows.
WORKLOADS = ("protocol_default", "protocol_crowded", "track_eval")

# The world and training seed of every trained model.  Seed 1 on the
# default world is the project's reference protocol run.  The quality
# metrics of a protocol move by 13-25 % (quartile spread over median)
# from one world or training seed to the next, as much as the largest
# bound the benchmark may set, so training inputs do not follow --seed.
REFERENCE_SEED = 1


def make(name: str, seed: int, work_dir: str, smoke: bool = False):
    """Build workload ``name``.  ``seed`` draws the held-out world of
    ``track_eval``; the protocols run the reference inputs.

    The worlds of the benchmarked workloads are small enough for a run to
    time many rounds.  ``smoke`` shrinks every world so the whole harness
    runs in seconds.
    """
    if name == "protocol_default":
        world = WorldConfig(seed=REFERENCE_SEED)
        if smoke:
            world = replace(world, n_sequences=3, frames_per_sequence=12)
        return ProtocolWorkload(world, NoiseConfig(), work_dir)
    if name == "protocol_crowded":
        world = WorldConfig(seed=REFERENCE_SEED, n_sequences=1, frames_per_sequence=20,
                            objects_per_sequence=24)
        if smoke:
            world = replace(world, frames_per_sequence=12)
        return ProtocolWorkload(world, NoiseConfig(fp_rate=8.0), work_dir)
    if name == "track_eval":
        # Short, many sequences: steadier quality metrics from seed to seed
        # than fewer, longer ones of the same frame count.
        train_world = WorldConfig(seed=REFERENCE_SEED, n_sequences=8)
        eval_world = WorldConfig(
            seed=seed + continual.VAL_SEED_OFFSET, n_sequences=256, frames_per_sequence=20
        )
        if smoke:
            train_world = replace(train_world, n_sequences=2, frames_per_sequence=12)
            eval_world = replace(eval_world, n_sequences=6, frames_per_sequence=12)
        return TrackEvalWorkload(train_world, eval_world, NoiseConfig(), work_dir)
    raise KeyError(name)
