"""Desk-scale laboratory for class-incremental multiple object tracking.

A synthetic tracking world, a small trainable detection/Re-ID head with
analytic gradients, a tracking-by-detection inference loop, continual
training strategies built on tracker-generated pseudo-labels and
class-level contrastive terms, and CLEAR-MOT/identity/AP evaluation.
"""

from . import (  # noqa: F401
    config,
    continual,
    data,
    errors,
    losses,
    metrics,
    model,
    simworld,
    tracker,
)
from .config import ExperimentConfig, PlanConfig, read_config, write_config
from .continual import (
    TrainedState,
    TrainingConfig,
    generate_det_pls,
    generate_tracker_pls,
    plan_general_specific,
    plan_most_to_least,
    plan_semantic,
    run_protocol,
    train_stage,
)
from .data import (
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
from .losses import ContrastiveConfig
from .metrics import MetricReport, evaluate, write_report
from .model import ModelParams, init_params
from .simworld import NoiseConfig, WorldConfig, corrupt_detections, generate_world
from .tracker import TrackerConfig, track_dataset, tracks_to_dataset

__version__ = "0.1.0"

__all__ = [
    "Annotation",
    "BoundingBox",
    "ContrastiveConfig",
    "ExperimentConfig",
    "Frame",
    "Method",
    "MetricReport",
    "ModelParams",
    "NoiseConfig",
    "PSEUDO_ID_BASE",
    "PlanConfig",
    "SequenceDataset",
    "StagePlan",
    "TrackerConfig",
    "TrainedState",
    "TrainingConfig",
    "WorldConfig",
    "corrupt_detections",
    "evaluate",
    "generate_det_pls",
    "generate_tracker_pls",
    "generate_world",
    "init_params",
    "iou",
    "load_dataset",
    "merge_labels",
    "plan_general_specific",
    "plan_most_to_least",
    "plan_semantic",
    "read_config",
    "run_protocol",
    "save_dataset",
    "select_sequences",
    "strip_labels",
    "track_dataset",
    "tracks_to_dataset",
    "train_stage",
    "write_config",
    "write_report",
]
