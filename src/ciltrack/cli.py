"""Command-line front end.

Subcommands: gen, train-stage, pseudo-label, track, evaluate,
run-protocol, report.  Exit codes: 0 success, 1 usage, 2 data error,
3 numerical error.  Errors print one machine-parseable line to stderr:
``ciltrack: <ErrorType>: <message>``.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace

import numpy as np

from . import continual, metrics, tracker
from .config import ExperimentConfig, read_config, write_config
from .data import load_dataset, save_dataset
from .errors import (
    CiltrackError,
    DegenerateDistributionError,
    NumericalError,
)

_DATA_EXIT = 2
_NUMERIC_EXIT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise _UsageError(message)


def _load_config(args) -> ExperimentConfig:
    cfg = read_config(args.config) if args.config else ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        cfg = replace(
            cfg,
            world=replace(cfg.world, seed=args.seed),
            training=replace(cfg.training, seed=args.seed),
        )
    return cfg


def _cmd_gen(args) -> int:
    cfg = _load_config(args)
    ds = continual.noisy_world(cfg.world, cfg.noise)
    save_dataset(ds, args.out)
    print(f"wrote {len(ds.sequences)} sequences to {args.out}")
    return 0


def _cmd_train_stage(args) -> int:
    cfg = _load_config(args)
    continual.train_stage(
        args.prev,
        load_dataset(args.data),
        cfg.plan.build(cfg.world),
        args.stage,
        cfg.training,
        cfg.contrastive,
        cfg.tracker,
        out_ckpt=args.out,
        pl_dir=args.pl_dir,
    )
    print(f"wrote checkpoint {args.out}")
    return 0


def _cmd_pseudo_label(args) -> int:
    cfg = _load_config(args)
    state, _ = continual.load_state(args.ckpt)
    ds = load_dataset(args.data)
    old_classes = set(state.class_order)
    if args.mode == "tracker":
        pls = continual.generate_tracker_pls(
            state, ds, cfg.tracker, old_classes, cfg.training.pl_conf_thresh
        )
    else:
        pls = continual.generate_det_pls(
            state, ds, cfg.tracker, old_classes, cfg.training.det_pl_thresh
        )
    save_dataset(pls, args.out)
    print(f"wrote {pls.n_annotations()} pseudo-labels to {args.out}")
    return 0


def _cmd_track(args) -> int:
    cfg = _load_config(args)
    state, _ = continual.load_state(args.ckpt)
    ds = load_dataset(args.data)
    outputs = tracker.track_dataset(state.params, ds, cfg.tracker)
    outputs = continual.relabel_tracks(outputs, state.class_order)
    preds = tracker.tracks_to_dataset(outputs, ds)
    save_dataset(preds, args.out)
    n_tracks = sum(len(out.tracks) for out in outputs)
    print(f"wrote {n_tracks} tracks to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    gt = load_dataset(args.gt)
    pred = load_dataset(args.pred)
    classes = (
        [int(c) for c in args.classes.split(",")]
        if args.classes
        else sorted(gt.classes_present())
    )
    report = metrics.evaluate(
        gt, pred, classes, stage=args.stage, method=args.method
    )
    os.makedirs(args.out, exist_ok=True)
    metrics.write_report(
        report,
        os.path.join(args.out, "metrics.json"),
        os.path.join(args.out, "metrics.csv"),
    )
    print(report.to_json())
    return 0


def _cmd_run_protocol(args) -> int:
    cfg = _load_config(args)
    plan = cfg.plan.build(cfg.world)
    os.makedirs(args.out, exist_ok=True)
    write_config(cfg, os.path.join(args.out, "config.ini"))
    reports = continual.run_protocol(
        cfg.world,
        cfg.noise,
        plan,
        cfg.training,
        cfg.contrastive,
        cfg.tracker,
        args.out,
    )
    for report in reports:
        means = report.means
        print(
            f"stage {report.stage}: mMOTA={_num(means['mMOTA'])} "
            f"mIDF1={_num(means['mIDF1'])} mAP={_num(report.overall['mAP'])}"
        )
    return 0


def _num(x):
    return "n/a" if x is None else f"{x:.4f}"


# ---------------------------------------------------------------------------
# Report charts


_CHART_METRICS = ("MOTA", "IDF1", "AP")
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _read_mean_rows(run_dir):
    """(stage, metric) -> value from each stage's metrics.csv __mean__ row."""
    points = {}
    stages = []
    b = 0
    while True:
        path = os.path.join(run_dir, f"stage_{b}", "metrics.csv")
        if not os.path.isfile(path):
            break
        with open(path, newline="") as f:
            for row in csv.DictReader(f):
                if row["class"] == "__mean__":
                    for metric in _CHART_METRICS:
                        if row[metric]:
                            points[(b, metric)] = float(row[metric])
        stages.append(b)
        b += 1
    return stages, points


def render_chart(stages, points, title) -> str:
    """Static SVG line chart of per-stage metric trajectories."""
    width, height = 480, 320
    left, right, top, bottom = 50, 130, 40, 40
    plot_w = width - left - right
    plot_h = height - top - bottom

    def sx(stage):
        if len(stages) == 1:
            return left + plot_w / 2
        return left + plot_w * (stage - stages[0]) / (stages[-1] - stages[0])

    def sy(value):
        return top + plot_h * (1.0 - max(0.0, min(1.0, value)))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="24" font-family="monospace" font-size="14">{title}</text>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="black"/>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(tick)
        parts.append(
            f'<text x="{left - 42}" y="{y + 4:.1f}" font-family="monospace" '
            f'font-size="10">{tick:.2f}</text>'
        )
        parts.append(
            f'<line x1="{left - 4}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" stroke="black"/>'
        )
    for b in stages:
        x = sx(b)
        parts.append(
            f'<text x="{x - 4:.1f}" y="{top + plot_h + 16}" font-family="monospace" '
            f'font-size="10">{b}</text>'
        )
    for i, metric in enumerate(_CHART_METRICS):
        series = [(b, points[(b, metric)]) for b in stages if (b, metric) in points]
        if not series:
            continue
        color = _COLORS[i % len(_COLORS)]
        coords = " ".join(f"{sx(b):.1f},{sy(v):.1f}" for b, v in series)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for b, v in series:
            parts.append(
                f'<circle cx="{sx(b):.1f}" cy="{sy(v):.1f}" r="3" fill="{color}"/>'
            )
        parts.append(
            f'<text x="{left + plot_w + 10}" y="{top + 16 * (i + 1)}" '
            f'font-family="monospace" font-size="11" fill="{color}">m{metric}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def _cmd_report(args) -> int:
    stages, points = _read_mean_rows(args.run)
    if not stages:
        raise FileNotFoundError(f"no stage_*/metrics.csv under {args.run}")
    out = args.out or os.path.join(args.run, "report.svg")
    title = os.path.basename(os.path.normpath(args.run)) or "run"
    with open(out, "w") as f:
        f.write(render_chart(stages, points, title) + "\n")
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# Dispatch


def build_parser() -> _Parser:
    parser = _Parser(prog="ciltrack")
    sub = parser.add_subparsers(dest="command")

    def common(p, seed=True):
        p.add_argument("--config", default=None)
        if seed:
            p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("gen", help="generate a noisy synthetic tracking dataset")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train-stage", help="train one incremental stage")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--prev", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--pl-dir", default=None)
    p.set_defaults(func=_cmd_train_stage)

    p = sub.add_parser("pseudo-label", help="label a dataset with a trained model")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=("tracker", "det"), default="tracker")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pseudo_label)

    p = sub.add_parser("track", help="run the tracker over a dataset")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--classes", default=None)
    p.add_argument("--stage", type=int, default=0)
    p.add_argument("--method", default="")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("run-protocol", help="run a full incremental protocol")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_run_protocol)

    p = sub.add_parser("report", help="render per-stage metric charts to SVG")
    p.add_argument("--run", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_report)

    return parser


def cli_dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise _UsageError("a subcommand is required")
        # Overflow on the way to divergence is reported once, by the
        # per-step finiteness check, not as numpy warnings.
        with np.errstate(all="ignore"):
            return args.func(args)
    except _UsageError as err:
        print(f"ciltrack: UsageError: {err}", file=sys.stderr)
        return 1
    except (NumericalError, DegenerateDistributionError) as err:
        print(f"ciltrack: {type(err).__name__}: {err}", file=sys.stderr)
        return _NUMERIC_EXIT
    except (CiltrackError, OSError, ValueError) as err:
        print(f"ciltrack: {type(err).__name__}: {err}", file=sys.stderr)
        return _DATA_EXIT


def main() -> None:
    raise SystemExit(cli_dispatch())


if __name__ == "__main__":
    main()
