"""Span tracer for the benchmark's traced run.

``Tracer.install`` replaces every public module-level function of the
ciltrack layers with a wrapper, at every module attribute where a caller
looks it up: the defining module, each module that imported it by name
(``iou`` in ``losses``, ``metrics`` and ``tracker``; ``forward_batch``
and ``softmax`` in ``tracker``; ``save_dataset`` in ``continual``; ...)
and the package namespace.  Each wrapped call records a span (name,
start, end, parent) in memory.  ``data.iou`` is the exception: it runs
about a million times per protocol, far more than a span is worth, so
its calls are only counted, per calling span.

Private helpers (``continual._assign_targets``, ...) and methods are not
wrapped; their time is the self time of the public function calling
them.  Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import functools
import os
import time
import types
from collections import Counter
from contextlib import contextmanager

LAYERS = ("data", "simworld", "model", "losses", "tracker", "metrics", "continual")
COUNT_ONLY = frozenset({"data.iou"})


def _frames(ds) -> int:
    return sum(len(frames) for _, frames in ds.sequences)


def _tree_bytes(path) -> int:
    return sum(
        os.path.getsize(os.path.join(d, name))
        for d, _, files in os.walk(path)
        for name in files
    )


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# Per-function counters, computed from a call's arguments and result after
# its span has closed.
HOOKS = {
    "model.forward_batch": lambda a, k, r: {"model.forward_rows": r.x.shape[0]},
    "model.save_checkpoint": lambda a, k, r: {
        "model.checkpoint_bytes": os.path.getsize(_arg(a, k, 0, "path"))
    },
    "data.save_dataset": lambda a, k, r: {
        "data.dataset_bytes": _tree_bytes(_arg(a, k, 1, "path"))
    },
    "tracker.track_dataset": lambda a, k, r: {
        "tracker.frames": _frames(_arg(a, k, 1, "ds")),
        "tracker.tracks_emitted": sum(len(out.tracks) for out in r),
    },
    "tracker.score_proposals": lambda a, k, r: {"tracker.detections": len(r)},
    "tracker.associate": lambda a, k, r: {"tracker.matched": len(r[0])},
    "continual.train_model": lambda a, k, r: {
        "continual.train_frames": _frames(_arg(a, k, 1, "ds"))
    },
    "continual.generate_tracker_pls": lambda a, k, r: {
        "continual.pl_annotations": r.n_annotations()
    },
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # [name id, start ns, end ns, parent index or -1]
        self._stack: list[int] = []  # indices of the open spans
        self.enabled = True
        self.counts: Counter = Counter()
        self.calls_by_caller: Counter = Counter()  # (count-only name, caller)
        self.sites: list[str] = []
        self._patched: list = []  # (module, attribute, original)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        span = [self._id(name), 0, 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    def _caller(self) -> str:
        return self.names[self.spans[self._stack[-1]][0]] if self._stack else "-"

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self.enabled:
                    self.calls_by_caller[(name, self._caller())] += 1
                return fn(*args, **kwargs)

            return counted

        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                self.counts.update(hook(args, kwargs, result))
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of ``package``'s layer modules at every
        attribute that refers to them."""
        layer_modules = {f"{package.__name__}.{m}" for m in LAYERS}
        wrappers: dict = {}
        sites = [package] + [getattr(package, m) for m in LAYERS]
        for module in sites:
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or obj.__module__ not in layer_modules
                ):
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(name, obj)
                setattr(module, attr, wrappers[obj])
                self._patched.append((module, attr, obj))
                self.sites.append(f"{module.__name__}.{attr} -> {name}")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def span_seconds(self, name: str) -> list[float]:
        nid = self._ids.get(name)
        return [(e - s) / 1e9 for n, s, e, _ in self.spans if n == nid]

    def summary(self) -> dict:
        """name -> calls, total and self seconds.  Self time is a span's
        duration minus the durations of its child spans."""
        child = [0] * len(self.spans)
        for n, s, e, parent in self.spans:
            if parent >= 0:
                child[parent] += e - s
        out: dict = {}
        for i, (n, s, e, _) in enumerate(self.spans):
            row = out.setdefault(self.names[n], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += (e - s) / 1e9
            row["self_s"] += (e - s - child[i]) / 1e9
        for (name, _), calls in self.calls_by_caller.items():
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += calls
        return dict(sorted(out.items()))


def layer_metrics(summary: dict, counts: Counter) -> dict:
    """The per-layer metrics listed in BENCHMARK.json, from a trace summary."""

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def total(*names):
        return sum(summary.get(n, {}).get("total_s", 0.0) for n in names)

    def self_time(*names):
        return sum(summary.get(n, {}).get("self_s", 0.0) for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    sgd_steps = calls("model.sgd_step")
    return {
        "losses.queue_update_s": total("losses.queue_update"),
        "losses.queue_update_calls": calls("losses.queue_update"),
        "losses.match_proposals_s": total("losses.match_proposals"),
        "losses.match_proposals_calls": calls("losses.match_proposals"),
        "losses.sample_pairs_s": total("losses.sample_pairs"),
        "data.iou_calls": calls("data.iou"),
        "losses.matches_per_frame": ratio(
            calls("losses.match_proposals"), counts["continual.train_frames"]
        ),
        "losses.detection_loss_s": total("losses.detection_loss"),
        "losses.track_contrastive_loss_s": total("losses.track_contrastive_loss"),
        "losses.class_terms_s": self_time(
            "losses.batch_stats", "losses.push_loss", "losses.pull_loss",
            "losses.stats_backward",
        ),
        "model.forward_batch_s": total("model.forward_batch"),
        "model.forward_rows": counts["model.forward_rows"],
        "model.backward_batch_s": total("model.backward_batch"),
        "model.grad_arith_s": self_time(
            "model.add_grads", "model.scale_grads", "model.clip_grads"
        ),
        "model.sgd_step_s": total("model.sgd_step"),
        "model.sgd_steps": sgd_steps,
        "model.save_checkpoint_s": total("model.save_checkpoint"),
        "model.load_checkpoint_s": total("model.load_checkpoint"),
        "model.checkpoint_bytes": counts["model.checkpoint_bytes"],
        "continual.train_model_s": total("continual.train_model"),
        "continual.train_model_self_s": self_time("continual.train_model"),
        "continual.train_steps_per_s": ratio(sgd_steps, total("continual.train_model")),
        "continual.generate_tracker_pls_s": total("continual.generate_tracker_pls"),
        "continual.pl_annotations": counts["continual.pl_annotations"],
        "continual.evaluate_state_s": total("continual.evaluate_state"),
        "tracker.track_dataset_s": total("tracker.track_dataset"),
        "tracker.frames_per_s": ratio(
            counts["tracker.frames"], total("tracker.track_dataset")
        ),
        "tracker.score_proposals_s": total("tracker.score_proposals"),
        "tracker.associate_s": total("tracker.associate"),
        "tracker.nms_s": total("tracker.nms"),
        "tracker.detections": counts["tracker.detections"],
        "tracker.tracks_emitted": counts["tracker.tracks_emitted"],
        "tracker.match_rate": ratio(counts["tracker.matched"], counts["tracker.detections"]),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "metrics.clearmot_counts_s": total("metrics.clearmot_counts"),
        "metrics.idf1_counts_s": total("metrics.idf1_counts"),
        "metrics.average_precision_s": total("metrics.average_precision"),
        "data.load_dataset_s": total("data.load_dataset"),
        "data.save_dataset_s": total("data.save_dataset"),
        "data.dataset_bytes": counts["data.dataset_bytes"],
        "simworld.generate_world_s": total("simworld.generate_world"),
        "simworld.corrupt_detections_s": total("simworld.corrupt_detections"),
    }
