"""Learnable head: class logits and Re-ID embeddings from appearance
features, with exact analytic gradients and SGD with momentum.

Architecture: a shared 2-layer tanh perceptron F -> H -> H, a linear
classifier H -> (C+1) (the last output is background), and a linear
embedding head H -> N_d.  Embeddings are raw (no normalization here).
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import FormatError, NumericalError, ShapeError

CHECKPOINT_MAGIC = b"CILCKPT1"
_HEADER_BYTES = len(CHECKPOINT_MAGIC) + 8  # magic, then the metadata length

PARAM_FIELDS = ("w1", "b1", "w2", "b2", "wc", "bc", "we", "be")


@dataclass(frozen=True)
class ModelParams:
    """All head parameters in one contiguous, read-only float64 vector;
    ``w1 ... be`` are reshaped views of it in ``PARAM_FIELDS`` order."""

    w1: np.ndarray  # (H, F)
    b1: np.ndarray  # (H,)
    w2: np.ndarray  # (H, H)
    b2: np.ndarray  # (H,)
    wc: np.ndarray  # (C+1, H), last row = background
    bc: np.ndarray  # (C+1,)
    we: np.ndarray  # (N_d, H)
    be: np.ndarray  # (N_d,)
    vector: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arrays = [np.asarray(getattr(self, n), dtype=np.float64) for n in PARAM_FIELDS]
        vector = np.concatenate([a.ravel() for a in arrays])
        self._bind(vector, [a.shape for a in arrays])
        _require_finite(self)

    @classmethod
    def from_vector(cls, vector: np.ndarray, shapes) -> "ModelParams":
        """Wrap ``vector`` as parameters without copying or checking it; the
        vector is made read-only."""
        p = cls.__new__(cls)
        p._bind(vector, shapes)
        return p

    def _bind(self, vector: np.ndarray, shapes) -> None:
        vector.flags.writeable = False
        object.__setattr__(self, "vector", vector)
        for name, part in zip(PARAM_FIELDS, _split(vector, shapes)):
            object.__setattr__(self, name, part)

    @property
    def shapes(self) -> tuple:
        return tuple(getattr(self, n).shape for n in PARAM_FIELDS)

    @property
    def feature_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def n_classes(self) -> int:
        return self.wc.shape[0] - 1

    @property
    def embed_dim(self) -> int:
        return self.we.shape[0]


def _split(vector: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of consecutive segments of ``vector`` with the given shapes."""
    ends = np.cumsum([math.prod(s) for s in shapes])[:-1]
    return [part.reshape(s) for part, s in zip(np.split(vector, ends), shapes)]


def _require_finite(p: ModelParams) -> None:
    if not np.isfinite(p.vector).all():
        bad = [n for n in PARAM_FIELDS if not np.isfinite(getattr(p, n)).all()]
        raise ShapeError(f"non-finite entries in {', '.join(bad)}")


def init_params(
    feature_dim: int,
    n_classes: int,
    hidden_dim: int = 64,
    embed_dim: int = 16,
    seed: int = 0,
) -> ModelParams:
    rng = np.random.default_rng(seed)

    def layer(n_out, n_in):
        return rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_out, n_in))

    return ModelParams(
        w1=layer(hidden_dim, feature_dim),
        b1=np.zeros(hidden_dim),
        w2=layer(hidden_dim, hidden_dim),
        b2=np.zeros(hidden_dim),
        wc=layer(n_classes + 1, hidden_dim),
        bc=np.zeros(n_classes + 1),
        we=layer(embed_dim, hidden_dim),
        be=np.zeros(embed_dim),
    )


# ---------------------------------------------------------------------------
# Forward / backward


@dataclass(frozen=True)
class ForwardCache:
    x: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    logits: np.ndarray
    embed: np.ndarray


def forward_batch(p: ModelParams, feats: np.ndarray) -> ForwardCache:
    """Batched forward pass; keeps intermediates for backprop."""
    x = np.atleast_2d(np.asarray(feats, dtype=np.float64))
    if x.shape[1] != p.feature_dim:
        raise ShapeError(
            f"feature dim {x.shape[1]} does not match model ({p.feature_dim})"
        )
    if not np.all(np.isfinite(x)):
        raise ShapeError("non-finite feature input")
    h1 = np.tanh(x @ p.w1.T + p.b1)
    h2 = np.tanh(h1 @ p.w2.T + p.b2)
    logits = h2 @ p.wc.T + p.bc
    embed = h2 @ p.we.T + p.be
    return ForwardCache(x=x, h1=h1, h2=h2, logits=logits, embed=embed)


def backward_batch(
    p: ModelParams,
    cache: ForwardCache,
    dlogits: np.ndarray | None = None,
    dembed: np.ndarray | None = None,
) -> np.ndarray:
    """Parameter gradient, as one vector laid out like ``p.vector``, given
    upstream gradients on logits/embeddings."""
    B = cache.x.shape[0]
    if dlogits is None:
        dlogits = np.zeros((B, p.n_classes + 1))
    if dembed is None:
        dembed = np.zeros((B, p.embed_dim))
    if dlogits.shape != cache.logits.shape or dembed.shape != cache.embed.shape:
        raise ShapeError("upstream gradient shape mismatch")
    dwc = dlogits.T @ cache.h2
    dbc = dlogits.sum(axis=0)
    dwe = dembed.T @ cache.h2
    dbe = dembed.sum(axis=0)
    dh2 = dlogits @ p.wc + dembed @ p.we
    dz2 = dh2 * (1.0 - cache.h2**2)
    dw2 = dz2.T @ cache.h1
    db2 = dz2.sum(axis=0)
    dh1 = dz2 @ p.w2
    dz1 = dh1 * (1.0 - cache.h1**2)
    dw1 = dz1.T @ cache.x
    db1 = dz1.sum(axis=0)
    return np.concatenate([a.ravel() for a in (dw1, db1, dw2, db2, dwc, dbc, dwe, dbe)])


def clip_grads(g: np.ndarray, max_norm: float, shapes) -> np.ndarray:
    """Rescale so the global L2 norm is at most ``max_norm``.

    The squared norm is summed per parameter segment, in ``PARAM_FIELDS``
    order, as Python floats; that order is part of the checkpoint bits.
    """
    norm = float(np.sqrt(sum(float((seg**2).sum()) for seg in _split(g, shapes))))
    if norm <= max_norm or norm == 0.0:
        return g
    return g * (max_norm / norm)


# ---------------------------------------------------------------------------
# Classifier extension


def extend_classifier(
    p: ModelParams, n_new: int, seed: int = 0
) -> ModelParams:
    """Widen the classifier by ``n_new`` classes.

    Old class rows are copied verbatim, new rows start at N(0, 0.01^2),
    and the background row stays last, so old-class logits are preserved
    exactly on every input.
    """
    if n_new < 1:
        raise ValueError("n_new must be >= 1")
    rng = np.random.default_rng(seed)
    new_rows = rng.normal(0.0, 0.01, size=(n_new, p.hidden_dim))
    wc = np.vstack([p.wc[:-1], new_rows, p.wc[-1:]])
    bc = np.concatenate([p.bc[:-1], np.zeros(n_new), p.bc[-1:]])
    return replace(p, wc=wc, bc=bc)


# ---------------------------------------------------------------------------
# Optimizer


@dataclass
class OptState:
    velocity: np.ndarray  # laid out like ModelParams.vector
    lr: float = 0.02
    momentum: float = 0.9
    weight_decay: float = 1e-4

    @classmethod
    def fresh(cls, p: ModelParams, lr=0.02, momentum=0.9, weight_decay=1e-4):
        return cls(np.zeros_like(p.vector), lr, momentum, weight_decay)


def sgd_step(
    p: ModelParams, grads: np.ndarray, state: OptState
) -> tuple[ModelParams, OptState]:
    """v <- m v + g + wd w;  w <- w - lr v."""
    if grads.shape != p.vector.shape:
        raise ShapeError(f"gradient shape {grads.shape} != {p.vector.shape}")
    v = state.momentum * state.velocity + grads + state.weight_decay * p.vector
    w = p.vector - state.lr * v
    if not np.isfinite(w).all():
        raise NumericalError(f"non-finite parameters after an SGD step (lr {state.lr})")
    return ModelParams.from_vector(w, p.shapes), replace(state, velocity=v)


def lr_schedule(epoch: int, base_lr: float) -> float:
    """Step decay for 6-epoch stages: /10 at epoch 4, /100 from epoch 5."""
    if epoch < 4:
        return base_lr
    if epoch == 4:
        return base_lr / 10.0
    return base_lr / 100.0


# ---------------------------------------------------------------------------
# Finite-difference verification


def grad_check(loss_and_grad, p: ModelParams, eps: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    ``loss_and_grad(p)`` must return ``(value, grads)``, with ``grads``
    laid out like ``p.vector``.  Returns the max over parameters of
    ``|g_a - g_fd| / max(1e-8, |g_a| + |g_fd|)``.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    value, g_a = loss_and_grad(p)
    if not np.isfinite(value):
        raise NumericalError("loss is non-finite")
    flat, shapes = p.vector, p.shapes
    g_fd = np.empty_like(g_a)
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = eps
        lo, _ = loss_and_grad(ModelParams.from_vector(flat - bump, shapes))
        hi, _ = loss_and_grad(ModelParams.from_vector(flat + bump, shapes))
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise NumericalError("loss is non-finite under perturbation")
        g_fd[i] = (hi - lo) / (2.0 * eps)
    denom = np.maximum(1e-8, np.abs(g_a) + np.abs(g_fd))
    return float(np.max(np.abs(g_a - g_fd) / denom))


# ---------------------------------------------------------------------------
# Checkpoint format: magic, u64 metadata length, JSON metadata, then one
# little-endian float64 blob: the parameter vector, then each extra state
# array.  The metadata's ``param_layout`` and ``extra_layout`` give their
# shapes, and with them the exact length of the file.


def save_checkpoint(
    path: str,
    p: ModelParams,
    metadata: dict | None = None,
    extra_arrays: dict[str, np.ndarray] | None = None,
) -> None:
    metadata = dict(metadata or {})
    extra_arrays = extra_arrays or {}
    metadata.update(
        {
            "format_version": 1,
            "feature_dim": p.feature_dim,
            "hidden_dim": p.hidden_dim,
            "n_classes": p.n_classes,
            "embed_dim": p.embed_dim,
            "param_layout": [[n, list(s)] for n, s in zip(PARAM_FIELDS, p.shapes)],
            "extra_layout": [[n, list(np.shape(a))] for n, a in extra_arrays.items()],
        }
    )
    meta_bytes = json.dumps(metadata, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<Q", len(meta_bytes)))
        f.write(meta_bytes)
        f.write(p.vector.astype("<f8", copy=False).tobytes())
        for a in extra_arrays.values():
            f.write(np.asarray(a, dtype="<f8").tobytes())


def load_checkpoint(path: str):
    """Returns (params, metadata, extra_arrays).  Raises ShapeError for a
    file that does not start like a checkpoint, and FormatError for one
    whose length is not what its header and metadata declare."""
    with open(path, "rb") as f:
        data = f.read()
    if not CHECKPOINT_MAGIC.startswith(data[: len(CHECKPOINT_MAGIC)]):
        raise ShapeError(f"{path}: not a checkpoint file")

    def require_length(expected: int, exact: bool = False) -> None:
        if len(data) < expected or (exact and len(data) != expected):
            at_least = "" if exact else "at least "
            raise FormatError(
                f"{path}: expected {at_least}{expected} bytes, file has {len(data)}"
            )

    require_length(_HEADER_BYTES)
    (meta_len,) = struct.unpack_from("<Q", data, len(CHECKPOINT_MAGIC))
    blob_start = _HEADER_BYTES + meta_len
    require_length(blob_start)
    metadata = json.loads(data[_HEADER_BYTES:blob_start].decode())
    if not {"param_layout", "extra_layout"} <= metadata.keys():
        raise FormatError(f"{path}: metadata lacks param_layout or extra_layout")
    shapes = [tuple(s) for _, s in metadata["param_layout"]]
    extra_shapes = [tuple(s) for _, s in metadata["extra_layout"]]
    n_params = sum(map(math.prod, shapes))
    n_values = sum(map(math.prod, shapes + extra_shapes))
    require_length(blob_start + 8 * n_values, exact=True)
    # Copied: ``blob_start`` need not be 8-byte aligned, and ``data`` is read-only.
    blob = np.frombuffer(data, dtype="<f8", offset=blob_start).copy()
    params = ModelParams.from_vector(blob[:n_params], shapes)
    _require_finite(params)
    extras = _split(blob[n_params:], extra_shapes)
    return params, metadata, dict(zip((n for n, _ in metadata["extra_layout"]), extras))


def checkpoint_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()
