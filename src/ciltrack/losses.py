"""Training objectives with values and analytic gradients.

Covers the detection cross-entropy, the cross-frame instance contrastive
loss, and the class-level pushing/pulling terms driven by per-class
Gaussian prototypes (mean and standard deviation vectors) maintained from
a bounded exemplar queue via Polyak averaging.

Gradients of push/pull stop at the prototypes: they flow only through the
per-batch statistics (mean, and the std's dependence on each embedding).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Annotation, Frame, iou
from .errors import DegenerateDistributionError, check_ranges

# Clamp under square roots so degenerate single-sample batches keep a
# finite pull gradient.
_SQRT_EPS = 1e-12

# Queue defaults.
N_QUEUE = 1000
N_BATCH = 2
N_CLASS = 100
POLYAK_ETA = 0.999


@dataclass(frozen=True)
class ContrastiveConfig:
    beta1: float = 0.01  # pulling weight
    beta2: float = 0.01  # pushing weight
    delta_push: float = 15.0
    sigma_p: float = 0.05  # prior std, constant across dimensions
    defer_new_classes_epochs: int = 1

    def __post_init__(self):
        check_ranges("contrastive", self, sigma_p="> 0")


# ---------------------------------------------------------------------------
# Detection loss (softmax cross-entropy over C+1, background last)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def detection_loss(logits: np.ndarray, targets: np.ndarray):
    """Mean cross-entropy; gradient wrt logits is (softmax - onehot)/B."""
    logits = np.atleast_2d(logits)
    targets = np.asarray(targets, dtype=np.intp)
    B = logits.shape[0]
    if B == 0 or targets.size == 0:
        return 0.0, np.zeros_like(logits)
    probs = softmax(logits)
    value = float(-np.mean(np.log(probs[np.arange(B), targets] + 1e-300)))
    grad = probs.copy()
    grad[np.arange(B), targets] -= 1.0
    grad /= B
    return value, grad


# ---------------------------------------------------------------------------
# Pair sampling for the cross-frame contrastive loss


def match_proposals(
    proposals, annotations, iou_thr: float = 0.5
) -> list[int | None]:
    """Best-IoU assignment of each proposal to an annotation (or None).

    Matching is purely geometric; proposal instance ids are never read.
    """
    out = []
    for prop in proposals:
        best, best_iou = None, iou_thr
        for k, ann in enumerate(annotations):
            val = iou(prop.box, ann.box)
            if val >= best_iou:
                best, best_iou = k, val
        out.append(best)
    return out


@dataclass(frozen=True)
class PairSample:
    """One anchor proposal with its positive/negative keys in the next frame."""

    anchor: int  # index into frame-t proposals
    positives: tuple[int, ...]  # indices into frame-(t+1) proposals
    negatives: tuple[int, ...]


def sample_pairs(frame_t: Frame, frame_t1: Frame, iou_thr: float = 0.5):
    """Anchors are frame-t proposals matched to a labeled instance;
    positives/negatives are frame-(t+1) proposals matched to the same /
    a different instance.  Anchors without positives are skipped."""
    anns_t = [a for a in frame_t.annotations if a.instance_id is not None]
    anns_t1 = [a for a in frame_t1.annotations if a.instance_id is not None]
    match_t = match_proposals(frame_t.proposals, anns_t, iou_thr)
    match_t1 = match_proposals(frame_t1.proposals, anns_t1, iou_thr)

    inst_t1: dict[int, list[int]] = {}
    matched_t1 = []
    for j, m in enumerate(match_t1):
        if m is not None:
            inst_t1.setdefault(anns_t1[m].instance_id, []).append(j)
            matched_t1.append(j)

    samples = []
    for i, m in enumerate(match_t):
        if m is None:
            continue
        inst = anns_t[m].instance_id
        positives = tuple(inst_t1.get(inst, ()))
        if not positives:
            continue
        negatives = tuple(j for j in matched_t1 if j not in positives)
        samples.append(PairSample(anchor=i, positives=positives, negatives=negatives))
    return samples


def track_contrastive_loss(anchor_embeds, pos_sets, neg_sets):
    """Multi-positive contrastive loss on raw embeddings.

    Per anchor v with positives {k+} and negatives {k-}:
        log(1 + sum_{k-} sum_{k+} exp(v.k- - v.k+)),
    summed over anchors, so the identity supervision scales with the
    number of labeled instances in the pair of frames.  Returns
    (value, danchors, dpos_sets, dneg_sets) with gradient structures
    mirroring the inputs.
    """
    anchor_embeds = np.atleast_2d(anchor_embeds)
    A = anchor_embeds.shape[0]
    danchors = np.zeros_like(anchor_embeds)
    dpos = [np.zeros_like(np.atleast_2d(p)) for p in pos_sets]
    dneg = [np.zeros_like(np.atleast_2d(n)) for n in neg_sets]
    if A == 0:
        return 0.0, danchors, dpos, dneg

    total = 0.0
    for a in range(A):
        v = anchor_embeds[a]
        pos = np.atleast_2d(pos_sets[a])
        neg = np.atleast_2d(neg_sets[a])
        dp = pos @ v  # (P,)
        if neg.shape[0] == 0 or neg.size == 0:
            continue  # no negatives: loss term is log(1 + 0) = 0
        dn = neg @ v  # (N,)
        diffs = dn[:, None] - dp[None, :]  # (N, P)
        m = diffs.max()
        log_s = m + np.log(np.exp(diffs - m).sum())
        log1p_s = np.logaddexp(0.0, log_s)
        total += log1p_s
        w = np.exp(diffs - log1p_s)  # (N, P), = exp(diff)/(1+S)
        # d/dv = sum w (k- - k+); d/dk- = v sum_p w; d/dk+ = -v sum_n w
        danchors[a] += (w.sum(axis=1) @ neg) - (w.sum(axis=0) @ pos)
        dneg[a] += np.outer(w.sum(axis=1), v)
        dpos[a] += -np.outer(w.sum(axis=0), v)

    return float(total), danchors, dpos, dneg


# ---------------------------------------------------------------------------
# Class prototypes and memory queue


@dataclass
class ClassPrototypes:
    mu: dict[int, np.ndarray] = field(default_factory=dict)
    sigma: dict[int, np.ndarray] = field(default_factory=dict)

    def initialized(self, c: int) -> bool:
        return c in self.mu

    def classes(self):
        return sorted(self.mu)


@dataclass
class MemoryQueue:
    n_queue: int = N_QUEUE
    n_batch: int = N_BATCH
    n_class: int = N_CLASS
    eta: float = POLYAK_ETA
    queues: dict[int, np.ndarray] = field(default_factory=dict)  # (n, d) each


def queue_update(
    q: MemoryQueue,
    protos: ClassPrototypes,
    embeds_by_class: dict[int, np.ndarray],
    rng: np.random.Generator,
):
    """Push up to ``n_batch`` embeddings per class, evict FIFO beyond the
    capacity, and Polyak-average prototypes for classes whose queue has
    crossed the activation threshold.  Mutates and returns (q, protos)."""
    for c, embeds in embeds_by_class.items():
        embeds = np.atleast_2d(embeds)
        if embeds.shape[0] == 0:
            continue
        n_take = min(q.n_batch, embeds.shape[0])
        idx = rng.choice(embeds.shape[0], size=n_take, replace=False)
        taken = np.asarray(embeds[idx], dtype=np.float64)
        queue = np.concatenate([q.queues[c], taken]) if c in q.queues else taken
        queue = q.queues[c] = queue[max(0, len(queue) - q.n_queue) :]

        if len(queue) > q.n_class:
            mu_hat = queue.mean(axis=0)
            sigma_hat = np.maximum(queue.std(axis=0), 1e-8)
            if protos.initialized(c):
                protos.mu[c] = q.eta * protos.mu[c] + (1 - q.eta) * mu_hat
                protos.sigma[c] = q.eta * protos.sigma[c] + (1 - q.eta) * sigma_hat
            else:
                protos.mu[c] = mu_hat
                protos.sigma[c] = sigma_hat
    return q, protos


# ---------------------------------------------------------------------------
# Batch statistics and the Gaussian-distance losses


def batch_stats(
    embeds_by_class: dict[int, np.ndarray], protos: ClassPrototypes
):
    """Per-class batch mean and std, deviations taken from the prototype
    mean.  Classes without samples or without an initialized prototype are
    omitted.  Returns dict c -> (mu_bar, sigma_bar)."""
    out = {}
    for c, embeds in embeds_by_class.items():
        embeds = np.atleast_2d(embeds)
        if embeds.shape[0] == 0 or not protos.initialized(c):
            continue
        mu_bar = embeds.mean(axis=0)
        dev = embeds - protos.mu[c]
        sigma_bar = np.sqrt((dev**2).mean(axis=0) + _SQRT_EPS)
        out[c] = (mu_bar, sigma_bar)
    return out


def bhattacharyya(mu1, sigma1, mu2, sigma2) -> float:
    """Bhattacharyya distance between diagonal Gaussians."""
    mu1, sigma1 = np.asarray(mu1, float), np.asarray(sigma1, float)
    mu2, sigma2 = np.asarray(mu2, float), np.asarray(sigma2, float)
    if np.any(sigma1 <= 0) or np.any(sigma2 <= 0):
        raise DegenerateDistributionError("sigmas must be elementwise positive")
    var_avg = (sigma1**2 + sigma2**2) / 2.0
    term1 = 0.125 * np.sum((mu1 - mu2) ** 2 / var_avg)
    term2 = 0.5 * (
        np.sum(np.log(var_avg)) - 0.5 * (np.sum(np.log(sigma1**2)) + np.sum(np.log(sigma2**2)))
    )
    return float(term1 + term2)


def push_distance(mu_bar_c1, proto_mu_c2, proto_sigma_c1, proto_sigma_c2):
    """Whitened distance between a batch mean and another class prototype,
    using the averaged prototype covariance of the two classes."""
    var_avg = (proto_sigma_c1**2 + proto_sigma_c2**2) / 2.0
    delta = mu_bar_c1 - proto_mu_c2
    return float(np.sqrt(np.sum(delta**2 / var_avg) + _SQRT_EPS))


def push_loss(
    batch_means: dict[int, np.ndarray],
    protos: ClassPrototypes,
    delta_push: float,
):
    """Hinge loss separating class distributions.

    Averages squared hinge terms over the active ordered pairs: c1 ranges
    over classes present in the batch, c2 over initialized prototypes.
    Gradient flows through the batch means only.
    Returns (value, grads: dict c1 -> d/dmu_bar_c1).
    """
    active = [c for c in sorted(batch_means) if protos.initialized(c)]
    grads = {c: np.zeros_like(batch_means[c]) for c in active}
    pairs = [(c1, c2) for c1 in active for c2 in active if c2 != c1]
    if not pairs:
        return 0.0, grads
    total = 0.0
    for c1, c2 in pairs:
        var_avg = (protos.sigma[c1] ** 2 + protos.sigma[c2] ** 2) / 2.0
        delta = batch_means[c1] - protos.mu[c2]
        d = float(np.sqrt(np.sum(delta**2 / var_avg) + _SQRT_EPS))
        hinge = delta_push - d
        if hinge > 0:
            total += hinge**2
            grads[c1] += -2.0 * hinge * (delta / var_avg) / d
    n = len(pairs)
    return total / n, {c: g / n for c, g in grads.items()}


def pull_loss(batch_sigmas: dict[int, np.ndarray], sigma_p: np.ndarray):
    """Squared relative-deviation surrogate pinning each class's batch std
    to the prior: sum_c || sigma_bar_c / sigma_p - 1 ||^2.

    Deviations are measured in units of the prior scale so the pressure
    toward sigma_p does not vanish for small priors, and classes are
    summed (not averaged) so each class's spread is constrained on its
    own.  Returns (value, grads: dict c -> d/dsigma_bar_c).
    """
    if not batch_sigmas:
        return 0.0, {}
    sigma_p = np.asarray(sigma_p, float)
    if np.any(sigma_p <= 0):
        raise DegenerateDistributionError("sigma_p must be elementwise positive")
    total = 0.0
    grads = {}
    for c, sig in batch_sigmas.items():
        rel = sig / sigma_p - 1.0
        total += float(np.sum(rel**2))
        grads[c] = 2.0 * rel / sigma_p
    return total, grads


def stats_backward(
    embeds_by_class: dict[int, np.ndarray],
    protos: ClassPrototypes,
    dmu_bar: dict[int, np.ndarray],
    dsigma_bar: dict[int, np.ndarray],
):
    """Propagate gradients on batch statistics back to the embeddings.

    mu_bar is the plain mean; sigma_bar_j = sqrt(mean_i (v_ij - mu_cj)^2)
    with the prototype mean treated as a constant.
    Returns dict c -> gradient array shaped like the class's embeddings.
    """
    out = {}
    for c, embeds in embeds_by_class.items():
        embeds = np.atleast_2d(embeds)
        if embeds.shape[0] == 0 or not protos.initialized(c):
            continue
        n_c = embeds.shape[0]
        grad = np.zeros_like(embeds)
        if c in dmu_bar:
            grad += dmu_bar[c][None, :] / n_c
        if c in dsigma_bar:
            dev = embeds - protos.mu[c]
            sigma_bar = np.sqrt((dev**2).mean(axis=0) + _SQRT_EPS)
            grad += dsigma_bar[c][None, :] * dev / (n_c * sigma_bar[None, :])
        out[c] = grad
    return out


def total_loss(det, track, pull, push, cfg: ContrastiveConfig, contrastive_on: bool):
    """Weighted sum of scalar loss parts; gated terms contribute zero."""
    value = det + track
    if contrastive_on:
        value += cfg.beta1 * pull + cfg.beta2 * push
    return value
