import numpy as np
import pytest
from scipy.integrate import quad

from ciltrack.data import Annotation, BoundingBox, Frame
from ciltrack.errors import DegenerateDistributionError
from ciltrack.losses import (
    ClassPrototypes,
    ContrastiveConfig,
    MemoryQueue,
    batch_stats,
    bhattacharyya,
    detection_loss,
    match_proposals,
    pull_loss,
    push_distance,
    push_loss,
    queue_update,
    sample_pairs,
    softmax,
    stats_backward,
    total_loss,
    track_contrastive_loss,
)


def fd_grad(f, x, eps=1e-6):
    """Central finite differences of a scalar function of one array."""
    x = np.asarray(x, float)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        lo, hi = x.copy(), x.copy()
        lo[idx] -= eps
        hi[idx] += eps
        g[idx] = (f(hi) - f(lo)) / (2 * eps)
    return g


class TestDetectionLoss:
    def test_gradient_matches_finite_differences(self):
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            logits = rng.normal(size=(4, 3))
            targets = rng.integers(0, 3, size=4)
            _, grad = detection_loss(logits, targets)
            num = fd_grad(lambda z: detection_loss(z, targets)[0], logits)
            worst = max(
                worst,
                float(
                    np.max(np.abs(grad - num) / np.maximum(1e-8, np.abs(grad) + np.abs(num)))
                ),
            )
        assert worst < 1e-4

    def test_perfect_prediction_near_zero(self):
        logits = np.array([[50.0, 0.0, 0.0]])
        value, _ = detection_loss(logits, np.array([0]))
        assert value < 1e-12

    def test_uniform_prediction_is_log_c(self):
        value, _ = detection_loss(np.zeros((2, 5)), np.array([1, 3]))
        assert value == pytest.approx(np.log(5))

    def test_empty_batch(self):
        value, grad = detection_loss(np.zeros((0, 3)), np.array([], dtype=int))
        assert value == 0.0 and grad.shape == (0, 3)

    def test_softmax_rows_sum_to_one(self):
        probs = softmax(np.random.default_rng(0).normal(size=(5, 4)) * 50)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(np.isfinite(probs))


class TestTrackContrastive:
    def rand_case(self, seed, n_pos=2, n_neg=3, n_anchor=2, d=4):
        rng = np.random.default_rng(seed)
        anchors = rng.normal(size=(n_anchor, d))
        pos = [rng.normal(size=(n_pos, d)) for _ in range(n_anchor)]
        neg = [rng.normal(size=(n_neg, d)) for _ in range(n_anchor)]
        return anchors, pos, neg

    def test_gradients_match_finite_differences(self):
        worst = 0.0
        for seed in range(20):
            anchors, pos, neg = self.rand_case(seed)
            _, da, dp, dn = track_contrastive_loss(anchors, pos, neg)

            def val(a=anchors, p=pos, n=neg):
                return track_contrastive_loss(a, p, n)[0]

            num_a = fd_grad(lambda a: val(a=a), anchors)
            worst = max(worst, float(np.max(np.abs(da - num_a))))
            for k in range(len(pos)):
                num_p = fd_grad(
                    lambda q, k=k: val(p=pos[:k] + [q] + pos[k + 1 :]), pos[k]
                )
                num_n = fd_grad(
                    lambda q, k=k: val(n=neg[:k] + [q] + neg[k + 1 :]), neg[k]
                )
                worst = max(worst, float(np.max(np.abs(dp[k] - num_p))))
                worst = max(worst, float(np.max(np.abs(dn[k] - num_n))))
        assert worst < 1e-4

    def test_value_matches_direct_formula(self):
        anchors, pos, neg = self.rand_case(0, n_anchor=3)
        value, _, _, _ = track_contrastive_loss(anchors, pos, neg)
        expect = 0.0
        for a in range(3):
            s = sum(
                np.exp(neg[a][i] @ anchors[a] - pos[a][j] @ anchors[a])
                for i in range(neg[a].shape[0])
                for j in range(pos[a].shape[0])
            )
            expect += np.log1p(s)
        assert value == pytest.approx(expect)

    def test_sums_over_anchors(self):
        anchors, pos, neg = self.rand_case(1, n_anchor=1)
        single, _, _, _ = track_contrastive_loss(anchors, pos, neg)
        doubled, _, _, _ = track_contrastive_loss(
            np.vstack([anchors, anchors]), pos + pos, neg + neg
        )
        assert doubled == pytest.approx(2 * single)

    def test_no_negatives_contributes_zero(self):
        anchors, pos, _ = self.rand_case(2, n_anchor=1)
        value, da, _, _ = track_contrastive_loss(
            anchors, pos, [np.zeros((0, 4))]
        )
        assert value == 0.0
        assert np.all(da == 0.0)

    def test_extreme_logits_stay_finite(self):
        anchors = np.array([[100.0, 0.0]])
        pos = [np.array([[-100.0, 0.0]])]
        neg = [np.array([[100.0, 0.0]])]
        value, da, dp, dn = track_contrastive_loss(anchors, pos, neg)
        assert np.isfinite(value)
        assert np.all(np.isfinite(da))


class TestBhattacharyya:
    def integrate(self, mu1, s1, mu2, s2):
        def overlap(x):
            p = np.exp(-0.5 * ((x - mu1) / s1) ** 2) / (s1 * np.sqrt(2 * np.pi))
            q = np.exp(-0.5 * ((x - mu2) / s2) ** 2) / (s2 * np.sqrt(2 * np.pi))
            return np.sqrt(p * q)

        lo = min(mu1 - 12 * s1, mu2 - 12 * s2)
        hi = max(mu1 + 12 * s1, mu2 + 12 * s2)
        val, _ = quad(overlap, lo, hi, limit=400)
        return -np.log(val)

    def test_matches_numerical_integration(self):
        # Criterion: 100 random 1-D Gaussian pairs within 1e-6 of the
        # -ln(Bhattacharyya coefficient) integral.
        rng = np.random.default_rng(0)
        for _ in range(100):
            mu1, mu2 = rng.normal(0, 2, size=2)
            s1, s2 = rng.uniform(0.2, 3.0, size=2)
            closed = bhattacharyya([mu1], [s1], [mu2], [s2])
            oracle = self.integrate(mu1, s1, mu2, s2)
            assert abs(closed - oracle) < 1e-6

    def test_unit_gaussians_two_apart_exact_half(self):
        # mu-term only: (1/8) * 2^2 / 1 = 0.5 exactly.
        assert bhattacharyya([0.0], [1.0], [2.0], [1.0]) == 0.5

    def test_identical_distributions_zero(self):
        assert bhattacharyya([1.0, 2.0], [0.5, 0.7], [1.0, 2.0], [0.5, 0.7]) == pytest.approx(0.0)

    def test_diagonal_separates_over_dimensions(self):
        d2 = bhattacharyya([0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [1.0, 1.0])
        d1 = bhattacharyya([0.0], [1.0], [2.0], [1.0])
        assert d2 == pytest.approx(2 * d1)

    def test_zero_sigma_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            bhattacharyya([0.0], [0.0], [1.0], [1.0])


def protos_for(mu_by_class, sigma_by_class):
    p = ClassPrototypes()
    for c, mu in mu_by_class.items():
        p.mu[c] = np.asarray(mu, float)
        p.sigma[c] = np.asarray(sigma_by_class[c], float)
    return p


class TestPushLoss:
    def make(self, seed, d=3):
        rng = np.random.default_rng(seed)
        protos = protos_for(
            {0: rng.normal(size=d), 1: rng.normal(size=d)},
            {0: rng.uniform(0.5, 1.5, size=d), 1: rng.uniform(0.5, 1.5, size=d)},
        )
        means = {0: rng.normal(size=d), 1: rng.normal(size=d)}
        return protos, means

    def test_gradients_match_finite_differences(self):
        worst = 0.0
        for seed in range(20):
            protos, means = self.make(seed)
            _, grads = push_loss(means, protos, delta_push=5.0)
            for c in means:
                def val(m, c=c):
                    trial = dict(means)
                    trial[c] = m
                    return push_loss(trial, protos, delta_push=5.0)[0]

                num = fd_grad(val, means[c])
                worst = max(worst, float(np.max(np.abs(grads[c] - num))))
        assert worst < 1e-4

    def test_far_separated_means_zero_loss(self):
        protos = protos_for(
            {0: np.zeros(2), 1: np.full(2, 100.0)},
            {0: np.ones(2), 1: np.ones(2)},
        )
        means = {0: np.zeros(2), 1: np.full(2, 100.0)}
        value, grads = push_loss(means, protos, delta_push=5.0)
        assert value == 0.0
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_single_class_no_pairs(self):
        protos = protos_for({0: np.zeros(2)}, {0: np.ones(2)})
        value, grads = push_loss({0: np.ones(2)}, protos, delta_push=5.0)
        assert value == 0.0 and set(grads) == {0}

    def test_hinge_value_hand_computed(self):
        protos = protos_for(
            {0: np.zeros(1), 1: np.array([3.0])},
            {0: np.ones(1), 1: np.ones(1)},
        )
        means = {0: np.zeros(1), 1: np.array([3.0])}
        # both ordered pairs: d = 3 (within eps), hinge = 5 - 3 = 2
        value, _ = push_loss(means, protos, delta_push=5.0)
        assert value == pytest.approx(4.0, abs=1e-5)

    def test_push_distance_is_whitened_euclidean(self):
        d = push_distance(
            np.array([2.0, 0.0]),
            np.zeros(2),
            np.array([1.0, 1.0]),
            np.array([1.0, 1.0]),
        )
        assert d == pytest.approx(2.0, abs=1e-5)


class TestPullLoss:
    def test_gradients_match_finite_differences(self):
        worst = 0.0
        sigma_p = np.full(3, 0.05)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            sigmas = {c: rng.uniform(0.01, 0.2, size=3) for c in range(2)}
            _, grads = pull_loss(sigmas, sigma_p)
            for c in sigmas:
                def val(s, c=c):
                    trial = dict(sigmas)
                    trial[c] = s
                    return pull_loss(trial, sigma_p)[0]

                num = fd_grad(val, sigmas[c])
                worst = max(worst, float(np.max(np.abs(grads[c] - num))))
        assert worst < 1e-4

    def test_zero_at_prior(self):
        sigma_p = np.full(3, 0.05)
        value, grads = pull_loss({0: sigma_p.copy()}, sigma_p)
        assert value == 0.0
        assert np.all(grads[0] == 0.0)

    def test_value_hand_computed(self):
        # sigma = 2*sigma_p in every dim: sum over 3 dims of (2-1)^2 = 3.
        sigma_p = np.full(3, 0.05)
        value, _ = pull_loss({0: 2 * sigma_p}, sigma_p)
        assert value == pytest.approx(3.0)

    def test_classes_summed_not_averaged(self):
        sigma_p = np.full(2, 0.1)
        one, _ = pull_loss({0: np.full(2, 0.2)}, sigma_p)
        two, _ = pull_loss({0: np.full(2, 0.2), 1: np.full(2, 0.2)}, sigma_p)
        assert two == pytest.approx(2 * one)

    def test_zero_prior_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            pull_loss({0: np.ones(2)}, np.zeros(2))

class TestBatchStats:
    def test_stats_backward_matches_finite_differences(self):
        # Chain: embeddings -> (mu_bar, sigma_bar) -> arbitrary linear
        # functional; analytic chain rule vs finite differences.
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            d = 3
            protos = protos_for({0: rng.normal(size=d)}, {0: np.ones(d)})
            embeds = rng.normal(size=(4, d))
            w_mu = rng.normal(size=d)
            w_sig = rng.normal(size=d)

            def scalar(e):
                stats = batch_stats({0: e}, protos)
                mu_bar, sigma_bar = stats[0]
                return float(w_mu @ mu_bar + w_sig @ sigma_bar)

            grads = stats_backward(
                {0: embeds}, protos, {0: w_mu}, {0: w_sig}
            )
            num = fd_grad(scalar, embeds)
            worst = max(worst, float(np.max(np.abs(grads[0] - num))))
        assert worst < 1e-4

    def test_sigma_measured_from_prototype_mean(self):
        protos = protos_for({0: np.zeros(2)}, {0: np.ones(2)})
        embeds = np.array([[1.0, 0.0], [-1.0, 0.0]])
        stats = batch_stats({0: embeds}, protos)
        mu_bar, sigma_bar = stats[0]
        assert np.allclose(mu_bar, [0.0, 0.0])
        # deviations from the prototype mean (0), not the batch mean
        assert sigma_bar[0] == pytest.approx(1.0)

    def test_uninitialized_class_omitted(self):
        stats = batch_stats({5: np.ones((2, 2))}, ClassPrototypes())
        assert stats == {}


class TestQueue:
    def test_capacity_bound_and_fifo(self):
        q = MemoryQueue(n_queue=5, n_batch=2, n_class=0)
        protos = ClassPrototypes()
        rng = np.random.default_rng(0)
        stamps = []
        for step in range(10):
            batch = np.full((2, 2), float(step))
            queue_update(q, protos, {0: batch}, rng)
            stamps.append(step)
        assert len(q.queues[0]) == 5
        # FIFO: survivors come from the latest pushes
        surviving = sorted({int(v[0]) for v in q.queues[0]})
        assert min(surviving) >= 7

    def test_at_most_n_batch_per_step(self):
        q = MemoryQueue(n_queue=100, n_batch=2, n_class=0)
        queue_update(
            q, ClassPrototypes(), {0: np.ones((6, 2))}, np.random.default_rng(0)
        )
        assert len(q.queues[0]) == 2

    def test_prototype_activates_after_threshold(self):
        q = MemoryQueue(n_queue=100, n_batch=2, n_class=4)
        protos = ClassPrototypes()
        rng = np.random.default_rng(0)
        for step in range(2):
            queue_update(q, protos, {0: rng.normal(size=(2, 3))}, rng)
            assert not protos.initialized(0)
        queue_update(q, protos, {0: rng.normal(size=(2, 3))}, rng)
        assert protos.initialized(0)

    def test_polyak_averaging_slow_drift(self):
        q = MemoryQueue(n_queue=100, n_batch=2, n_class=2, eta=0.999)
        protos = ClassPrototypes()
        rng = np.random.default_rng(0)
        for _ in range(2):
            queue_update(q, protos, {0: rng.normal(size=(2, 3))}, rng)
        mu_before = protos.mu[0].copy()
        queue_update(q, protos, {0: rng.normal(10.0, 1.0, size=(2, 3))}, rng)
        shift = float(np.max(np.abs(protos.mu[0] - mu_before)))
        assert 0 < shift < 0.1  # (1 - eta) damps the jump


def reference_queue_update(q, protos, embeds_by_class, rng):
    """The list-backed queue_update the array-backed one replaced: one array
    per exemplar, stacked again for every prototype estimate."""
    for c, embeds in embeds_by_class.items():
        embeds = np.atleast_2d(embeds)
        if embeds.shape[0] == 0:
            continue
        n_take = min(q.n_batch, embeds.shape[0])
        idx = rng.choice(embeds.shape[0], size=n_take, replace=False)
        queue = q.queues.setdefault(c, [])
        for i in idx:
            queue.append(np.array(embeds[i], dtype=np.float64))
        del queue[: max(0, len(queue) - q.n_queue)]
        if len(queue) > q.n_class:
            stack = np.stack(queue)
            mu_hat = stack.mean(axis=0)
            sigma_hat = np.maximum(stack.std(axis=0), 1e-8)
            if protos.initialized(c):
                protos.mu[c] = q.eta * protos.mu[c] + (1 - q.eta) * mu_hat
                protos.sigma[c] = q.eta * protos.sigma[c] + (1 - q.eta) * sigma_hat
            else:
                protos.mu[c] = mu_hat
                protos.sigma[c] = sigma_hat


class TestQueueReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_bitwise_equal_to_list_queue(self, seed):
        # 60 random updates of up to 4 rows over 3 classes: each class
        # crosses n_class = 6 and then n_queue = 13 and keeps evicting.
        data = np.random.default_rng(100 + seed)
        caps = dict(n_queue=13, n_batch=3, n_class=6, eta=0.9)
        q, q_ref = MemoryQueue(**caps), MemoryQueue(**caps)
        protos, protos_ref = ClassPrototypes(), ClassPrototypes()
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(60):
            classes = data.permutation(3)[: data.integers(0, 4)]
            batch = {
                int(c): data.normal(size=(data.integers(0, 5), 4)) for c in classes
            }
            queue_update(q, protos, batch, rng)
            reference_queue_update(q_ref, protos_ref, batch, rng_ref)
            assert list(q.queues) == list(q_ref.queues)
            for c, rows in q_ref.queues.items():
                assert np.asarray(q.queues[c]).tobytes() == np.stack(rows).tobytes()
            assert list(protos.mu) == list(protos_ref.mu)
            for c in protos_ref.mu:
                assert protos.mu[c].tobytes() == protos_ref.mu[c].tobytes()
                assert protos.sigma[c].tobytes() == protos_ref.sigma[c].tobytes()
            assert rng.bit_generator.state == rng_ref.bit_generator.state
        assert all(len(rows) == 13 for rows in q_ref.queues.values())
        assert len(protos_ref.mu) == 3


class TestPairSampling:
    def frame(self, idx, positions, inst_ids, prop_positions, feature=2):
        anns = tuple(
            Annotation(
                box=BoundingBox(x, 0.5, 0.1, 0.1),
                class_id=0,
                instance_id=i,
                confidence=None,
                feature=np.zeros(feature),
            )
            for x, i in zip(positions, inst_ids)
        )
        props = tuple(
            Annotation(
                box=BoundingBox(x, 0.5, 0.1, 0.1),
                class_id=0,
                instance_id=None,
                confidence=0.9,
                feature=np.zeros(feature),
            )
            for x in prop_positions
        )
        return Frame(frame_index=idx, annotations=anns, proposals=props)

    def test_match_proposals_best_iou(self):
        f = self.frame(0, [0.3, 0.7], [1, 2], [0.31, 0.69, 0.5])
        out = match_proposals(f.proposals, f.annotations)
        assert out == [0, 1, None]

    def test_positive_negative_partition(self):
        f0 = self.frame(0, [0.3, 0.7], [1, 2], [0.3, 0.7])
        f1 = self.frame(1, [0.32, 0.68], [1, 2], [0.32, 0.68])
        samples = sample_pairs(f0, f1)
        assert len(samples) == 2
        by_anchor = {s.anchor: s for s in samples}
        assert by_anchor[0].positives == (0,)
        assert by_anchor[0].negatives == (1,)
        assert by_anchor[1].positives == (1,)
        assert by_anchor[1].negatives == (0,)

    def test_anchor_without_positive_skipped(self):
        f0 = self.frame(0, [0.3, 0.7], [1, 2], [0.3, 0.7])
        f1 = self.frame(1, [0.32], [1], [0.32])  # instance 2 vanished
        samples = sample_pairs(f0, f1)
        assert [s.anchor for s in samples] == [0]

    def test_unmatched_proposals_excluded_from_negatives(self):
        f0 = self.frame(0, [0.3], [1], [0.3])
        f1 = self.frame(1, [0.32], [1], [0.32, 0.8])  # clutter proposal
        samples = sample_pairs(f0, f1)
        assert samples[0].negatives == ()


class TestTotalLoss:
    def test_gating(self):
        cfg = ContrastiveConfig(beta1=0.01, beta2=0.01)
        on = total_loss(1.0, 2.0, 3.0, 4.0, cfg, contrastive_on=True)
        off = total_loss(1.0, 2.0, 3.0, 4.0, cfg, contrastive_on=False)
        assert on == pytest.approx(3.0 + 0.01 * 3.0 + 0.01 * 4.0)
        assert off == pytest.approx(3.0)
