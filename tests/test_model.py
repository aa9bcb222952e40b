import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciltrack.errors import FormatError, NumericalError, ShapeError
from ciltrack.losses import detection_loss
from ciltrack.model import (
    CHECKPOINT_MAGIC,
    PARAM_FIELDS,
    ModelParams,
    OptState,
    backward_batch,
    checkpoint_digest,
    clip_grads,
    extend_classifier,
    forward,
    forward_batch,
    grad_check,
    init_params,
    load_checkpoint,
    lr_schedule,
    save_checkpoint,
    sgd_step,
)

P = init_params(feature_dim=5, n_classes=3, hidden_dim=7, embed_dim=4, seed=0)


class TestLayout:
    def test_fields_are_views_of_one_read_only_vector(self):
        offset = 0
        for name in PARAM_FIELDS:
            arr = getattr(P, name)
            assert np.shares_memory(arr, P.vector)
            assert not arr.flags.writeable
            assert np.array_equal(arr.ravel(), P.vector[offset : offset + arr.size])
            offset += arr.size
        assert offset == P.vector.size
        assert not P.vector.flags.writeable

    def test_keyword_constructor_copies_inputs(self):
        w1 = np.array(P.w1)
        q = replace(P, w1=w1)
        w1[0, 0] += 1.0
        assert q.w1[0, 0] == P.w1[0, 0]


class TestForward:
    def test_shapes(self):
        cache = forward_batch(P, np.random.default_rng(0).normal(size=(6, 5)))
        assert cache.logits.shape == (6, 4)
        assert cache.embed.shape == (6, 4)

    def test_single_matches_batch(self):
        x = np.random.default_rng(1).normal(size=(3, 5))
        cache = forward_batch(P, x)
        for i in range(3):
            logits, embed = forward(P, x[i])
            assert np.allclose(logits, cache.logits[i])
            assert np.allclose(embed, cache.embed[i])

    def test_wrong_feature_dim_rejected(self):
        with pytest.raises(ShapeError):
            forward_batch(P, np.zeros((2, 6)))

    def test_nonfinite_input_rejected(self):
        x = np.zeros((1, 5))
        x[0, 0] = np.nan
        with pytest.raises(ShapeError):
            forward_batch(P, x)

    def test_nonfinite_params_rejected(self):
        bad = np.array(P.w1)
        bad[0, 0] = np.inf
        with pytest.raises(ShapeError):
            ModelParams(
                w1=bad, b1=P.b1, w2=P.w2, b2=P.b2,
                wc=P.wc, bc=P.bc, we=P.we, be=P.be,
            )


class TestGradients:
    def test_backprop_matches_finite_differences(self):
        # Criterion: composite logits+embedding objective, 20 seeds,
        # max relative error < 1e-4.
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            p = init_params(4, 2, hidden_dim=5, embed_dim=3, seed=seed)
            x = rng.normal(size=(3, 4))
            targets = rng.integers(0, 3, size=3)
            w_emb = rng.normal(size=(3, 3))

            def loss_and_grad(q):
                cache = forward_batch(q, x)
                det, dlogits = detection_loss(cache.logits, targets)
                emb = float(np.sum(w_emb * cache.embed))
                grads = backward_batch(q, cache, dlogits, w_emb.copy())
                return det + emb, grads

            worst = max(worst, grad_check(loss_and_grad, p))
        assert worst < 1e-4

    def test_upstream_shape_mismatch_rejected(self):
        cache = forward_batch(P, np.zeros((2, 5)))
        with pytest.raises(ShapeError):
            backward_batch(P, cache, dlogits=np.zeros((3, 4)))


def reference_clip(arrays, max_norm):
    """The per-array clip the flat vector replaced: the squared norm summed
    per field as Python floats, then every array multiplied."""
    norm = float(np.sqrt(sum(float((a**2).sum()) for a in arrays)))
    if norm <= max_norm or norm == 0.0:
        return arrays
    return [a * (max_norm / norm) for a in arrays]


def reference_sgd(params, grads, velocity, lr, momentum, weight_decay):
    """The per-array momentum SGD step the flat vector replaced."""
    new_params, new_vel = [], []
    for w, g, v in zip(params, grads, velocity):
        v = momentum * v + g + weight_decay * w
        new_vel.append(v)
        new_params.append(w - lr * v)
    return new_params, new_vel


def per_field(vector, like):
    """The per-field views of a vector laid out like ``like.vector``."""
    g = ModelParams.from_vector(vector, like.shapes)
    return [getattr(g, n) for n in PARAM_FIELDS]


def bits(arrays):
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


class TestClip:
    def test_below_threshold_untouched(self):
        g = P.vector * 1e-3
        assert clip_grads(g, 100.0, P.shapes) is g

    def test_above_threshold_rescaled_to_norm(self):
        clipped = clip_grads(P.vector * 10.0, 1.0, P.shapes)
        assert np.sqrt(float((clipped**2).sum())) == pytest.approx(1.0)

    def test_bitwise_equal_to_per_array_reference(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            g = rng.normal(size=P.vector.size) * 10.0 ** rng.uniform(-3, 3)
            max_norm = float(rng.uniform(0.1, 10.0))
            expect = reference_clip(per_field(g, P), max_norm)
            got = clip_grads(g, max_norm, P.shapes)
            assert bits(per_field(got, P)) == bits(expect)


class TestExtendClassifier:
    def test_old_logits_preserved_exactly(self):
        x = np.random.default_rng(2).normal(size=(5, 5))
        before = forward_batch(P, x)
        wide = extend_classifier(P, n_new=2, seed=3)
        after = forward_batch(wide, x)
        assert wide.n_classes == P.n_classes + 2
        # old class columns and the background column are bitwise equal
        assert np.array_equal(after.logits[:, : P.n_classes], before.logits[:, :-1])
        assert np.array_equal(after.logits[:, -1], before.logits[:, -1])
        assert np.array_equal(after.embed, before.embed)

    def test_new_rows_start_small(self):
        wide = extend_classifier(P, n_new=2, seed=3)
        new_rows = wide.wc[P.n_classes : P.n_classes + 2]
        assert np.all(np.abs(new_rows) < 0.1)
        assert np.all(wide.bc[P.n_classes : P.n_classes + 2] == 0.0)

    def test_zero_new_rejected(self):
        with pytest.raises(ValueError):
            extend_classifier(P, n_new=0)


class TestOptimizer:
    def test_sgd_momentum_recurrence(self):
        # One hand-computed step: v = m*v + g + wd*w ; w' = w - lr*v.
        p = init_params(2, 1, hidden_dim=2, embed_dim=1, seed=0)
        g = 0.5 * p.vector
        state = OptState.fresh(p, lr=0.1, momentum=0.9, weight_decay=0.01)
        p1, state1 = sgd_step(p, g, state)
        expect_v = 0.5 * p.vector + 0.01 * p.vector
        assert np.allclose(state1.velocity, expect_v)
        assert np.allclose(p1.vector, p.vector - 0.1 * expect_v)
        p2, _ = sgd_step(p1, g, state1)
        expect_v2 = 0.9 * expect_v + 0.5 * p.vector + 0.01 * p1.vector
        assert np.allclose(p2.vector, p1.vector - 0.1 * expect_v2)

    def test_bitwise_equal_to_per_array_reference(self):
        rng = np.random.default_rng(0)
        state = OptState.fresh(P, lr=0.05, momentum=0.9, weight_decay=1e-4)
        p = P
        ref_p = per_field(P.vector, P)
        ref_v = [np.zeros_like(a) for a in ref_p]
        for _ in range(50):
            g = rng.normal(size=P.vector.size) * 10.0 ** rng.uniform(-3, 1)
            p, state = sgd_step(p, g, state)
            ref_p, ref_v = reference_sgd(
                ref_p, per_field(g, P), ref_v, 0.05, 0.9, 1e-4
            )
            assert bits(per_field(p.vector, P)) == bits(ref_p)
            assert bits(per_field(state.velocity, P)) == bits(ref_v)

    def test_gradient_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            sgd_step(P, np.zeros(P.vector.size + 1), OptState.fresh(P))

    def test_divergence_raises_numerical_error(self):
        state = OptState.fresh(P, lr=1e308)
        with np.errstate(over="ignore"), pytest.raises(NumericalError):
            sgd_step(P, np.full(P.vector.size, 1e10), state)

    def test_lr_schedule_steps(self):
        base = 0.02
        assert [lr_schedule(e, base) for e in range(6)] == [
            base, base, base, base, base / 10, base / 100,
        ]


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        path = str(tmp_path / "ckpt.bin")
        extra = {"queue_data": np.random.default_rng(0).normal(size=(4, 3))}
        save_checkpoint(path, P, {"stage": 2}, extra)
        q, meta, extras = load_checkpoint(path)
        assert q.vector.tobytes() == P.vector.tobytes()
        assert q.shapes == P.shapes
        assert meta["stage"] == 2
        assert meta["n_classes"] == P.n_classes
        assert np.array_equal(extras["queue_data"], extra["queue_data"])

    def test_digest_stable_and_sensitive(self, tmp_path):
        a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        save_checkpoint(a, P, {})
        save_checkpoint(b, P, {})
        assert checkpoint_digest(a) == checkpoint_digest(b)
        save_checkpoint(b, ModelParams.from_vector(2.0 * P.vector, P.shapes), {})
        assert checkpoint_digest(a) != checkpoint_digest(b)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(ShapeError):
            load_checkpoint(str(path))

    def test_every_truncation_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(str(path), P, {"stage": 0}, {"x": np.ones((2, 3))})
        data = path.read_bytes()
        cut = tmp_path / "cut.bin"
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            with pytest.raises(FormatError, match=rf"file has {n}$"):
                load_checkpoint(str(cut))

    def test_missing_layout_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(str(path), P, {})
        data = path.read_bytes()
        header = len(CHECKPOINT_MAGIC) + 8
        meta_len = int.from_bytes(data[len(CHECKPOINT_MAGIC) : header], "little")
        meta = json.loads(data[header : header + meta_len])
        del meta["param_layout"]
        meta_bytes = json.dumps(meta).encode()
        path.write_bytes(
            CHECKPOINT_MAGIC + len(meta_bytes).to_bytes(8, "little") + meta_bytes
            + data[header + meta_len :]
        )
        with pytest.raises(FormatError, match="param_layout"):
            load_checkpoint(str(path))

    def test_nonfinite_parameters_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(str(path), P, {})
        data = bytearray(path.read_bytes())
        data[-8:] = np.array([np.nan]).tobytes()  # last entry of ``be``
        path.write_bytes(bytes(data))
        with pytest.raises(ShapeError, match="be"):
            load_checkpoint(str(path))


_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def checkpoints(draw):
    f, c, h, d = (draw(st.integers(1, 4)) for _ in range(4))
    shapes = [(h, f), (h,), (h, h), (h,), (c + 1, h), (c + 1,), (d, h), (d,)]

    def values(shape):
        n = int(np.prod(shape))
        return np.array(draw(st.lists(_finite, min_size=n, max_size=n))).reshape(shape)

    fields = {name: values(s) for name, s in zip(PARAM_FIELDS, shapes)}
    extra = {"queue_data": values((draw(st.integers(0, 5)),))}
    return ModelParams(**fields), extra


class TestCheckpointProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        ckpt=checkpoints(),
        cut=st.floats(0.0, 1.0, exclude_max=True),
        tail=st.binary(min_size=1, max_size=16),
    )
    def test_round_trip_bitwise_and_damage_rejected(self, ckpt, cut, tail):
        p, extra = ckpt
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ckpt.bin"
            save_checkpoint(str(path), p, {"stage": 1}, extra)
            q, meta, extras = load_checkpoint(str(path))
            assert q.vector.tobytes() == p.vector.tobytes()
            assert q.shapes == p.shapes
            assert extras["queue_data"].tobytes() == extra["queue_data"].tobytes()
            assert meta["stage"] == 1

            data = path.read_bytes()
            for damaged in (data[: int(cut * len(data))], data + tail):
                path.write_bytes(damaged)
                with pytest.raises(FormatError):
                    load_checkpoint(str(path))
