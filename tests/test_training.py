import math

import numpy as np
import pytest

from taldet import training
from taldet.autograd import Parameter, Tensor
from taldet.dataio import (SyntheticSpec, generate_synthetic,
                           read_annotations, read_checkpoint, read_features)
from taldet.model import ModelConfig, SubjectPriorDetector, prepare_sample
from taldet.training import (Adam, FlatParameters, NumericalAbort,
                             TrainConfig, clip_global_norm, ema_update, fit,
                             load_into_model, lr_schedule, video_loss)


class TestLrSchedule:
    def test_warmup_is_linear(self):
        for s in range(5):
            np.testing.assert_allclose(lr_schedule(s, 100, 5, 1e-3),
                                       1e-3 * s / 5)

    def test_peak_at_warmup_end(self):
        assert lr_schedule(5, 100, 5, 1e-3) == 1e-3

    def test_cosine_midpoint_is_half(self):
        # halfway through annealing: 0.5 * (1 + cos(pi/2)) = 0.5
        lr = lr_schedule(55, 105, 5, 2e-3)
        np.testing.assert_allclose(lr, 1e-3, atol=1e-15)

    def test_final_step_is_zero(self):
        np.testing.assert_allclose(lr_schedule(100, 100, 5, 1e-3), 0.0,
                                   atol=1e-18)

    def test_no_warmup(self):
        assert lr_schedule(0, 10, 0, 1e-3) == 1e-3

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            lr_schedule(11, 10, 0, 1e-3)


class TestAdam:
    def test_first_step_moves_by_lr(self):
        # with bias correction, |update| = lr * g / (|g| + eps) ~ lr
        data = np.array([1.0])
        Adam(data, np.array([0.5])).step(0.1)
        np.testing.assert_allclose(data, 1.0 - 0.1, atol=1e-8)

    def test_matches_reference_recurrence(self):
        rng = np.random.default_rng(0)
        data, grad = rng.normal(size=(3,)), np.zeros(3)
        ref = data.copy()
        m = np.zeros(3)
        v = np.zeros(3)
        opt = Adam(data, grad)
        for t in range(1, 6):
            g = rng.normal(size=3)
            grad[:] = g
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mh = m / (1 - 0.9 ** t)
            vh = v / (1 - 0.999 ** t)
            ref = ref - 0.01 * mh / (np.sqrt(vh) + 1e-8)
            opt.step(0.01)
            np.testing.assert_allclose(data, ref, atol=1e-12)

    def test_weight_decay_shifts_gradient(self):
        d1, d2 = np.array([2.0]), np.array([2.0])
        Adam(d1, np.array([0.0]), weight_decay=0.0).step(0.1)
        Adam(d2, np.array([0.0]), weight_decay=0.1).step(0.1)
        assert d1[0] == 2.0
        assert d2[0] < 2.0


def flat_with_grads(*grads) -> FlatParameters:
    """A store of one zero parameter per gradient, holding those gradients."""
    flat = FlatParameters([Parameter(np.zeros(len(g)), "p") for g in grads])
    flat.grad[:] = np.concatenate(grads)
    return flat


class TestClipAndEma:
    def test_clip_rescales_to_max_norm(self):
        flat = flat_with_grads([3.0], [4.0, 0.0, 0.0])
        norm = clip_global_norm(flat, 1.0)
        assert norm == 5.0
        np.testing.assert_allclose(np.linalg.norm(flat.grad), 1.0, atol=1e-12)
        np.testing.assert_allclose(flat.params[1].grad, [0.8, 0.0, 0.0])

    def test_small_gradients_untouched(self):
        flat = flat_with_grads([0.3, 0.4])
        clip_global_norm(flat, 1.0)
        np.testing.assert_array_equal(flat.grad, [0.3, 0.4])

    def test_zero_max_norm_disables_clipping(self):
        # grad_clip = 0 is a valid setting and means no clipping
        assert TrainConfig(grad_clip=0.0).grad_clip == 0.0
        flat = flat_with_grads([30.0, 40.0])
        assert clip_global_norm(flat, 0.0) == 50.0
        np.testing.assert_array_equal(flat.grad, [30.0, 40.0])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_norm_leaves_gradients(self, bad):
        # the abort message reports these gradients as they are
        flat = flat_with_grads([bad, 4.0])
        assert not math.isfinite(clip_global_norm(flat, 1.0))
        np.testing.assert_array_equal(flat.grad, [bad, 4.0])

    def test_ema_recurrence(self):
        e = np.array([0.0])
        ema_update(e, np.array([1.0]), 0.9)
        np.testing.assert_allclose(e, [0.1])
        ema_update(e, np.array([1.0]), 0.9)
        np.testing.assert_allclose(e, [0.19])


# The per-parameter Adam, clipping and EMA that the flat store replaced: the
# oracle the flat updates must match bit for bit.

class ReferenceAdam:
    def __init__(self, params, weight_decay):
        self.params = params
        self.weight_decay = weight_decay
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0

    def step(self, lr):
        self.t += 1
        b1, b2 = 0.9, 0.999
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            p.data -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)


def reference_clip_global_norm(params, max_norm):
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = math.sqrt(total)
    if math.inf > norm > max_norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


def reference_ema_update(ema, params, decay):
    for e, p in zip(ema, params):
        e *= decay
        e += (1 - decay) * p.data


def reference_fit(model, samples, cfg):
    """fit's loop over separate per-parameter arrays; returns the EMA and
    how many steps clipped."""
    params = model.parameters()
    opt = ReferenceAdam(params, cfg.weight_decay)
    ema = [p.data.copy() for p in params]
    rng = np.random.default_rng(cfg.seed)
    steps_per_epoch = math.ceil(len(samples) / cfg.batch_size)
    total, warmup = (n * steps_per_epoch
                     for n in (cfg.epochs, cfg.warmup_epochs))
    step = clipped = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(samples))
        for b in range(steps_per_epoch):
            batch = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            for p in params:
                p.grad = None
            lr = lr_schedule(step, total, warmup, cfg.lr_init)
            for i in batch:
                (video_loss(model, samples[i], cfg)
                 * (1.0 / len(batch))).backward()
            norm = reference_clip_global_norm(params, cfg.grad_clip)
            clipped += norm > cfg.grad_clip
            opt.step(lr)
            reference_ema_update(ema, params, cfg.ema_decay)
            step += 1
    return ema, clipped


class TestFlatParameters:
    def test_views_share_the_buffers(self):
        a = Parameter(np.arange(6.0).reshape(2, 3), "a")
        b = Parameter(np.array([7.0]), "b")
        flat = FlatParameters([a, b])
        np.testing.assert_array_equal(flat.data, [0, 1, 2, 3, 4, 5, 7])
        assert a.data.shape == (2, 3) and b.grad.shape == (1,)
        flat.data += 1.0
        assert a.data[1, 2] == 6.0 and b.data[0] == 8.0
        np.testing.assert_array_equal(flat.views(flat.data)[0], a.data)

    def test_backward_accumulates_into_the_gradient_buffer(self):
        a = Parameter(np.array([1.0, 2.0]), "a")
        flat = FlatParameters([a])
        view = a.grad
        for _ in range(2):
            (a * a).sum().backward()
        assert a.grad is view
        np.testing.assert_array_equal(flat.grad, [4.0, 8.0])

    def test_fit_matches_per_parameter_reference_bitwise(self, tmp_path,
                                                        monkeypatch):
        cfg, samples = tiny_dataset(tmp_path / "d", num_videos=3)
        # three videos in batches of two: steps of two videos and of one
        tc = TrainConfig(lr_init=1e-2, epochs=3, warmup_epochs=1,
                         batch_size=2, grad_clip=0.05, weight_decay=0.01,
                         ema_decay=0.9, seed=4)
        emas = []

        def spy(ema, data, decay):
            emas.append(ema)
            ema_update(ema, data, decay)

        monkeypatch.setattr(training, "ema_update", spy)
        model = SubjectPriorDetector(cfg, np.random.default_rng(0))
        fit(model, samples, tc)
        ref = SubjectPriorDetector(cfg, np.random.default_rng(0))
        ref_ema, clipped = reference_fit(ref, samples, tc)
        assert clipped >= 4 and len(emas) == 6
        for (name, p), q in zip(model.named_parameters(), ref.parameters()):
            assert p.data.tobytes() == q.data.tobytes(), name
            # a parameter no loss reaches keeps a gradient of zeros
            q_grad = np.zeros_like(q.data) if q.grad is None else q.grad
            assert p.grad.tobytes() == q_grad.tobytes(), name
        assert emas[-1].tobytes() == np.concatenate(
            [e.ravel() for e in ref_ema]).tobytes()


class TestTrainConfig:
    def test_warmup_must_be_shorter_than_training(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=5, warmup_epochs=5)

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


def tiny_dataset(tmp_path, seed=7, num_videos=2):
    spec = SyntheticSpec(seed=seed, num_videos=num_videos, num_classes=2,
                         snippets_min=8, snippets_max=10)
    recs = generate_synthetic(spec, tmp_path)
    cfg = ModelConfig(feature_dim=spec.feature_dim, num_classes=2, K=2,
                      group_layers=1, group_heads=2, temporal_heads=2,
                      window_size=3, num_standard_layers=1, num_strided_layers=2,
                      head_layers=1)
    samples = [prepare_sample(r, read_features(tmp_path / "features"
                                               / f"{r.id}.ptfv"), cfg.K)
               for r in recs]
    return cfg, samples


class TestFit:
    def test_loss_decreases_on_tiny_problem(self, tmp_path):
        cfg, samples = tiny_dataset(tmp_path / "d")
        model = SubjectPriorDetector(cfg, np.random.default_rng(0))
        tc = TrainConfig(lr_init=1e-3, epochs=12, warmup_epochs=2,
                         batch_size=2, seed=0)
        res = fit(model, samples, tc)
        first = res.loss_log[0]["mean_loss"]
        last = res.loss_log[-1]["mean_loss"]
        assert last < first

    def test_deterministic_bitwise_checkpoints(self, tmp_path):
        outs = []
        for run in ("a", "b"):
            cfg, samples = tiny_dataset(tmp_path / run)
            model = SubjectPriorDetector(cfg, np.random.default_rng(0))
            tc = TrainConfig(lr_init=1e-3, epochs=4, warmup_epochs=1,
                             batch_size=2, seed=3)
            fit(model, samples, tc, out_dir=tmp_path / f"out_{run}")
            outs.append(tmp_path / f"out_{run}")
        assert ((outs[0] / "checkpoint.ptck").read_bytes()
                == (outs[1] / "checkpoint.ptck").read_bytes())
        assert ((outs[0] / "loss_log.jsonl").read_bytes()
                == (outs[1] / "loss_log.jsonl").read_bytes())

    def test_different_seed_changes_trajectory(self, tmp_path):
        cfg, samples = tiny_dataset(tmp_path / "d")
        logs = []
        for seed in (0, 1):
            model = SubjectPriorDetector(cfg, np.random.default_rng(0))
            tc = TrainConfig(lr_init=1e-3, epochs=4, warmup_epochs=1,
                             batch_size=1, seed=seed)
            logs.append(fit(model, samples, tc).loss_log)
        assert logs[0] != logs[1]

    def test_checkpoint_round_trips_into_model(self, tmp_path):
        cfg, samples = tiny_dataset(tmp_path / "d")
        model = SubjectPriorDetector(cfg, np.random.default_rng(0))
        tc = TrainConfig(lr_init=1e-3, epochs=3, warmup_epochs=1, seed=0)
        fit(model, samples, tc, out_dir=tmp_path / "out")
        entries = read_checkpoint(tmp_path / "out" / "checkpoint.ptck")
        fresh = SubjectPriorDetector(cfg, np.random.default_rng(99))
        load_into_model(fresh, entries)
        for (_, a), (_, b) in zip(model.named_parameters(),
                                  fresh.named_parameters()):
            # stored as float32, so agreement is at storage precision
            np.testing.assert_allclose(a.data, b.data, atol=1e-6)
        # EMA variant loads the smoothed weights instead
        load_into_model(fresh, entries, use_ema=True)
        names = [n for n, _ in entries]
        assert any(n.startswith("ema/") for n in names)

    def test_missing_parameter_rejected(self, tmp_path):
        cfg, samples = tiny_dataset(tmp_path / "d")
        model = SubjectPriorDetector(cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="missing"):
            load_into_model(model, [("nope", np.zeros(1))])

    def test_unexpected_entry_rejected_before_loading(self, tmp_path):
        cfg, _ = tiny_dataset(tmp_path / "d", num_videos=1)
        model = SubjectPriorDetector(cfg, np.random.default_rng(0))
        before = {name: p.data.copy() for name, p in model.named_parameters()}
        entries = [(name, w + 1.0) for name, w in before.items()]
        with pytest.raises(ValueError, match="ema/extra.w is not a parameter"):
            load_into_model(model, entries + [("ema/extra.w", np.zeros(1))])
        for name, p in model.named_parameters():
            np.testing.assert_array_equal(p.data, before[name])

    def test_empty_training_set_rejected(self):
        cfg = ModelConfig(feature_dim=4, num_classes=1, group_heads=2,
                          temporal_heads=2)
        model = SubjectPriorDetector(cfg, np.random.default_rng(0))
        with pytest.raises(ValueError):
            fit(model, [], TrainConfig())

    @np.errstate(invalid="ignore")
    def test_non_finite_loss_names_parameter_paths(self, tmp_path,
                                                   monkeypatch):
        cfg, samples = tiny_dataset(tmp_path / "d")
        model = SubjectPriorDetector(cfg, np.random.default_rng(0))
        calls = []

        def poisoned(model, sample, cfg):
            # the second video of the first batch has infinite tokens, so
            # the first one's gradients are there to report
            calls.append(sample.record.id)
            if len(calls) == 2:
                sample.tokens.data[:] = np.inf
            return video_loss(model, sample, cfg)

        monkeypatch.setattr(training, "video_loss", poisoned)
        with pytest.raises(NumericalAbort) as info:
            fit(model, samples, TrainConfig(epochs=2, warmup_epochs=1))
        listed = str(info.value).split("largest grads: ")[1].split(", ")
        paths = dict(model.named_parameters())
        values = []
        for item in listed:
            path, value = item.split("=")
            assert "." in path and path in paths
            values.append(float(value))
        assert len(listed) == 3 and values == sorted(values, reverse=True)

    @np.errstate(invalid="ignore")
    def test_non_finite_loss_names_the_video(self, tmp_path):
        cfg, samples = tiny_dataset(tmp_path / "d", num_videos=1)
        model = SubjectPriorDetector(cfg, np.random.default_rng(0))
        samples[0].tokens.data[:] = np.inf
        with pytest.raises(NumericalAbort) as info:
            fit(model, samples, TrainConfig(epochs=2, warmup_epochs=1))
        assert str(info.value) == (
            f"non-finite loss on video {samples[0].record.id} at step 0 "
            f"(lr=0); largest grads: none yet")

    @np.errstate(invalid="ignore", divide="ignore")
    def test_nan_gradient_aborts_before_the_update(self, tmp_path,
                                                   monkeypatch):
        cfg, samples = tiny_dataset(tmp_path / "d")
        model = SubjectPriorDetector(cfg, np.random.default_rng(0))
        before = {name: p.data.copy() for name, p in model.named_parameters()}
        *_, (poisoned_name, poisoned_param) = model.named_parameters()

        def poisoned(model, sample, cfg):
            # sqrt(p * 0) adds 0 to the loss and NaN to p's gradient
            z = poisoned_param * 0.0
            root = Tensor(np.sqrt(z.data), True, (z,),
                          lambda g: z._accum(g * 0.5 / np.sqrt(z.data)))
            return video_loss(model, sample, cfg) + root.sum()

        monkeypatch.setattr(training, "video_loss", poisoned)
        with pytest.raises(NumericalAbort, match="gradient norm") as info:
            fit(model, samples,
                TrainConfig(lr_init=1e-3, epochs=2, warmup_epochs=0),
                out_dir=tmp_path / "out")
        largest = str(info.value).split("largest grads: ")[1]
        assert "." in poisoned_name
        assert largest.startswith(f"{poisoned_name}=nan")
        for name, p in model.named_parameters():
            np.testing.assert_array_equal(p.data, before[name])
        assert not (tmp_path / "out" / "checkpoint.ptck").exists()

    def test_video_loss_is_finite_scalar(self, tmp_path):
        cfg, samples = tiny_dataset(tmp_path / "d", num_videos=1)
        model = SubjectPriorDetector(cfg, np.random.default_rng(0))
        loss = video_loss(model, samples[0], TrainConfig())
        assert loss.data.shape == ()
        assert math.isfinite(float(loss.data))
