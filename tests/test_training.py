import functools
import gc
import math
import tracemalloc

import numpy as np
import pytest

from taldet import autograd, heads, nn, spatial_attention, training
from taldet.autograd import Parameter, Tensor
from taldet.dataio import (AnnotationRecord, SyntheticSpec,
                           generate_synthetic, read_checkpoint, read_features,
                           synthetic_videos)
from taldet.heads import GroundTruthSegment
from taldet.model import ModelConfig, SubjectPriorDetector, prepare_sample
from taldet.subjects import SubjectBox
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

    def test_norm_matches_the_per_parameter_sum(self, tmp_path):
        # one dot product over the buffer against the sum, parameter by
        # parameter, of each one's squares: a toy model's gradients after a
        # batch's backward, and gradients of scales 1e-150 to 1e150
        cfg, samples = tiny_dataset(tmp_path / "d")
        model = SubjectPriorDetector(cfg, np.random.default_rng(0))
        flat = FlatParameters(model.parameters())
        video_loss(model, samples, TrainConfig()).backward()
        rng = np.random.default_rng(5)
        scaled = flat_with_grads(*(rng.normal(size=n) * 10.0 ** e for n, e in
                                   [(7, -150), (1, 0), (300, 150), (4, 3)]))
        for store in (flat, scaled):
            per_param = math.sqrt(sum(float((p.grad * p.grad).sum())
                                      for p in store.params))
            assert per_param > 0
            norm = clip_global_norm(store, 0.0)
            assert abs(norm - per_param) <= 1e-12 * per_param

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_norm_leaves_gradients(self, bad):
        # the abort message reports these gradients as they are
        flat = flat_with_grads([bad, 4.0])
        assert not math.isfinite(clip_global_norm(flat, 1.0))
        np.testing.assert_array_equal(flat.grad, [bad, 4.0])

    def test_ema_recurrence(self):
        e, scratch = np.array([0.0]), np.empty(1)
        ema_update(e, np.array([1.0]), 0.9, scratch)
        np.testing.assert_allclose(e, [0.1])
        ema_update(e, np.array([1.0]), 0.9, scratch)
        np.testing.assert_allclose(e, [0.19])


def allocating_adam_step(opt, lr):
    """Adam.step as model-sized temporaries, before it worked in its two
    scratch buffers: the oracle its in-place step must match bit for
    bit."""
    opt.t += 1
    g = opt.grad
    if opt.weight_decay:
        g = g + opt.weight_decay * opt.data
    opt.m *= 0.9
    opt.m += (1 - 0.9) * g
    opt.v *= 0.999
    opt.v += (1 - 0.999) * g * g
    denom = np.sqrt(opt.v / (1 - 0.999 ** opt.t)) + 1e-8
    update = opt.m / (1 - 0.9 ** opt.t)
    update *= lr
    update /= denom
    opt.data -= update


def allocating_ema_update(ema, data, decay):
    ema *= decay
    ema += (1 - decay) * data


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_in_place_updates_match_allocating_oracle(weight_decay):
    """100 steps of Adam and the EMA over three chunks, with gradients of
    scales 1e-6 to 1e3 and learning rates along a warm-up and cosine
    schedule, give the oracle's weights, moments and EMA bit for bit, and
    allocate no array of a chunk's size."""
    rng = np.random.default_rng(int(weight_decay * 100))
    n = 2 * training.CHUNK + 123
    data = rng.normal(size=n)
    ref_data, grad, ref_grad = data.copy(), np.zeros(n), np.zeros(n)
    opt, ref = Adam(data, grad, weight_decay), Adam(ref_data, ref_grad,
                                                    weight_decay)
    ema, ref_ema = data.copy(), data.copy()
    scratch = np.empty(training.CHUNK)
    for step in range(100):
        grad[:] = ref_grad[:] = rng.normal(size=n) * 10.0 ** rng.uniform(
            -6, 3, size=n)
        lr = lr_schedule(step, 100, 10, 1e-2)
        tracemalloc.start()
        opt.step(lr)
        ema_update(ema, data, 0.99, scratch)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < training.CHUNK * 8
        allocating_adam_step(ref, lr)
        allocating_ema_update(ref_ema, ref_data, 0.99)
        for a, b in ((data, ref_data), (opt.m, ref.m), (opt.v, ref.v),
                     (ema, ref_ema)):
            assert a.tobytes() == b.tobytes(), step


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
    # the norm of the gradients laid end to end, as the flat buffer holds
    # them (TestClipAndEma checks it against the per-parameter sum)
    flat = np.concatenate([np.zeros(p.data.size) if p.grad is None
                           else p.grad.ravel() for p in params])
    norm = math.sqrt(float(flat @ flat))
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
            video_loss(model, [samples[i] for i in batch], cfg).backward()
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

        def spy(ema, data, decay, scratch):
            emas.append(ema)
            ema_update(ema, data, decay, scratch)

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

        def poisoned(model, batch, cfg):
            # the second batch has infinite tokens, so the first step's
            # gradients are there to report
            calls.append(batch)
            if len(calls) == 2:
                batch[0].tokens.data[:] = np.inf
            return video_loss(model, batch, cfg)

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


def packing_problem(seed=3):
    """The tiny model and a batch of three videos of unequal, odd lengths,
    one of a single snippet: an action in the first two, background only in
    the third. Every snippet has 0-2 boxes."""
    cfg = ModelConfig(feature_dim=8, num_classes=2, K=2, group_layers=1,
                      group_heads=2, temporal_heads=2, window_size=3,
                      num_standard_layers=1, num_strided_layers=2,
                      head_layers=1)
    rng = np.random.default_rng(seed)
    samples = []
    for i, (T, segments) in enumerate([(9, [(1, 0.25, 0.75)]),
                                       (1, [(0, 0.0, 0.1)]), (5, [])]):
        boxes = [[SubjectBox(4.0 + j, 4.0, 40.0, 30.0 + j, 0.9)
                  for j in range(int(rng.integers(3)))] for _ in range(T)]
        record = AnnotationRecord(f"v{i}", 8.0, 64, 48, 1,
                                  [GroundTruthSegment(*s) for s in segments],
                                  boxes)
        samples.append(prepare_sample(record, rng.normal(size=(T, 3, 4, 8)),
                                      cfg.K))
    model = SubjectPriorDetector(cfg, rng)
    for p in model.parameters():   # biases and LN shifts off zero
        p.data += rng.normal(size=p.shape) * 0.05
    return model, samples


def loss_and_grads(model, run):
    """run()'s summed loss and every parameter's gradient after it."""
    params = model.parameters()
    for p in params:
        p.grad = None
    loss = run()
    return loss, [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                  for p in params]


def live_graph_nodes():
    """Tensors still linked to their parents: the op nodes of every graph
    that has not been freed."""
    return [t for t in gc.get_objects()
            if isinstance(t, Tensor) and t._parents]


class TestPacking:
    @pytest.mark.parametrize("strict", [False, True])
    def test_batch_graph_matches_per_video_accumulation(self, strict):
        """One graph over three videos back to back against the per-video
        graphs fit ran before, each loss scaled by 1/3 and the gradients
        summed: the loss and every parameter gradient within 1e-10."""
        model, samples = packing_problem()
        cfg = TrainConfig(strict_positive_only=strict, lam=2.0)

        def packed():
            loss = video_loss(model, samples, cfg)
            loss.backward()
            return float(loss.data)

        def per_video():
            total = 0.0
            for s in samples:
                loss = video_loss(model, s, cfg) * (1.0 / len(samples))
                loss.backward()
                total += float(loss.data)
            return total

        (loss, grads), (ref, ref_grads) = (loss_and_grads(model, f)
                                           for f in (packed, per_video))
        assert abs(loss - ref) <= 1e-10 * abs(ref)
        # relative to each parameter's largest entry; a gradient that is 0
        # but for rounding (a key bias, which the softmax ignores) on the
        # scale of 1e-6 of the model's largest entry
        floor = 1e-6 * max(np.abs(r).max() for r in ref_grads)
        for (name, _), g, r in zip(model.named_parameters(), grads,
                                   ref_grads):
            scale = max(np.abs(r).max(), floor)
            assert np.abs(g - r).max() <= 1e-10 * scale, name

    def test_a_step_splits_its_anchors_once(self, monkeypatch):
        # the targets and the loss read one split of the batch's anchors
        model, samples = packing_problem()
        calls = []
        split = heads.HeadOutput.video_anchors.func

        def counting(outs):
            calls.append(outs)
            return split(outs)

        prop = functools.cached_property(counting)
        prop.__set_name__(heads.HeadOutput, "video_anchors")
        monkeypatch.setattr(heads.HeadOutput, "video_anchors", prop)
        training.video_loss(model, samples, TrainConfig())
        assert len(calls) == 1

    def test_packed_forward_matches_each_video_alone(self):
        # no layer reads across two videos: each video's anchors carry the
        # outputs of its forward alone, within 1e-12
        model, samples = packing_problem(seed=4)
        for p in model.parameters():
            p.requires_grad = False
        outs = model(samples)
        for s, anchors in zip(samples, outs.video_anchors):
            alone = model(s)
            np.testing.assert_array_equal(outs.step[anchors], alone.step)
            np.testing.assert_array_equal(outs.stride[anchors], alone.stride)
            for got, want in ((outs.class_logits, alone.class_logits),
                              (outs.offsets, alone.offsets)):
                np.testing.assert_allclose(got.data[anchors], want.data,
                                           rtol=0, atol=1e-12)

    def test_fit_frees_each_graph_before_the_next_forward(self, tmp_path,
                                                          monkeypatch):
        # when a batch's forward starts, no earlier batch's graph is alive
        cfg, samples = tiny_dataset(tmp_path / "d", num_videos=3)
        model = SubjectPriorDetector(cfg, np.random.default_rng(0))
        before = {id(t) for t in live_graph_nodes()}
        live = []

        def spy(model, batch, cfg):
            live.append(sum(id(t) not in before for t in live_graph_nodes()))
            return video_loss(model, batch, cfg)

        monkeypatch.setattr(training, "video_loss", spy)
        fit(model, samples, TrainConfig(epochs=2, warmup_epochs=1,
                                        batch_size=2))
        assert live == [0] * 4

    def test_window_tables_built_once_per_length(self, tmp_path):
        """80 videos of 20-120 snippets (57 distinct lengths), 3 epochs in
        random pairs: each table piece is built once, at its first use,
        whichever videos share a batch; the pieces are keyed by one video's
        length at one level. A cache of 64 tables keyed by a batch's
        lengths missed most of its calls here."""
        spec = SyntheticSpec(seed=5, num_videos=80, num_classes=2,
                             snippets_min=20, snippets_max=120)
        records = generate_synthetic(spec, tmp_path)
        cfg = ModelConfig(feature_dim=spec.feature_dim, num_classes=2, K=2,
                          group_layers=1, group_heads=2, temporal_heads=2,
                          window_size=5, num_standard_layers=1,
                          num_strided_layers=2, head_layers=1)
        samples = [prepare_sample(r, read_features(
            tmp_path / "features" / f"{r.id}.ptfv"), cfg.K) for r in records]
        lengths = {r.num_snippets for r in records}
        assert len(lengths) == 57
        levels = {T: [T, -(-T // 2), -(-T // 4)] for T in lengths}
        want_window = ({(n, 3) for lv in levels.values() for n in lv}
                       | {(n, 5) for lv in levels.values() for n in lv[:2]})
        want_stride = {(n, 2, 2) for lv in levels.values() for n in lv[:2]}
        pieces = (autograd._window_outside, autograd._stride_outside)
        for cache in pieces:
            cache.cache_clear()
        fit(SubjectPriorDetector(cfg, np.random.default_rng(0)), samples,
            TrainConfig(epochs=3, warmup_epochs=1, batch_size=2))
        for cache, want in zip(pieces, (want_window, want_stride)):
            info = cache.cache_info()
            assert info.misses == info.currsize == len(want)
            assert info.hits > 0


def chunk_problem(seed=7):
    """A model of three aggregator blocks and a batch of three videos of 8,
    1 and 7 snippets, each snippet with 0-3 boxes (1-4 packed rows)."""
    cfg = ModelConfig(feature_dim=8, num_classes=2, K=3, group_layers=3,
                      group_heads=2, temporal_heads=2, window_size=3,
                      num_standard_layers=1, num_strided_layers=2,
                      head_layers=1)
    rng = np.random.default_rng(seed)
    samples = []
    for i, (T, segments) in enumerate([(8, [(1, 0.25, 0.75)]),
                                       (1, [(0, 0.0, 0.1)]),
                                       (7, [(0, 0.2, 0.6)])]):
        boxes = [[SubjectBox(4.0 + j, 4.0, 40.0, 30.0 + j, 0.9)
                  for j in range(int(rng.integers(4)))] for _ in range(T)]
        record = AnnotationRecord(f"v{i}", 8.0, 64, 48, 1,
                                  [GroundTruthSegment(*s) for s in segments],
                                  boxes)
        samples.append(prepare_sample(record, rng.normal(size=(T, 3, 4, 8)),
                                      cfg.K))
    model = SubjectPriorDetector(cfg, rng)
    for p in model.parameters():   # biases and LN shifts off zero
        p.data += rng.normal(size=p.shape) * 0.05
    return model, samples


def reachable(root):
    """ids of what root reaches through parent links and through what
    each backward closure holds: its cells, tuples and lists."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            stack.extend(obj._parents)
            stack.append(obj._backward)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            stack.extend(cell.cell_contents for cell in obj.__closure__)
    return seen


def recording(monkeypatch, owner, name, into, before=None,
              keep=lambda args: True):
    """owner.name appending each result of the calls `keep` picks by their
    arguments to `into`, with the value of before(), if given, taken when
    the call starts."""
    f = getattr(owner, name)

    def spy(*args, **kwargs):
        state = before() if before else None
        out = f(*args, **kwargs)
        if keep(args):
            into.append((out, state) if before else out)
        return out

    monkeypatch.setattr(owner, name, spy)


def limit_cutting_at(counts, cut):
    """The largest CHUNK_ROWS, and its cuts, that cuts snippets of `counts`
    rows at `cut` into chunks of two snippets or more. (A chunk of one
    snippet makes the last block's query projection a one-row product,
    which numpy hands to gemv, whose sums round differently from gemm's.)"""
    for limit in range(int(counts.sum()) - 1, 0, -1):
        cuts = spatial_attention.snippet_chunks(counts, limit)
        if cut in cuts and np.diff(cuts).min() >= 2:
            return limit, cuts
    raise AssertionError(f"no chunk size cuts at {cut}")


class TestChunks:
    """The aggregator over chunks of snippets (CHUNK_ROWS set so that a cut
    falls inside a video, or before or after the one-snippet video)
    against the same batch as one chunk (CHUNK_ROWS raised)."""

    @pytest.mark.parametrize("cut", [4, 8, 9], ids=[
        "inside-a-video", "before-the-one-snippet-video",
        "after-the-one-snippet-video"])
    def test_chunked_step_matches_one_chunk(self, monkeypatch, cut):
        """The loss and every gradient within 1e-12 and the group vectors
        bit for bit; each chunk the backward rebuilds gives the forward's
        rows bit for bit; after video_loss the loss reaches the block
        nodes of the last chunk only, and when the backward rebuilds a
        chunk every block node it ran before has been freed."""
        model, samples = chunk_problem()
        counts = np.concatenate([s.valid.sum(axis=1) for s in samples])
        limit, cuts = limit_cutting_at(counts, cut)
        n, L = len(cuts) - 1, len(model.aggregator.blocks)
        aggregated, rows, blocks = [], [], []
        recording(monkeypatch, spatial_attention.GroupAggregator, "__call__",
                  aggregated)
        recording(monkeypatch, spatial_attention.GroupAggregator,
                  "group_rows", rows,
                  before=lambda: [b._parents == () for b in blocks])
        recording(monkeypatch, nn, "prenorm_block", blocks,
                  keep=lambda args: isinstance(args[1], autograd.Packed))
        cfg = TrainConfig()

        def step():
            loss = video_loss(model, samples, cfg)
            loss.backward()
            return float(loss.data)

        monkeypatch.setattr(spatial_attention, "CHUNK_ROWS", 10 ** 9)
        want, want_grads = loss_and_grads(model, step)
        one_chunk = aggregated.pop().data
        rows.clear()
        blocks.clear()
        monkeypatch.setattr(spatial_attention, "CHUNK_ROWS", limit)

        def chunked():
            loss = video_loss(model, samples, cfg)
            reached = reachable(loss)
            assert len(blocks) == n * L
            assert all(id(b) in reached for b in blocks[-L:])
            assert not any(id(b) in reached for b in blocks[:-L])
            loss.backward()
            return float(loss.data)

        got, grads = loss_and_grads(model, chunked)
        np.testing.assert_array_equal(aggregated.pop().data, one_chunk)
        assert abs(got - want) <= 1e-12
        for (name, _), g, ref in zip(model.named_parameters(), grads,
                                     want_grads):
            np.testing.assert_allclose(g, ref, rtol=0, atol=1e-12,
                                       err_msg=name)
        assert len(rows) == 2 * n - 1 and len(blocks) == (2 * n - 1) * L
        for i in range(n - 1):
            (again, freed), (first, _) = rows[n + i], rows[i]
            np.testing.assert_array_equal(again.data, first.data)
            # the kept last chunk's nodes and those of every chunk rebuilt
            # before this one
            done = list(range((n - 1) * L, (n + i) * L))
            assert all(freed[j] for j in done)


@pytest.mark.parametrize("cfg, count", [
    (ModelConfig(feature_dim=16, num_classes=2, K=3, group_layers=2,
                 group_heads=4, temporal_heads=4, num_standard_layers=2,
                 num_strided_layers=3), 132),
    (ModelConfig(feature_dim=16, num_classes=2), 254)],
    ids=["toy", "default"])
def test_every_parameter_is_trained(cfg, count):
    """One video_loss and backward on two synthetic videos, for the
    criterion-6 model and the default one: every named parameter's largest
    |gradient| exceeds 1e-10 times the largest of all, so the model holds
    no weight that cannot change its loss."""
    samples = [prepare_sample(record, feats, cfg.K) for record, feats
               in synthetic_videos(SyntheticSpec(seed=3, num_videos=2))]
    model = SubjectPriorDetector(cfg, np.random.default_rng(0))
    video_loss(model, samples, TrainConfig()).backward()
    largest = {name: 0.0 if p.grad is None else float(np.abs(p.grad).max())
               for name, p in model.named_parameters()}
    assert len(largest) == count
    floor = 1e-10 * max(largest.values())
    assert [name for name, g in largest.items() if not g > floor] == []
