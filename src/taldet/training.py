"""Adam training loop with linear warm-up, cosine annealing, and EMA weights."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autograd import Parameter
from .dataio import write_checkpoint
from .heads import assign_targets, total_loss
from .model import SubjectPriorDetector, VideoSample


class NumericalAbort(RuntimeError):
    """Training hit a non-finite loss or gradient norm; carries step
    diagnostics."""


@dataclass(frozen=True)
class TrainConfig:
    """Every training setting. In the paper's notation, `lam` is the
    weight lambda of the GIoU term and `strict_positive_only` restricts the
    focal loss to steps inside an action, as Eq. 3 is written; a
    `grad_clip` of 0 turns clipping off."""
    lr_init: float = 1e-4
    epochs: int = 35
    warmup_epochs: int = 5
    batch_size: int = 2
    ema_decay: float = 0.999
    lam: float = 1.0
    grad_clip: float = 1.0
    weight_decay: float = 0.0
    strict_positive_only: bool = False
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ValueError("warmup_epochs must be < epochs")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        for key in ("lr_init", "lam", "grad_clip", "weight_decay", "seed"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0")
        if not 0 <= self.ema_decay <= 1:
            raise ValueError("ema_decay must lie in [0, 1]")


def lr_schedule(step: int, total_steps: int, warmup_steps: int,
                lr_init: float) -> float:
    """Linear warm-up to lr_init, then cosine annealing to 0."""
    if not 0 <= step <= total_steps:
        raise ValueError("step out of range")
    if warmup_steps > 0 and step < warmup_steps:
        return lr_init * step / warmup_steps
    denom = max(total_steps - warmup_steps, 1)
    progress = (step - warmup_steps) / denom
    return lr_init * 0.5 * (1.0 + math.cos(math.pi * progress))


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class FlatParameters:
    """The parameters moved into one float64 weight buffer `data` and one
    gradient buffer `grad` (after FSDP's FlatParameter, arXiv 2304.11277):
    each Parameter's `.data` and `.grad` are views of its slice, so backward
    adds into `grad` in place and a whole-model update is one vector op."""

    def __init__(self, params: list[Parameter]):
        self.params = params
        self.data = np.concatenate([p.data.ravel() for p in params])
        self.grad = np.zeros_like(self.data)
        for p, data, grad in zip(params, self.views(self.data),
                                 self.views(self.grad)):
            p.data, p.grad = data, grad

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """`flat`, laid out like `data`, as one view per parameter."""
        parts = np.split(flat, np.cumsum([p.data.size for p in self.params]))
        return [a.reshape(p.data.shape) for a, p in zip(parts, self.params)]


# elements an optimizer pass works on at a time: its scratch buffers stay
# this size, small enough to stay in cache, and add little to the resident
# memory the next step's graph is built on
CHUNK = 1 << 15


def _chunks(n: int) -> list[slice]:
    """Slices of at most CHUNK elements covering range(n)."""
    return [slice(lo, lo + CHUNK) for lo in range(0, n, CHUNK)]


class Adam:
    """Adam with bias correction, in place on the weight buffer `data`. The
    step runs chunk by chunk in two `scratch` buffers of at most CHUNK
    elements, allocated once, so that it allocates no array."""

    def __init__(self, data: np.ndarray, grad: np.ndarray, weight_decay=0.0):
        self.data, self.grad = data, grad
        self.weight_decay = weight_decay
        self.m = np.zeros_like(data)
        self.v = np.zeros_like(data)
        n = min(CHUNK, data.size)
        self.scratch = (np.empty(n), np.empty(n))
        self.t = 0

    def step(self, lr: float):
        self.t += 1
        c1, c2 = 1 - BETA1 ** self.t, 1 - BETA2 ** self.t
        for part in _chunks(self.data.size):
            data, g, m, v = (x[part] for x in (self.data, self.grad, self.m,
                                                self.v))
            a, b = (x[:data.size] for x in self.scratch)
            if self.weight_decay:   # g + weight_decay * data
                g = np.add(g, np.multiply(self.weight_decay, data, out=a),
                           out=a)
            m *= BETA1
            m += np.multiply(1 - BETA1, g, out=b)
            v *= BETA2
            np.multiply(1 - BETA2, g, out=b)
            v += np.multiply(b, g, out=b)
            # update = m / c1 * lr / (sqrt(v / c2) + EPS)
            denom = np.sqrt(np.divide(v, c2, out=b), out=b)
            denom += EPS
            update = np.divide(m, c1, out=a)
            update *= lr
            update /= denom
            data -= update


def clip_global_norm(flat: FlatParameters, max_norm: float) -> float:
    """The global gradient L2 norm, one dot product over the whole gradient
    buffer, before clipping it to `max_norm` > 0; a non-finite norm clips
    nothing, for the caller to report."""
    norm = math.sqrt(float(flat.grad @ flat.grad))
    if math.inf > norm > max_norm > 0:
        flat.grad *= max_norm / norm
    return norm


def ema_update(ema: np.ndarray, data: np.ndarray, decay: float,
               scratch: np.ndarray) -> None:
    """ema = decay * ema + (1 - decay) * data, in place, chunk by chunk
    through `scratch`, a buffer of min(CHUNK, ema.size) elements."""
    for part in _chunks(ema.size):
        e = ema[part]
        e *= decay
        e += np.multiply(1 - decay, data[part], out=scratch[:e.size])


@dataclass
class FitResult:
    loss_log: list[dict] = field(default_factory=list)
    checkpoint_path: Path | None = None


def video_loss(model: SubjectPriorDetector, batch, cfg: TrainConfig):
    """The loss of a batch of videos (a VideoSample alone is a batch of one):
    one forward over the videos back to back, the targets of all their
    anchors, and one loss node over them all."""
    samples = [batch] if isinstance(batch, VideoSample) else list(batch)
    outs = model(samples)
    targets = assign_targets(outs, [s.record for s in samples],
                             model.cfg.num_classes)
    return total_loss(outs, targets, lam=cfg.lam,
                      strict_positive_only=cfg.strict_positive_only)


def numerical_abort(what: str, step: int, lr: float,
                    model: SubjectPriorDetector) -> NumericalAbort:
    """The abort for a non-finite `what` at `step`, naming the three
    parameters with the largest nonzero gradient entries by their path."""
    grads = [(g, name) for name, p in model.named_parameters()
             if (g := float(np.abs(p.grad).max())) != 0]
    # NaN does not sort, so it ranks as the largest
    grads.sort(key=lambda t: math.inf if math.isnan(t[0]) else t[0],
               reverse=True)
    largest = ", ".join(f"{name}={g:.3g}" for g, name in grads[:3])
    return NumericalAbort(f"{what} at step {step} (lr={lr:.3g}); "
                          f"largest grads: {largest or 'none yet'}")


def fit(model: SubjectPriorDetector, samples: list[VideoSample],
        cfg: TrainConfig, out_dir=None) -> FitResult:
    """Deterministic training: fixed shuffle order per epoch, one forward
    and one backward per batch over its videos packed back to back, one
    Adam step per batch.
    """
    if not samples:
        raise ValueError("empty training set")
    flat = FlatParameters(model.parameters())
    opt = Adam(flat.data, flat.grad, weight_decay=cfg.weight_decay)
    ema = flat.data.copy()
    ema_scratch = np.empty(min(CHUNK, ema.size))
    rng = np.random.default_rng(cfg.seed)
    steps_per_epoch = math.ceil(len(samples) / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    warmup_steps = cfg.warmup_epochs * steps_per_epoch
    result = FitResult()
    step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(samples))
        epoch_losses = []
        for b in range(steps_per_epoch):
            batch = [samples[i] for i in
                     order[b * cfg.batch_size:(b + 1) * cfg.batch_size]]
            lr = lr_schedule(step, total_steps, warmup_steps, cfg.lr_init)
            loss = video_loss(model, batch, cfg)
            if not np.isfinite(loss.data):
                # the gradient buffer still holds the last step's gradients
                videos = "video" if len(batch) == 1 else "videos"
                ids = ", ".join(s.record.id for s in batch)
                raise numerical_abort(f"non-finite loss on {videos} {ids}",
                                      step, lr, model)
            flat.grad.fill(0)
            loss.backward()
            norm = clip_global_norm(flat, cfg.grad_clip)
            if not math.isfinite(norm):
                raise numerical_abort(f"non-finite gradient norm {norm}",
                                      step, lr, model)
            opt.step(lr)
            ema_update(ema, flat.data, cfg.ema_decay, ema_scratch)
            epoch_losses.append(float(loss.data))
            step += 1
        result.loss_log.append({
            "epoch": epoch,
            "mean_loss": float(np.mean(epoch_losses)),
            "lr": lr_schedule(step, total_steps, warmup_steps, cfg.lr_init),
        })
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        named = [(name, p.data) for name, p in model.named_parameters()]
        named += [("ema/" + name, e) for (name, _), e in
                  zip(model.named_parameters(), flat.views(ema))]
        result.checkpoint_path = out / "checkpoint.ptck"
        write_checkpoint(result.checkpoint_path, named)
        with open(out / "loss_log.jsonl", "w") as fh:
            for row in result.loss_log:
                fh.write(json.dumps(row) + "\n")
    return result


def load_into_model(model: SubjectPriorDetector,
                    entries: list[tuple[str, np.ndarray]],
                    use_ema: bool = False) -> None:
    """Copy the live (or, with `use_ema`, the `ema/`) weights into `model`.
    Every parameter must be present with its shape, and every entry, with
    or without its `ema/` prefix, must name a parameter."""
    prefix = "ema/" if use_ema else ""
    table = {name: arr for name, arr in entries
             if name.startswith(prefix) and (prefix or not name.startswith("ema/"))}
    params = dict(model.named_parameters())
    for name, p in params.items():
        key = prefix + name
        if key not in table:
            raise ValueError(f"checkpoint missing parameter {key}")
        if table[key].shape != p.data.shape:
            raise ValueError(f"shape mismatch for {key}")
    for name, _ in entries:
        if name.removeprefix("ema/") not in params:
            raise ValueError(f"checkpoint entry {name} is not a parameter of "
                             f"the model")
    for name, p in params.items():
        p.data = table[prefix + name].copy()
