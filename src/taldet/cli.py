"""Command-line entry points: synth / train / eval / infer / gradcheck /
profile.

Config files are plain `key = value` lines. The keys are the fields of
ModelConfig, TrainConfig and InferConfig; an unknown or repeated key, a
value of the wrong type or a non-finite float is a validation error. Each
key is also a flag, `--key-with-dashes value`, which overrides the file and
is checked the same way.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import typing
from pathlib import Path

import numpy as np

from .checksuite import end_to_end_grad_check, primitive_grad_checks
from .dataio import (FormatError, SyntheticSpec, ValidationError,
                     generate_synthetic, parse_scalar, read_annotations,
                     read_checkpoint, read_detections, read_features,
                     write_detections)
from .metrics import THUMOS_GRID, evaluate
from .model import ModelConfig, SubjectPriorDetector, prepare_sample
from .postprocess import InferConfig, decode, soft_nms
from .profile import profile
from .training import (NumericalAbort, TrainConfig, fit, load_into_model)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

# every accepted settings key and its type: the config dataclasses' fields
SETTING_TYPES = {key: want for cls in (ModelConfig, TrainConfig, InferConfig)
                 for key, want in typing.get_type_hints(cls).items()}


def parse_config_file(path) -> dict:
    """`key = value` lines, each key on one line only; '#' starts a
    comment."""
    out, lines = {}, {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key = value")
        key, val = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key in lines:
            raise ValidationError(f"{path}:{lineno}: key {key!r} is also set "
                                  f"on line {lines[key]}")
        out[key], lines[key] = val, lineno
    return out


def _coerce(val: str):
    low = val.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(val)
        except ValueError:
            continue
    return val


def _check_setting(key: str, value):
    if key not in SETTING_TYPES:
        raise ValidationError(f"unknown setting {key!r}; accepted: "
                              f"{', '.join(sorted(SETTING_TYPES))}")
    try:
        return parse_scalar(SETTING_TYPES[key], value)
    except ValueError as e:
        raise ValidationError(f"setting {key} = {e}") from None


def gather_settings(args) -> dict:
    """The config file's settings, overridden by the flags given; every
    value, from either, is coerced and checked the same way."""
    settings = parse_config_file(args.config) if args.config else {}
    settings.update({k: getattr(args, k) for k in SETTING_TYPES
                     if getattr(args, k) is not None})
    return {k: _check_setting(k, _coerce(v)) for k, v in settings.items()}


def config_from(cls, settings: dict):
    """An instance of dataclass `cls` from the settings naming its fields;
    the rest of its fields keep their defaults."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in settings.items() if k in names})


def load_dataset(data_dir):
    """The records of a data directory and the path of each one's feature
    file; the grids are read one at a time by build_model_and_samples."""
    data_dir = Path(data_dir)
    path = data_dir / "annotations.jsonl"
    records = read_annotations(path)
    if not records:
        raise ValidationError(f"{path}: no records")
    return records, [data_dir / "features" / f"{r.id}.ptfv" for r in records]


def build_model_and_samples(records, paths, settings):
    """The model (D from the settings, else from the first feature file;
    classes from the settings, else from the annotations) and one pooled
    sample per record. Each record's grid is read, checked against the
    model's D and classes, pooled and let go before the next is read, so
    one grid at most is alive at a time."""
    from_data = {
        "num_classes": 1 + max((s.class_id for r in records
                                for s in r.segments), default=0),
    }
    model_cfg, samples = None, []
    for r, path in zip(records, paths):
        feats = read_features(path)
        d = feats.shape[-1]
        if model_cfg is None:
            model_cfg = config_from(ModelConfig, from_data
                                    | {"feature_dim": d} | settings)
        if d != model_cfg.feature_dim:
            raise ValidationError(f"record {r.id}: its features have D = {d} "
                                  f"but feature_dim = {model_cfg.feature_dim}")
        for s in r.segments:
            if s.class_id >= model_cfg.num_classes:
                raise ValidationError(
                    f"record {r.id}: class id {s.class_id} >= num_classes = "
                    f"{model_cfg.num_classes}")
        samples.append(prepare_sample(r, feats, model_cfg.K))
        del feats   # before the next grid is read
    rng = np.random.default_rng(settings.get("seed", TrainConfig.seed))
    return SubjectPriorDetector(model_cfg, rng), samples


def cmd_synth(args):
    spec = SyntheticSpec(seed=args.seed, num_videos=args.videos,
                         num_classes=args.classes, noise=args.noise)
    generate_synthetic(spec, args.out)
    print(f"wrote {spec.num_videos} videos to {args.out}")
    return EXIT_OK


def cmd_train(args):
    settings = gather_settings(args)
    # train and infer read one config, so each command checks all of it
    train_cfg, _ = (config_from(c, settings) for c in (TrainConfig, InferConfig))
    records, paths = load_dataset(args.data)
    model, samples = build_model_and_samples(records, paths, settings)
    result = fit(model, samples, train_cfg, out_dir=args.out)
    print(f"final loss {result.loss_log[-1]['mean_loss']:.6f}; "
          f"checkpoint at {result.checkpoint_path}")
    return EXIT_OK


def cmd_infer(args):
    settings = gather_settings(args)
    _, cfg = (config_from(c, settings) for c in (TrainConfig, InferConfig))
    records, paths = load_dataset(args.data)
    model, samples = build_model_and_samples(records, paths, settings)
    entries = read_checkpoint(args.checkpoint)
    try:
        load_into_model(model, entries, use_ema=args.ema)
    except ValueError as e:   # a checkpoint of another model
        raise ValidationError(f"{args.checkpoint}: {e}") from None
    # no parameter requires a gradient, so the forward builds no graph
    for p in model.parameters():
        p.requires_grad = False
    dets = {}
    for sample in samples:
        record = sample.record
        cands = decode(model(sample), record, cfg.score_threshold,
                       cfg.pre_nms_topk)
        dets[record.id] = soft_nms(cands, cfg.sigma, keep=cfg.post_nms_keep)
    out_path = Path(args.out) / "detections.jsonl"
    Path(args.out).mkdir(parents=True, exist_ok=True)
    write_detections(out_path, dets)
    print(f"wrote detections for {len(dets)} videos to {out_path}")
    return EXIT_OK


def cmd_eval(args):
    records = read_annotations(Path(args.data) / "annotations.jsonl")
    dets = read_detections(args.detections)
    gts = {r.id: r.segments for r in records}
    report = evaluate(dets, gts, thresholds=args.thresholds or THUMOS_GRID)
    print(report.table())
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        with open(Path(args.out) / "report.jsonl", "w") as fh:
            for thr, v in sorted(report.per_threshold_map.items()):
                fh.write(json.dumps({"tiou": thr, "map": v}) + "\n")
            fh.write(json.dumps({"average_map": report.average_map}) + "\n")
    return EXIT_OK


def cmd_gradcheck(args):
    rows = [(name, err, 1e-6)
            for name, err in primitive_grad_checks(seed=args.seed).items()]
    rows.append(("end_to_end_loss", end_to_end_grad_check(seed=args.seed),
                 1e-4))
    width = max(len(name) for name, _, _ in rows)
    for name, err, bound in rows:
        print(f"{name:<{width}} max rel err {err:.3e}  "
              f"[{'ok' if err < bound else 'FAIL'}]")
    ok = all(err < bound for _, err, bound in rows)
    return EXIT_OK if ok else EXIT_NUMERICAL


def cmd_profile(args):
    result = profile(args.snippets, args.feature_dim, args.batch)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    step = result["train_step"]
    print(f"forward {result['forward']['seconds']:.3f} s, "
          f"{result['forward']['peak_mb']:.1f} MB; train step "
          f"{step['loss_seconds']:.3f} + {step['backward_seconds']:.3f} s, "
          f"{step['peak_mb']:.1f} MB ({step['graph_mb']:.1f} MB of graph); "
          f"written to {out}")
    return EXIT_OK


def _add_common(p):
    """--config, --out, and one flag per setting; a flag's raw string goes
    through the same checks as a config-file value."""
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="out")
    for key, want in SETTING_TYPES.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key,
                       metavar=want.__name__)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="taldet")
    sub = ap.add_subparsers(dest="command", required=True)
    # no abbreviations: a prefix such as --lr would be a hidden second name
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--videos", type=int, default=8)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--noise", type=float, default=0.0)
    p.set_defaults(func=cmd_synth)

    p = add("train", help="train on a dataset directory")
    p.add_argument("--data", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = add("infer", help="decode detections from a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--ema", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_infer)

    p = add("eval", help="score detections against annotations")
    p.add_argument("--data", required=True)
    p.add_argument("--detections", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--thresholds", type=float, nargs="*", default=None)
    p.set_defaults(func=cmd_eval)

    p = add("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = add("profile", help="time and trace the memory of one training "
                            "step on synthetic videos")
    p.add_argument("--snippets", type=int, required=True)
    p.add_argument("--feature-dim", type=int, required=True)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_profile)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, FormatError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalAbort as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
