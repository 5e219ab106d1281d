import dataclasses
import inspect
import json
import re
import shlex
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from taldet import autograd, cli, nn
from taldet.checksuite import end_to_end_grad_check, primitive_grad_checks
from taldet.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION,
                        SETTING_TYPES, _coerce, build_parser, gather_settings,
                        main, parse_config_file)
from taldet.dataio import (read_annotations, read_checkpoint,
                           read_detections, read_features, write_checkpoint,
                           write_features)
from taldet.model import ModelConfig, SubjectPriorDetector
from taldet.postprocess import decode, soft_nms
from taldet.training import FitResult, TrainConfig

README = Path(__file__).resolve().parents[1] / "README.md"


class TestConfigParsing:
    def test_key_value_lines(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("epochs = 3\nlr-init = 0.001  # peak rate\n\n# blank\n")
        assert parse_config_file(p) == {"epochs": "3", "lr_init": "0.001"}

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("epochs 3\n")
        with pytest.raises(ValueError, match=":1:"):
            parse_config_file(p)

    def test_coercion(self):
        assert _coerce("3") == 3
        assert _coerce("0.5") == 0.5
        assert _coerce("true") is True
        assert _coerce("False") is False
        assert _coerce("name") == "name"


SMALL = {"seed": 0, "K": 2, "group_layers": 1, "group_heads": 2,
         "temporal_heads": 2, "window_size": 3, "num_standard_layers": 1,
         "num_strided_layers": 2, "epochs": 3, "warmup_epochs": 1,
         "lr_init": 0.001, "batch_size": 2}


def small_config(**overrides) -> str:
    """The SMALL config file, each override replacing its key's line or
    appended: a config file sets each key once."""
    return "".join(f"{k} = {v}\n" for k, v in (SMALL | overrides).items())


@pytest.fixture()
def dataset(tmp_path):
    data = tmp_path / "data"
    rc = main(["synth", "--out", str(data), "--seed", "5", "--videos", "2"])
    assert rc == EXIT_OK
    cfg = tmp_path / "run.cfg"
    cfg.write_text(small_config())
    return tmp_path, data, cfg


class TestPipeline:
    def test_synth_layout(self, dataset):
        _, data, _ = dataset
        assert (data / "annotations.jsonl").exists()
        assert len(list((data / "features").glob("*.ptfv"))) == 2

    def test_train_infer_eval_round_trip(self, dataset, capsys):
        tmp, data, cfg = dataset
        run = tmp / "run"
        rc = main(["train", "--data", str(data), "--config", str(cfg),
                   "--out", str(run)])
        assert rc == EXIT_OK
        assert (run / "checkpoint.ptck").exists()
        assert (run / "loss_log.jsonl").exists()

        rc = main(["infer", "--data", str(data), "--config", str(cfg),
                   "--checkpoint", str(run / "checkpoint.ptck"),
                   "--out", str(run)])
        assert rc == EXIT_OK
        dets = run / "detections.jsonl"
        assert dets.exists()

        rc = main(["eval", "--data", str(data), "--detections", str(dets),
                   "--out", str(run)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "tIoU" in out and "avg" in out
        report = [json.loads(l) for l in
                  (run / "report.jsonl").read_text().splitlines()]
        assert "average_map" in report[-1]

    def test_global_average_ablation_leg(self, dataset):
        # the README's ablation recipe, leg without aggregator blocks: each
        # snippet's group token is its global average
        tmp, data, cfg = dataset
        cfg.write_text(small_config(group_layers=0))
        run = tmp / "global"
        assert main(["train", "--data", str(data), "--config", str(cfg),
                     "--out", str(run)]) == EXIT_OK
        assert main(["infer", "--data", str(data), "--config", str(cfg),
                     "--checkpoint", str(run / "checkpoint.ptck"),
                     "--out", str(run)]) == EXIT_OK
        assert main(["eval", "--data", str(data), "--detections",
                     str(run / "detections.jsonl"), "--thresholds", "0.5",
                     "--out", str(run)]) == EXIT_OK
        assert (run / "report.jsonl").exists()

    def test_flag_overrides_config(self, dataset):
        tmp, data, cfg = dataset
        rc = main(["train", "--data", str(data), "--config", str(cfg),
                   "--epochs", "2", "--out", str(tmp / "short")])
        assert rc == EXIT_OK
        log = [json.loads(l) for l in
               (tmp / "short" / "loss_log.jsonl").read_text().splitlines()]
        assert log[-1]["epoch"] == 1

    def test_missing_dataset_is_validation_error(self, tmp_path):
        rc = main(["train", "--data", str(tmp_path / "nope")])
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize("command", ["train", "infer"])
    def test_empty_dataset_exits_2_naming_it(self, tmp_path, capsys,
                                             command):
        (tmp_path / "annotations.jsonl").write_text("")
        extra = ["--checkpoint", "x"] if command == "infer" else []
        rc = main([command, "--data", str(tmp_path)] + extra)
        assert rc == EXIT_VALIDATION
        assert "annotations.jsonl: no records" in capsys.readouterr().err

    def test_no_feature_grid_outlives_its_pooling(self, dataset,
                                                  monkeypatch):
        """Every array read_features returned is gone when fit starts, and
        when infer's first forward runs: each grid is let go once pooled."""
        tmp, data, cfg = dataset
        run, grids, alive = tmp / "run", [], []

        def read(path):
            grid = read_features(path)
            grids.append(weakref.ref(grid))
            return grid

        def check_grids(fn):
            def spy(*args, **kwargs):
                alive.append(sum(ref() is not None for ref in grids))
                return fn(*args, **kwargs)
            return spy

        monkeypatch.setattr(cli, "read_features", read)
        monkeypatch.setattr(cli, "fit", check_grids(cli.fit))
        assert main(["train", "--data", str(data), "--config", str(cfg),
                     "--out", str(run)]) == EXIT_OK
        monkeypatch.setattr(SubjectPriorDetector, "__call__",
                            check_grids(SubjectPriorDetector.__call__))
        assert main(["infer", "--data", str(data), "--config", str(cfg),
                     "--checkpoint", str(run / "checkpoint.ptck"),
                     "--out", str(run)]) == EXIT_OK
        assert len(grids) == 4 and alive == [0, 0, 0]

    def test_corrupt_annotations_is_validation_error(self, dataset):
        _, data, cfg = dataset
        ann = data / "annotations.jsonl"
        obj = json.loads(ann.read_text().splitlines()[0])
        obj["surprise"] = 1
        ann.write_text(json.dumps(obj) + "\n")
        rc = main(["train", "--data", str(data), "--config", str(cfg)])
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize("edit, message", [
        # a four-number box used to load with confidence 1.0
        (lambda o: o["boxes"][0][0].pop(), "annotations.jsonl:1: boxes: "),
        (lambda o: o["boxes"][0].insert(0, 3.0),
         "annotations.jsonl:1: boxes: "),
        (lambda o: o.update(fps=0),
         "annotations.jsonl:1: fps = 0.0 is not positive"),
        (lambda o: o.update(boxes=[]), "annotations.jsonl:1: boxes: "),
        (lambda o: o["boxes"].append(o["boxes"][-1]),
         "record {id}: {more} box lists but {T} feature snippets"),
        (lambda o: o.update(frame_width=[64]),
         "annotations.jsonl:1: frame_width: "),
        (lambda o: o.update(segments=[5]), "annotations.jsonl:1: segments: "),
        (lambda o: o.update(segments=[[0, 0.5]]),
         "annotations.jsonl:1: segments: "),
        (lambda o: o.update(id=3), "annotations.jsonl:1: id: 3 is not"),
        # numbers are refused as strings, bools, non-integral or non-finite
        (lambda o: o.update(frame_width="64"),
         "annotations.jsonl:1: frame_width: '64' is not int"),
        (lambda o: o.update(frame_width=64.7),
         "annotations.jsonl:1: frame_width: 64.7 is not int"),
        (lambda o: o.update(snippet_stride=True),
         "annotations.jsonl:1: snippet_stride: True is not int"),
        (lambda o: o["boxes"][0][0].__setitem__(4, float("inf")),
         "annotations.jsonl:1: boxes: inf is not finite"),
    ], ids=["four-number-box", "bare-number-box", "zero-fps", "no-box-lists",
            "box-list-count", "list-for-scalar", "bare-number-segment",
            "two-number-segment", "numeric-id", "string-for-int",
            "non-integral-int", "bool-for-int", "infinite-confidence"])
    def test_malformed_annotation_exits_2_naming_it(self, dataset, capsys,
                                                   edit, message):
        tmp, data, cfg = dataset
        ann = data / "annotations.jsonl"
        objs = [json.loads(line) for line in ann.read_text().splitlines()]
        T = len(objs[0]["boxes"])
        edit(objs[0])
        ann.write_text("".join(json.dumps(o) + "\n" for o in objs))
        rc = main(["train", "--data", str(data), "--config", str(cfg),
                   "--out", str(tmp / "run")])
        assert rc == EXIT_VALIDATION
        assert (message.format(id=objs[0]["id"], more=T + 1, T=T)
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", [
        ["train"], ["infer", "--checkpoint", "unread.ptck"],
        ["eval", "--detections", "unread.jsonl"]])
    def test_repeated_id_exits_2_naming_both_lines(self, dataset, capsys,
                                                   command):
        tmp, data, _ = dataset
        ann = data / "annotations.jsonl"
        first, second = ann.read_text().splitlines()
        # a blank line counts in the numbering
        ann.write_text(f"{first}\n\n{second}\n{first}\n")
        rc = main([*command, "--data", str(data), "--out", str(tmp / "run")])
        assert rc == EXIT_VALIDATION
        assert (f"annotations.jsonl:4: id: 'synth_000' is also the id on "
                f"line 1") in capsys.readouterr().err
        assert not (tmp / "run").exists()

    @pytest.mark.parametrize("axis", range(4))
    def test_zero_dimension_feature_file_exits_2_naming_it(self, dataset,
                                                           capsys, axis):
        tmp, data, cfg = dataset
        path = data / "features" / "synth_000.ptfv"
        shape = list(read_features(path).shape)
        shape[axis] = 0
        write_features(path, np.zeros(shape))
        rc = main(["train", "--data", str(data), "--config", str(cfg),
                   "--out", str(tmp / "run")])
        assert rc == EXIT_VALIDATION
        assert f"{path}: a zero dimension in " in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda o: o.update(score=[0.5]), "score: [0.5] is not float"),
        (lambda o: o.update(video_id=7), "video_id: 7 is not str"),
        (lambda o: o.update(start=o["end"] + 1.0),
         "segment start must precede end"),
        (lambda o: o.update(end=float("inf")), "end: inf is not finite"),
        (lambda o: o.update(start=-float("inf")),
         "start: -inf is not finite"),
        (lambda o: o.update(class_id=True), "class_id: True is not int"),
        (lambda o: o.update(class_id=1.7), "class_id: 1.7 is not int"),
        (lambda o: o.update(score="0.5"), "score: '0.5' is not float"),
        # an object decodes as the tuple of its (key, value) pairs
        (lambda o: o.update(score={"v": 0.5}),
         "score: (('v', 0.5),) is not float"),
        (lambda o: "not json", "invalid record"),
    ], ids=["list-score", "numeric-video-id", "start-after-end",
            "infinite-end", "infinite-start", "bool-class", "fractional-class",
            "string-score", "object-score", "not-json"])
    def test_malformed_detection_exits_2_naming_it(self, dataset, capsys,
                                                  edit, message):
        tmp, data, _ = dataset
        dets = tmp / "detections.jsonl"
        line = {"video_id": "synth_000", "class_id": 0, "score": 0.5,
                "start": 1.0, "end": 2.0}
        good = json.dumps(line)
        edited = edit(line)
        dets.write_text(good + "\n" + (
            edited if isinstance(edited, str) else json.dumps(line)) + "\n")
        rc = main(["eval", "--data", str(data), "--detections", str(dets)])
        assert rc == EXIT_VALIDATION
        assert f"detections.jsonl:2: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, key", [("--classes", "num_classes"),
                                           ("--videos", "num_videos")])
    def test_synth_count_below_one_exits_2(self, tmp_path, capsys, flag,
                                          key):
        rc = main(["synth", "--out", str(tmp_path / "d"), flag, "0"])
        assert rc == EXIT_VALIDATION
        assert f"{key} must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_infer_forward_builds_no_graph(self, dataset, monkeypatch):
        tmp, data, cfg = dataset
        run = tmp / "run"
        assert main(["train", "--data", str(data), "--config", str(cfg),
                     "--out", str(run)]) == EXIT_OK
        outs = []

        def spy(out, *args):
            outs.append(out)
            return decode(out, *args)

        monkeypatch.setattr(cli, "decode", spy)
        assert main(["infer", "--data", str(data), "--config", str(cfg),
                     "--checkpoint", str(run / "checkpoint.ptck"),
                     "--out", str(run)]) == EXIT_OK
        assert len(outs) == 2
        for out in outs:
            assert out.class_logits._parents == () == out.offsets._parents

    def test_infer_writes_the_head_of_the_full_soft_nms(self, dataset,
                                                         monkeypatch):
        # Soft-NMS stops after post_nms_keep picks: the file holds the
        # first picks of the run to exhaustion
        tmp, data, cfg = dataset
        run = tmp / "run"
        assert main(["train", "--data", str(data), "--config", str(cfg),
                     "--out", str(run)]) == EXIT_OK
        cands = []

        def spy(segs, *args, **kwargs):
            cands.append(segs)
            return soft_nms(segs, *args, **kwargs)

        monkeypatch.setattr(cli, "soft_nms", spy)
        assert main(["infer", "--data", str(data), "--config", str(cfg),
                     "--checkpoint", str(run / "checkpoint.ptck"),
                     "--post-nms-keep", "3", "--out", str(run)]) == EXIT_OK
        dets = read_detections(run / "detections.jsonl")
        records = read_annotations(data / "annotations.jsonl")
        full = [soft_nms(segs) for segs in cands]
        assert any(len(f) > 3 for f in full)
        assert [dets.get(r.id, []) for r in records] == [f[:3] for f in full]

    def test_bad_checkpoint_is_validation_error(self, dataset):
        tmp, data, cfg = dataset
        bad = tmp / "bad.ptck"
        bad.write_bytes(b"garbage")
        rc = main(["infer", "--data", str(data), "--config", str(cfg),
                   "--checkpoint", str(bad), "--out", str(tmp / "o")])
        assert rc == EXIT_VALIDATION

    def test_non_finite_checkpoint_names_the_entry(self, dataset, capsys):
        tmp, data, cfg = dataset
        run = tmp / "run"
        assert main(["train", "--data", str(data), "--config", str(cfg),
                     "--out", str(run)]) == EXIT_OK
        entries = read_checkpoint(run / "checkpoint.ptck")
        name, arr = entries[3]
        arr[...] = np.nan
        write_checkpoint(run / "checkpoint.ptck", entries)
        rc = main(["infer", "--data", str(data), "--config", str(cfg),
                   "--checkpoint", str(run / "checkpoint.ptck"),
                   "--out", str(tmp / "dets")])
        assert rc == EXIT_VALIDATION
        assert f"non-finite values in entry {name}" in capsys.readouterr().err
        assert not (tmp / "dets").exists()

    def test_checkpoint_with_extra_layers_exits_2(self, dataset, capsys):
        # a checkpoint of two group layers does not load into a model of one
        tmp, data, cfg = dataset
        run = tmp / "run"
        assert main(["train", "--data", str(data), "--config", str(cfg),
                     "--group-layers", "2", "--out", str(run)]) == EXIT_OK
        rc = main(["infer", "--data", str(data), "--config", str(cfg),
                   "--checkpoint", str(run / "checkpoint.ptck"),
                   "--out", str(tmp / "dets")])
        assert rc == EXIT_VALIDATION
        assert ("checkpoint entry aggregator.blocks.1."
                in capsys.readouterr().err)
        assert not (tmp / "dets").exists()


    @pytest.mark.parametrize("edit, message", [
        (lambda e: e.pop(3), "checkpoint missing parameter {name}"),
        (lambda e: e.__setitem__(3, (e[3][0], e[3][1][..., None])),
         "shape mismatch for {name}"),
        (lambda e: e.append(("extra.w", np.zeros(1))),
         "checkpoint entry extra.w is not a parameter of the model"),
    ], ids=["missing", "shape", "extra"])
    def test_checkpoint_mismatch_exits_2_naming_the_file(self, dataset, capsys,
                                                          edit, message):
        tmp, data, cfg = dataset
        run = tmp / "run"
        assert main(["train", "--data", str(data), "--config", str(cfg),
                     "--out", str(run)]) == EXIT_OK
        ckpt = run / "checkpoint.ptck"
        entries = read_checkpoint(ckpt)
        name = entries[3][0]
        edit(entries)
        write_checkpoint(ckpt, entries)
        rc = main(["infer", "--data", str(data), "--config", str(cfg),
                   "--checkpoint", str(ckpt), "--out", str(tmp / "dets")])
        assert rc == EXIT_VALIDATION
        assert (f"{ckpt}: {message.format(name=name)}"
                in capsys.readouterr().err)
        assert not (tmp / "dets").exists()

    @pytest.mark.parametrize("name, shape", [
        ("aggregator.blocks.0.attn.wk.b", (16,)),
        ("pyramid.standard.0.down.w", (1, 16))], ids=["key-bias", "down"])
    def test_checkpoint_of_the_old_layout_exits_2_naming_it(
            self, dataset, capsys, name, shape):
        # a key bias or a stride-1 down-sampling weight, live and EMA, as
        # checkpoints held them before the model dropped both
        tmp, data, cfg = dataset
        run = tmp / "run"
        assert main(["train", "--data", str(data), "--config", str(cfg),
                     "--out", str(run)]) == EXIT_OK
        ckpt = run / "checkpoint.ptck"
        entries = read_checkpoint(ckpt)
        assert name not in dict(entries)
        entries += [(name, np.zeros(shape)), ("ema/" + name, np.zeros(shape))]
        write_checkpoint(ckpt, entries)
        rc = main(["infer", "--data", str(data), "--config", str(cfg),
                   "--checkpoint", str(ckpt), "--out", str(tmp / "dets")])
        assert rc == EXIT_VALIDATION
        assert (f"{ckpt}: checkpoint entry {name} is not a parameter of the "
                f"model" in capsys.readouterr().err)
        assert not (tmp / "dets").exists()

    @pytest.mark.parametrize("command", ["train", "infer"])
    def test_feature_dim_differing_between_files_exits_2_naming_it(
            self, dataset, capsys, command):
        # D comes from the first file; the second one's D must match it
        tmp, data, cfg = dataset
        path = data / "features" / "synth_001.ptfv"
        write_features(path, read_features(path)[..., :8])
        argv = [command, "--data", str(data), "--config", str(cfg),
                "--out", str(tmp / "run")]
        if command == "infer":
            argv += ["--checkpoint", str(tmp / "unread.ptck")]
        assert main(argv) == EXIT_VALIDATION
        assert ("record synth_001: its features have D = 8 but feature_dim "
                "= 16" in capsys.readouterr().err)
        assert not (tmp / "run").exists()


class TestSettings:
    def test_unknown_key_exits_2(self, dataset, capsys):
        tmp, data, cfg = dataset
        cfg.write_text(small_config(windw_size=5))
        rc = main(["train", "--data", str(data), "--config", str(cfg),
                   "--out", str(tmp / "run")])
        assert rc == EXIT_VALIDATION
        assert "'windw_size'" in capsys.readouterr().err
        assert not (tmp / "run").exists()

    def test_repeated_key_exits_2_naming_both_lines(self, dataset, capsys):
        # an appended override would otherwise silently win
        tmp, data, cfg = dataset
        cfg.write_text(small_config() + "window_size = 5\n")
        rc = main(["train", "--data", str(data), "--config", str(cfg),
                   "--out", str(tmp / "run")])
        assert rc == EXIT_VALIDATION
        assert (f"{cfg}:13: key 'window_size' is also set on line 6"
                in capsys.readouterr().err)
        assert not (tmp / "run").exists()

    def test_wrong_type_exits_2(self, dataset):
        tmp, data, cfg = dataset
        cfg.write_text(small_config(strict_positive_only=1))
        rc = main(["train", "--data", str(data), "--config", str(cfg),
                   "--out", str(tmp / "run")])
        assert rc == EXIT_VALIDATION

    def test_every_key_reaches_the_built_configs(self, dataset, monkeypatch):
        tmp, data, cfg = dataset
        cfg.write_text(small_config(head_layers=1, grad_clip=0.5))
        seen = {}

        def fake_fit(model, samples, train_cfg, out_dir=None):
            seen["model"], seen["train"] = model.cfg, train_cfg
            return FitResult([{"mean_loss": 0.0}])

        monkeypatch.setattr(cli, "fit", fake_fit)
        rc = main(["train", "--data", str(data), "--config", str(cfg),
                   "--out", str(tmp / "run")])
        assert rc == EXIT_OK
        assert seen["model"].head_layers == 1
        assert seen["model"].K == 2
        assert seen["model"].feature_dim == 16
        assert seen["train"].grad_clip == 0.5
        assert seen["train"].epochs == 3

    @pytest.mark.parametrize("bad", [{"window_size": 4}, {"alpha": 0},
                                     {"group_heads": 3},
                                     {"temporal_heads": 5},
                                     {"num_standard_layers": -1},
                                     {"num_strided_layers": -1},
                                     {"head_layers": -1}])
    def test_bad_model_config_rejected(self, dataset, capsys, bad):
        (key, value), = bad.items()
        with pytest.raises(ValueError, match=key):
            ModelConfig(feature_dim=16, num_classes=2, **bad)
        tmp, data, cfg = dataset
        cfg.write_text(small_config(**{key: value}))
        rc = main(["train", "--data", str(data), "--config", str(cfg),
                   "--out", str(tmp / "run")])
        assert rc == EXIT_VALIDATION
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("ema_decay", -0.1), ("ema_decay", 1.5), ("grad_clip", -1.0),
        ("weight_decay", -0.1), ("lam", -1.0), ("lr_init", -1.0),
        ("batch_size", 0)])
    def test_bad_train_config_rejected(self, dataset, capsys, key, value):
        with pytest.raises(ValueError, match=key):
            TrainConfig(**{key: value})
        tmp, data, cfg = dataset
        cfg.write_text(small_config(**{key: value}))
        rc = main(["train", "--data", str(data), "--config", str(cfg),
                   "--out", str(tmp / "run")])
        assert rc == EXIT_VALIDATION
        assert key in capsys.readouterr().err
        assert not (tmp / "run").exists()

    @pytest.mark.parametrize("K", [0, -1])
    def test_k_below_one_exits_2(self, dataset, capsys, K):
        with pytest.raises(ValueError, match="K"):
            ModelConfig(feature_dim=16, num_classes=2, K=K)
        tmp, data, cfg = dataset
        rc = main(["train", "--data", str(data), "--config", str(cfg),
                   "--K", str(K), "--out", str(tmp / "run")])
        assert rc == EXIT_VALIDATION
        assert "K must be >= 1" in capsys.readouterr().err
        assert not (tmp / "run").exists()

    def test_num_classes_below_one_exits_2(self, dataset, capsys):
        with pytest.raises(ValueError, match="num_classes"):
            ModelConfig(feature_dim=16, num_classes=0)
        tmp, data, cfg = dataset
        rc = main(["train", "--data", str(data), "--config", str(cfg),
                   "--num-classes", "0", "--out", str(tmp / "run")])
        assert rc == EXIT_VALIDATION
        assert "num_classes must be >= 1" in capsys.readouterr().err
        assert not (tmp / "run").exists()

    @pytest.mark.parametrize("command", ["train", "infer"])
    def test_class_id_beyond_num_classes_exits_2(self, dataset, capsys,
                                                 command):
        # the seed-5 set annotates classes 0 and 1
        tmp, data, cfg = dataset
        argv = [command, "--data", str(data), "--config", str(cfg),
                "--num-classes", "1", "--out", str(tmp / "run")]
        if command == "infer":
            argv += ["--checkpoint", str(tmp / "unread.ptck")]
        rc = main(argv)
        assert rc == EXIT_VALIDATION
        assert re.search(r"record \S+: class id 1 >= num_classes = 1",
                         capsys.readouterr().err)
        assert not (tmp / "run").exists()

    def test_negative_class_id_exits_2(self, dataset, capsys):
        tmp, data, cfg = dataset
        ann = data / "annotations.jsonl"
        objs = [json.loads(line) for line in ann.read_text().splitlines()]
        objs[0]["segments"][0][0] = -1
        ann.write_text("".join(json.dumps(o) + "\n" for o in objs))
        rc = main(["train", "--data", str(data), "--config", str(cfg),
                   "--out", str(tmp / "run")])
        assert rc == EXIT_VALIDATION
        assert (f"record {objs[0]['id']}: negative class id -1"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command, flags, message", [
        ("train", ["--sigma", "0"], "sigma must be positive"),
        ("infer", ["--ema-decay", "2", "--epochs", "0"],
         "warmup_epochs must be < epochs")], ids=["train", "infer"])
    def test_each_command_checks_the_whole_config(self, dataset, capsys,
                                                  command, flags, message):
        # train and infer read one config: a setting only the other command
        # uses is still checked, before any data file is read
        tmp, data, cfg = dataset
        argv = [command, "--data", str(tmp / "unread"), "--config", str(cfg),
                *flags, "--out", str(tmp / "run")]
        if command == "infer":
            argv += ["--checkpoint", str(tmp / "unread.ptck")]
        rc = main(argv)
        assert rc == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not (tmp / "run").exists()

    @pytest.mark.parametrize("key", ["pre_nms_topk", "post_nms_keep"])
    def test_negative_infer_count_exits_2(self, dataset, capsys, key):
        # settings are checked before the checkpoint is read
        tmp, data, cfg = dataset
        cfg.write_text(small_config(**{key: -1}))
        rc = main(["infer", "--data", str(data), "--config", str(cfg),
                   "--checkpoint", str(tmp / "unread.ptck"),
                   "--out", str(tmp / "dets")])
        assert rc == EXIT_VALIDATION
        assert f"{key} must be >= 0" in capsys.readouterr().err
        assert not (tmp / "dets").exists()

    @pytest.mark.parametrize("sigma", ["0", "-0.5"])
    def test_non_positive_sigma_exits_2(self, dataset, capsys, sigma):
        tmp, data, cfg = dataset
        rc = main(["infer", "--data", str(data), "--config", str(cfg),
                   "--sigma", sigma, "--checkpoint", str(tmp / "unread.ptck"),
                   "--out", str(tmp / "dets")])
        assert rc == EXIT_VALIDATION
        assert "sigma must be positive" in capsys.readouterr().err
        assert not (tmp / "dets").exists()

    @pytest.mark.parametrize("command, key, value", [
        ("infer", "sigma", "nan"), ("infer", "score_threshold", "nan"),
        ("train", "lr_init", "inf")])
    def test_non_finite_float_exits_2(self, dataset, capsys, command, key,
                                      value):
        tmp, data, cfg = dataset
        cfg.write_text(small_config(**{key: value}))
        argv = [command, "--data", str(data), "--config", str(cfg),
                "--out", str(tmp / "run")]
        if command == "infer":
            # settings are checked before the checkpoint is read
            argv += ["--checkpoint", str(tmp / "unread.ptck")]
        rc = main(argv)
        assert rc == EXIT_VALIDATION
        assert (f"setting {key} = {value} is not finite"
                in capsys.readouterr().err)
        assert not (tmp / "run").exists()

    @pytest.mark.parametrize("thr", ["0", "-0.5", "1.5"])
    def test_threshold_outside_unit_interval_exits_2(self, dataset, capsys,
                                                     thr):
        tmp, data, _ = dataset
        dets = tmp / "detections.jsonl"
        dets.write_text("")
        rc = main(["eval", "--data", str(data), "--detections", str(dets),
                   "--thresholds", "0.5", thr, "--out", str(tmp / "ev")])
        assert rc == EXIT_VALIDATION
        assert "(0, 1]" in capsys.readouterr().err
        assert not (tmp / "ev").exists()


# a valid value of each setting type, as it is written on the command line
SAMPLE_VALUE = {int: "3", float: "0.25", bool: "true"}


class TestFlags:
    @pytest.mark.parametrize("key", sorted(SETTING_TYPES))
    def test_flag_equals_config_line(self, tmp_path, key):
        value = SAMPLE_VALUE[SETTING_TYPES[key]]
        cfg = tmp_path / "cfg"
        cfg.write_text(f"{key} = {value}\n")
        parser = build_parser()
        for command in (["train"], ["infer", "--checkpoint", "c.ptck"]):
            argv = command + ["--data", "d"]
            from_flag = parser.parse_args(
                argv + ["--" + key.replace("_", "-"), value])
            from_file = parser.parse_args(argv + ["--config", str(cfg)])
            settings = gather_settings(from_flag)
            assert settings == gather_settings(from_file)
            assert settings == {key: SETTING_TYPES[key](_coerce(value))}

    def test_help_lists_one_flag_per_setting(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        flags = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
        assert flags == {"--help", "--data", "--config", "--out"} | {
            "--" + key.replace("_", "-") for key in SETTING_TYPES}

    def test_bool_flag_is_checked_like_a_config_value(self, dataset, capsys):
        tmp, data, cfg = dataset
        rc = main(["train", "--data", str(data), "--config", str(cfg),
                   "--strict-positive-only", "yes", "--out", str(tmp / "run")])
        assert rc == EXIT_VALIDATION
        assert ("setting strict_positive_only = 'yes' is not bool"
                in capsys.readouterr().err)
        assert not (tmp / "run").exists()

    @pytest.mark.parametrize("flag", ["--lr", "--k", "--l1", "--strict-eq3"])
    def test_prefix_or_old_flag_is_rejected(self, dataset, capsys, flag):
        tmp, data, cfg = dataset
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(data), "--config", str(cfg),
                  flag, "1", "--out", str(tmp / "run")])
        assert exc.value.code == EXIT_VALIDATION
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp / "run").exists()

    def test_readme_commands_parse(self):
        """Every `taldet ...` command in README's code blocks, with its
        backslash-continued lines joined, parses."""
        commands, line, in_block = [], "", False
        for raw in README.read_text().splitlines():
            if raw.lstrip().startswith("```"):
                in_block = not in_block
                continue
            if not in_block:
                continue
            line += raw.rstrip()
            if line.endswith("\\"):
                line = line[:-1] + " "
                continue
            if line.strip().startswith("taldet "):
                commands.append(shlex.split(line)[1:])
            line = ""
        assert len(commands) >= 8
        parser = build_parser()
        for argv in commands:
            parser.parse_args(argv)


class TestProfileCommand:
    def test_writes_the_fixed_schema(self, tmp_path, capsys):
        out = tmp_path / "prof" / "profile.json"
        assert main(["profile", "--snippets", "6", "--feature-dim", "8",
                     "--batch", "2", "--out", str(out)]) == EXIT_OK
        assert "train step" in capsys.readouterr().out
        result = json.loads(out.read_text())
        assert list(result) == ["stamp", "config", "forward", "train_step"]
        assert list(result["stamp"]) == ["cpus", "python", "numpy", "blas",
                                         "blas_threads"]
        config = result["config"]
        assert list(config) == ["snippets", "feature_dim", "batch", "seed",
                                "classes", "boxes_per_snippet", "grid",
                                "packed_rows", "snippets_by_valid_count",
                                "model", "train"]
        assert (config["snippets"], config["feature_dim"],
                config["batch"]) == (6, 8, 2)
        # 12 snippets by valid count 1 to K + 1 = 7, and their rows
        by_count = config["snippets_by_valid_count"]
        assert list(by_count) == [str(c) for c in range(1, 8)]
        assert sum(by_count.values()) == 12
        assert config["packed_rows"] == sum(int(c) * n
                                            for c, n in by_count.items())
        assert config["model"] == dataclasses.asdict(
            ModelConfig(feature_dim=8, num_classes=20))
        assert config["train"] == dataclasses.asdict(TrainConfig())
        assert list(result["forward"]) == ["seconds", "peak_mb"]
        step = result["train_step"]
        assert list(step) == ["loss_seconds", "backward_seconds", "peak_mb",
                              "graph_mb", "op_nodes"]
        assert all(v > 0 for v in [*result["forward"].values(),
                                   *step.values()])
        # the graph the forward keeps is alive at the step's peak
        assert step["graph_mb"] <= step["peak_mb"]
        assert isinstance(step["op_nodes"], int)
        # no checkpoint or other file
        assert sorted(p.name for p in tmp_path.rglob("*")) == [
            "prof", "profile.json"]

    @pytest.mark.parametrize("argv", [["--snippets", "4"],
                                      ["--snippets", "6", "--batch", "0"]])
    def test_too_small_exits_2(self, tmp_path, capsys, argv):
        # the synthetic videos' spec refuses them before any work, naming
        # its field: num_videos for the batch, snippets_min for the length
        assert main(["profile", "--feature-dim", "8", "--out",
                     str(tmp_path / "p.json")] + argv) == EXIT_VALIDATION
        assert ("num_videos must be >= 1" if "--batch" in argv
                else "snippets_min must be >= 5") in capsys.readouterr().err
        assert not (tmp_path / "p.json").exists()


class TestGradcheckCommand:
    def test_passes_and_prints_per_primitive(self, capsys):
        rc = main(["gradcheck", "--seed", "0"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == [
            "window_prenorm_block", "packed_prenorm_block",
            "last_rows_prenorm_block", "conv1d", "conv1d_relu",
            "depthwise_conv1d", "total_loss", "checkpoint",
            "end_to_end_loss"]
        # the error column starts at the same offset on every row
        assert len({line.index(" max rel err ") for line in lines}) == 1
        assert not any("FAIL" in line for line in lines)


def code_key(code):
    return Path(code.co_filename).name, code.co_firstlineno, code.co_name


def test_every_engine_function_runs_in_production(tmp_path):
    """synth, train, infer and eval at a tiny size, then criterion 1's
    gradient checks, run every function, method and closure of autograd.py
    and nn.py but `_freed`, a freed graph's error path: code that only the
    tests call belongs in tests/oracles.py."""
    engine, stack = set(), [compile(Path(m.__file__).read_text(), m.__file__,
                                    "exec") for m in (autograd, nn)]
    while stack:
        code = stack.pop()
        stack += [c for c in code.co_consts if inspect.iscode(c)]
        if code.co_flags & inspect.CO_OPTIMIZED:   # not a module or class body
            engine.add(code_key(code))
    for f in vars(autograd).values():   # build the cached tables afresh
        if hasattr(f, "cache_clear"):
            f.cache_clear()
    data, run, cfg = tmp_path / "data", tmp_path / "run", tmp_path / "cfg"
    cfg.write_text(small_config(epochs=1, warmup_epochs=0))
    ran, common = set(), ["--data", str(data), "--out", str(run)]
    sys.setprofile(lambda frame, event, _: event == "call"
                   and ran.add(code_key(frame.f_code)))
    try:
        assert main(["synth", "--out", str(data), "--videos", "2"]) == EXIT_OK
        for argv in (["train", "--config", str(cfg)],
                     ["infer", "--config", str(cfg), "--checkpoint",
                      str(run / "checkpoint.ptck")],
                     ["eval", "--detections", str(run / "detections.jsonl")]):
            assert main(argv + common) == EXIT_OK
        primitive_grad_checks(probes=1)
        end_to_end_grad_check()
    finally:
        sys.setprofile(None)
    missing = sorted(engine - ran)
    assert [name for *_, name in missing] == ["_freed"], missing
