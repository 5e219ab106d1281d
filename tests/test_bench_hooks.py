"""The benchmark tracer (perfbench/tracer.py) wraps taldet names from outside,
and its workloads (perfbench/workloads.py) build inputs with taldet's own
types; these checks fail when a rename or a signature change would leave a
hook point dangling or break the benchmark's imports."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from taldet import cli, training  # noqa: E402
from taldet.dataio import AnnotationRecord  # noqa: E402
from taldet.heads import GroundTruthSegment  # noqa: E402
from taldet.model import (ModelConfig, SubjectPriorDetector,  # noqa: E402
                          prepare_sample)
from taldet.subjects import SubjectBox  # noqa: E402
from taldet.temporal_pyramid import PyramidBuilder  # noqa: E402


def test_every_target_is_defined_on_its_owner():
    missing = [f"{getattr(t.owner, '__name__', t.owner)}.{t.attr}"
               for t in tracer.layer_targets() if t.attr not in vars(t.owner)]
    assert not missing


def test_temporal_layers_expose_span_names_and_window():
    cfg = ModelConfig(feature_dim=8, num_classes=1, temporal_heads=2,
                      window_size=5, num_standard_layers=2,
                      num_strided_layers=3)
    builder = PyramidBuilder(cfg, np.random.default_rng(0))
    spans = [tracer.temporal_layer_span((layer,))
             for layer in builder.standard + builder.strided]
    assert spans == ["temporal_pyramid.std0", "temporal_pyramid.std1",
                     "temporal_pyramid.strided0", "temporal_pyramid.strided1",
                     "temporal_pyramid.strided2"]
    assert all(layer.window_size == 5
               for layer in builder.standard + builder.strided)


def tiny_model_and_sample():
    cfg = ModelConfig(feature_dim=8, num_classes=2, K=2, group_layers=1,
                      group_heads=2, temporal_heads=2, window_size=3,
                      num_standard_layers=1, num_strided_layers=2,
                      head_layers=1)
    rng = np.random.default_rng(0)
    boxes = [[SubjectBox(4.0, 4.0, 40.0, 30.0)] for _ in range(12)]
    record = AnnotationRecord("v", 8.0, 64, 48, 1,
                              [GroundTruthSegment(1, 0.25, 0.75)], boxes)
    sample = prepare_sample(record, rng.normal(size=(12, 3, 4, 8)), cfg.K)
    return SubjectPriorDetector(cfg, rng), sample


def test_traced_training_step_records_every_layer():
    model, sample = tiny_model_and_sample()
    t = tracer.Tracer()
    with t.installed(tracer.layer_targets()):
        training.video_loss(model, sample, training.TrainConfig()).backward()
    spans = {name for name, *_ in t.spans}
    assert {"spatial_attention.aggregate", "temporal_pyramid.std0",
            "temporal_pyramid.strided0", "heads.towers",
            "autograd.backward"} <= spans
    for key in ("temporal_pyramid.band_cells", "spatial_attention.tokens",
                "autograd.nodes", "heads.positives"):
        assert t.counts[key] > 0, key


def test_traced_fit_records_the_optimizer():
    # the benchmark's training.optimizer time is these three calls per step
    model, sample = tiny_model_and_sample()
    t = tracer.Tracer()
    with t.installed(tracer.layer_targets()):
        training.fit(model, [sample, sample],
                     training.TrainConfig(epochs=1, warmup_epochs=0,
                                          batch_size=1))
    names = [name for name, *_ in t.spans]
    assert names.count("training.optimizer") == 2 * 3
    assert names.count("training.video_loss") == 2


def test_traced_infer_and_eval_record_post_processing(tmp_path):
    data, run = tmp_path / "data", tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("K = 2\ngroup_layers = 1\ngroup_heads = 2\n"
                   "temporal_heads = 2\nwindow_size = 3\n"
                   "num_standard_layers = 1\nnum_strided_layers = 2\n"
                   "epochs = 1\nwarmup_epochs = 0\n")
    common = ["--data", str(data), "--config", str(cfg), "--out", str(run)]
    assert cli.main(["synth", "--out", str(data), "--videos", "2"]) == 0
    assert cli.main(["train", *common]) == 0
    t = tracer.Tracer()
    with t.installed(tracer.layer_targets()):
        assert cli.main(["infer", "--checkpoint", str(run / "checkpoint.ptck"),
                         *common]) == 0
        assert cli.main(["eval", "--data", str(data), "--detections",
                         str(run / "detections.jsonl")]) == 0
    spans = {name for name, *_ in t.spans}
    assert {"postprocess.decode", "postprocess.soft_nms",
            "metrics.evaluate"} <= spans
    for key in ("postprocess.candidates", "postprocess.kept",
                "metrics.match_pairs"):
        assert t.counts[key] > 0, key


def test_reading_and_pooling_stay_in_set_up(tmp_path):
    # the benchmark counts the time of the set-up spans as setup_s and the
    # rest as work_s: every grid read and every pooling must run inside one
    data = tmp_path / "data"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("K = 2\ngroup_layers = 1\ngroup_heads = 2\n"
                   "temporal_heads = 2\nwindow_size = 3\n"
                   "num_standard_layers = 1\nnum_strided_layers = 2\n"
                   "epochs = 1\nwarmup_epochs = 0\n")
    assert cli.main(["synth", "--out", str(data), "--videos", "2"]) == 0
    t = tracer.Tracer()
    with t.installed(tracer.layer_targets()):
        assert cli.main(["train", "--data", str(data), "--config", str(cfg),
                         "--out", str(tmp_path / "run")]) == 0
    setup = {"setup.load_dataset", "setup.build_model"}

    def in_setup(parent):
        while parent is not None and t.spans[parent][0] not in setup:
            parent = t.spans[parent][3]
        return parent is not None

    inner = [(name, parent) for name, _, _, parent, _ in t.spans
             if name in ("dataio.read_features", "model.prepare_sample")]
    assert len(inner) == 4
    assert all(in_setup(parent) for _, parent in inner), inner


def test_workloads_prepare_their_inputs(tmp_path):
    # the benchmark writes its inputs with taldet's writers and records,
    # then checks infer's output by reading them back
    for name, workload in workloads.WORKLOADS.items():
        commands = workloads.prepare(workload, 1, tmp_path / name)
        assert [c["label"] for c in commands][:3] == ["train", "infer",
                                                      "eval"]
    data = tmp_path / "long" / "data" / "eval_set"
    errors, _ = workloads.check_infer(
        {"data": data, "detections": data / "detections.jsonl"})
    assert errors == []
