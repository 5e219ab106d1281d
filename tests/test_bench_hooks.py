"""The benchmark tracer (perfbench/tracer.py) wraps taldet names from outside;
these checks fail when a rename would leave a hook point dangling."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402
from taldet.model import ModelConfig  # noqa: E402
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
