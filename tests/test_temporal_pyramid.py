import numpy as np
from hypothesis import given, settings, strategies as st

from oracles import band_mask, composed_block
from taldet import temporal_pyramid
from taldet.autograd import Parameter, Tensor, grad_check, window_tables
from taldet.model import ModelConfig
from taldet.nn import PreNormBlock
from taldet.temporal_pyramid import PyramidBuilder, TemporalLayer

D = 8


def expected_level_lengths(T: int, alpha: int, num_levels: int) -> list[int]:
    """The ceil recurrence the pyramid must satisfy."""
    out = [T]
    for _ in range(num_levels - 1):
        out.append(-(-out[-1] // alpha))
    return out


def run_layer(layer, x, T):
    """A TemporalLayer over one video of T rows, with its Window."""
    return layer(x, np.array([T]), window_tables([T], layer.window_size))


def small_cfg(**kw):
    defaults = dict(feature_dim=D, num_classes=1, temporal_heads=2,
                    window_size=3, num_standard_layers=1,
                    num_strided_layers=2, alpha=2)
    defaults.update(kw)
    return ModelConfig(**defaults)


class TestWindowedMhsa:
    """A block over window tables, as TemporalLayer applies it, against the
    oracle composition under the dense band mask."""

    def test_window_covering_everything_equals_full_attention(self):
        rng = np.random.default_rng(0)
        block = PreNormBlock(rng, D, 2)
        x = Tensor(rng.normal(size=(5, D)))
        windowed = block(x, window_tables([5], 2 * 5 - 1))
        full = composed_block(block, x, np.ones((5, 5), dtype=bool))
        np.testing.assert_allclose(windowed.data, full.data, atol=1e-12)

    def test_window_one_is_self_only(self):
        rng = np.random.default_rng(1)
        block = PreNormBlock(rng, D, 1)
        x = Tensor(rng.normal(size=(4, D)))
        out = block(x, window_tables([4], 1)).data
        self_only = composed_block(block, x, np.eye(4, dtype=bool))
        np.testing.assert_allclose(out, self_only.data, atol=1e-12)

    def test_matches_banded_mask_oracle(self):
        rng = np.random.default_rng(2)
        layer = TemporalLayer(rng, small_cfg(window_size=3), alpha=1)
        x = Tensor(rng.normal(size=(5, D)))
        out, _ = run_layer(layer, x, 5)
        oracle = composed_block(layer.block, x, band_mask([5], 3))
        np.testing.assert_allclose(out.data, oracle.data, atol=1e-12)


class TestTemporalLayer:
    def test_alpha_one_preserves_length(self):
        rng = np.random.default_rng(3)
        layer = TemporalLayer(rng, small_cfg(), alpha=1)
        x = Tensor(rng.normal(size=(7, D)))
        out, lengths = run_layer(layer, x, 7)
        assert out.shape == (7, D) and list(lengths) == [7]

    def test_alpha_two_halves_length(self):
        rng = np.random.default_rng(4)
        layer = TemporalLayer(rng, small_cfg(), alpha=2)
        x = Tensor(rng.normal(size=(64, D)))
        out, lengths = run_layer(layer, x, 64)
        assert out.shape == (32, D) and list(lengths) == [32]

    def test_zero_weights_alpha_one_residual_identity(self):
        rng = np.random.default_rng(5)
        layer = TemporalLayer(rng, small_cfg(), alpha=1)
        layer.block.attn.wo.w.data[:] = 0.0
        layer.block.attn.wo.b.data[:] = 0.0
        layer.block.ffn.fc2.w.data[:] = 0.0
        layer.block.ffn.fc2.b.data[:] = 0.0
        x = rng.normal(size=(6, D))
        out, _ = run_layer(layer, Tensor(x), 6)
        np.testing.assert_allclose(out.data, x, atol=1e-12)


class TestBuildPyramid:
    def test_one_window_per_level(self, monkeypatch):
        # two standard layers and three strided ones attend at three
        # levels: level 0 (both standard layers and strided.0), 1 and 2
        built = []

        def spy(lengths, w):
            built.append(list(lengths))
            return window_tables(lengths, w)

        monkeypatch.setattr(temporal_pyramid, "window_tables", spy)
        cfg = small_cfg(window_size=5, num_standard_layers=2,
                        num_strided_layers=3)
        builder = PyramidBuilder(cfg, np.random.default_rng(6))
        builder(Tensor(np.random.default_rng(7).normal(size=(13, D))),
                [9, 4])
        assert built == [[9, 4], [5, 2], [3, 1]]

    def test_default_lengths_from_64(self):
        cfg = small_cfg(window_size=9, num_standard_layers=2,
                        num_strided_layers=5)
        builder = PyramidBuilder(cfg, np.random.default_rng(6))
        pyr = builder(Tensor(np.random.default_rng(7).normal(size=(64, D))),
                      [64])
        assert list(pyr.lengths) == [64, 32, 16, 8, 4, 2]
        assert list(pyr.strides) == [1, 2, 4, 8, 16, 32]

    def test_length_one_fixed_point(self):
        cfg = small_cfg(window_size=9, num_standard_layers=2,
                        num_strided_layers=5)
        builder = PyramidBuilder(cfg, np.random.default_rng(8))
        pyr = builder(Tensor(np.random.default_rng(9).normal(size=(1, D))),
                      [1])
        assert list(pyr.lengths) == [1] * 6

    def test_ceil_recurrence_oracle_t50(self):
        cfg = small_cfg(num_strided_layers=5)
        builder = PyramidBuilder(cfg, np.random.default_rng(10))
        pyr = builder(Tensor(np.random.default_rng(11).normal(size=(50, D))),
                      [50])
        assert (list(pyr.lengths)
                == expected_level_lengths(50, 2, 6) == [50, 25, 13, 7, 4, 2])

    @given(st.integers(1, 128))
    @settings(max_examples=20, deadline=None)
    def test_shape_law_property(self, T):
        cfg = small_cfg()
        builder = PyramidBuilder(cfg, np.random.default_rng(12))
        pyr = builder(Tensor(np.random.default_rng(13).normal(size=(T, D))),
                      [T])
        assert (list(pyr.lengths)
                == expected_level_lengths(T, cfg.alpha,
                                          1 + cfg.num_strided_layers))

    def test_locality_with_zero_ffn_single_layer(self):
        rng = np.random.default_rng(16)
        layer = TemporalLayer(rng, small_cfg(window_size=3), alpha=1)
        layer.block.ffn.fc2.w.data[:] = 0.0
        layer.block.ffn.fc2.b.data[:] = 0.0
        x = rng.normal(size=(9, D))
        base, _ = run_layer(layer, Tensor(x), 9)
        bumped = x.copy()
        bumped[8] += 5.0
        out, _ = run_layer(layer, Tensor(bumped), 9)
        # positions farther than (window_size-1)/2 = 1 from the bump unchanged
        np.testing.assert_allclose(out.data[:7], base.data[:7], atol=1e-12)
        assert np.abs(out.data[7:] - base.data[7:]).max() > 1e-6

    def test_gradient_through_pyramid(self):
        cfg = small_cfg(num_standard_layers=1, num_strided_layers=1)
        rng = np.random.default_rng(17)
        builder = PyramidBuilder(cfg, rng)
        x = Parameter(rng.normal(size=(8, D)), "x")
        coeffs = [rng.normal(size=(8, D)), rng.normal(size=(4, D))]

        def loss():
            pyr = builder(x, [8])
            return (pyr.features * np.concatenate(coeffs)).sum()

        params = [x] + builder.parameters()
        assert grad_check(loss, params, h=1e-5, max_coords=3) < 1e-4

    def test_alpha_one_constant_lengths(self):
        cfg = small_cfg(alpha=1, num_strided_layers=3)
        builder = PyramidBuilder(cfg, np.random.default_rng(18))
        pyr = builder(Tensor(np.random.default_rng(19).normal(size=(12, D))),
                      [12])
        assert list(pyr.lengths) == [12] * 4
        assert list(pyr.strides) == [1] * 4
