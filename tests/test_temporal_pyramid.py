import numpy as np
from hypothesis import given, settings, strategies as st

from taldet.autograd import Parameter, Tensor, grad_check, window_tables
from taldet.model import ModelConfig
from taldet.nn import MultiHeadSelfAttention
from taldet.temporal_pyramid import PyramidBuilder, TemporalLayer

D = 8


def expected_level_lengths(T: int, alpha: int, num_levels: int) -> list[int]:
    """The ceil recurrence the pyramid must satisfy."""
    out = [T]
    for _ in range(num_levels - 1):
        out.append(-(-out[-1] // alpha))
    return out


def small_cfg(**kw):
    defaults = dict(feature_dim=D, num_classes=1, temporal_heads=2,
                    window_size=3, num_standard_layers=1,
                    num_strided_layers=2, alpha=2)
    defaults.update(kw)
    return ModelConfig(**defaults)


class TestWindowedMhsa:
    """Attention over window tables, as TemporalLayer applies it."""

    def test_window_covering_everything_equals_full_attention(self):
        rng = np.random.default_rng(0)
        attn = MultiHeadSelfAttention(rng, D, 2)
        x = Tensor(rng.normal(size=(5, D)))
        windowed = attn(x, allowed=window_tables(5, 2 * 5 - 1))
        full = attn(x, allowed=np.ones((5, 5), dtype=bool))
        np.testing.assert_allclose(windowed.data, full.data, atol=1e-12)

    def test_window_one_is_self_only(self):
        rng = np.random.default_rng(1)
        attn = MultiHeadSelfAttention(rng, D, 1)
        x = rng.normal(size=(4, D))
        out = attn(Tensor(x), allowed=window_tables(4, 1)).data
        # softmax over one element is 1: output is the per-row V->O path
        v = x @ attn.wv.w.data + attn.wv.b.data
        expected = v @ attn.wo.w.data + attn.wo.b.data
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_matches_banded_mask_oracle(self):
        rng = np.random.default_rng(2)
        layer = TemporalLayer(rng, small_cfg(window_size=3), alpha=1)
        x = Tensor(rng.normal(size=(5, D)))
        idx = np.arange(5)
        band = np.abs(idx[:, None] - idx[None, :]) <= 1
        out = layer(x)
        oracle = layer.block(x, band)
        np.testing.assert_allclose(out.data, oracle.data, atol=1e-12)


class TestTemporalLayer:
    def test_alpha_one_preserves_length(self):
        rng = np.random.default_rng(3)
        layer = TemporalLayer(rng, small_cfg(), alpha=1)
        x = Tensor(rng.normal(size=(7, D)))
        out = layer(x)
        assert out.shape == (7, D)

    def test_alpha_two_halves_length(self):
        rng = np.random.default_rng(4)
        layer = TemporalLayer(rng, small_cfg(), alpha=2)
        x = Tensor(rng.normal(size=(64, D)))
        out = layer(x)
        assert out.shape == (32, D)

    def test_zero_weights_alpha_one_residual_identity(self):
        rng = np.random.default_rng(5)
        layer = TemporalLayer(rng, small_cfg(), alpha=1)
        layer.block.attn.wo.w.data[:] = 0.0
        layer.block.attn.wo.b.data[:] = 0.0
        layer.block.ffn.fc2.w.data[:] = 0.0
        layer.block.ffn.fc2.b.data[:] = 0.0
        x = rng.normal(size=(6, D))
        out = layer(Tensor(x))
        np.testing.assert_allclose(out.data, x, atol=1e-12)


class TestBuildPyramid:
    def test_default_lengths_from_64(self):
        cfg = small_cfg(window_size=9, num_standard_layers=2,
                        num_strided_layers=5)
        builder = PyramidBuilder(cfg, np.random.default_rng(6))
        pyr = builder(Tensor(np.random.default_rng(7).normal(size=(64, D))))
        assert [lv.features.shape[0] for lv in pyr.levels] == [64, 32, 16, 8, 4, 2]
        assert [lv.stride for lv in pyr.levels] == [1, 2, 4, 8, 16, 32]

    def test_length_one_fixed_point(self):
        cfg = small_cfg(window_size=9, num_standard_layers=2,
                        num_strided_layers=5)
        builder = PyramidBuilder(cfg, np.random.default_rng(8))
        pyr = builder(Tensor(np.random.default_rng(9).normal(size=(1, D))))
        assert [lv.features.shape[0] for lv in pyr.levels] == [1] * 6

    def test_ceil_recurrence_oracle_t50(self):
        cfg = small_cfg(num_strided_layers=5)
        builder = PyramidBuilder(cfg, np.random.default_rng(10))
        pyr = builder(Tensor(np.random.default_rng(11).normal(size=(50, D))))
        assert ([lv.features.shape[0] for lv in pyr.levels]
                == expected_level_lengths(50, 2, 6) == [50, 25, 13, 7, 4, 2])

    @given(st.integers(1, 128))
    @settings(max_examples=20, deadline=None)
    def test_shape_law_property(self, T):
        cfg = small_cfg()
        builder = PyramidBuilder(cfg, np.random.default_rng(12))
        pyr = builder(Tensor(np.random.default_rng(13).normal(size=(T, D))))
        assert ([lv.features.shape[0] for lv in pyr.levels]
                == expected_level_lengths(T, cfg.alpha,
                                          1 + cfg.num_strided_layers))

    def test_locality_with_zero_ffn_single_layer(self):
        rng = np.random.default_rng(16)
        layer = TemporalLayer(rng, small_cfg(window_size=3), alpha=1)
        layer.block.ffn.fc2.w.data[:] = 0.0
        layer.block.ffn.fc2.b.data[:] = 0.0
        x = rng.normal(size=(9, D))
        base = layer(Tensor(x))
        bumped = x.copy()
        bumped[8] += 5.0
        out = layer(Tensor(bumped))
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
            pyr = builder(x)
            total = (pyr.levels[0].features * coeffs[0]).sum()
            return total + (pyr.levels[1].features * coeffs[1]).sum()

        params = [x] + builder.parameters()
        assert grad_check(loss, params, h=1e-5, max_coords=3) < 1e-4

    def test_alpha_one_constant_lengths(self):
        cfg = small_cfg(alpha=1, num_strided_layers=3)
        builder = PyramidBuilder(cfg, np.random.default_rng(18))
        pyr = builder(Tensor(np.random.default_rng(19).normal(size=(12, D))))
        assert [lv.features.shape[0] for lv in pyr.levels] == [12] * 4
        assert [lv.stride for lv in pyr.levels] == [1] * 4
