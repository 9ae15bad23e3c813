import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiocap import encoder as enc
from audiocap import nn
from audiocap.frontend import PatchSequence
from conftest import random_patches


def make_encoder(seed=0, max_time_patches=16):
    cfg = enc.EncoderConfig(d_enc=32, layers=2, heads=2, ffn_mult=2,
                            max_time_patches=max_time_patches)
    return enc.PatchEncoder(cfg, nn.rng_from_seed(seed), 256, 4)


class TestContract:
    @given(st.integers(1, 12))
    @settings(max_examples=12, deadline=None)
    def test_one_token_per_patch(self, tp):
        model = make_encoder()
        out = model(random_patches(tp, time_patches=tp))
        assert out.data.shape == (tp * 4, 32)
        assert np.all(np.isfinite(out.data))

    def test_too_long(self):
        model = make_encoder(max_time_patches=4)
        with pytest.raises(enc.TooLong):
            model(random_patches(0, time_patches=5))

    def test_empty_input(self):
        model = make_encoder()
        with pytest.raises(enc.EmptyInput):
            model(PatchSequence(patches=np.zeros((0, 256)), grid=(0, 4)))

    def test_config_divisibility(self):
        with pytest.raises(ValueError):
            enc.EncoderConfig(d_enc=30, heads=4)


class TestBehaviour:
    def test_deterministic(self):
        p = random_patches(3, time_patches=2)
        a = make_encoder(seed=5)(p).data
        b = make_encoder(seed=5)(p).data
        assert np.array_equal(a, b)

    def test_seed_changes_weights(self):
        p = random_patches(3, time_patches=2)
        a = make_encoder(seed=5)(p).data
        b = make_encoder(seed=6)(p).data
        assert not np.array_equal(a, b)

    def test_truncating_input_changes_outputs(self):
        # bidirectional stack: every token sees the whole sequence
        model = make_encoder()
        full = random_patches(4, time_patches=4)
        short = PatchSequence(patches=full.patches[:8], grid=(2, 4))
        out_full = model(full).data
        out_short = model(short).data
        assert out_short.shape == (8, 32)
        assert not np.allclose(out_full[:8], out_short)

    def test_position_embeddings_distinguish_identical_patches(self):
        model = make_encoder()
        patches = np.tile(np.ones((1, 256)), (8, 1))
        out = model(PatchSequence(patches=patches, grid=(2, 4))).data
        assert not np.allclose(out[0], out[4])  # different time patch
        assert not np.allclose(out[0], out[1])  # different freq patch

    def test_feature_stats_standardize(self):
        model = make_encoder()
        p = random_patches(9, time_patches=2)
        shifted = PatchSequence(patches=p.patches * 3.0 + 7.0, grid=p.grid)
        base = model(p).data
        model.set_feature_stats(7.0, 3.0)
        standardized = model(shifted).data
        assert np.allclose(base, standardized, atol=1e-5)

    def test_zero_std_guard(self):
        model = make_encoder()
        model.set_feature_stats(0.0, 0.0)
        assert model.feat_std == 1.0

    def test_gradients_reach_all_parameters(self):
        model = make_encoder()
        out = model(random_patches(1, time_patches=1))
        nn.tsum(out * out).backward()
        for name, p in model.named_parameters().items():
            if name == "time_pos":
                assert p.grad is not None and np.any(p.grad[:1])
            else:
                assert p.grad is not None, name
