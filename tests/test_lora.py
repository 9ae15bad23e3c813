import numpy as np
import pytest

from audiocap import lora, nn
from audiocap.lora import LoraConfig, LoraLinear
from audiocap.model import PipelineConfig, build_model
from _grad_check import tsum
from conftest import random_patches, tiny_config, tiny_vocab


def make_linear(d_in=16, d_out=16, seed=0):
    weight = nn.rng_from_seed(seed).normal(0, 0.1, (d_out, d_in)).T
    return nn.Linear.from_weights(weight.astype(np.float32),
                                  np.zeros(d_out, np.float32))


class TestLoraLinear:
    def test_fresh_wrap_is_bit_equal_identity(self):
        layer = make_linear()
        x = nn.Tensor(nn.rng_from_seed(1).normal(0, 1, (20, 16)).astype(np.float32))
        before = layer(x).data.copy()
        wrapped = LoraLinear(layer, 4, 8.0, nn.rng_from_seed(2))
        assert np.array_equal(wrapped(x).data, before)

    def test_merge_matches_adapter_on_100_inputs(self):
        wrapped = LoraLinear(make_linear(), 4, 8.0, nn.rng_from_seed(2))
        r = nn.rng_from_seed(3)
        wrapped.lora_b.data = r.normal(0, 0.05, wrapped.lora_b.data.shape).astype(
            np.float32)
        merged = wrapped.merge()
        x = nn.Tensor(r.normal(0, 1, (100, 16)).astype(np.float32))
        a = wrapped(x).data
        b = merged(x).data
        assert np.allclose(a, b, rtol=1e-5, atol=1e-6)

    def test_merge_copies_bias(self):
        wrapped = LoraLinear(make_linear(), 2, 4.0, nn.rng_from_seed(0))
        merged = wrapped.merge()
        assert np.array_equal(merged.bias.data, wrapped.base.bias.data)
        assert merged.bias.data is not wrapped.base.bias.data

    def test_factor_shapes(self):
        # A is drawn (r, d_in) and stored transposed, as `Linear` stores W
        wrapped = LoraLinear(make_linear(16, 12), 4, 8.0, nn.rng_from_seed(2))
        drawn = nn.rng_from_seed(2).normal(0.0, 0.02, (4, 16)).astype(np.float32)
        assert wrapped.base.weight.shape == (16, 12)
        assert np.array_equal(wrapped.lora_a.data, drawn.T)
        assert wrapped.lora_b.shape == (4, 12) and not wrapped.lora_b.data.any()
        wrapped.lora_b.data = np.ones((4, 12), dtype=np.float32)
        merged = wrapped.merge().weight.data
        assert np.array_equal(merged, wrapped.base.weight.data
                              + 2.0 * (drawn.T @ wrapped.lora_b.data))

    def test_rank_too_large(self):
        with pytest.raises(lora.RankTooLarge):
            LoraLinear(make_linear(8, 8), 9, 8.0, nn.rng_from_seed(0))

    def test_rank_must_be_positive(self):
        with pytest.raises(ValueError):
            LoraLinear(make_linear(), 0, 8.0, nn.rng_from_seed(0))

    def test_wrap_freezes_base(self):
        wrapped = LoraLinear(make_linear(), 2, 4.0, nn.rng_from_seed(0))
        assert not wrapped.base.weight.requires_grad
        assert not wrapped.base.bias.requires_grad
        assert wrapped.lora_a.requires_grad
        assert wrapped.lora_b.requires_grad


class TestAdapterTraining:
    def _train_steps(self, steps):
        wrapped = LoraLinear(make_linear(), 4, 8.0, nn.rng_from_seed(2))
        r = nn.rng_from_seed(5)
        x = nn.Tensor(r.normal(0, 1, (8, 16)).astype(np.float32))
        target = r.normal(0, 1, (8, 16)).astype(np.float32)
        params = {"a": wrapped.lora_a, "b": wrapped.lora_b}
        opt = nn.AdamW(params, lr=1e-2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nn, "WEIGHT_DECAY", 0.0)
            for _ in range(steps):
                opt.zero_grad()
                diff = wrapped(x) + nn.Tensor(-target)
                loss = tsum(diff * diff) * (1.0 / diff.data.size)
                loss.backward()
                opt.step()
        return wrapped

    def test_base_bytes_identical_after_training(self):
        wrapped = LoraLinear(make_linear(), 4, 8.0, nn.rng_from_seed(2))
        w0 = wrapped.base.weight.data.tobytes()
        b0 = wrapped.base.bias.data.tobytes()
        trained = self._train_steps(10)
        assert trained.base.weight.data.tobytes() == w0
        assert trained.base.bias.data.tobytes() == b0
        assert trained.base.weight.grad is None

    def test_down_projection_moves_on_second_step(self):
        # B starts at zero, so dL/dA is exactly zero on the first step; A
        # can only move once B has left the origin
        fresh = LoraLinear(make_linear(), 4, 8.0, nn.rng_from_seed(2))
        a0 = fresh.lora_a.data.copy()
        one = self._train_steps(1)
        assert np.array_equal(one.lora_a.data, a0)
        assert not np.array_equal(one.lora_b.data,
                                  np.zeros_like(one.lora_b.data))
        two = self._train_steps(2)
        assert not np.array_equal(two.lora_a.data, a0)


class TestStrategy:
    def test_unknown_component_is_config_error(self):
        # one mode covers both components: the per-component object that
        # format-3 configs held is refused, whatever it names
        for doc in ({"encoder": "lora", "qformer": "frozen"},
                    {"encoder": "lora", "decoder": "lora"}):
            with pytest.raises(ValueError, match="config strategy: expected str"):
                PipelineConfig.from_dict({"strategy": doc})

    def test_non_string_mode_is_config_error(self):
        with pytest.raises(ValueError, match="config strategy: expected str"):
            PipelineConfig.from_dict({"strategy": 1})

    def test_unknown_mode(self):
        for build in (lambda: PipelineConfig(strategy="adapters"),
                      lambda: PipelineConfig.from_dict({"strategy": "adapters"})):
            with pytest.raises(ValueError, match="strategy 'adapters' is not one of"):
                build()

    def test_frozen_leaves_only_bridge(self):
        cfg = tiny_config(strategy="frozen")
        model = build_model(cfg, tiny_vocab())
        names = set(lora.trainable_parameters(model))
        assert names
        assert all(n.startswith("bridge.") for n in names)

    def test_full_finetune_trains_everything(self):
        cfg = tiny_config(strategy="full_finetune")
        model = build_model(cfg, tiny_vocab())
        params = model.named_parameters()
        assert set(lora.trainable_parameters(model)) == set(params)
        assert not any("lora" in n for n in params)

    def test_lora_wraps_q_and_v_only(self):
        cfg = tiny_config(strategy="lora")
        model = build_model(cfg, tiny_vocab())
        for attn in lora.iter_attention_layers(model.encoder):
            assert isinstance(attn.q, LoraLinear)
            assert isinstance(attn.v, LoraLinear)
            assert isinstance(attn.k, nn.Linear)
            assert isinstance(attn.o, nn.Linear)
        names = set(lora.trainable_parameters(model))
        adapters = {n for n in names if not n.startswith("bridge.")}
        assert adapters
        assert all(n.endswith(("lora_a", "lora_b")) for n in adapters)

    def test_lora_trainable_count(self):
        cfg = tiny_config(strategy="lora")
        model = build_model(cfg, tiny_vocab())
        params = model.named_parameters()
        bridge_count = sum(p.data.size for k, p in params.items()
                           if k.startswith("bridge."))
        n_attn = len(list(lora.iter_attention_layers(model.encoder)))
        n_attn += len(list(lora.iter_attention_layers(model.decoder)))
        rank, d = cfg.lora.rank, 32
        expected = bridge_count + n_attn * 2 * rank * 2 * d
        trainable = lora.trainable_parameters(model).values()
        assert sum(p.data.size for p in trainable) == expected

    def test_lora_model_matches_unwrapped_at_init(self):
        patches = random_patches(7)
        base = build_model(tiny_config(strategy="frozen"), tiny_vocab())
        wrapped = build_model(tiny_config(strategy="lora"), tiny_vocab())
        assert np.array_equal(base.acoustic_tokens(patches).data,
                              wrapped.acoustic_tokens(patches).data)
        # decoding runs the adapted q and v projections without autograd
        for beam in (1, 3):
            assert (wrapped.caption_patches(patches, beam=beam)
                    == base.caption_patches(patches, beam=beam))
        logits = []
        for mdl in (base, wrapped):
            dec = mdl.decoder
            with nn.no_grad():
                acoustic = mdl.acoustic_tokens(patches)
                x, _ = dec.embed_stream(acoustic, [len(acoustic.data)], [[]])
                x = x[None]  # the decode prompt
                caches = [nn.KVCache(1, x.shape[1] + 1, dec.cfg.d_dec, x.dtype)
                          for _ in dec.blocks]
                first = dec.logits(x, caches).data
                step = dec.logits(dec.embed[np.array([[first.argmax()]])],
                                  caches).data
            logits.append((first, step))
        assert all(np.array_equal(a, b) for a, b in zip(*logits))
