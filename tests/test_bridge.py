import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiocap import bridge as br
from audiocap import nn
from audiocap.nn import Tensor
from _grad_check import grad_check, tsum


def make_bridge(seed=0, window=17, self_layers=1, max_windows=128, d_enc=24,
                dtype=np.float32):
    cfg = br.BridgeConfig(window=window, d_q=16, heads=2, cross_layers=1,
                          self_layers=self_layers, max_windows=max_windows)
    return br.QueryBridge(cfg, d_enc, 16, nn.rng_from_seed(seed)).astype(dtype)


def tokens(n, d_enc=24, seed=1, dtype=np.float32):
    return Tensor(nn.rng_from_seed(seed).normal(0, 1, (n, d_enc)).astype(dtype))


def reference_bridge(model, acoustic):
    """The bridge as one cross-attention call per window, in a Python loop."""
    n = acoustic.data.shape[0]
    w = model.cfg.window
    rows = []
    for i in range(br.output_count(n, w)):
        window = acoustic[i * w:min((i + 1) * w, n)]
        kv = window + model.token_pos[:window.data.shape[0]]
        q = model.query + model.window_pos[i:i + 1]
        for block in model.cross_blocks:
            q = block(q, context=kv)
        rows.append(q)
    q = nn.concat(rows)
    for block in model.self_blocks:
        q = block(q)
    return model.out_proj(nn.rms_norm(q, model.out_gain))


def relative(a, b, floor=0.0):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), floor))


class TestOutputCount:
    @pytest.mark.parametrize("n,expected", [
        (1, 1), (17, 1), (18, 2), (170, 10), (752, 45), (1500, 89),
    ])
    def test_table(self, n, expected):
        assert br.output_count(n, 17) == expected

    @given(st.integers(0, 2000))
    @settings(max_examples=200, deadline=None)
    def test_matches_ceiling(self, n):
        import math
        assert br.output_count(n, 17) == math.ceil(n / 17)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            br.output_count(-1, 17)

    @given(st.integers(1, 25), st.integers(1, 120))
    @settings(max_examples=25, deadline=None)
    def test_forward_length_matches(self, window, n):
        model = make_bridge(window=window, max_windows=120)
        out = model(tokens(n))
        assert out.data.shape == (br.output_count(n, window), 16)


class TestForward:
    def test_empty_input(self):
        with pytest.raises(br.EmptyInput):
            make_bridge()(tokens(0))

    def test_max_windows_enforced(self):
        model = make_bridge(max_windows=2)
        with pytest.raises(ValueError):
            model(tokens(3 * 17))

    def test_short_final_window_finite(self):
        out = make_bridge()(tokens(18)).data
        assert out.shape == (2, 16)
        assert np.all(np.isfinite(out))

    def test_window_locality_without_self_mixing(self):
        # with self-attention disabled each output depends only on its own
        # window of 17 tokens
        model = make_bridge(self_layers=0)
        base = tokens(3 * 17, seed=2)
        perturbed = Tensor(base.data.copy())
        perturbed.data[20] += 5.0  # inside window 1 only
        a = model(base).data
        b = model(perturbed).data
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[2], b[2])
        assert not np.array_equal(a[1], b[1])

    def test_self_mixing_spreads_information(self):
        model = make_bridge(self_layers=1)
        base = tokens(3 * 17, seed=2)
        perturbed = Tensor(base.data.copy())
        perturbed.data[20] += 5.0
        a = model(base).data
        b = model(perturbed).data
        assert not np.array_equal(a[0], b[0])

    def test_window_position_distinguishes_identical_windows(self):
        model = make_bridge()
        rep = np.tile(tokens(17, seed=3).data, (2, 1))
        out = model(Tensor(rep)).data
        assert not np.allclose(out[0], out[1])

    def test_deterministic(self):
        t = tokens(40)
        assert np.array_equal(make_bridge(seed=9)(t).data,
                              make_bridge(seed=9)(t).data)

    def test_gradients_flow_to_inputs_and_params(self):
        model = make_bridge()
        t = tokens(20)
        t.requires_grad = True
        tsum(model(t) * model(t)).backward()
        assert t.grad is not None and np.any(t.grad)
        assert model.query.grad is not None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            br.BridgeConfig(window=0)
        with pytest.raises(ValueError):
            br.BridgeConfig(d_q=30, heads=4)
        # without cross-attention no query reads a token: every clip's
        # bridged rows are alike, and no gradient reaches the encoder
        with pytest.raises(ValueError, match="cross_layers must be >= 1"):
            br.BridgeConfig(cross_layers=0)


class TestBatchedWindows:
    # (window, tokens): whole windows only, and a short last window
    @pytest.mark.parametrize("window,n", [
        (1, 1), (1, 7), (5, 20), (5, 23), (17, 17), (17, 34), (17, 40),
    ])
    def test_matches_per_window_reference(self, window, n):
        model = make_bridge(window=window)
        t = tokens(n)
        t.requires_grad = True
        out = model(t)
        ref = reference_bridge(model, t)
        assert out.data.shape == ref.data.shape == (br.output_count(n, window), 16)
        assert relative(out.data, ref.data) < 1e-5
        tsum(out * out).backward()
        grads = {k: p.grad for k, p in model.named_parameters().items()}
        grads["input"] = t.grad
        for p in list(model.parameters()) + [t]:
            p.grad = None
        tsum(ref * ref).backward()
        ref_grads = dict(
            {k: p.grad for k, p in model.named_parameters().items()},
            input=t.grad)
        # the key biases' gradients are zero in exact arithmetic (softmax
        # ignores a shift shared by all keys), so each gradient is measured
        # against at least 1e-5 of the largest gradient entry
        floor = 1e-5 * max(np.max(np.abs(g)) for g in ref_grads.values())
        for k, g in grads.items():
            assert relative(g, ref_grads[k], floor) < 1e-5, k

    def test_attention_stays_within_each_window_and_clip(self, monkeypatch):
        # 8 clips of 2 windows each, the second short: the cross-attention
        # keys are one window's tokens, the self-attention keys one clip's
        # windows, and the key and value projections see each token once
        model = make_bridge()
        counts = [18 + i for i in range(8)]
        cross = model.cross_blocks[0].attn
        keys, kv_rows = [], []
        attention_forward, affine = nn.attention_forward, nn.affine

        def attention_spy(q, k, v, n_heads, mask):
            keys.append(k.shape[-2])
            return attention_forward(q, k, v, n_heads, mask)

        def affine_spy(x, weight, bias=None):
            if weight is cross.k.weight or weight is cross.v.weight:
                kv_rows.append(x.data.shape[:-1])
            return affine(x, weight, bias)

        monkeypatch.setattr(nn, "attention_forward", attention_spy)
        monkeypatch.setattr(nn, "affine", affine_spy)
        rows, windows = model.forward_batch(tokens(sum(counts)), counts)
        assert windows == [2] * 8 and rows.data.shape == (16, 16)
        assert keys == [17, 2]
        assert kv_rows == [(sum(counts),)] * 2

    def test_grad_check_with_short_last_window(self):
        model = make_bridge(window=5, dtype=np.float64)
        t = tokens(12, dtype=np.float64)
        t.requires_grad = True
        params = dict(model.named_parameters(), input=t)
        err = grad_check(lambda: tsum(model(t) * model(t)), params,
                         h=(1e-5, 1e-4, 1e-3), samples_per_param=4, seed=3)
        assert err < 1e-6
