import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiocap import nn
from _grad_check import NonFiniteValue, grad_check


def rng():
    return nn.rng_from_seed(0)


class TestSoftmax:
    # the max-shifted softmax inside nn.multi_head_attention
    def test_symmetry(self):
        out = nn._softmax(np.array([0.0, 0.0]), -1)
        assert np.allclose(out, [0.5, 0.5])

    def test_hand_value(self):
        out = nn._softmax(np.array([0.0, math.log(3.0)]), -1)
        assert np.allclose(out, [0.25, 0.75], atol=1e-12)

    def test_shift_invariance_no_overflow(self):
        out = nn._softmax(np.array([1000.0, 1000.0]), -1)
        assert np.all(np.isfinite(out))
        assert np.allclose(out, [0.5, 0.5])

    @given(st.integers(1, 64), st.floats(-1e3, 1e3), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_sums_to_one(self, n, scale, seed):
        x = nn.rng_from_seed(seed).normal(0.0, 1.0, n) + scale
        out = nn._softmax(x, -1)
        assert np.all(out > 0)
        assert abs(out.sum() - 1.0) < 1e-12


class TestAttention:
    def test_identical_keys_average_values(self):
        q = nn.Tensor(rng().normal(0, 1, (3, 8)))
        k = nn.Tensor(np.tile(rng().normal(0, 1, (1, 8)), (5, 1)))
        v = nn.Tensor(rng().normal(0, 1, (5, 8)))
        out = nn.multi_head_attention(q, k, v, n_heads=1).data
        assert np.allclose(out, np.tile(v.data.mean(axis=0), (3, 1)), atol=1e-12)

    def test_single_token_passthrough(self):
        q = nn.Tensor(rng().normal(0, 1, (1, 4)))
        v = nn.Tensor(rng().normal(0, 1, (1, 4)))
        out = nn.multi_head_attention(q, q, v, n_heads=1).data
        assert np.allclose(out, v.data, atol=1e-12)

    def test_causal_position_zero_independent_of_future(self):
        r = rng()
        x1 = r.normal(0, 1, (2, 8))
        x2 = x1.copy()
        x2[1] += 3.0  # perturb the future token only
        mask = nn.causal_mask(2)
        outs = []
        for x in (x1, x2):
            t = nn.Tensor(x)
            outs.append(nn.multi_head_attention(t, t, t, 2, mask=mask).data)
        assert np.array_equal(outs[0][0], outs[1][0])
        assert not np.array_equal(outs[0][1], outs[1][1])

    def test_dimension_mismatch(self):
        with pytest.raises(nn.DimensionMismatch):
            nn.MultiHeadAttention(6, 4, rng())
    @pytest.mark.parametrize("causal", [True, False])
    @pytest.mark.parametrize("lengths", [[3, 1, 5], [4, 4], [6]])
    def test_packed_items_attend_alone(self, lengths, causal):
        r = rng()
        q, k, v = (r.normal(0, 1, (sum(lengths), 8)) for _ in range(3))
        packing = nn.Packing(lengths, causal)
        out = nn.multi_head_attention(nn.Tensor(q), nn.Tensor(k), nn.Tensor(v),
                                      2, mask=packing).data
        assert out.shape == q.shape
        starts = np.cumsum([0] + lengths)
        for lo, hi in zip(starts[:-1], starts[1:]):
            mask = nn.causal_mask(hi - lo) if causal else None
            alone = nn.multi_head_attention(
                nn.Tensor(q[lo:hi]), nn.Tensor(k[lo:hi]), nn.Tensor(v[lo:hi]),
                2, mask=mask).data
            assert np.allclose(out[lo:hi], alone, rtol=1e-12, atol=1e-12)

    @staticmethod
    def packed_node(causal, lengths=(3, 1, 5), d=8):
        r = rng()
        q, k, v = (nn.Tensor(r.normal(0, 1, (sum(lengths), d)).astype(np.float32),
                             requires_grad=True) for _ in range(3))
        w = r.normal(0, 1, (sum(lengths), d)).astype(np.float32)
        packing = nn.Packing(lengths, causal)
        out = nn.multi_head_attention(q, k, v, 2, mask=packing)
        return q, k, v, w, packing, out

    @pytest.mark.parametrize("causal", [True, False])
    def test_packed_backward_keeps_no_padded_copy(self, causal):
        # 3 items padded to 5 rows of width 8, 2 heads of width 4
        *_, out = self.packed_node(causal)
        padded = {(3, 5, 8), (15, 8), (3, 5, 2, 4), (3, 2, 5, 4)}
        held, todo = [], list(out._backward.__closure__)
        while todo:
            value = todo.pop().cell_contents
            if callable(value) and getattr(value, "__closure__", None):
                todo.extend(value.__closure__)
            elif isinstance(value, nn.Packing):
                held.extend(v for v in vars(value).values()
                            if isinstance(v, np.ndarray))
            elif isinstance(value, np.ndarray):
                held.append(value)
        shapes = []
        for a in held:
            while a is not None:
                shapes.append(a.shape)
                a = a.base
        assert (3, 2, 5, 5) in shapes  # the attention weights P
        assert padded.isdisjoint(shapes)

    @pytest.mark.parametrize("causal", [True, False])
    def test_packed_gradients_match_padded_copies_bit_for_bit(self, causal):
        q, k, v, w, packing, out = self.packed_node(causal)
        nn.tsum(out * w).backward()
        # the same ops on padded copies of q, k and v kept from the forward
        dh = 4
        scale = np.asarray(1.0 / math.sqrt(dh), dtype=np.float32)

        def split(a):
            return np.swapaxes(a.reshape(a.shape[:-1] + (2, dh)), -2, -3)

        def merge(a):
            a = np.swapaxes(a, -2, -3)
            return a.reshape(a.shape[:-2] + (8,))

        qh, kh, vh = (split(packing.scatter(t.data)) for t in (q, k, v))
        scores = qh @ np.swapaxes(kh, -1, -2)
        scores *= scale
        if packing.mask is not None:
            scores += packing.mask
        p = nn._softmax(scores, -1)
        assert out.data.tobytes() == packing.gather(merge(p @ vh)).tobytes()
        go = split(packing.scatter(w))
        ds = nn._softmax_grad(p, go @ np.swapaxes(vh, -1, -2), -1)
        ds *= scale
        for t, grad in ((q, ds @ kh), (k, np.swapaxes(ds, -1, -2) @ qh),
                        (v, np.swapaxes(p, -1, -2) @ go)):
            assert t.grad.tobytes() == packing.gather(merge(grad)).tobytes()



class TestRmsNorm:
    def test_forward_formula(self):
        x = rng().normal(0, 2, (3, 8))
        gain = np.linspace(0.5, 1.5, 8)
        out = nn.rms_norm(nn.Tensor(x), nn.Tensor(gain)).data
        expected = x / np.sqrt((x * x).mean(-1, keepdims=True) + 1e-6) * gain
        assert np.allclose(out, expected, atol=1e-12)


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = nn.Tensor(np.zeros((3, 4)))
        loss = nn.cross_entropy(logits, np.array([0, 1, 2]))
        assert abs(float(loss.data) - math.log(4.0)) < 1e-12

    def test_margin_monotone(self):
        losses = []
        for margin in (0.0, 1.0, 4.0, 16.0):
            logits = np.zeros((1, 5))
            logits[0, 2] = margin
            losses.append(float(nn.cross_entropy(
                nn.Tensor(logits), np.array([2])).data))
        assert losses == sorted(losses, reverse=True)
        assert losses[-1] < 1e-6

    def test_empty_target_set(self):
        logits = nn.Tensor(np.zeros((0, 3)))
        with pytest.raises(nn.EmptyTargetSet):
            nn.cross_entropy(logits, np.array([], dtype=np.int64))

    def test_one_target_per_row(self):
        with pytest.raises(nn.ShapeMismatch):
            nn.cross_entropy(nn.Tensor(np.zeros((3, 4))), np.array([0, 1]))


def reference_adamw_step(opt):
    """`AdamW.step` as it was before it updated in place: the bit oracle.

    Every op makes a new array, and the parameters get new arrays.
    """
    grads = {k: np.zeros_like(p.data) if p.grad is None else p.grad
             for k, p in opt.params.items()}
    if opt.clip_norm is not None:
        total = math.sqrt(sum(float((g.astype(np.float64) ** 2).sum())
                              for g in grads.values()))
        if total > opt.clip_norm and total > 0.0:
            scale = opt.clip_norm / total
            grads = {k: g * np.asarray(scale, dtype=g.dtype)
                     for k, g in grads.items()}
    opt.t += 1
    bc1 = 1.0 - nn.ADAM_BETA1 ** opt.t
    bc2 = 1.0 - nn.ADAM_BETA2 ** opt.t
    for k, p in opt.params.items():
        g, m, v = grads[k], opt.m[k], opt.v[k]
        m *= nn.ADAM_BETA1
        m += (1.0 - nn.ADAM_BETA1) * g
        v *= nn.ADAM_BETA2
        v += (1.0 - nn.ADAM_BETA2) * (g * g)
        decay = opt.lr * opt.weight_decay * p.data if opt.weight_decay else 0.0
        mhat = m / bc1
        vhat = v / bc2
        p.data = p.data - decay - opt.lr * mhat / (np.sqrt(vhat) + nn.ADAM_EPS)


class TestAdamW:
    # the gradients' global norm is 67-97: clip_norm 1e3 never clips, 1.0 always
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    @pytest.mark.parametrize("clip_norm", [None, 1e3, 1.0])
    def test_in_place_step_matches_reference_bits(self, weight_decay, clip_norm):
        shapes = {"w": (7, 5), "b": (5,), "e": (3, 4, 2), "unused": (4,)}
        r = nn.rng_from_seed(9)
        init = {k: r.normal(0, 1, s).astype(np.float32) for k, s in shapes.items()}
        runs = []
        for step in (nn.AdamW.step, reference_adamw_step):
            params = {k: nn.parameter(a.copy()) for k, a in init.items()}
            opt = nn.AdamW(params, lr=1e-2, weight_decay=weight_decay,
                           clip_norm=clip_norm)
            g = nn.rng_from_seed(10)
            for i in range(5):
                for k, p in params.items():
                    p.grad = (None if k == "unused" else
                              g.normal(0, 10, p.shape).astype(np.float32))
                opt.lr = 1e-2 / (i + 1)
                step(opt)
            runs.append({k: p.data.tobytes() for k, p in params.items()})
        assert runs[0] == runs[1]
        assert runs[0]["w"] != init["w"].tobytes()

    def test_hand_value_no_decay(self):
        p = nn.parameter(np.array([1.0]))
        p.grad = np.array([1.0], dtype=np.float32)
        nn.AdamW({"p": p}, lr=0.1, weight_decay=0.0, clip_norm=None).step()
        assert abs(float(p.data[0]) - 0.9) < 1e-6

    def test_hand_value_with_decay(self):
        p = nn.parameter(np.array([1.0]))
        p.grad = np.array([1.0], dtype=np.float32)
        nn.AdamW({"p": p}, lr=0.1, weight_decay=0.1, clip_norm=None).step()
        assert abs(float(p.data[0]) - 0.89) < 1e-6

    def test_zero_grad_zero_decay_leaves_parameter(self):
        p = nn.parameter(np.array([1.0, -2.0]))
        p.grad = np.zeros(2, dtype=np.float32)
        nn.AdamW({"p": p}, lr=0.1, weight_decay=0.0, clip_norm=None).step()
        assert np.array_equal(p.data, np.array([1.0, -2.0], dtype=np.float32))

    def test_zero_lr_bit_identical(self):
        p = nn.parameter(np.array([0.5, 0.25]))
        before = p.data.copy()
        p.grad = np.array([1.0, -1.0], dtype=np.float32)
        nn.AdamW({"p": p}, lr=0.0, weight_decay=0.0, clip_norm=None).step()
        assert np.array_equal(p.data, before)

    def test_global_norm_clip(self):
        # grad norm 30 clipped to 1.0: effective grad scaled by 1/30, but the
        # adaptive step normalizes scale away at step 1, so compare against
        # an unclipped run with pre-scaled gradients instead
        p1 = nn.parameter(np.array([1.0]))
        p1.grad = np.array([30.0], dtype=np.float32)
        nn.AdamW({"p": p1}, lr=0.1, clip_norm=1.0).step()
        p2 = nn.parameter(np.array([1.0]))
        p2.grad = np.array([1.0], dtype=np.float32)
        nn.AdamW({"p": p2}, lr=0.1, clip_norm=None).step()
        assert np.allclose(p1.data, p2.data, atol=1e-7)

    def test_step_uses_current_lr(self):
        p = nn.parameter(np.array([1.0]))
        p.grad = np.array([1.0], dtype=np.float32)
        opt = nn.AdamW({"p": p}, lr=99.0, weight_decay=0.0, clip_norm=None)
        opt.lr = 0.1
        opt.step()
        assert abs(float(p.data[0]) - 0.9) < 1e-6


class TestBackwardOps:
    def test_broadcast_add_backward(self):
        a = nn.Tensor(np.ones((3, 1)), requires_grad=True)
        b = nn.Tensor(np.ones((1, 4)), requires_grad=True)
        nn.tsum((a + b) * 2.0).backward()
        assert np.array_equal(a.grad, np.full((3, 1), 8.0))
        assert np.array_equal(b.grad, np.full((1, 4), 6.0))

    def test_embedding_accumulates_repeated_ids(self):
        table = nn.Tensor(np.zeros((4, 2)), requires_grad=True)
        out = table[np.array([1, 1, 3])]
        nn.tsum(out).backward()
        assert np.array_equal(table.grad[1], [2.0, 2.0])
        assert np.array_equal(table.grad[3], [1.0, 1.0])
        assert np.array_equal(table.grad[0], [0.0, 0.0])

    def test_getitem_scatter(self):
        t = nn.Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        nn.tsum(t[1:, :2]).backward()
        expected = np.zeros((3, 4))
        expected[1:, :2] = 1.0
        assert np.array_equal(t.grad, expected)

    def test_gelu_grad_check(self):
        x = nn.Tensor(rng().normal(0, 2, (4, 3)), requires_grad=True)
        err = grad_check(lambda: nn.tsum(nn.gelu(x) * nn.gelu(x)), [x],
                         h=1e-5)
        assert err < 1e-6


class TestFusedOps:
    """float64 gradient checks of the one-node attention and affine ops."""

    H = (1e-5, 1e-4, 1e-3)

    def check(self, f, tensors):
        assert grad_check(f, tensors, h=self.H) < 1e-6

    def attention_case(self, q_shape, kv_shape, mask=None, seed=0):
        r = nn.rng_from_seed(seed)
        q, k, v = (nn.Tensor(r.normal(0, 1, shape), requires_grad=True)
                   for shape in (q_shape, kv_shape, kv_shape))
        out_w = r.normal(0, 1, np.broadcast_shapes(q_shape[:-2], kv_shape[:-2])
                         + q_shape[-2:])
        self.check(lambda: nn.tsum(
            nn.multi_head_attention(q, k, v, 2, mask) * out_w), [q, k, v])

    def test_attention_causal_mask(self):
        self.attention_case((2, 5, 8), (2, 5, 8), nn.causal_mask(5))

    def test_attention_key_padding_mask(self):
        lengths = np.array([6, 2, 4])
        mask = np.where(np.arange(6) < lengths[:, None], 0.0, -np.inf)
        self.attention_case((3, 6, 8), (3, 6, 8), mask[:, None, None, :])

    def test_attention_cached_keys_outnumber_queries(self):
        # two new rows at positions 3 and 4 over five cached-plus-new keys
        self.attention_case((2, 2, 8), (2, 5, 8),
                            nn.causal_mask(2, start=3))

    @pytest.mark.parametrize("causal", [True, False])
    def test_attention_packed(self, causal):
        self.attention_case((9, 8), (9, 8), nn.Packing([3, 1, 5], causal))

    def test_attention_broadcast_query(self):
        self.attention_case((3, 8), (2, 4, 8))

    def test_cross_attention_kv_dim_differs(self):
        r = nn.rng_from_seed(4)
        attn = nn.MultiHeadAttention(8, 2, r, kv_dim=6).astype(np.float64)
        q = nn.Tensor(r.normal(0, 1, (4, 1, 8)), requires_grad=True)
        kv = nn.Tensor(r.normal(0, 1, (4, 5, 6)), requires_grad=True)
        mask = np.zeros((4, 1, 1, 5))
        mask[-1, ..., 3:] = -np.inf
        params = dict(attn.named_parameters(), q=q, kv=kv)
        self.check(lambda: nn.tsum(attn(q, kv, mask) * attn(q, kv, mask)),
                   params)

    @pytest.mark.parametrize("x_shape", [(5, 4), (3, 5, 4)])
    @pytest.mark.parametrize("bias", [True, False])
    def test_affine(self, x_shape, bias):
        r = nn.rng_from_seed(5)
        x = nn.Tensor(r.normal(0, 1, x_shape), requires_grad=True)
        w = nn.Tensor(r.normal(0, 1, (3, 4)), requires_grad=True)
        b = nn.Tensor(r.normal(0, 1, 3), requires_grad=True) if bias else None
        out_w = r.normal(0, 1, x_shape[:-1] + (3,))
        self.check(lambda: nn.tsum(nn.affine(x, w, b) * out_w),
                   [x, w] + ([b] if bias else []))


class TestGradCheck:
    def test_polynomial_exactness(self):
        w = nn.Tensor(np.array(3.0), requires_grad=True)
        err = grad_check(lambda: w * w, [w], h=1e-4)
        assert err < 1e-8

    def test_tiny_attention_model_all_entries(self):
        r = nn.rng_from_seed(2)
        blocks = [nn.TransformerBlock(8, 2, 2, r).astype(np.float64)
                  for _ in range(2)]
        x = nn.Tensor(r.normal(0, 1, (3, 8)), requires_grad=True)
        params = {"x": x}
        for i, b in enumerate(blocks):
            params.update({f"b{i}.{k}": p for k, p in b.named_parameters().items()})

        def f():
            h = x
            for b in blocks:
                h = b(h)
            return nn.tsum(h * h)

        err = grad_check(f, params, h=(1e-5, 1e-4, 1e-3))
        assert err < 1e-4

    def test_corrupted_backward_detected(self):
        w = nn.Tensor(np.array([3.0]), requires_grad=True)

        def doubled_square(t):
            def backward(g):
                t._accum(g * 4.0 * t.data)  # wrong: claims d/dw = 4w

            return nn.Tensor(t.data * t.data, requires_grad=True, parents=(t,),
                             backward=backward)

        err = grad_check(lambda: nn.tsum(doubled_square(w)), [w], h=1e-5)
        assert abs(err - 0.5) < 1e-3

    def test_nonfinite_objective_raises(self):
        w = nn.Tensor(np.array(np.inf), requires_grad=True)
        with pytest.raises(NonFiniteValue):
            grad_check(lambda: w * w, [w])


class TestModule:
    def test_named_parameters_nested_dotted(self):
        r = rng()
        block = nn.TransformerBlock(8, 2, 2, r)
        # pre-order, attribute order: AdamW sums its clipping norm this way
        assert list(block.named_parameters()) == [
            "attn_gain",
            "attn.q.weight", "attn.q.bias", "attn.k.weight", "attn.k.bias",
            "attn.v.weight", "attn.v.bias", "attn.o.weight", "attn.o.bias",
            "ffn_gain",
            "ffn.up.weight", "ffn.up.bias", "ffn.down.weight", "ffn.down.bias",
        ]

    def test_linear_from_weights(self):
        w = np.eye(3, dtype=np.float32)
        layer = nn.Linear.from_weights(w, np.zeros(3, dtype=np.float32))
        x = nn.Tensor(np.array([[1.0, 2.0, 3.0]], dtype=np.float32))
        assert np.array_equal(layer(x).data, x.data)


class TestNoInit:
    def test_builds_zeros_nests_and_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with nn.no_init():
                with nn.no_init():
                    inner = nn.Linear(4, 3, nn.rng_from_seed(0))
                after_inner = nn.Linear(4, 3, nn.rng_from_seed(0))
                raise RuntimeError("leave the block")
        drawn = nn.Linear(4, 3, nn.rng_from_seed(0))
        for layer in (inner, after_inner):
            assert layer.weight.data.dtype == np.float32
            assert not layer.weight.data.any()
        want = nn.rng_from_seed(0).normal(0.0, 0.02, (3, 4)).astype(np.float32)
        assert np.array_equal(drawn.weight.data, want)


class TestNoGrad:
    def block_and_input(self):
        r = rng()
        block = nn.TransformerBlock(8, 2, 2, r)
        return block, nn.Tensor(r.normal(0, 1, (3, 8)).astype(np.float32))

    def test_forward_records_no_graph(self):
        block, x = self.block_and_input()
        with nn.no_grad():
            out = block(x, mask=nn.causal_mask(3))
        assert out._parents == ()
        assert out.requires_grad is False
        assert out._backward is None

    def test_nests_and_restores(self):
        block, x = self.block_and_input()
        with nn.no_grad():
            with nn.no_grad():
                inner = block(x)
            after_inner = block(x)
        outside = block(x)
        assert inner._parents == () and after_inner._parents == ()
        assert outside.requires_grad and outside._backward is not None

    def test_restores_after_exception(self):
        block, x = self.block_and_input()
        with pytest.raises(nn.DimensionMismatch):
            with nn.no_grad():
                block(nn.Tensor(np.zeros((3, 5), dtype=np.float32)))
        assert block(x).requires_grad

    def test_backward_after_block_fills_every_grad(self):
        block, x = self.block_and_input()
        with nn.no_grad():
            block(x)
        nn.tsum(block(x)).backward()
        for name, p in block.named_parameters().items():
            assert p.grad is not None and p.grad.shape == p.data.shape, name


class TestGraphLifetime:
    def test_dropping_the_loss_frees_the_graph(self):
        # no backward closure refers to its own output, so reference counting
        # frees the whole graph and the cyclic collector finds nothing
        r = rng()
        block = nn.TransformerBlock(8, 2, 2, r)
        x = nn.Tensor(r.normal(0, 1, (3, 8)).astype(np.float32),
                      requires_grad=True)
        gc.collect()
        gc.disable()
        try:
            loss = nn.tsum(block(x, mask=nn.causal_mask(3)) * block(x))
            loss.backward()
            del loss
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert x.grad is not None

    def test_second_backward_raises(self):
        # summing into the leaves again would silently turn 36 into 144
        a = nn.parameter(np.array([2.0]))
        c = nn.tsum((a * 3.0) * (a * 3.0))
        c.backward()
        with pytest.raises(nn.SpentGraph):
            c.backward()
        assert np.array_equal(a.grad, [36.0])
        assert issubclass(nn.SpentGraph, RuntimeError)

    def test_losses_sharing_a_subgraph_raise_on_the_second(self):
        a = nn.parameter(np.array([2.0, -1.0]))
        shared = a * 3.0
        first, second = nn.tsum(shared * shared), nn.tsum(shared)
        first.backward()
        with pytest.raises(nn.SpentGraph):
            second.backward()
        # the shared node is found before any closure runs: a is untouched
        assert np.array_equal(a.grad, [36.0, -18.0])
