import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiocap import nn
from _grad_check import NonFiniteValue, grad_check, tsum


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
        # a causal packing also with a shared head of up to min(lengths) rows
        for head in {0, min(lengths) if causal else 0}:
            r = rng()
            rows = sum(lengths) - head * (len(lengths) - 1)
            q, k, v = (r.normal(0, 1, (rows, 8)) for _ in range(3))
            packing = nn.Packing(lengths, causal, head)
            out = nn.multi_head_attention(nn.Tensor(q), nn.Tensor(k),
                                          nn.Tensor(v), 2, mask=packing).data
            assert out.shape == q.shape
            # item i is the shared head, then its own rows
            starts = np.cumsum([head] + [n - head for n in lengths])
            for lo, hi in zip(starts[:-1], starts[1:]):
                item = np.r_[0:head, lo:hi]
                mask = nn.causal_mask(item.size) if causal else None
                alone = nn.multi_head_attention(
                    nn.Tensor(q[item]), nn.Tensor(k[item]), nn.Tensor(v[item]),
                    2, mask=mask).data
                assert np.allclose(out[item], alone, rtol=1e-12, atol=1e-12)

    @staticmethod
    def packed_node(causal, head=0, lengths=(3, 1, 5), d=8):
        r = rng()
        rows = sum(lengths) - head * (len(lengths) - 1)
        q, k, v = (nn.Tensor(r.normal(0, 1, (rows, d)).astype(np.float32),
                             requires_grad=True) for _ in range(3))
        w = r.normal(0, 1, (rows, d)).astype(np.float32)
        packing = nn.Packing(lengths, causal, head)
        out = nn.multi_head_attention(q, k, v, 2, mask=packing)
        return q, k, v, w, packing, out

    @pytest.mark.parametrize("causal", [True, False])
    def test_packed_backward_keeps_no_padded_copy(self, causal):
        # 3 items padded to 5 rows of width 8, 2 heads of width 4; a causal
        # packing shares its first row
        *_, out = self.packed_node(causal, int(causal))
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
        # a causal packing also with a shared first row
        for head in {0, int(causal)}:
            self.check_padded_copies(*self.packed_node(causal, head))

    @staticmethod
    def check_padded_copies(q, k, v, w, packing, out):
        tsum(out * w).backward()
        # the same ops on padded copies of q, k and v kept from the forward;
        # the output's gradient in item 0's head, the head's summed over items
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
        go = split(packing.place(w))
        ds = nn._softmax_grad(p, go @ np.swapaxes(vh, -1, -2), -1)
        ds *= scale
        for t, grad in ((q, ds @ kh), (k, np.swapaxes(ds, -1, -2) @ qh),
                        (v, np.swapaxes(p, -1, -2) @ go)):
            assert t.grad.tobytes() == packing.adjoint(merge(grad)).tobytes()


class TestPacking:
    CASES = [([3, 1, 5], 0), ([3, 1, 5], 1), ([4, 4], 2), ([4, 4, 4], 4),
             ([6], 3), ([2, 7, 3], 2)]

    @pytest.mark.parametrize("lengths, head", CASES)
    def test_adjoints(self, lengths, head):
        # <scatter(x), y> = <x, adjoint(y)> and <gather(y), x> = <y, place(x)>
        packing = nn.Packing(lengths, True, head)
        r = rng()
        x = r.normal(0, 1, (packing.pos.size, 3))
        y = r.normal(0, 1, packing.shape + (3,))
        assert np.isclose(np.vdot(packing.scatter(x), y),
                          np.vdot(x, packing.adjoint(y)), rtol=1e-12)
        assert np.isclose(np.vdot(packing.gather(y), x),
                          np.vdot(y, packing.place(x)), rtol=1e-12)

    @pytest.mark.parametrize("lengths, head", CASES)
    def test_layout(self, lengths, head):
        packing = nn.Packing(lengths, True, head)
        rows = packing.pos.size
        assert rows == sum(lengths) - head * (len(lengths) - 1)
        padded = packing.scatter(np.arange(1, rows + 1)[:, None])[..., 0]
        for i, n in enumerate(lengths):
            # the head, then the item's own rows; zero pads
            own = padded[i, :n] - 1
            assert np.array_equal(own[:head], np.arange(head))
            assert np.array_equal(packing.pos[own], np.arange(n))
            assert not padded[i, n:].any()
        assert np.array_equal(packing.gather(padded[..., None])[:, 0],
                              np.arange(1, rows + 1))

    @pytest.mark.parametrize("head, causal", [(2, True), (1, False)])
    def test_head_fits_every_causal_item(self, head, causal):
        with pytest.raises(nn.ShapeMismatch):
            nn.Packing([3, 1, 5], causal, head)



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

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_target_ids_in_vocabulary(self, bad):
        with pytest.raises(nn.ShapeMismatch, match="outside vocabulary"):
            nn.cross_entropy(nn.Tensor(np.zeros((2, 4))), np.array([0, bad]))


def reference_adamw_step(opt):
    """`AdamW.step` as it was before it updated in place: the bit oracle.

    Every op makes a new array, and the parameters get new arrays.
    """
    grads = {k: p.grad for k, p in opt.params.items()}
    total = math.sqrt(sum(float((g.astype(np.float64) ** 2).sum())
                          for g in grads.values()))
    if total > nn.CLIP_NORM:
        scale = nn.CLIP_NORM / total
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
        decay = opt.lr * nn.WEIGHT_DECAY * p.data
        mhat = m / bc1
        vhat = v / bc2
        p.data = p.data - decay - opt.lr * mhat / (np.sqrt(vhat) + nn.ADAM_EPS)


class TestAdamW:
    # the gradients' global norm is 67-97: a clip norm of 1e3 never clips,
    # 1.0 always; None keeps the shipped nn.CLIP_NORM
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    @pytest.mark.parametrize("clip_norm", [None, 1e3, 1.0])
    def test_in_place_step_matches_reference_bits(self, weight_decay, clip_norm,
                                                  monkeypatch):
        monkeypatch.setattr(nn, "WEIGHT_DECAY", weight_decay)
        if clip_norm is not None:
            monkeypatch.setattr(nn, "CLIP_NORM", clip_norm)
        shapes = {"w": (7, 5), "b": (5,), "e": (3, 4, 2)}
        r = nn.rng_from_seed(9)
        init = {k: r.normal(0, 1, s).astype(np.float32) for k, s in shapes.items()}
        runs = []
        for step in (nn.AdamW.step, reference_adamw_step):
            params = {k: nn.parameter(a.copy()) for k, a in init.items()}
            opt = nn.AdamW(params, lr=1e-2)
            g = nn.rng_from_seed(10)
            for i in range(5):
                for p in params.values():
                    p.grad = g.normal(0, 10, p.shape).astype(np.float32)
                opt.lr = 1e-2 / (i + 1)
                step(opt)
            runs.append({k: p.data.tobytes() for k, p in params.items()})
        assert runs[0] == runs[1]
        assert runs[0]["w"] != init["w"].tobytes()

    def test_gradient_shape_must_match(self):
        params = {k: nn.parameter(np.ones(s, dtype=np.float32))
                  for k, s in (("w", (6, 4)), ("b", (4,)))}
        opt = nn.AdamW(params, lr=1e-2)
        params["w"].grad = np.ones((6, 4), dtype=np.float32)
        params["b"].grad = np.ones((1, 4), dtype=np.float32)
        with pytest.raises(nn.ShapeMismatch, match="for b"):
            opt.step()
        # nothing moved: the shapes are checked before any update
        assert opt.t == 0 and np.all(params["w"].data == 1.0)

    def test_holds_no_arrays_but_its_moments(self):
        params = {k: nn.parameter(np.ones(s, dtype=np.float32))
                  for k, s in (("w", (6, 4)), ("b", (4,)))}
        opt = nn.AdamW(params, lr=1e-2)
        for p in params.values():
            p.grad = np.full(p.shape, 3.0, dtype=np.float32)
        opt.step()
        held, todo = [], list(vars(opt).values())
        while todo:
            x = todo.pop()
            if isinstance(x, dict):
                todo.extend(x.values())
            elif isinstance(x, (list, tuple)):
                todo.extend(x)
            elif isinstance(x, np.ndarray):
                held.append(id(x))
        moments = [id(a) for d in (opt.m, opt.v) for a in d.values()]
        assert sorted(held) == sorted(moments)

    def test_hand_value_no_decay(self, monkeypatch):
        monkeypatch.setattr(nn, "WEIGHT_DECAY", 0.0)
        p = nn.parameter(np.array([1.0]))
        p.grad = np.array([1.0], dtype=np.float32)
        nn.AdamW({"p": p}, lr=0.1).step()
        assert abs(float(p.data[0]) - 0.9) < 1e-6

    def test_hand_value_with_decay(self, monkeypatch):
        monkeypatch.setattr(nn, "WEIGHT_DECAY", 0.1)
        p = nn.parameter(np.array([1.0]))
        p.grad = np.array([1.0], dtype=np.float32)
        nn.AdamW({"p": p}, lr=0.1).step()
        assert abs(float(p.data[0]) - 0.89) < 1e-6

    def test_zero_grad_zero_decay_leaves_parameter(self, monkeypatch):
        monkeypatch.setattr(nn, "WEIGHT_DECAY", 0.0)
        p = nn.parameter(np.array([1.0, -2.0]))
        p.grad = np.zeros(2, dtype=np.float32)
        nn.AdamW({"p": p}, lr=0.1).step()
        assert np.array_equal(p.data, np.array([1.0, -2.0], dtype=np.float32))

    def test_zero_lr_bit_identical(self):
        p = nn.parameter(np.array([0.5, 0.25]))
        before = p.data.copy()
        p.grad = np.array([1.0, -1.0], dtype=np.float32)
        nn.AdamW({"p": p}, lr=0.0).step()
        assert np.array_equal(p.data, before)

    def test_global_norm_clip(self):
        # grad norm 30 clipped to 1.0: effective grad scaled by 1/30, but the
        # adaptive step normalizes scale away at step 1, so compare against
        # an unclipped run with pre-scaled gradients instead
        p1 = nn.parameter(np.array([1.0]))
        p1.grad = np.array([30.0], dtype=np.float32)
        nn.AdamW({"p": p1}, lr=0.1).step()
        p2 = nn.parameter(np.array([1.0]))
        p2.grad = np.array([1.0], dtype=np.float32)
        nn.AdamW({"p": p2}, lr=0.1).step()
        assert np.allclose(p1.data, p2.data, atol=1e-7)

    def test_step_uses_current_lr(self, monkeypatch):
        monkeypatch.setattr(nn, "WEIGHT_DECAY", 0.0)
        p = nn.parameter(np.array([1.0]))
        p.grad = np.array([1.0], dtype=np.float32)
        opt = nn.AdamW({"p": p}, lr=99.0)
        opt.lr = 0.1
        opt.step()
        assert abs(float(p.data[0]) - 0.9) < 1e-6


class TestBackwardOps:
    def test_backward_needs_a_scalar(self):
        t = nn.Tensor(np.ones((2, 3)), requires_grad=True)
        with pytest.raises(nn.ShapeMismatch, match="scalar"):
            (t * 2.0).backward()

    def test_affine_checks_the_input_width(self):
        w = nn.Tensor(np.ones((4, 3)), requires_grad=True)
        with pytest.raises(nn.DimensionMismatch, match="last dim 4"):
            nn.affine(nn.Tensor(np.ones((2, 5))), w)

    def test_broadcast_add_backward(self):
        a = nn.Tensor(np.ones((3, 1)), requires_grad=True)
        b = nn.Tensor(np.ones((1, 4)), requires_grad=True)
        tsum((a + b) * 2.0).backward()
        assert np.array_equal(a.grad, np.full((3, 1), 8.0))
        assert np.array_equal(b.grad, np.full((1, 4), 6.0))

    def test_embedding_accumulates_repeated_ids(self):
        table = nn.Tensor(np.zeros((4, 2)), requires_grad=True)
        out = table[np.array([1, 1, 3])]
        tsum(out).backward()
        assert np.array_equal(table.grad[1], [2.0, 2.0])
        assert np.array_equal(table.grad[3], [1.0, 1.0])
        assert np.array_equal(table.grad[0], [0.0, 0.0])

    def test_getitem_scatter(self):
        t = nn.Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        tsum(t[1:, :2]).backward()
        expected = np.zeros((3, 4))
        expected[1:, :2] = 1.0
        assert np.array_equal(t.grad, expected)

    def test_gelu_grad_check(self):
        x = nn.Tensor(rng().normal(0, 2, (4, 3)), requires_grad=True)
        err = grad_check(lambda: tsum(nn.gelu(x) * nn.gelu(x)), [x],
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
        self.check(lambda: tsum(
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
        self.attention_case((9, 8), (9, 8), nn.Packing([3, 1, 5], causal, 0))

    def test_attention_packed_shared_head(self):
        self.attention_case((6, 8), (6, 8), nn.Packing([3, 2, 5], True, 2))

    def test_attention_packed_queries_and_keys(self):
        # each item's queries attend over its own keys alone; items 1 and 2
        # hold fewer keys than the padded width, as a clip's last window
        # holds fewer tokens
        layouts = (nn.Packing([2, 1, 2], False, 0),
                   nn.Packing([4, 3, 1], False, 0))
        self.attention_case((5, 8), (8, 8), layouts)
        r = nn.rng_from_seed(1)
        q, k, v = (nn.Tensor(r.normal(0, 1, (n, 8))) for n in (5, 8, 8))
        out = nn.multi_head_attention(q, k, v, 2, layouts).data
        for qi, ki in zip(np.split(np.arange(5), [2, 3]),
                          np.split(np.arange(8), [4, 7])):
            alone = nn.multi_head_attention(q[qi], k[ki], v[ki], 2).data
            assert np.allclose(out[qi], alone, rtol=1e-12, atol=1e-12)

    def test_attention_broadcast_query(self):
        self.attention_case((1, 3, 8), (2, 4, 8))

    def test_cross_attention_kv_dim_differs(self):
        r = nn.rng_from_seed(4)
        attn = nn.MultiHeadAttention(8, 2, r, kv_dim=6).astype(np.float64)
        q = nn.Tensor(r.normal(0, 1, (4, 1, 8)), requires_grad=True)
        kv = nn.Tensor(r.normal(0, 1, (4, 5, 6)), requires_grad=True)
        mask = np.zeros((4, 1, 1, 5))
        mask[-1, ..., 3:] = -np.inf
        params = dict(attn.named_parameters(), q=q, kv=kv)
        self.check(lambda: tsum(attn(q, kv, mask) * attn(q, kv, mask)),
                   params)

    @pytest.mark.parametrize("x_shape", [(5, 4), (3, 5, 4)])
    @pytest.mark.parametrize("bias", [True, False])
    def test_affine(self, x_shape, bias):
        r = nn.rng_from_seed(5)
        x = nn.Tensor(r.normal(0, 1, x_shape), requires_grad=True)
        w = nn.Tensor(r.normal(0, 1, (4, 3)), requires_grad=True)
        b = nn.Tensor(r.normal(0, 1, 3), requires_grad=True) if bias else None
        out_w = r.normal(0, 1, x_shape[:-1] + (3,))
        self.check(lambda: tsum(nn.affine(x, w, b) * out_w),
                   [x, w] + ([b] if bias else []))


# -- textbook forms, one new array per op: the bit oracles of the ops
# that write their temporaries in place ------------------------------------

def reference_gelu(x, g):
    """GELU's output and input gradient at output gradient g."""
    th = np.tanh(nn._GELU_C * (x + nn._GELU_A * (x * x * x)))
    out = 0.5 * x * (1.0 + th)
    dx = (0.5 * x * (1.0 - th * th) * nn._GELU_C
          * (1.0 + 3.0 * nn._GELU_A * x * x) + 0.5 * (1.0 + th)) * g
    return out, dx


def reference_rms_norm(x, gain, g):
    """RMS norm's output and its input and gain gradients at g."""
    n = x.shape[-1]
    inv = (1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True)
                         + nn.RMS_EPS)).astype(x.dtype)
    out = x * inv * gain
    gg = g * gain
    dot = np.sum(gg * x, axis=-1, keepdims=True)
    dx = gg * inv - x * inv ** 3 * dot / n
    dgain = np.sum(g * x * inv, axis=tuple(range(x.ndim - 1)))
    return out, dx, dgain


def reference_clip_scale(grads):
    """The global-norm clip factor, summed in float64, or None."""
    wide = [g.astype(np.float64) for g in grads]
    total = math.sqrt(sum(float((w * w).sum()) for w in wide))
    return nn.CLIP_NORM / total if total > nn.CLIP_NORM else None


shapes = st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple)
float_types = st.sampled_from([np.float32, np.float64])


def draws(seed, dtype, *sizes, scale=2.0):
    r = nn.rng_from_seed(seed)
    return [r.normal(0.0, scale, s).astype(dtype) for s in sizes]


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestInPlaceOps:
    """The ops that write temporaries in place match their textbook forms
    bit for bit."""

    @given(shapes, float_types, st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_gelu(self, shape, dtype, seed):
        x, g = draws(seed, dtype, shape, shape)
        t = nn.Tensor(x.copy(), requires_grad=True)
        out = nn.gelu(t)
        tsum(out * nn.Tensor(g)).backward()
        want_out, want_dx = reference_gelu(x, g)
        assert same_bits(out.data, want_out) and same_bits(t.grad, want_dx)

    @given(shapes, float_types, st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_rms_norm(self, shape, dtype, seed):
        x, g, gain = draws(seed, dtype, shape, shape, shape[-1:])
        t, w = (nn.Tensor(a.copy(), requires_grad=True) for a in (x, gain))
        out = nn.rms_norm(t, w)
        tsum(out * nn.Tensor(g)).backward()
        want = reference_rms_norm(x, gain, g)
        assert all(map(same_bits, (out.data, t.grad, w.grad), want))

    @given(shapes, float_types, st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_add_into(self, shape, dtype, seed):
        x, y, g = draws(seed, dtype, shape, shape, shape)
        a, b = (nn.Tensor(v.copy(), requires_grad=True) for v in (x, y))
        out = nn.add_into(a, b * 1.0)  # into a fresh op output
        tsum(out * nn.Tensor(g)).backward()
        assert same_bits(out.data, x + y)
        assert same_bits(a.grad, g) and same_bits(b.grad, g)

    def test_add_into_refuses_a_parameter(self):
        x, w = nn.parameter(np.ones(3)), nn.parameter(np.ones(3))
        with pytest.raises(AssertionError):
            nn.add_into(x, w)
        assert np.array_equal(w.data, np.ones(3))

    @given(st.lists(shapes, min_size=1, max_size=4), float_types,
           st.integers(0, 2**31), st.sampled_from([10.0, 1e-6]))
    @settings(max_examples=40, deadline=None)
    def test_clip_scale(self, grad_shapes, dtype, seed, grad_scale):
        # at most 72 draws: below the clip norm at 1e-6, mostly above at 10
        grads = draws(seed, dtype, *grad_shapes, scale=grad_scale)
        opt = nn.AdamW({}, lr=1e-3)
        got = opt._clip_scale(dict(enumerate(grads)))
        assert got == reference_clip_scale(grads)

    def test_block_keeps_one_array_per_residual(self):
        # the sum of each residual add is written into its sublayer's
        # output, the o or the down projection's
        r = rng()
        block = nn.TransformerBlock(8, 2, 2, r)
        x = nn.Tensor(r.normal(0, 1, (7, 8)).astype(np.float32),
                      requires_grad=True)
        held, todo, seen = set(), [block(x)], set()
        while todo:
            node = todo.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            todo.extend(node._parents)
            cells = node._backward.__closure__ if node._backward else None
            for a in [node.data] + [c.cell_contents for c in cells or ()]:
                if isinstance(a, np.ndarray):
                    while a.base is not None:
                        a = a.base
                    if a.size == 7 * 8:  # one (7, 8) array in any layout
                        held.add(id(a))
        # x, the two norms' outputs, q, k, v, the attention output and
        # the two residual sums
        assert len(held) == 9


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
            return tsum(h * h)

        err = grad_check(f, params, h=(1e-5, 1e-4, 1e-3))
        assert err < 1e-4

    def test_corrupted_backward_detected(self):
        w = nn.Tensor(np.array([3.0]), requires_grad=True)

        def doubled_square(t):
            def backward(g):
                t._accum(g * 4.0 * t.data)  # wrong: claims d/dw = 4w

            return nn.Tensor(t.data * t.data, requires_grad=True, parents=(t,),
                             backward=backward)

        err = grad_check(lambda: tsum(doubled_square(w)), [w], h=1e-5)
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

    def test_linear_stores_its_draw_as_d_in_by_d_out(self):
        layer = nn.Linear(4, 3, nn.rng_from_seed(0))
        # the (d_out, d_in) draw layers took before, transposed: same function
        drawn = nn.rng_from_seed(0).normal(0.0, 0.02, (3, 4)).astype(np.float32)
        assert layer.weight.data.shape == (4, 3)
        assert layer.weight.data.flags.c_contiguous
        assert np.array_equal(layer.weight.data, drawn.T)
        x = np.ones((2, 4), dtype=np.float32)
        assert np.array_equal(layer.forward_array(x), x @ drawn.T)

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
        assert np.array_equal(drawn.weight.data, want.T)


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
        tsum(block(x)).backward()
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
            loss = tsum(block(x, mask=nn.causal_mask(3)) * block(x))
            loss.backward()
            del loss
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert x.grad is not None

    def test_second_backward_raises(self):
        # summing into the leaves again would silently turn 36 into 144
        a = nn.parameter(np.array([2.0]))
        c = tsum((a * 3.0) * (a * 3.0))
        c.backward()
        with pytest.raises(nn.SpentGraph):
            c.backward()
        assert np.array_equal(a.grad, [36.0])
        assert issubclass(nn.SpentGraph, RuntimeError)

    def test_losses_sharing_a_subgraph_raise_on_the_second(self):
        a = nn.parameter(np.array([2.0, -1.0]))
        shared = a * 3.0
        first, second = tsum(shared * shared), tsum(shared)
        first.backward()
        with pytest.raises(nn.SpentGraph):
            second.backward()
        # the shared node is found before any closure runs: a is untouched
        assert np.array_equal(a.grad, [36.0, -18.0])
