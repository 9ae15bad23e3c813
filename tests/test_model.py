from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from audiocap import nn
from audiocap.bridge import output_count
from audiocap.decoder import CaptionDecoder
from audiocap.model import build_model
from conftest import random_patches, tiny_config, tiny_vocab

CAPTIONS = ["a low tone", "a high tone followed by silence",
            "an upward chirp", "a noise burst followed by a low tone"]


def reference_loss_on_batch(model, batch):
    """The loss with the encoder and the bridge run once per clip."""
    blocks = [model.bridge(model.encoder(p)) for p, _ in batch]
    return model.decoder.forward_loss(nn.concat(blocks),
                                      [len(a.data) for a in blocks],
                                      [caption for _, caption in batch])


def op_counts(root):
    """Op nodes of `root`'s autograd graph by the op that made them."""
    counts, seen, todo = Counter(), {id(root)}, [root]
    while todo:
        t = todo.pop()
        if t._backward is not None:
            counts[t._backward.__qualname__.split(".<locals>")[0]] += 1
        for p in t._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return counts


def relative(a, b, floor=0.0):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), floor))


def loss_and_grads(model, loss_fn, batch):
    for p in model.parameters():
        p.grad = None
    loss = loss_fn(model, batch)
    loss.backward()
    return float(loss.data), {k: p.grad for k, p in
                              model.named_parameters().items()}


class TestBatchedLoss:
    # time patches per clip, 4 acoustic tokens each, windows of 17 tokens
    @pytest.mark.parametrize("time_patches", [
        [5, 2, 7],      # ragged, every clip with a short last window
        [17, 3],        # 68 tokens fill 4 windows exactly; 12 tokens, 1 short
        [4, 4, 4, 4],   # equal lengths: no encoder padding
        [6],            # a batch of one
    ])
    def test_matches_per_clip_reference(self, time_patches):
        model = build_model(tiny_config(seed=1), tiny_vocab(CAPTIONS))
        batch = [(random_patches(seed=10 + i, time_patches=tp),
                  CAPTIONS[i % len(CAPTIONS)])
                 for i, tp in enumerate(time_patches)]
        loss, grads = loss_and_grads(
            model, lambda m, b: m.loss_on_batch(b), batch)
        ref_loss, ref_grads = loss_and_grads(
            model, reference_loss_on_batch, batch)
        assert loss == pytest.approx(ref_loss, rel=1e-5)
        # the key biases' gradients are zero in exact arithmetic, so each
        # gradient is measured against at least 1e-5 of the largest entry
        floor = 1e-5 * max(np.max(np.abs(g)) for g in ref_grads.values())
        for name, g in grads.items():
            assert g is not None and g.shape == ref_grads[name].shape, name
            assert relative(g, ref_grads[name], floor) < 1e-5, name

    # (time patches, caption words) per clip; the words run from a
    # per-clip offset through CAPTIONS' words, so lengths and words mix
    @given(st.lists(st.tuples(st.integers(1, 20), st.integers(1, 12)),
                    min_size=1, max_size=6))
    @example([(6, 3)])  # a batch of one
    @example([(7, 2), (16, 3), (15, 9)])  # off by 1.11e-5 in float32
    @settings(max_examples=20, deadline=None)
    def test_matches_per_clip_reference_property(self, clips):
        # in float64, so that the key biases' zero gradients are not
        # float32 rounding noise measured against rounding noise
        words = " ".join(CAPTIONS).split()
        model = build_model(tiny_config(seed=1),
                            tiny_vocab(CAPTIONS)).astype(np.float64)
        batch = [(random_patches(seed=40 + i, time_patches=tp),
                  " ".join((words * 2)[i:i + n]))
                 for i, (tp, n) in enumerate(clips)]
        loss, grads = loss_and_grads(
            model, lambda m, b: m.loss_on_batch(b), batch)
        ref_loss, ref_grads = loss_and_grads(
            model, reference_loss_on_batch, batch)
        assert loss == pytest.approx(ref_loss, rel=1e-5)
        floor = 1e-5 * max(np.max(np.abs(g)) for g in ref_grads.values())
        for name, g in grads.items():
            assert g is not None and g.shape == ref_grads[name].shape, name
            assert relative(g, ref_grads[name], floor) < 1e-5, name

    def test_backward_frees_every_op_node(self):
        model = build_model(tiny_config(seed=1), tiny_vocab(CAPTIONS))
        batch = [(random_patches(seed=60 + i, time_patches=tp), caption)
                 for i, (tp, caption) in enumerate(zip([5, 2, 7], CAPTIONS))]
        for p in model.parameters():
            p.grad = None
        loss = model.loss_on_batch(batch)
        inner, seen, todo = [], {id(loss)}, [loss]
        while todo:  # every op node, collected before backward spends them
            t = todo.pop()
            if t._backward is not None:
                inner.append(t)
            for p in t._parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    todo.append(p)
        assert len(inner) > 50
        loss.backward()
        for t in inner:
            assert t.grad is None and t._backward is None and t._parents is None
        grads = {k: p.grad for k, p in model.named_parameters().items()}
        _, ref_grads = loss_and_grads(model, reference_loss_on_batch, batch)
        floor = 1e-5 * max(np.max(np.abs(g)) for g in ref_grads.values())
        for name, g in grads.items():
            assert g is not None and relative(g, ref_grads[name], floor) < 1e-5, name

    def test_decoder_scores_real_rows_only(self, monkeypatch):
        model = build_model(tiny_config(seed=1), tiny_vocab(CAPTIONS))
        batch = [(random_patches(seed=50 + i, time_patches=tp), caption)
                 for i, (tp, caption) in enumerate(zip([5, 2, 7], CAPTIONS))]
        window = model.cfg.bridge.window
        # <bos> + 7 instruction words, the bridged rows, 5 tail tokens, the
        # caption and <eos>
        lengths = [8 + output_count(p.count, window) + 5
                   + len(model.decoder.vocab.encode(caption)) + 1
                   for p, caption in batch]
        assert len(set(lengths)) > 1  # padded, the parent would score more
        shapes = []
        logits = CaptionDecoder.logits

        def spy(self, x, *args, **kwargs):
            shapes.append(x.shape)
            return logits(self, x, *args, **kwargs)

        monkeypatch.setattr(CaptionDecoder, "logits", spy)
        model.loss_on_batch(batch)
        # the shared 8-row instruction head once, then each item's own rows
        assert shapes == [(sum(lengths) - 8 * (len(batch) - 1),
                           model.cfg.decoder.d_dec)]

    def test_padding_changes_no_real_token(self):
        model = build_model(tiny_config(seed=2), tiny_vocab())
        clips = [random_patches(seed=20, time_patches=3),
                 random_patches(seed=21, time_patches=8)]
        with nn.no_grad():
            batched = model.encoder.forward_batch(clips)
            starts = np.cumsum([0] + [p.count for p in clips])
            for start, p in zip(starts, clips):
                alone = model.encoder(p).data
                assert np.allclose(batched.data[start:start + p.count], alone,
                                   rtol=1e-5, atol=1e-6)
            rows, counts = model.bridge.forward_batch(batched,
                                                      [p.count for p in clips])
            window = model.cfg.bridge.window
            assert counts == [output_count(p.count, window) for p in clips]
            ends = np.cumsum(counts)
            assert rows.shape[0] == ends[-1]
            for end, p in zip(ends, clips):
                alone = model.bridge(model.encoder(p)).data
                assert np.allclose(rows.data[end - len(alone):end], alone,
                                   rtol=1e-5, atol=1e-6)

    def test_stream_ops_do_not_grow_with_the_batch(self):
        # the batch's decoder input is one gather, whatever the clip count
        model = build_model(tiny_config(seed=3), tiny_vocab(CAPTIONS))
        census = []
        for size in (1, 4, 8):
            batch = [(random_patches(seed=30 + i, time_patches=2 + i % 5),
                      CAPTIONS[i % len(CAPTIONS)]) for i in range(size)]
            ops = op_counts(model.loss_on_batch(batch))
            census.append((ops["Tensor.__getitem__"], ops["concat"]))
        assert census[0] == census[1] == census[2], census

    def test_empty_batch(self):
        model = build_model(tiny_config(), tiny_vocab())
        with pytest.raises(nn.EmptyTargetSet):
            model.loss_on_batch([])


class TestAstype:
    def test_cast_keeps_parameters_and_flags(self):
        model = build_model(tiny_config(seed=4, strategy="lora"), tiny_vocab())
        assert {p.dtype for p in model.parameters()} == {np.dtype(np.float32)}
        before = {k: (p, p.requires_grad)
                  for k, p in model.named_parameters().items()}
        assert model.astype(np.float64) is model
        after = model.named_parameters()
        assert list(after) == list(before)
        for name, p in after.items():
            assert p is before[name][0], name
            assert p.requires_grad == before[name][1], name
            assert p.dtype == np.float64, name
        loss = model.loss_on_batch([(random_patches(seed=5), CAPTIONS[1])])
        assert loss.dtype == np.float64
