import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiocap import decoder as dec
from audiocap import lora, nn
from audiocap.decoder import (ACOUSTIC_SLOT, CAPTION_INSTRUCTION,
                              CaptionDecoder, DecoderConfig, Vocabulary,
                              build_vocab, tokenize)
from audiocap.lora import LoraConfig, LoraLinear
from audiocap.model import build_model
from audiocap.nn import Tensor
from _grad_check import tsum
from conftest import random_patches, tiny_config, tiny_vocab


def acoustic_block(n=3, d=32, seed=0):
    return Tensor(nn.rng_from_seed(seed).normal(0, 1, (n, d)).astype(np.float32))


def make_decoder(vocab, seed=0, layers=1, max_seq=128, max_caption=30):
    cfg = DecoderConfig(d_dec=32, layers=layers, heads=2, ffn_mult=2,
                        max_seq=max_seq, max_caption=max_caption)
    return CaptionDecoder(cfg, vocab, nn.rng_from_seed(seed))


# -- reference layout: the instruction encoded here, segments concatenated --

def prompt_ids(vocab):
    """<bos> + the instruction's head, and its tail: the ids around the
    acoustic slot."""
    head, tail = CAPTION_INSTRUCTION.split(ACOUSTIC_SLOT)
    return [Vocabulary.BOS] + vocab.encode(head), vocab.encode(tail)


def caption_ids(vocab, caption):
    """A caption's target ids, its words and <eos>; none for None, an
    inference prompt."""
    return [] if caption is None else vocab.encode(caption) + [Vocabulary.EOS]


def reference_ids(vocab, n, caption):
    """An item's stream as ids, <pad> in its `n` acoustic slots, and the
    mask of its caption positions."""
    head, tail = prompt_ids(vocab)
    ids = np.array(head + [Vocabulary.PAD] * n + tail + caption)
    return ids, np.arange(len(ids)) >= len(ids) - len(caption)


def reference_stream(model, items):
    """(B, T, d) stream of (acoustic block, caption ids) items.

    Each item is its embedded prompt head, its block, its embedded tail and
    caption, and <pad> rows up to the longest item, concatenated; the items
    are then stacked.
    """
    head, tail = (np.array(ids) for ids in prompt_ids(model.vocab))
    lengths = [len(head) + len(block.data) + len(tail) + len(caption)
               for block, caption in items]
    rows = []
    for (block, caption), n in zip(items, lengths):
        segments = [model.embed[head], block, model.embed[tail]]
        if caption:
            segments.append(model.embed[np.array(caption)])
        if max(lengths) > n:
            pad_ids = np.full(max(lengths) - n, Vocabulary.PAD, dtype=np.int64)
            segments.append(model.embed[pad_ids])
        x = nn.concat(segments, axis=0)
        rows.append(x[None])
    return nn.concat(rows, axis=0)


def full_logits(model, x):
    """Every row's logits of the stream x, (..., T, d), recomputed in full:
    the causal forward that training's packing and decoding's caches
    must reproduce."""
    n = x.shape[-2]
    x = x + model.pos[:n]
    for block in model.blocks:
        x = block(x, mask=nn.causal_mask(n))
    return model.head(nn.rms_norm(x, model.out_gain))


def stream_loss(model, items):
    """forward_loss over (caption, acoustic block) pairs."""
    return model.forward_loss(nn.concat([a for _, a in items]),
                              [len(a.data) for _, a in items],
                              [c for c, _ in items])


# -- reference decoding: full recompute, one hypothesis at a time -----------

def reference_step_logits(model, acoustic, generated):
    """Next-token logits from re-splicing and re-running the whole stream."""
    x = reference_stream(model, [(acoustic, generated)])
    if x.shape[1] > model.cfg.max_seq:  # positions 0..max_seq-1 fit
        raise dec.SequenceTooLong(f"decode length {x.shape[1]} exceeds "
                                  f"{model.cfg.max_seq}")
    return full_logits(model, x).data[0, -1]


def reference_greedy(model, acoustic, vocab):
    generated = []
    for _ in range(model.cfg.max_caption):
        tok = int(np.argmax(reference_step_logits(model, acoustic, generated)))
        if tok == vocab.EOS:
            break
        generated.append(tok)
    return vocab.decode(generated)


def reference_beam(model, acoustic, vocab, beam):
    """Exhaustive beam search: every hypothesis runs to <eos> or the cap."""
    live, done = [([], 0.0)], []

    def norm(total, length):
        return total / (max(length, 1) ** dec.LENGTH_NORM)

    for _ in range(model.cfg.max_caption):
        if not live:
            break
        candidates = []
        for ids, total in live:
            row = reference_step_logits(model, acoustic, ids)
            m = row.max()
            logp = row - (m + math.log(np.exp(row - m).sum()))
            for tok in range(len(logp)):
                t2 = total + float(logp[tok])
                candidates.append((norm(t2, len(ids) + 1), ids + [tok], t2))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        live = []
        for _, ids, total in candidates[:beam]:
            (done if ids[-1] == vocab.EOS else live).append((ids, total))
    done.extend(live)
    best = min(done, key=lambda d: (-norm(d[1], len(d[0])), d[0]))
    return vocab.decode(best[0])


# -- reference cached step: autograd ops over a concat-grown cache ----------

class ReferenceCache:
    """A layer's keys and values as Tensors, grown by `nn.concat`."""

    def __init__(self):
        self.keys = self.values = None

    def select(self, rows):
        self.keys, self.values = self.keys[rows], self.values[rows]


def reference_cached_logits(model, x, caches, at):
    """`CaptionDecoder.logits` with caches, as it ran on the autograd ops:
    `nn.affine`, `rms_norm`, `gelu`, `multi_head_attention` and `concat`,
    and `LoraLinear.__call__` for an adapted projection. The bit oracle of
    the array step."""
    def project(layer, h):
        if isinstance(layer, LoraLinear):
            return layer(h)
        return nn.affine(h, layer.weight, layer.bias)

    n = x.shape[-2]
    x = x + model.pos[at:at + n]
    mask = nn.causal_mask(n, at) if n > 1 else None
    for block, cache in zip(model.blocks, caches):
        attn, ffn = block.attn, block.ffn
        h = nn.rms_norm(x, block.attn_gain)
        keys, values = project(attn.k, h), project(attn.v, h)
        if cache.keys is not None:
            keys = nn.concat([cache.keys, keys], axis=-2)
            values = nn.concat([cache.values, values], axis=-2)
        cache.keys, cache.values = keys, values
        ctx = nn.multi_head_attention(project(attn.q, h), keys, values,
                                      attn.n_heads, mask)
        x = x + project(attn.o, ctx)
        h = nn.gelu(project(ffn.up, nn.rms_norm(x, block.ffn_gain)))
        x = x + project(ffn.down, h)
    return project(model.head, nn.rms_norm(x[..., -1:, :], model.out_gain)).data


def relative_error(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestConfig:
    def test_needs_a_layer(self):
        # without a block no row attends to the acoustic rows: the logits
        # of every clip are alike
        with pytest.raises(ValueError, match="layers must be >= 1"):
            DecoderConfig(layers=0)


class TestTokenizer:
    def test_examples(self):
        assert tokenize("A low tone.") == ["a", "low", "tone"]
        assert tokenize("rock 'n' roll") == ["rock", "'n'", "roll"]
        assert tokenize("x:\n---") == ["x", ":", "\n", "---"]

    def test_vocab_round_trip(self):
        vocab = tiny_vocab()
        text = "a high tone followed by silence"
        assert vocab.decode(vocab.encode(text)) == text

    def test_unknown_words_map_to_unk(self):
        vocab = tiny_vocab()
        ids = vocab.encode("a zebra")
        assert ids[1] == Vocabulary.UNK

    def test_specials_pinned(self):
        vocab = tiny_vocab()
        assert vocab.tokens[:4] == ["<bos>", "<eos>", "<pad>", "<unk>"]
        with pytest.raises(ValueError):
            Vocabulary(["<eos>", "<bos>", "<pad>", "<unk>", "a"])

    @pytest.mark.parametrize("rest", [[5], ["a", "a"], ["a", "<pad>"],
                                      ["a", None], [["a"]]],
                             ids=["int", "duplicate", "duplicate-special",
                                  "none", "list"])
    def test_from_tokens_rejects_non_string_and_duplicate_tokens(self, rest):
        with pytest.raises(ValueError):
            Vocabulary(list(dec.SPECIAL_TOKENS) + rest)

    def test_literals_present_once(self):
        vocab = tiny_vocab()
        for lit in (":", "---", "\n"):
            assert vocab.tokens.count(lit) == 1

    def test_instruction_encodes_without_unk(self):
        vocab = tiny_vocab()
        for part in CAPTION_INSTRUCTION.split(ACOUSTIC_SLOT):
            assert Vocabulary.UNK not in vocab.encode(part)

    def test_empty_corpus(self):
        with pytest.raises(dec.EmptyCorpus):
            build_vocab([])

    def test_sorted_words_after_literals(self):
        vocab = tiny_vocab()
        words = vocab.tokens[7:]
        assert words == sorted(words)


class TestSplice:
    def test_prompt_tokens_around_slot(self):
        vocab = tiny_vocab()
        model = make_decoder(vocab)
        prefix = [vocab.tokens[i] for i in model.prompt_head]
        suffix = [vocab.tokens[i] for i in model.prompt_tail]
        assert prefix == ["<bos>", "describe", "the", "detail", "of", "this",
                          "audio", ":"]
        assert suffix == ["\n", "---", "\n", "detailed", ":"]
        assert (model.prompt_head, model.prompt_tail) == prompt_ids(vocab)

    def test_length_is_prompt_plus_acoustic_plus_caption(self):
        vocab = tiny_vocab()
        model = make_decoder(vocab)
        x, lengths = model.embed_stream(acoustic_block(n=45), [45],
                                        [caption_ids(vocab, "a low tone")])
        # 8 prefix + 45 acoustic + 5 suffix + 3 caption + <eos>
        assert lengths == [x.shape[0]] == [8 + 45 + 5 + 4]

    def test_mask_covers_caption_and_eos_only(self, monkeypatch):
        vocab = tiny_vocab()
        model = make_decoder(vocab)
        a = acoustic_block()
        scored = []
        cross_entropy = nn.cross_entropy

        def spy(logits, targets):
            scored.append((logits.data, targets))
            return cross_entropy(logits, targets)

        monkeypatch.setattr(nn, "cross_entropy", spy)
        stream_loss(model, [("a high tone", a)])
        [(rows, targets)] = scored
        ids, mask = reference_ids(vocab, 3, caption_ids(vocab, "a high tone"))
        assert mask.sum() == 4 and np.all(mask[-4:]) and not np.any(mask[:-4])
        assert targets.tolist() == ids[mask].tolist()
        assert targets[-1] == Vocabulary.EOS
        # each scored row is the one before its target
        x, _ = model.embed_stream(a, [3], [ids[mask].tolist()])
        want = full_logits(model, x).data[np.flatnonzero(mask) - 1]
        assert np.allclose(rows, want, rtol=1e-5, atol=1e-6)

    def test_inference_splice_has_empty_caption(self):
        vocab = tiny_vocab()
        model = make_decoder(vocab)
        a = acoustic_block()
        prompt, [n] = model.embed_stream(a, [3], [[]])
        x, _ = model.embed_stream(a, [3], [caption_ids(vocab, "a low tone")])
        assert n == prompt.shape[0] == 8 + 3 + 5
        assert np.array_equal(x.data[:n], prompt.data)

    def test_acoustic_positions_hold_the_bridged_rows(self):
        vocab = tiny_vocab()
        model = make_decoder(vocab)
        a = acoustic_block(n=4)
        x, _ = model.embed_stream(a, [4], [caption_ids(vocab, "silence")])
        assert np.array_equal(x.data[8:12], a.data)

    def test_sequence_too_long(self):
        vocab = tiny_vocab()
        model = make_decoder(vocab, max_seq=64)
        with pytest.raises(dec.SequenceTooLong):
            model.beam_decode(acoustic_block(n=200), beam=1)


class TestForwardLoss:
    def test_duplicate_batch_loss_invariance(self):
        vocab = tiny_vocab()
        model = make_decoder(vocab)
        a = acoustic_block()
        single = float(stream_loss(model, [("a low tone", a)]).data)
        double = float(stream_loss(model, [("a low tone", a),
                                           ("a low tone", a)]).data)
        assert abs(single - double) < 1e-6

    def test_zeroed_head_gives_uniform_loss(self):
        vocab = tiny_vocab()
        model = make_decoder(vocab)
        model.head.weight.data[:] = 0.0
        model.head.bias.data[:] = 0.0
        a = acoustic_block()
        loss = float(stream_loss(model, [("a high tone", a)]).data)
        assert abs(loss - math.log(len(vocab))) < 1e-5

    def test_prompt_positions_do_not_contribute(self):
        # recompute the masked objective by hand from raw logits and check
        # scrambling non-caption rows leaves it unchanged
        vocab = tiny_vocab()
        model = make_decoder(vocab)
        a = acoustic_block()
        caption = caption_ids(vocab, "an upward chirp")
        loss = float(stream_loss(model, [("an upward chirp", a)]).data)
        logits = full_logits(model, model.embed_stream(a, [3], [caption])[0]).data
        ids, mask = reference_ids(vocab, 3, caption)
        rows = logits[:-1].copy()
        targets = ids[1:]
        keep = mask[1:]
        r = nn.rng_from_seed(8)
        rows[~keep] = r.normal(0, 10, rows[~keep].shape)  # scramble excluded rows
        per = []
        for row, t in zip(rows[keep], targets[keep]):
            m = row.max()
            per.append(-(row[t] - m - math.log(np.exp(row - m).sum())))
        assert abs(loss - float(np.mean(per))) < 1e-5

    def test_empty_batch(self):
        model = make_decoder(tiny_vocab())
        with pytest.raises(nn.EmptyTargetSet):
            model.forward_loss(acoustic_block(n=0), [], [])

    def test_batch_over_max_seq(self):
        vocab = tiny_vocab()
        model = make_decoder(vocab, max_seq=32)
        a = acoustic_block(n=40)
        with pytest.raises(dec.SequenceTooLong):
            stream_loss(model, [("a low tone", a)])

    def test_padding_does_not_change_loss(self):
        vocab = tiny_vocab()
        model = make_decoder(vocab)
        a_short, a_long = acoustic_block(n=2), acoustic_block(n=9, seed=4)
        short, long = "silence", "a noise burst followed by silence"
        alone = float(stream_loss(model, [(short, a_short)]).data)
        # in a mixed batch the short item is packed beside the long one; its
        # per-position losses must be unaffected
        mixed = float(stream_loss(model, [(short, a_short),
                                          (long, a_long)]).data)
        other = float(stream_loss(model, [(long, a_long)]).data)
        n_short = len(caption_ids(vocab, short))
        n_long = len(caption_ids(vocab, long))
        expected = (alone * n_short + other * n_long) / (n_short + n_long)
        assert abs(mixed - expected) < 1e-5


class TestStream:
    @given(st.lists(st.tuples(st.integers(1, 6),
                              st.one_of(st.none(), st.integers(0, 9))),
                    min_size=1, max_size=5),
           st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_stream(self, items, seed):
        # items: (acoustic rows, caption words or None for an inference prompt)
        vocab = tiny_vocab()
        model = make_decoder(vocab, seed=seed % 7)
        r = nn.rng_from_seed(seed)
        words = vocab.tokens[7:]
        blocks, captions = [], []
        for i, (n, n_words) in enumerate(items):
            block = Tensor(r.normal(0, 1, (n, 32)).astype(np.float32),
                           requires_grad=True)
            caption = (None if n_words is None else
                       " ".join(r.choice(words, size=n_words)))
            blocks.append(block)
            captions.append(caption_ids(vocab, caption))
        got, lengths = model.embed_stream(nn.concat(blocks), [n for n, _ in items],
                                          captions)
        # the packed layout: the shared head once, then each item's own
        # rows, item after item
        padded = reference_stream(model, list(zip(blocks, captions)))
        head = len(prompt_ids(vocab)[0])
        want_lengths = [len(reference_ids(vocab, n, c)[0])
                        for (n, _), c in zip(items, captions)]
        assert lengths == want_lengths
        want = nn.concat([padded[i, head * (i > 0):n]
                          for i, n in enumerate(want_lengths)])
        assert got.dtype == want.dtype and np.array_equal(got.data, want.data)
        # the gradients: the acoustic rows' exactly, the token table's up
        # to the order in which its repeated rows are summed
        weights = r.normal(0, 1, want.shape).astype(np.float32)
        grads = []
        for stream in (got, want):
            for t in blocks + [model.embed]:
                t.grad = None
            tsum(stream * weights).backward()
            grads.append([t.grad for t in blocks + [model.embed]])
        for g, w in zip(grads[0][:-1], grads[1][:-1]):
            assert np.array_equal(g, w)
        assert np.allclose(grads[0][-1], grads[1][-1], rtol=1e-5, atol=1e-5)

    def test_decode_prompt_matches_reference(self, monkeypatch):
        # decoding's first `logits` call runs the prompt: the stream of a
        # batch of one without a caption, as (1, T, d)
        vocab = tiny_vocab()
        model = make_decoder(vocab, max_caption=1)
        a = acoustic_block(n=5)
        seen = []
        logits = CaptionDecoder.logits

        def spy(self, x, *args, **kwargs):
            seen.append(x.data.copy())
            return logits(self, x, *args, **kwargs)

        monkeypatch.setattr(CaptionDecoder, "logits", spy)
        model.greedy_decode(a)
        want = reference_stream(model, [(a, [])]).data
        assert seen[0].dtype == want.dtype and np.array_equal(seen[0], want)

    def test_rows_must_match_the_items(self):
        vocab = tiny_vocab()
        model = make_decoder(vocab)
        caption = caption_ids(vocab, "a low tone")
        with pytest.raises(nn.ShapeMismatch):
            model.embed_stream(acoustic_block(n=5), [3, 3], [caption, caption])


def unshared_loss(model, acoustic, counts, captions):
    """`forward_loss` with every item's whole stream packed, its instruction
    head too: the oracle of the shared head. The loss and its scored rows."""
    targets = [caption_ids(model.vocab, c) for c in captions]
    ends = np.cumsum(counts)
    x = nn.concat([model.embed_stream(acoustic[end - n:end], [n], [t])[0]
                   for n, end, t in zip(counts, ends, targets)])
    refs = [reference_ids(model.vocab, n, t) for n, t in zip(counts, targets)]
    packing = nn.Packing([len(ids) for ids, _ in refs], True, 0)
    logits = model.logits(x, at=packing)
    ids = np.concatenate([ids for ids, _ in refs])
    scored = np.flatnonzero(np.concatenate([mask for _, mask in refs]))
    rows = logits[scored - 1]
    return nn.cross_entropy(rows, ids[scored]), rows.data


class TestSharedHead:
    # (acoustic rows, caption words) per item. OpenBLAS multiplies small
    # matrices in a kernel that rounds otherwise than its blocked one and
    # picks it by size, so each batch holds enough rows that its products
    # run in the same kernel with and without the repeated heads.
    BATCHES = {"ragged": [(3, 14), (1, 19), (6, 11), (2, 15)],
               "one": [(4, 12)],
               "equal": [(2, 20), (2, 20)]}

    @staticmethod
    def batch(items, mode, dtype, seed=3):
        vocab = tiny_vocab()
        model = make_decoder(vocab, seed=seed, layers=2)
        if mode == "lora":  # q and v adapted, with an adapter that is not zero
            lora.apply_mode(model, "lora", LoraConfig(rank=2, alpha=4.0), 5)
            r = nn.rng_from_seed(6)
            for layer in model.modules():
                if isinstance(layer, LoraLinear):
                    layer.lora_b.data = r.normal(
                        0, 0.1, layer.lora_b.shape).astype(np.float32)
        model.astype(dtype)
        r = nn.rng_from_seed(seed)
        words = vocab.tokens[7:]
        acoustic = Tensor(r.normal(0, 1, (sum(n for n, _ in items), 32))
                          .astype(dtype), requires_grad=True)
        captions = [" ".join(r.choice(words, size=w)) for _, w in items]
        return model, (acoustic, [n for n, _ in items], captions)

    @pytest.mark.parametrize("mode", ["full_finetune", "lora"])
    @pytest.mark.parametrize("name", list(BATCHES))
    def test_logits_match_unshared_bits(self, monkeypatch, name, mode):
        model, batch = self.batch(self.BATCHES[name], mode, np.float32)
        scored = []
        cross_entropy = nn.cross_entropy

        def spy(logits, targets):
            scored.append(logits.data)
            return cross_entropy(logits, targets)

        monkeypatch.setattr(nn, "cross_entropy", spy)
        loss = model.forward_loss(*batch)
        monkeypatch.undo()
        want, rows = unshared_loss(model, *batch)
        assert scored[0].tobytes() == rows.tobytes()
        assert loss.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("mode", ["full_finetune", "lora"])
    @pytest.mark.parametrize("name", list(BATCHES))
    def test_gradients_match_unshared(self, name, mode):
        model, batch = self.batch(self.BATCHES[name], mode, np.float64)
        params = {k: p for k, p in dict(model.named_parameters(),
                                        acoustic=batch[0]).items()
                  if p.requires_grad}
        grads = []
        for loss_fn in (model.forward_loss,
                        lambda *b: unshared_loss(model, *b)[0]):
            for p in params.values():
                p.grad = None
            loss_fn(*batch).backward()
            grads.append({k: p.grad for k, p in params.items()})
        got, want = grads
        assert len(want) > 8
        if mode == "full_finetune":
            # the head's token and position rows, summed over every item
            head = prompt_ids(model.vocab)[0]
            assert np.all(got["embed"][head] != 0) and np.all(got["pos"][:8] != 0)
        # the key biases' gradients are zero in exact arithmetic, so each
        # gradient is measured against at least 1e-6 of the largest entry
        floor = 1e-6 * max(np.max(np.abs(w)) for w in want.values())
        for k, w in want.items():
            scale = max(np.max(np.abs(w)), floor)
            assert np.max(np.abs(got[k] - w)) <= 1e-10 * scale, k


class TestCausality:
    def test_future_caption_tokens_do_not_affect_past_logits(self):
        vocab = tiny_vocab()
        model = make_decoder(vocab)
        acoustic = acoustic_block()
        a = reference_step_logits(model, acoustic, vocab.encode("a low"))
        b = reference_step_logits(model, acoustic, vocab.encode("a low"))
        assert np.array_equal(a, b)
        # extending the sequence must not alter the logits at earlier steps
        caption = caption_ids(vocab, "a low tone")
        full = full_logits(model, model.embed_stream(acoustic, [3], [caption])[0]).data
        trunc = full_logits(model, model.embed_stream(acoustic, [3],
                                                      [caption[:1]])[0]).data
        assert np.allclose(full[:trunc.shape[0]], trunc, atol=1e-5)


def row_log_softmax(row):
    """The log-softmax of one 1-D row, as decoding computed it row by row:
    the bit oracle of the batched `_log_softmax`."""
    m = row.max()
    return row - (m + math.log(np.exp(row - m).sum()))


class TestLogSoftmax:
    @pytest.mark.parametrize("width", [1, 3, 64])
    @pytest.mark.parametrize("vocab_size", [1, 27, 300, 4099])
    @pytest.mark.parametrize("seed", range(3))
    def test_rows_match_one_row_at_a_time(self, width, vocab_size, seed):
        r = nn.rng_from_seed([seed, width, vocab_size])
        rows = r.normal(0, 4, (width, vocab_size)).astype(np.float32)
        # ties: a row of one value, and values repeated across a row
        rows[0, :vocab_size // 2] = rows[0, 0]
        rows[-1] = np.round(rows[-1])
        if width > 2:
            rows[1] = 0.5
        got = dec._log_softmax(rows)
        assert got.dtype == rows.dtype
        for g, row in zip(got, rows):
            assert g.tobytes() == row_log_softmax(row).tobytes()


class TestDecoding:
    @given(seed=st.integers(0, 10_000),
           head_scale=st.sampled_from([0.0, 1.0, 30.0, 300.0]),
           eos_bias=st.sampled_from([0.0, 3.0]))
    @settings(max_examples=24, deadline=None)
    def test_beam_one_equals_greedy(self, seed, head_scale, eos_bias):
        # head_scale 0 with eos_bias 0 ties every logit: greedy takes id 0
        vocab = tiny_vocab()
        model = make_decoder(vocab, seed=seed, layers=2, max_caption=8)
        model.head.weight.data *= head_scale
        model.head.bias.data[vocab.EOS] = eos_bias
        acoustic = acoustic_block(n=1 + seed % 5, seed=seed)
        assert (model.beam_decode(acoustic, beam=1)
                == reference_greedy(model, acoustic, vocab))

    def test_beam_one_never_reorders_the_caches(self, monkeypatch):
        # one survivor is always the one row the caches hold
        selects = []
        real = nn.KVCache.select

        def spy(self, rows):
            selects.append(rows)
            real(self, rows)

        monkeypatch.setattr(nn.KVCache, "select", spy)
        vocab = tiny_vocab()
        bias = np.zeros(len(vocab))
        bias[vocab.EOS] = -50.0  # nothing ends: every step runs
        model = bias_only_decoder(vocab, max_caption=6, bias=bias)
        calls = count_logits(monkeypatch)
        model.beam_decode(acoustic_block(), beam=1)
        assert len(calls) == 6 and selects == []
        model.beam_decode(acoustic_block(), beam=3)
        assert selects  # wider beams still reorder

    def test_beam_finds_no_worse_unnormalized_hypothesis(self, monkeypatch):
        monkeypatch.setattr(dec, "LENGTH_NORM", 0.0)
        vocab = tiny_vocab()
        model = make_decoder(vocab, seed=3, max_caption=6)
        acoustic = acoustic_block(seed=3)

        def total_logprob(text):
            ids = vocab.encode(text) + [vocab.EOS]
            total, prefix = 0.0, []
            for tok in ids:
                row = reference_step_logits(model, acoustic, prefix)
                m = row.max()
                total += float(row[tok] - m - math.log(np.exp(row - m).sum()))
                prefix.append(tok)
            return total

        greedy = model.greedy_decode(acoustic)
        beam = model.beam_decode(acoustic, beam=4)
        assert total_logprob(beam) >= total_logprob(greedy) - 1e-9

    def test_greedy_respects_max_caption(self):
        vocab = tiny_vocab()
        model = make_decoder(vocab, max_caption=7)
        model.head.weight.data[:] = 0.0
        model.head.bias.data[:] = 0.0
        model.head.bias.data[Vocabulary.UNK] = 5.0  # eos never wins
        out = model.greedy_decode(acoustic_block())
        assert out == " ".join(["<unk>"] * 7)

    def test_zeroed_head_ties_resolve_to_lowest_id(self):
        vocab = tiny_vocab()
        model = make_decoder(vocab, max_caption=5)
        model.head.weight.data[:] = 0.0
        model.head.bias.data[:] = 0.0
        # all logits equal: argmax returns id 0 = <bos>, never <eos>, so
        # decoding runs to the cap and strips specials
        out = model.greedy_decode(acoustic_block())
        assert out == ""

    def test_beam_width_validated(self):
        vocab = tiny_vocab()
        model = make_decoder(vocab)
        with pytest.raises(ValueError):
            model.beam_decode(acoustic_block(), beam=0)

    def test_decode_hits_sequence_cap(self):
        vocab = tiny_vocab()
        model = make_decoder(vocab, max_seq=20)
        model.head.weight.data[:] = 0.0
        model.head.bias.data[:] = 0.0
        model.head.bias.data[Vocabulary.UNK] = 5.0
        acoustic = acoustic_block(n=5)  # 8 + 5 + 5 = 18 prompt positions
        decoders = [
            lambda: model.greedy_decode(acoustic),
            lambda: model.beam_decode(acoustic, beam=2),
            lambda: reference_greedy(model, acoustic, vocab),
            lambda: reference_beam(model, acoustic, vocab, 2)]
        for decode in decoders:
            model.cfg.max_caption = 3
            # the third step scores position 19, the last of 20
            assert decode() == "<unk> <unk> <unk>"
            model.cfg.max_caption = 4
            with pytest.raises(dec.SequenceTooLong):  # position 20
                decode()
        model.cfg.max_caption = 30
        with pytest.raises(dec.SequenceTooLong):
            model.greedy_decode(acoustic)

    def test_a_caption_that_fits_is_not_refused(self, monkeypatch):
        # the prompt fills positions 0-15 and "low" position 16, the last
        # of max_seq 17; the step there picks <eos>, so "low" fits
        vocab = tiny_vocab()
        model = make_decoder(vocab, max_seq=17)
        acoustic = acoustic_block(n=3)  # 8 + 3 + 5 = 16 prompt positions
        real = CaptionDecoder.logits
        for beam in (1, 2):
            picks = iter([vocab.index["low"], Vocabulary.EOS])

            def steered(self, x, *args, **kwargs):
                rows = real(self, x, *args, **kwargs)  # the real step runs
                out = np.zeros_like(rows.data)
                out[..., next(picks)] = 1.0
                return Tensor(out)

            monkeypatch.setattr(CaptionDecoder, "logits", steered)
            assert model.beam_decode(acoustic, beam) == "low"
            assert next(picks, None) is None


class TestCachedDecoding:
    CAPTION = "a low tone followed by silence"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cached_logits_match_full_recompute(self, seed):
        vocab = tiny_vocab()
        model = make_decoder(vocab, seed=seed, layers=2)
        acoustic = acoustic_block(n=4, seed=seed)
        prompt = reference_stream(model, [(acoustic, [])])
        start = prompt.shape[1]
        ids = vocab.encode(self.CAPTION)
        caches = [nn.KVCache(3, start + len(ids) + 1, 32, np.float32)
                  for _ in model.blocks]
        rows = model.logits(prompt, caches)
        want = reference_step_logits(model, acoustic, [])
        assert relative_error(rows.data[0, -1], want) < 1e-5
        for i, tok in enumerate(ids):
            x = model.embed[np.array([[tok]])]
            row = model.logits(x, caches, start).data[0, -1]
            start += 1
            want = reference_step_logits(model, acoustic, ids[:i + 1])
            assert relative_error(row, want) < 1e-5
        # fan the one row out into three hypotheses with different next tokens
        for cache in caches:
            cache.select(np.array([0, 0, 0]))
        branch = [vocab.EOS, ids[0], ids[-1]]
        x = model.embed[np.array(branch)[:, None]]
        rows = model.logits(x, caches, start).data[:, -1]
        for row, tok in zip(rows, branch):
            want = reference_step_logits(model, acoustic, ids + [tok])
            assert relative_error(row, want) < 1e-5

    @pytest.mark.parametrize("adapted", [False, True], ids=["plain", "lora"])
    @pytest.mark.parametrize("width", [1, 3])
    def test_cached_step_matches_reference_bits(self, width, adapted):
        # a prefill and 10 token steps; between steps the caches gather
        # `width` rows of the ones they hold, repeats and reorders included
        vocab = tiny_vocab()
        model = make_decoder(vocab, seed=width, layers=2)
        if adapted:  # q and v adapted, with an adapter that is not zero
            lora.apply_mode(model, "lora", LoraConfig(rank=2, alpha=4.0), 5)
            r = nn.rng_from_seed(6)
            for layer in model.modules():
                if isinstance(layer, LoraLinear):
                    layer.lora_b.data = r.normal(
                        0, 0.1, layer.lora_b.shape).astype(np.float32)
        r = nn.rng_from_seed(7)
        steps = 10
        with nn.no_grad():
            x = reference_stream(model, [(acoustic_block(n=4, seed=width), [])])
            caches = [nn.KVCache(width, x.shape[1] + steps, 32, np.float32)
                      for _ in model.blocks]
            references = [ReferenceCache() for _ in model.blocks]
            at = 0
            for _ in range(1 + steps):
                got = model.logits(x, caches, at)
                want = reference_cached_logits(model, x, references, at)
                assert got.dtype == want.dtype and got.shape == (len(x.data), 1, len(vocab))
                assert np.array_equal(got.data, want)
                at += x.shape[1]
                rows = r.integers(0, len(x.data), size=width)
                for cache in caches + references:
                    cache.select(rows)
                x = model.embed[r.integers(0, len(vocab), size=(width, 1))]

    @pytest.mark.parametrize("seed,zero_head", [
        (0, False), (1, False), (2, False), (3, False), (4, False),
        (0, True)])
    def test_captions_match_reference(self, seed, zero_head):
        vocab = tiny_vocab()
        model = make_decoder(vocab, seed=seed, layers=2, max_caption=8)
        if zero_head:  # every logit ties at every step
            model.head.weight.data[:] = 0.0
            model.head.bias.data[:] = 0.0
        acoustic = acoustic_block(n=3 + seed, seed=seed)
        assert (model.greedy_decode(acoustic)
                == reference_greedy(model, acoustic, vocab))
        for beam in (1, 2, 3, 4):
            assert (model.beam_decode(acoustic, beam=beam)
                    == reference_beam(model, acoustic, vocab, beam))

    @pytest.mark.parametrize("beam", [1, 3])
    def test_caption_patches_builds_no_graph(self, monkeypatch, beam):
        model = build_model(tiny_config(), tiny_vocab())
        model.cfg.decoder.max_caption = 4
        seen = []
        for name in ("greedy_decode", "beam_decode"):
            real = getattr(CaptionDecoder, name)

            def spy(self, acoustic, *args, real=real, **kwargs):
                seen.append(acoustic)
                return real(self, acoustic, *args, **kwargs)

            monkeypatch.setattr(CaptionDecoder, name, spy)
        model.caption_patches(random_patches(), beam=beam)
        # beam 1 enters through greedy_decode, which calls beam_decode
        assert seen and all(a._parents == () and not a.requires_grad
                            for a in seen)
        # grad mode is back on afterwards: a training loss builds its graph
        loss = model.loss_on_batch([(random_patches(), "a low tone")])
        assert loss.requires_grad and loss._backward is not None


def count_logits(monkeypatch):
    """Patch CaptionDecoder.logits to count its calls; returns the count list."""
    calls = []
    real = CaptionDecoder.logits

    def counting(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(CaptionDecoder, "logits", counting)
    return calls


def bias_only_decoder(vocab, max_caption, bias=None):
    """Every step's logits are the head bias (zeros unless given)."""
    model = make_decoder(vocab, max_caption=max_caption)
    model.head.weight.data[:] = 0.0
    model.head.bias.data[:] = 0.0 if bias is None else bias
    return model


class TestBeamStop:
    @given(seed=st.integers(0, 10_000), beam=st.integers(1, 4),
           max_caption=st.integers(1, 8),
           head_scale=st.sampled_from([0.0, 1.0, 30.0, 300.0]),
           eos_bias=st.sampled_from([0.0, 3.0]))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_beam(self, seed, beam, max_caption, head_scale,
                                    eos_bias):
        # head_scale 0 with eos_bias 0 is the all-ties head: every logit is
        # equal at every step, so no strict bound may stop the search early
        vocab = tiny_vocab()
        model = make_decoder(vocab, seed=seed, layers=2, max_caption=max_caption)
        model.head.weight.data *= head_scale
        model.head.bias.data[vocab.EOS] = eos_bias
        acoustic = acoustic_block(n=1 + seed % 5, seed=seed)
        assert (model.beam_decode(acoustic, beam=beam)
                == reference_beam(model, acoustic, vocab, beam))

    def test_stops_once_a_finished_caption_cannot_be_beaten(self, monkeypatch):
        vocab = tiny_vocab()
        bias = np.zeros(len(vocab))
        bias[vocab.EOS] = 8.0
        model = bias_only_decoder(vocab, max_caption=16, bias=bias)
        acoustic = acoustic_block()
        want = reference_beam(model, acoustic, vocab, 3)
        calls = count_logits(monkeypatch)
        assert model.beam_decode(acoustic, beam=3) == want == ""
        # <eos> ends at step 0 with log-prob ~0; the two live totals are
        # ~-8, bounded by -8 / 16**0.75 = -1. Without the stop the two
        # hypotheses' descendants never all end, so the loop ran 16 steps.
        assert len(calls) == 1

    def test_a_tie_with_the_bound_does_not_stop(self, monkeypatch):
        # all ties, beam 2: [<eos>] ends at step 0 with score a = log(1/V);
        # [<bos>]*s lives on with total s*a, exact in float64 because a is
        # a float32 value, and 16**0.75 is exactly 8, so the bound s*a/8
        # equals the best at s = 8 and first falls below it at s = 9
        assert 16 ** dec.LENGTH_NORM == 8.0
        vocab = tiny_vocab()
        model = bias_only_decoder(vocab, max_caption=16)
        acoustic = acoustic_block()
        want = reference_beam(model, acoustic, vocab, 2)
        calls = count_logits(monkeypatch)
        assert model.beam_decode(acoustic, beam=2) == want == ""
        assert len(calls) == 9

    def test_a_live_hypothesis_that_can_still_win_keeps_it_going(self,
                                                                 monkeypatch):
        # step 0 keeps [tone] (log-prob ~0), ends [<eos>] (~-5) and keeps
        # [<bos>] (~-20). The worst live total is bounded by -20 / 4**0.75,
        # below -5, but [tone] is not, and its descendants win.
        vocab = tiny_vocab()
        bias = np.zeros(len(vocab))
        bias[vocab.index["tone"]], bias[vocab.EOS] = 20.0, 15.0
        model = bias_only_decoder(vocab, max_caption=4, bias=bias)
        acoustic = acoustic_block()
        want = reference_beam(model, acoustic, vocab, 3)
        calls = count_logits(monkeypatch)
        assert model.beam_decode(acoustic, beam=3) == want == "tone tone tone tone"
        assert len(calls) == 4

    @pytest.mark.parametrize("beam,eos_bias", [(1, 0.0), (3, -50.0)])
    def test_without_a_finished_caption_every_step_runs(self, monkeypatch,
                                                        beam, eos_bias):
        # beam 1 on the all-ties head always takes <bos> (id 0), and a
        # -50 bias keeps <eos> out of a beam of 3: nothing ever ends, so
        # the search runs all max_caption steps, as it did without the stop
        vocab = tiny_vocab()
        bias = np.zeros(len(vocab))
        bias[vocab.EOS] = eos_bias
        model = bias_only_decoder(vocab, max_caption=7, bias=bias)
        acoustic = acoustic_block()
        want = reference_beam(model, acoustic, vocab, beam)
        calls = count_logits(monkeypatch)
        assert model.beam_decode(acoustic, beam=beam) == want
        assert len(calls) == 7
