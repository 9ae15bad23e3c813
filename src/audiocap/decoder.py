"""Instruction-prompted autoregressive caption decoder.

An item's stream is <bos> and the fixed instruction's head, the bridged
acoustic rows in the instruction's slot, the instruction's tail, then (at
training time) the caption and <eos>. The decoder is built from its
vocabulary and encodes the head and tail once; `embed_stream` lays out
any batch from the bridged rows, one row count per item, and the caption
ids. The bridged rows are soft-prompt rows of the token table, so a
batch's stream, and the inference prompt as its batch of one with no
caption, is one gather. The logits run in two modes. Training packs the
batch's shared instruction head once, then each item's own rows, so no
pad row and no repeated head row is computed, and attention stays causal
within each item. Decoding extends per-layer key/value caches by the new
rows and scores the last one. Loss is masked to caption positions only.
Word-level vocabulary; one beam search writes every caption, greedy
decoding being its width 1, with deterministic tie-breaking.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import nn
from .nn import Linear, Module, Tensor, TransformerBlock


class EmptyCorpus(ValueError):
    pass


class SequenceTooLong(ValueError):
    pass


# Instruction template; the audio slot is replaced by bridged embeddings.
CAPTION_INSTRUCTION = "Describe the detail of this audio: <AcousticTokens> \n --- \n Detailed: "
ACOUSTIC_SLOT = "<AcousticTokens>"

# Beam hypotheses score total log-prob / length ** LENGTH_NORM.
LENGTH_NORM = 0.75

SPECIAL_TOKENS = ("<bos>", "<eos>", "<pad>", "<unk>")
LITERAL_TOKENS = (":", "---", "\n")

_TOKEN_RE = re.compile(r"\n|---|:|[a-z0-9']+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split into words [a-z0-9'] plus the literal tokens."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Vocabulary:
    """Tokens by id, the specials at ids 0-3; it builds its own `index`."""

    tokens: list[str]

    BOS = 0
    EOS = 1
    PAD = 2
    UNK = 3

    def __post_init__(self):
        if list(self.tokens[:4]) != list(SPECIAL_TOKENS):
            raise ValueError("special tokens must occupy ids 0-3")
        if not all(isinstance(t, str) for t in self.tokens):
            raise ValueError("every token must be a string")
        self.tokens = list(self.tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError(f"{len(self.tokens) - len(self.index)} duplicate tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, text: str) -> list[int]:
        return [self.index.get(t, self.UNK) for t in tokenize(text)]

    def decode(self, ids) -> str:
        words = []
        for i in ids:
            if i in (self.BOS, self.EOS, self.PAD):
                continue
            words.append(self.tokens[i])
        return " ".join(words)


def build_vocab(captions) -> Vocabulary:
    words: set[str] = set()
    n = 0
    for caption in captions:
        n += 1
        words.update(tokenize(caption))
    if n == 0:
        raise EmptyCorpus("no captions supplied")
    for part in CAPTION_INSTRUCTION.split(ACOUSTIC_SLOT):
        words.update(tokenize(part))  # instruction words must encode in-vocab
    words -= set(LITERAL_TOKENS)
    tokens = list(SPECIAL_TOKENS) + list(LITERAL_TOKENS) + sorted(words)
    return Vocabulary(tokens)


@dataclass
class DecoderConfig:
    d_dec: int = 128
    layers: int = 4
    heads: int = 4
    ffn_mult: int = 4
    max_seq: int = 512
    max_caption: int = 50

    def __post_init__(self):
        nn.require_at_least(1, self, "d_dec", "layers", "ffn_mult", "max_seq",
                            "max_caption")
        if self.heads < 1 or self.d_dec % self.heads:
            raise ValueError("d_dec must be divisible by heads >= 1")


class CaptionDecoder(Module):
    def __init__(self, cfg: DecoderConfig, vocab: Vocabulary,
                 rng: np.random.Generator):
        self.embed = nn.parameter(rng.normal(0.0, 0.02, (len(vocab), cfg.d_dec)))
        self.pos = nn.parameter(rng.normal(0.0, 0.02, (cfg.max_seq, cfg.d_dec)))
        self.blocks = [TransformerBlock(cfg.d_dec, cfg.heads, cfg.ffn_mult, rng)
                       for _ in range(cfg.layers)]
        self.out_gain = nn.parameter(np.ones(cfg.d_dec))
        self.head = Linear(cfg.d_dec, len(vocab), rng)
        self.cfg, self.vocab = cfg, vocab
        # the instruction around the acoustic slot, encoded once
        head, tail = CAPTION_INSTRUCTION.split(ACOUSTIC_SLOT)
        self.prompt_head = [Vocabulary.BOS] + vocab.encode(head)
        self.prompt_tail = vocab.encode(tail)

    def embed_stream(self, acoustic: Tensor, counts: list[int],
                     captions: list[list[int]]) -> tuple[Tensor, list[int]]:
        """The items' streams packed with their shared head once, without
        positions, (sum of lengths - (B - 1) * head, d), and their lengths.

        Item i's stream is `prompt_head` (<bos> and the instruction up to
        the acoustic slot), its `counts[i]` bridged rows, `prompt_tail` and
        `captions[i]`, its caption ids and <eos> (none at inference). The
        packed stream is the head, then each item's own rows, item after
        item, as the `nn.Packing` with that head lays them out; a batch of
        one is its whole stream. `acoustic` holds every item's bridged
        rows, (sum of counts, d), item i's contiguous and in order. The
        stream is one gather from the token table with those rows
        appended: prompt and caption ids index the table, and acoustic row
        r indexes V + r.
        """
        if sum(counts) != acoustic.shape[0]:
            raise nn.ShapeMismatch(f"{acoustic.shape[0]} acoustic rows for "
                                   f"{sum(counts)} slots")
        ids, lengths, slot = list(self.prompt_head), [], len(self.vocab)
        for n, caption in zip(counts, captions, strict=True):
            own = [*range(slot, slot + n), *self.prompt_tail, *caption]
            ids += own
            lengths.append(len(self.prompt_head) + len(own))
            slot += n
        return nn.concat([self.embed, acoustic])[np.array(ids)], lengths

    def logits(self, x: Tensor, caches: list[nn.KVCache] | None = None,
               at: int | nn.Packing = 0) -> Tensor:
        """Logits for embeddings x in one of two modes.

        Packed (training): x is a batch's streams packed as (R, d), `at`
        their `nn.Packing`, which gives each row's position, and every row
        is scored: (R, V). Cached (decoding): x is (batch, n, d) at
        positions at..at+n-1, with one cache per block; the rows attend
        causally over the keys and values the caches hold (`at` of them)
        plus their own, the caches keep theirs, and only the last row is
        scored: (batch, 1, V). That step runs on arrays
        (`TransformerBlock.cached_step`), and the result has no graph.
        """
        if isinstance(at, nn.Packing):
            x = x + self.pos[at.pos]
            for block in self.blocks:
                x = block(x, mask=at)
            return self.head(nn.rms_norm(x, self.out_gain))
        n = x.data.shape[-2]
        # one row per hypothesis sees every cached key: its mask is all zeros
        mask = nn.causal_mask(n, at) if n > 1 else None
        h = x.data + self.pos.data[at:at + n]
        for block, cache in zip(self.blocks, caches):
            h = block.cached_step(h, mask, cache)
        h = nn.rms_norm_forward(h[..., -1:, :], self.out_gain.data)[0]
        return Tensor(self.head.forward_array(h))

    def forward_loss(self, acoustic: Tensor, counts: list[int],
                     captions: list[str]) -> Tensor:
        """Mean cross-entropy over every caption token and <eos> in the
        batch; item i's caption follows its `counts[i]` rows of `acoustic`.

        The stream is packed with the shared instruction head once
        (`embed_stream`), so every row is real and the head's rows are
        computed once per batch; attention stays within each item, whose
        padded layout holds the head again (`nn.Packing`).
        """
        if not captions:
            raise nn.EmptyTargetSet("empty batch")
        targets = [self.vocab.encode(c) + [Vocabulary.EOS] for c in captions]
        x, lengths = self.embed_stream(acoustic, counts, targets)
        if max(lengths) > self.cfg.max_seq:
            raise SequenceTooLong(f"batch length {max(lengths)} exceeds {self.cfg.max_seq}")
        packing = nn.Packing(lengths, causal=True, head=len(self.prompt_head))
        logits = self.logits(x, at=packing)
        # an item's row p predicts its row p + 1, so the rows that count are
        # those just before a caption position; an item's first row never is
        items = np.concatenate([np.full(len(t), i) for i, t in enumerate(targets)])
        positions = np.concatenate([np.arange(n - len(t), n)
                                    for n, t in zip(lengths, targets)])
        return nn.cross_entropy(logits[packing.row(items, positions - 1)],
                                np.concatenate(targets))

    def greedy_decode(self, acoustic: Tensor) -> str:
        """Beam search of width 1; the benchmark's layer table binds this name."""
        return self.beam_decode(acoustic, 1)

    def beam_decode(self, acoustic: Tensor, beam: int) -> str:
        """Beam search over token ids, the live hypotheses run as one batch.

        Hypothesis score is total log-prob divided by length**LENGTH_NORM
        (length counts <eos>); ties break lexicographically on token ids.
        So at width 1 each step takes the highest log-prob token, the
        lowest id on a tie, until <eos> or the cap.

        The search stops once the best finished score strictly beats
        total / max_caption**LENGTH_NORM for every live total. That bounds
        every descendant: a log-prob is <= 0 in float too, so a total never
        rises, and a total <= 0 scores highest over the longest length. No
        descendant can then win or tie, so stopping changes no caption.
        """
        if beam < 1:
            raise ValueError("beam width must be >= 1")
        stream, _ = self.embed_stream(acoustic, [acoustic.shape[0]], [[]])
        x, start = stream.data[None], 0  # the prompt, (1, T, d)
        caches = [nn.KVCache(beam, x.shape[1] + self.cfg.max_caption,
                             self.cfg.d_dec, x.dtype) for _ in self.blocks]
        live: list[list[int]] = [[]]
        totals = np.zeros(1)  # float64 log-prob of each live hypothesis
        done: list[tuple[list[int], float]] = []
        best = -math.inf  # the highest score in `done`

        def norm(total: float, length: int) -> float:
            return total / (max(length, 1) ** LENGTH_NORM)

        for step in range(self.cfg.max_caption):
            if not live or best > norm(totals.max(), self.cfg.max_caption):
                break
            n = x.shape[1]
            if start + n > self.cfg.max_seq:  # positions 0..max_seq-1 fit
                raise SequenceTooLong(f"decode length {start + n} exceeds "
                                      f"{self.cfg.max_seq}")
            rows = self.logits(Tensor(x), caches, start).data[:, -1]
            start += n
            logp = _log_softmax(rows)
            cand_totals = (totals[:, None] + logp).ravel()
            scores = cand_totals / ((step + 1) ** LENGTH_NORM)
            # every candidate tying the k-th best score, then the exact order;
            # the live ids all have one length, so a candidate's ids order as
            # its parent's ids, then its token
            k = min(beam, scores.size)
            width = logp.shape[1]
            ranked = np.flatnonzero(scores >= np.partition(scores, -k)[-k]).tolist()
            ranked.sort(key=lambda c: (-scores[c], live[c // width], c % width))
            prior, live, survivors = live, [], []
            for c in ranked[:beam]:
                ids = prior[c // width] + [c % width]
                if ids[-1] == Vocabulary.EOS:
                    total = float(cand_totals[c])
                    done.append((ids, total))
                    best = max(best, norm(total, len(ids)))
                else:
                    live.append(ids)
                    survivors.append(c)
            kept = np.array(survivors, dtype=np.int64)
            totals = cand_totals[kept]
            if live:
                parents = kept // width  # each survivor's row in the caches
                if parents.tolist() != list(range(len(rows))):  # else in place
                    for cache in caches:
                        cache.select(parents)
                x = self.embed.data[(kept % width)[:, None]]
        done.extend(zip(live, totals.tolist()))  # capped ones compete; stopped ones lose
        best_ids, _ = min(done, key=lambda d: (-norm(d[1], len(d[0])), d[0]))
        return self.vocab.decode(best_ids)


def _log_softmax(rows: np.ndarray) -> np.ndarray:
    """The log-softmax of each (B, V) row, rounded as one row at a time:
    each row's exp-sum is its own pairwise sum, and its shift is
    max + math.log(sum) in the row's dtype."""
    shift = rows.max(axis=1, keepdims=True)
    e = rows - shift
    np.exp(e, out=e)
    shift += np.array([math.log(s) for s in e.sum(axis=1).tolist()],
                      dtype=rows.dtype)[:, None]
    return rows - shift
