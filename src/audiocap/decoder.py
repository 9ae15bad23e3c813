"""Instruction-prompted autoregressive caption decoder.

The decoder consumes a spliced stream: <bos>, the fixed instruction
tokens, the bridged acoustic embeddings in the instruction's slot, the
instruction tail, then (at training time) the caption and <eos>. The
bridged rows are soft-prompt rows of the token table, so a batch's stream,
and the inference prompt as its batch of one, is one gather. The logits
run in two modes. Training packs the batch's streams row after row, so
no pad row is computed, and attention stays causal within each item.
Decoding extends per-layer key/value caches by the new rows and scores
the last one. Loss is masked to caption positions only. Word-level
vocabulary; one beam search writes every caption, greedy decoding being
its width 1, with deterministic tie-breaking.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

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
    tokens: list[str]
    index: dict[str, int] = field(repr=False)

    BOS = 0
    EOS = 1
    PAD = 2
    UNK = 3

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

    @classmethod
    def from_tokens(cls, tokens: list[str]) -> "Vocabulary":
        if list(tokens[:4]) != list(SPECIAL_TOKENS):
            raise ValueError("special tokens must occupy ids 0-3")
        if not all(isinstance(t, str) for t in tokens):
            raise ValueError("every token must be a string")
        index = {t: i for i, t in enumerate(tokens)}
        if len(index) != len(tokens):
            raise ValueError(f"{len(tokens) - len(index)} duplicate tokens")
        return cls(tokens=list(tokens), index=index)


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
    return Vocabulary.from_tokens(tokens)


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


@dataclass
class SpliceSequence:
    """Decoder input: prompt head, acoustic block, prompt tail, caption."""

    prefix_ids: np.ndarray  # <bos> + instruction head, up to the slot
    n_acoustic: int         # bridged rows in the instruction's slot
    suffix_ids: np.ndarray  # instruction tail after the slot
    caption_ids: np.ndarray  # caption + <eos>, empty at inference

    @property
    def length(self) -> int:
        return len(self.ids)

    @property
    def ids(self) -> np.ndarray:
        """Target ids over the stream; acoustic slots hold <pad>."""
        acoustic_ids = np.full(self.n_acoustic, Vocabulary.PAD, dtype=np.int64)
        return np.concatenate([self.prefix_ids, acoustic_ids,
                               self.suffix_ids, self.caption_ids])

    @property
    def loss_mask(self) -> np.ndarray:
        """True exactly on caption ids and the trailing <eos>."""
        return np.arange(self.length) >= self.length - len(self.caption_ids)


def assemble_sequence(acoustic: Tensor | int, caption: str | None,
                      vocab: Vocabulary) -> SpliceSequence:
    """The layout of one item; `acoustic` is its bridged block or row count."""
    n = acoustic.shape[0] if isinstance(acoustic, Tensor) else int(acoustic)
    head, tail = CAPTION_INSTRUCTION.split(ACOUSTIC_SLOT)
    prefix = np.array([vocab.BOS] + vocab.encode(head), dtype=np.int64)
    suffix = np.array(vocab.encode(tail), dtype=np.int64)
    if caption is None:
        caption_ids = np.zeros(0, dtype=np.int64)
    else:
        caption_ids = np.array(vocab.encode(caption) + [vocab.EOS], dtype=np.int64)
    return SpliceSequence(prefix, n, suffix, caption_ids)


class CaptionDecoder(Module):
    def __init__(self, cfg: DecoderConfig, vocab_size: int,
                 rng: np.random.Generator):
        self.embed = nn.parameter(rng.normal(0.0, 0.02, (vocab_size, cfg.d_dec)))
        self.pos = nn.parameter(rng.normal(0.0, 0.02, (cfg.max_seq, cfg.d_dec)))
        self.blocks = [TransformerBlock(cfg.d_dec, cfg.heads, cfg.ffn_mult, rng)
                       for _ in range(cfg.layers)]
        self.out_gain = nn.parameter(np.ones(cfg.d_dec))
        self.head = Linear(cfg.d_dec, vocab_size, rng)
        self.cfg = cfg

    @property
    def vocab_size(self) -> int:
        return self.embed.data.shape[0]

    def embed_stream(self, seqs: list[SpliceSequence], acoustic: Tensor) -> Tensor:
        """The items' streams packed row after row, (sum of lengths, d),
        without positions.

        `acoustic` holds every item's bridged rows, (sum of n_acoustic, d),
        item i's contiguous and in order. The stream is one gather from the
        token table with those rows appended: prompt and caption ids index
        the table, and item i's acoustic slot j indexes V + offset_i + j.
        """
        rows, offset = [], 0
        for s in seqs:
            ids, start = s.ids, len(s.prefix_ids)
            ids[start:start + s.n_acoustic] = (self.vocab_size + offset
                                               + np.arange(s.n_acoustic))
            offset += s.n_acoustic
            rows.append(ids)
        if offset != acoustic.shape[0]:
            raise nn.ShapeMismatch(f"{acoustic.shape[0]} acoustic rows for {offset} slots")
        return nn.concat([self.embed, acoustic])[np.concatenate(rows)]

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

    def forward_loss(self, splices: list[SpliceSequence], acoustic: Tensor) -> Tensor:
        """Mean cross-entropy over all caption positions in the batch;
        `acoustic` is every item's bridged rows, as `embed_stream` takes them.

        Every row of the packed stream is real, and attention stays within
        each item (`nn.Packing`).
        """
        if not splices:
            raise nn.EmptyTargetSet("empty batch")
        t_max = max(s.length for s in splices)
        if t_max > self.cfg.max_seq:
            raise SequenceTooLong(f"batch length {t_max} exceeds {self.cfg.max_seq}")
        packing = nn.Packing([s.length for s in splices], causal=True)
        logits = self.logits(self.embed_stream(splices, acoustic), at=packing)
        # row r predicts row r + 1, so the rows that count are those just
        # before a caption position; an item's first row never is one
        ids = np.concatenate([s.ids for s in splices])
        targets = np.flatnonzero(np.concatenate([s.loss_mask for s in splices]))
        return nn.cross_entropy(logits[targets - 1], ids[targets])

    def _prompt(self, acoustic: Tensor, vocab: Vocabulary) -> Tensor:
        """The inference stream, <bos> + head + acoustic + tail, as (1, T, d)."""
        seq = assemble_sequence(acoustic, None, vocab)
        x = self.embed_stream([seq], acoustic)
        return nn.reshape(x, (1,) + x.shape)

    def greedy_decode(self, acoustic: Tensor, vocab: Vocabulary) -> str:
        """Beam search of width 1; the benchmark's layer table binds this name."""
        return self.beam_decode(acoustic, vocab, 1)

    def beam_decode(self, acoustic: Tensor, vocab: Vocabulary, beam: int) -> str:
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
        x, start = self._prompt(acoustic, vocab).data, 0
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
            if start + n >= self.cfg.max_seq:
                raise SequenceTooLong(f"decode length {start + n} hit the cap")
            rows = self.logits(Tensor(x), caches, start).data[:, -1]
            start += n
            logp = np.array([_log_softmax(row) for row in rows])
            cand_totals = (totals[:, None] + logp).ravel()
            scores = cand_totals / ((step + 1) ** LENGTH_NORM)
            # every candidate tying the k-th best score, then the exact order
            k = min(beam, scores.size)
            kth = np.partition(scores, -k)[-k]
            width = logp.shape[1]
            ranked = [(live[c // width] + [c % width], c)
                      for c in np.flatnonzero(scores >= kth).tolist()]
            ranked.sort(key=lambda r: (-scores[r[1]], r[0]))
            live, survivors = [], []
            for ids, c in ranked[:beam]:
                if ids[-1] == vocab.EOS:
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
        return vocab.decode(best_ids)


def _log_softmax(row: np.ndarray) -> np.ndarray:
    # one 1-D row at a time: batching the reduction could round differently
    m = row.max()
    return row - (m + math.log(np.exp(row - m).sum()))
