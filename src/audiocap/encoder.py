"""Patch-transformer audio encoder.

Embeds flattened spectrogram patches (16x16 under the default frontend;
the model sizes them from `FrontendConfig`) with factorized learned
time/frequency positions and runs a bidirectional pre-norm transformer
stack, emitting one acoustic token per input patch. A batch of clips
runs as one stack, padded to its longest clip with the padding masked
out of attention; a single clip needs no padding. Patch
values are standardized with corpus statistics carried on the encoder
(and persisted in checkpoints).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .frontend import PatchSequence
from .nn import Linear, Module, Tensor, TransformerBlock


class TooLong(ValueError):
    pass


class EmptyInput(ValueError):
    pass


@dataclass
class EncoderConfig:
    d_enc: int = 64
    layers: int = 2
    heads: int = 4
    ffn_mult: int = 4
    max_time_patches: int = 512

    def __post_init__(self):
        nn.require_at_least(1, self, "d_enc", "ffn_mult", "max_time_patches")
        nn.require_at_least(0, self, "layers")
        if self.heads < 1 or self.d_enc % self.heads:
            raise ValueError("d_enc must be divisible by heads >= 1")


class PatchEncoder(Module):
    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator,
                 patch_dim: int = 256, freq_patches: int = 4):
        self.patch_proj = Linear(patch_dim, cfg.d_enc, rng)
        self.time_pos = nn.parameter(
            rng.normal(0.0, 0.02, (cfg.max_time_patches, cfg.d_enc)))
        self.freq_pos = nn.parameter(
            rng.normal(0.0, 0.02, (freq_patches, cfg.d_enc)))
        self.blocks = [TransformerBlock(cfg.d_enc, cfg.heads, cfg.ffn_mult, rng)
                       for _ in range(cfg.layers)]
        self.out_gain = nn.parameter(np.ones(cfg.d_enc))
        self.cfg = cfg
        # corpus standardization statistics; set once from the training corpus
        self.feat_mean = 0.0
        self.feat_std = 1.0

    def set_feature_stats(self, mean: float, std: float):
        self.feat_mean = float(mean)
        self.feat_std = float(std) if std > 0 else 1.0

    def forward_batch(self, seqs: list[PatchSequence]) -> Tensor:
        """Clips -> (B, N, d_enc) acoustic tokens, N the longest patch count.

        Shorter clips are zero-padded. Padded rows get positions like real
        ones, but a (B, 1, 1, N) key-padding mask keeps every row from
        attending to them, so real rows come out as they would alone.
        """
        counts = np.array([p.count for p in seqs])
        for p in seqs:
            if p.count == 0:
                raise EmptyInput("no patches")
            if p.grid[0] > self.cfg.max_time_patches:
                raise TooLong(f"{p.grid[0]} time patches exceeds "
                              f"{self.cfg.max_time_patches}")
        n = int(counts.max())
        x = np.zeros((len(seqs), n, seqs[0].patches.shape[-1]),
                     dtype=self.time_pos.dtype)
        for row, p in zip(x, seqs):
            row[:p.count] = (p.patches - self.feat_mean) / self.feat_std
        fp = self.freq_pos.data.shape[0]
        idx = np.arange(n)
        h = (self.patch_proj(Tensor(x)) + self.time_pos[idx // fp]
             + self.freq_pos[idx % fp])
        mask = np.where(idx < counts[:, None], 0.0, -np.inf).astype(x.dtype)
        mask = mask[:, None, None, :]
        for block in self.blocks:
            h = block(h, mask=mask)
        return nn.rms_norm(h, self.out_gain)

    def __call__(self, p: PatchSequence) -> Tensor:
        """One clip's (count, d_enc) tokens: the batch of one."""
        return self.forward_batch([p])[0]
