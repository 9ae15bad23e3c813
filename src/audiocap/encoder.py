"""Patch-transformer audio encoder.

Embeds flattened spectrogram patches (16x16 under the default frontend;
the model sizes them from `FrontendConfig`) with factorized learned
time/frequency positions and runs a bidirectional pre-norm transformer
stack, emitting one acoustic token per input patch. A batch of clips
runs as one stack on their patches packed row after row; only attention
pads each clip to the longest, masking the padding out, and a single
clip needs no padding. Patch values are standardized with corpus
statistics carried on the encoder (and persisted in checkpoints).
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
        """Clips -> their acoustic tokens packed as (sum of counts, d_enc),
        clip i's `count` rows contiguous and in order.

        Every row-wise layer sees real rows only. Attention runs each clip
        in a padded layout whose pad keys are masked out (`nn.Packing`),
        so every clip comes out as it would alone.
        """
        for p in seqs:
            if p.count == 0:
                raise EmptyInput("no patches")
            if p.grid[0] > self.cfg.max_time_patches:
                raise TooLong(f"{p.grid[0]} time patches exceeds "
                              f"{self.cfg.max_time_patches}")
        x = np.concatenate([(p.patches - self.feat_mean) / self.feat_std
                            for p in seqs]).astype(self.time_pos.dtype, copy=False)
        packing = nn.Packing([p.count for p in seqs], causal=False)
        fp = self.freq_pos.data.shape[0]
        h = (self.patch_proj(Tensor(x)) + self.time_pos[packing.pos // fp]
             + self.freq_pos[packing.pos % fp])
        for block in self.blocks:
            h = block(h, mask=packing)
        return nn.rms_norm(h, self.out_gain)

    def __call__(self, p: PatchSequence) -> Tensor:
        """One clip's (count, d_enc) tokens: the batch of one."""
        return self.forward_batch([p])
