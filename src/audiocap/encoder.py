"""Patch-transformer audio encoder.

Embeds flattened spectrogram patches (16x16 under the default frontend;
the model sizes them from `FrontendConfig`) with factorized learned
time/frequency positions and runs a bidirectional pre-norm transformer
stack, emitting one acoustic token per input patch. Variable-length
inputs are processed as-is; there is no fixed-length padding. Patch
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
        if self.d_enc % self.heads:
            raise ValueError("d_enc must be divisible by heads")


class PatchEncoder(Module):
    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator,
                 patch_dim: int = 256, freq_patches: int = 4, dtype=np.float32):
        self.patch_proj = Linear(patch_dim, cfg.d_enc, rng, dtype=dtype)
        self.time_pos = nn.parameter(
            rng.normal(0.0, 0.02, (cfg.max_time_patches, cfg.d_enc)), dtype)
        self.freq_pos = nn.parameter(
            rng.normal(0.0, 0.02, (freq_patches, cfg.d_enc)), dtype)
        self.blocks = [TransformerBlock(cfg.d_enc, cfg.heads, cfg.ffn_mult,
                                        rng, dtype=dtype)
                       for _ in range(cfg.layers)]
        self.out_gain = nn.parameter(np.ones(cfg.d_enc), dtype)
        self.cfg = cfg
        self.dtype = dtype
        # corpus standardization statistics; set once from the training corpus
        self.feat_mean = 0.0
        self.feat_std = 1.0

    def set_feature_stats(self, mean: float, std: float):
        self.feat_mean = float(mean)
        self.feat_std = float(std) if std > 0 else 1.0

    def embed_patches(self, p: PatchSequence) -> Tensor:
        tp, fp = p.grid
        if p.count == 0:
            raise EmptyInput("no patches")
        if tp > self.cfg.max_time_patches:
            raise TooLong(f"{tp} time patches exceeds {self.cfg.max_time_patches}")
        x = (p.patches - self.feat_mean) / self.feat_std
        h = self.patch_proj(Tensor(x.astype(self.dtype)))
        t_idx = np.repeat(np.arange(tp), fp)
        f_idx = np.tile(np.arange(fp), tp)
        return h + nn.embedding(self.time_pos, t_idx) + nn.embedding(self.freq_pos, f_idx)

    def __call__(self, p: PatchSequence) -> Tensor:
        h = self.embed_patches(p)
        for block in self.blocks:
            h = block(h)
        return nn.rms_norm(h, self.out_gain)
