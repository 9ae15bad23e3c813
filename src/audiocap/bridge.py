"""Fixed-rate querying bridge: every `window` acoustic tokens become one.

The token stream is cut into consecutive windows of 17 (the last one may
be short). Each window gets a single learned query, offset by a learned
window-index embedding, which cross-attends over that window's tokens
(plus within-window position embeddings). All windows attend in one call:
the tokens are zero-padded to whole windows, stacked as a batch, and the
padding is masked out of the last window. A self-attention stage then
mixes the per-window queries before projection to decoder width, so the
output length is always ceil(T / window).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .nn import Linear, Module, Tensor, TransformerBlock


class EmptyInput(ValueError):
    pass


@dataclass
class BridgeConfig:
    window: int = 17
    d_q: int = 64
    heads: int = 4
    cross_layers: int = 1
    self_layers: int = 1
    d_dec: int = 128
    max_windows: int = 128

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.d_q % self.heads or self.d_dec % self.heads:
            raise ValueError("d_q and d_dec must be divisible by heads")


def output_count(n_tokens: int, window: int) -> int:
    """ceil(n_tokens / window); zero tokens map to zero outputs."""
    if n_tokens < 0:
        raise ValueError("token count must be non-negative")
    return -(-n_tokens // window)


class QueryBridge(Module):
    def __init__(self, cfg: BridgeConfig, d_enc: int, rng: np.random.Generator,
                 dtype=np.float32):
        self.query = nn.parameter(rng.normal(0.0, 0.02, (1, cfg.d_q)), dtype)
        self.window_pos = nn.parameter(
            rng.normal(0.0, 0.02, (cfg.max_windows, cfg.d_q)), dtype)
        self.token_pos = nn.parameter(
            rng.normal(0.0, 0.02, (cfg.window, d_enc)), dtype)
        self.cross_blocks = [
            TransformerBlock(cfg.d_q, cfg.heads, 4, rng, kv_dim=d_enc, dtype=dtype)
            for _ in range(cfg.cross_layers)]
        self.self_blocks = [
            TransformerBlock(cfg.d_q, cfg.heads, 4, rng, dtype=dtype)
            for _ in range(cfg.self_layers)]
        self.out_gain = nn.parameter(np.ones(cfg.d_q), dtype)
        self.out_proj = Linear(cfg.d_q, cfg.d_dec, rng, dtype=dtype)
        self.cfg = cfg

    def __call__(self, acoustic: Tensor) -> Tensor:
        """(n, d_enc) acoustic tokens -> (ceil(n / window), d_dec)."""
        n, d_enc = acoustic.data.shape
        if n == 0:
            raise EmptyInput("no acoustic tokens")
        w = self.cfg.window
        count = output_count(n, w)
        if count > self.cfg.max_windows:
            raise ValueError(f"{count} windows exceeds max_windows "
                             f"{self.cfg.max_windows}")
        pad = count * w - n
        mask = None
        if pad:
            zeros = Tensor(np.zeros((pad, d_enc), dtype=acoustic.dtype))
            acoustic = nn.concat([acoustic, zeros], axis=0)
            mask = np.zeros((count, 1, 1, w), dtype=acoustic.dtype)
            mask[-1, ..., w - pad:] = -np.inf
        kv = nn.reshape(acoustic, (count, w, d_enc)) + self.token_pos
        q = nn.reshape(self.query + self.window_pos[:count], (count, 1, -1))
        for block in self.cross_blocks:
            q = block(q, context=kv, mask=mask)
        q = nn.reshape(q, (count, -1))
        for block in self.self_blocks:
            q = block(q)
        return self.out_proj(nn.rms_norm(q, self.out_gain))
