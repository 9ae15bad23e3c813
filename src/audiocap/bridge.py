"""Fixed-rate querying bridge: every `window` acoustic tokens become one.

The token stream is cut into consecutive windows of 17 (the last one may
be short). Each window gets a single learned query, offset by a learned
window-index embedding, which cross-attends over that window's tokens
(plus within-window position embeddings). A batch's clips arrive as
the encoder packs them, row after row; all windows of all clips attend
in one call, each over its own tokens. A self-attention stage then
mixes the per-window queries of each clip before projection to decoder
width, so a clip's output length is always ceil(T / window).
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
    max_windows: int = 128

    def __post_init__(self):
        nn.require_at_least(1, self, "window", "d_q", "cross_layers",
                            "max_windows")
        nn.require_at_least(0, self, "self_layers")
        if self.heads < 1 or self.d_q % self.heads:
            raise ValueError("d_q must be divisible by heads >= 1")


def output_count(n_tokens: int, window: int) -> int:
    """ceil(n_tokens / window); zero tokens map to zero outputs."""
    if n_tokens < 0:
        raise ValueError("token count must be non-negative")
    return -(-n_tokens // window)


class QueryBridge(Module):
    def __init__(self, cfg: BridgeConfig, d_enc: int, d_dec: int,
                 rng: np.random.Generator):
        self.query = nn.parameter(rng.normal(0.0, 0.02, (1, cfg.d_q)))
        self.window_pos = nn.parameter(
            rng.normal(0.0, 0.02, (cfg.max_windows, cfg.d_q)))
        self.token_pos = nn.parameter(rng.normal(0.0, 0.02, (cfg.window, d_enc)))
        self.cross_blocks = [
            TransformerBlock(cfg.d_q, cfg.heads, 4, rng, kv_dim=d_enc)
            for _ in range(cfg.cross_layers)]
        self.self_blocks = [TransformerBlock(cfg.d_q, cfg.heads, 4, rng)
                            for _ in range(cfg.self_layers)]
        self.out_gain = nn.parameter(np.ones(cfg.d_q))
        self.out_proj = Linear(cfg.d_q, d_dec, rng)
        self.cfg = cfg

    def forward_batch(self, acoustic: Tensor,
                      counts: list[int]) -> tuple[Tensor, list[int]]:
        """(sum of counts, d_enc) packed tokens, clip i's counts[i] rows
        contiguous and in order, -> the (sum of windows, d_dec) rows of
        every clip, packed the same way, and `windows`, each clip's row
        count ceil(counts[i] / window).

        A clip's windows are contiguous runs of its rows, so the packed
        tokens are already the cross-attention's keys, window after window.
        `nn.Packing` lays them out: each window's query attends over its
        own run of tokens, and the self-attention over its clip's queries.
        """
        w = self.cfg.window
        windows = [output_count(n, w) for n in counts]
        if min(counts) == 0:
            raise EmptyInput("no acoustic tokens")
        if max(windows) > self.cfg.max_windows:
            raise ValueError(f"{max(windows)} windows exceeds max_windows "
                             f"{self.cfg.max_windows}")
        runs = [min(w, n - start) for n in counts for start in range(0, n, w)]
        tokens = nn.Packing(runs, causal=False, head=0)
        queries = nn.Packing([1] * len(runs), causal=False, head=0)
        clips = nn.Packing(windows, causal=False, head=0)
        kv = acoustic + self.token_pos[tokens.pos]
        q = self.query + self.window_pos[clips.pos]
        for block in self.cross_blocks:
            q = block(q, context=kv, mask=(queries, tokens))
        for block in self.self_blocks:
            q = block(q, mask=clips)
        return self.out_proj(nn.rms_norm(q, self.out_gain)), windows

    def __call__(self, acoustic: Tensor) -> Tensor:
        """(n, d_enc) acoustic tokens -> (ceil(n / window), d_dec)."""
        return self.forward_batch(acoustic, [acoustic.data.shape[0]])[0]
