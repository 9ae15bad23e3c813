"""Low-rank adaptation of linear projections and training-strategy wiring.

A LoraLinear keeps the frozen base projection and adds a scaled low-rank
residual (alpha/r) * B(Ax). B starts at zero so a freshly wrapped layer is
exactly the base layer. A strategy is one of `MODES`, frozen /
full_finetune / lora, and applies to the encoder and the decoder alike;
adapters attach to the q and v projections of every attention layer, and
the bridge stays fully trainable under every strategy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .nn import Linear, Module, MultiHeadAttention, Tensor


class RankTooLarge(ValueError):
    pass


MODES = ("frozen", "full_finetune", "lora")


@dataclass
class LoraConfig:
    rank: int = 8
    alpha: float = 16.0

    def __post_init__(self):
        nn.require_at_least(1, self, "rank")
        if not math.isfinite(self.alpha):
            raise ValueError(f"LoraConfig.alpha must be finite, got {self.alpha}")


class LoraLinear(Module):
    def __init__(self, base: Linear, rank: int, alpha: float,
                 rng: np.random.Generator):
        d_out, d_in = base.weight.data.shape
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if rank > min(d_in, d_out):
            raise RankTooLarge(f"rank {rank} exceeds min({d_in}, {d_out})")
        self.base = base
        self.lora_a = nn.parameter(rng.normal(0.0, 0.02, (rank, d_in)))
        self.lora_b = nn.parameter(np.zeros((d_out, rank)))
        self.rank = rank
        self.alpha = alpha
        set_trainable(base, False)

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank

    def __call__(self, x: Tensor) -> Tensor:
        residual = nn.affine(nn.affine(x, self.lora_a), self.lora_b)
        return self.base(x) + residual * self.scaling

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """`__call__` on an array, op for op, for cached decoding: no graph."""
        y = self.base.forward_array(x)
        residual = nn.affine_forward(nn.affine_forward(x, self.lora_a.data, None),
                                     self.lora_b.data, None)
        residual *= np.asarray(self.scaling, dtype=residual.dtype)
        y += residual
        return y

    def merge(self) -> Linear:
        """Fold the adapter into a plain layer: W' = W + (alpha/r) * B A."""
        delta = self.scaling * (self.lora_b.data @ self.lora_a.data)
        return Linear.from_weights(self.base.weight.data + delta,
                                   self.base.bias.data.copy())


def iter_attention_layers(root: Module) -> list[MultiHeadAttention]:
    return [m for m in root.modules() if isinstance(m, MultiHeadAttention)]


def set_trainable(module: Module, flag: bool) -> None:
    for p in module.parameters():
        p.requires_grad = flag


def apply_mode(component: Module, mode: str, cfg: LoraConfig, seed) -> None:
    """Set requires_grad flags for one component, wrapping q/v under lora.

    `mode` is one of `MODES`, checked by `PipelineConfig`, and
    `build_model` applies it once to an unwrapped component.
    """
    set_trainable(component, mode == "full_finetune")
    if mode != "lora":
        return
    for i, attn in enumerate(iter_attention_layers(component)):
        for j, name in enumerate(("q", "v")):
            layer = getattr(attn, name)
            setattr(attn, name, LoraLinear(layer, cfg.rank, cfg.alpha,
                                           nn.rng_from_seed([seed, i, j])))


def apply_strategy(model, mode: str, cfg: LoraConfig, seed: int) -> None:
    """Give the encoder and the decoder `mode`; the bridge always trains."""
    apply_mode(model.encoder, mode, cfg, [seed, False])
    apply_mode(model.decoder, mode, cfg, [seed, True])
    set_trainable(model.bridge, True)


def trainable_parameters(model) -> dict[str, Tensor]:
    return {k: p for k, p in model.named_parameters().items() if p.requires_grad}

