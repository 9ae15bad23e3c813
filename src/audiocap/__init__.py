"""Desk-scale automated audio captioning pipeline.

Log-mel patch frontend, transformer encoder with optional LoRA adapters,
fixed-rate querying-transformer bridge, instruction-prompted decoder,
caption metrics with a fluency-gated corrector, and a training harness.
Each name is imported from its submodule, e.g. `audiocap.model`.
"""

__version__ = "0.1.0"
