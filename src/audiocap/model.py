"""End-to-end captioning model: frontend -> encoder -> bridge -> decoder."""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, field, fields

from . import nn
from .bridge import BridgeConfig, QueryBridge, output_count
from .decoder import CaptionDecoder, DecoderConfig, Vocabulary
from .encoder import EncoderConfig, PatchEncoder
from .frontend import FrontendConfig, PatchSequence, Waveform, wave_to_patches
from .lora import LoraConfig, TrainStrategy, apply_strategy
from .nn import Module, Tensor


@dataclass
class PipelineConfig:
    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    bridge: BridgeConfig = field(default_factory=BridgeConfig)
    decoder: DecoderConfig = field(default_factory=DecoderConfig)
    lora: LoraConfig = field(default_factory=LoraConfig)
    strategy: TrainStrategy = field(default_factory=TrainStrategy)
    seed: int = 0

    def __post_init__(self):
        nn.require_at_least(0, self, "seed")
        if self.bridge.d_dec != self.decoder.d_dec:
            raise ValueError("bridge output width must match decoder width")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        """Build from a parsed JSON config.

        Raises ValueError on a section that is not an object, an unknown
        name, or a value whose JSON type differs from its field's default;
        an integer passes for a float if a float can hold it, a boolean
        never for a number. Values are kept as given, never coerced.
        """
        kwargs = {}
        sections = {"frontend": FrontendConfig, "encoder": EncoderConfig,
                    "bridge": BridgeConfig, "decoder": DecoderConfig,
                    "lora": LoraConfig, "strategy": TrainStrategy}
        for key, val in _json_object("config", d).items():
            if key in sections:
                defaults = {f.name: f.default for f in fields(sections[key])}
                for name, v in _json_object(f"config section {key!r}", val).items():
                    if name not in defaults:
                        raise ValueError(f"unknown {key} field {name!r}")
                    _check_type(f"{key}.{name}", defaults[name], v)
                kwargs[key] = sections[key](**val)
            elif key == "seed":
                kwargs[key] = _check_type(key, 0, val)
            else:
                raise ValueError(f"unknown config section {key!r}")
        return cls(**kwargs)


def _json_object(name: str, val) -> dict:
    if not isinstance(val, dict):
        raise ValueError(f"{name} is {val!r}, not a JSON object")
    return val


def _check_type(name: str, default, val):
    accepted = (int, float) if isinstance(default, float) else type(default)
    if isinstance(val, bool) or not isinstance(val, accepted):
        raise ValueError(f"config {name}: expected {type(default).__name__}, "
                         f"got {val!r}")
    too_big = isinstance(val, int) and abs(val) > sys.float_info.max
    if too_big and isinstance(default, float):  # float() would overflow
        raise ValueError(f"config {name}: integer too large for a float")
    return val


class CaptionModel(Module):
    """Composition of the trainable stages; frontend is parameter-free."""

    def __init__(self, cfg: PipelineConfig, vocab: Vocabulary):
        self.cfg = cfg
        self.vocab = vocab
        fe = cfg.frontend
        self.encoder = PatchEncoder(cfg.encoder, nn.rng_from_seed([cfg.seed, 1]),
                                    fe.patch ** 2, fe.n_mels // fe.patch)
        self.bridge = QueryBridge(cfg.bridge, cfg.encoder.d_enc,
                                  nn.rng_from_seed([cfg.seed, 2]))
        self.decoder = CaptionDecoder(cfg.decoder, vocab,
                                      nn.rng_from_seed([cfg.seed, 3]))

    def acoustic_tokens(self, patches: PatchSequence) -> Tensor:
        return self.bridge(self.encoder(patches))

    def loss_on_batch(self, batch: list[tuple[PatchSequence, str]]) -> Tensor:
        """Mean caption loss; the encoder and the bridge run once per batch."""
        if not batch:
            raise nn.EmptyTargetSet("empty batch")
        patches = [p for p, _ in batch]
        acoustic = self.bridge.forward_batch(self.encoder.forward_batch(patches),
                                             [p.count for p in patches])
        window = self.cfg.bridge.window
        return self.decoder.forward_loss(
            acoustic, [output_count(p.count, window) for p in patches],
            [caption for _, caption in batch])

    def caption_patches(self, patches: PatchSequence, beam: int = 1) -> str:
        with nn.no_grad():
            acoustic = self.acoustic_tokens(patches)
            if beam == 1:
                return self.decoder.greedy_decode(acoustic)
            return self.decoder.beam_decode(acoustic, beam)

    def caption_wave(self, wave: Waveform, beam: int = 1) -> str:
        return self.caption_patches(wave_to_patches(wave, self.cfg.frontend), beam)


def build_model(cfg: PipelineConfig, vocab: Vocabulary) -> CaptionModel:
    """Construct the model and apply the train strategy (LoRA wrapping)."""
    model = CaptionModel(cfg, vocab)
    apply_strategy(model, cfg.strategy, cfg.lora, seed=cfg.seed)
    return model
