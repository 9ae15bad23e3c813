"""Corpus handling and training: manifests, synthetic clips, batching,
and the two-stage warmup schedule.

The synthetic corpus pairs each clip with a caption constructed from its
event sequence, so the caption is correct by construction and an overfit
run can be checked exactly.
"""

from __future__ import annotations

import ctypes
import json
import math
import platform
import wave
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from . import nn
from .frontend import (SAMPLE_RATE, FrontendConfig, PatchSequence, load_wav,
                       wave_to_patches)
from .lora import trainable_parameters
from .nn import AdamW


class MalformedLine(ValueError):
    def __init__(self, lineno: int, reason: str):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno


class DuplicateId(ValueError):
    pass


class MissingField(ValueError):
    pass


class IoError(OSError):
    pass


class NonFiniteLoss(FloatingPointError):
    pass


@dataclass
class ManifestEntry:
    id: str
    audio: str
    captions: list[str]


def read_jsonl(path, required: tuple[str, ...]) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) per non-blank line of a JSON Lines file.

    Raises IoError if the file cannot be opened, MalformedLine on a line
    that is not UTF-8, bad JSON (an integer past Python's digit limit
    too) or a row that is not an object, and MissingField on a missing key.
    """
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()  # the line ends text mode reads
    except OSError as e:
        raise IoError(str(e)) from e
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise MalformedLine(lineno, f"not UTF-8 ({e.reason} at byte "
                                        f"{e.start})") from e
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError as e:  # JSONDecodeError, or too many digits
            raise MalformedLine(lineno, f"invalid JSON ({getattr(e, 'msg', e)})") from e
        except RecursionError as e:
            raise MalformedLine(lineno, "JSON nested too deeply") from e
        if not isinstance(obj, dict):
            raise MalformedLine(lineno, "record is not an object")
        for key in required:
            if key not in obj:
                raise MissingField(f"line {lineno}: missing {key!r}")
        yield lineno, obj


def check_captions(lineno: int, captions) -> list[str]:
    """Return `captions` if it is a non-empty list of non-blank strings.

    Raises MissingField naming the line otherwise.
    """
    if (not isinstance(captions, list) or not captions
            or not all(isinstance(c, str) and c.strip() for c in captions)):
        raise MissingField(f"line {lineno}: captions must be a non-empty "
                           "list of non-empty strings")
    return captions


def check_string(lineno: int, obj: dict, key: str) -> str:
    """obj[key] if it is a non-blank string, never coerced; else MalformedLine."""
    val = obj[key]
    if not isinstance(val, str) or not val.strip():
        raise MalformedLine(lineno, f"{key} is {val!r}, not a non-blank string")
    return val


def parse_manifest(path) -> list[ManifestEntry]:
    """JSON Lines, one object per line: {"id", "audio", "captions"}."""
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    for lineno, obj in read_jsonl(path, ("id", "audio", "captions")):
        captions = check_captions(lineno, obj["captions"])
        if len(captions) > 5:
            raise MalformedLine(lineno, "more than 5 captions")
        ident = check_string(lineno, obj, "id")
        audio = check_string(lineno, obj, "audio")
        if ident in seen:
            raise DuplicateId(f"line {lineno}: duplicate id {ident!r}")
        seen.add(ident)
        entries.append(ManifestEntry(id=ident, audio=audio,
                                     captions=[c.strip() for c in captions]))
    return entries


def write_manifest(entries: list[ManifestEntry], path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for e in entries:
                fh.write(json.dumps({"id": e.id, "audio": e.audio,
                                     "captions": e.captions}) + "\n")
    except OSError as e:
        raise IoError(str(e)) from e


# -- synthetic corpus --------------------------------------------------------

EVENT_SECONDS = 0.5
EVENT_SAMPLES = int(SAMPLE_RATE * EVENT_SECONDS)  # 8000


def _tone(freq: float, n: int) -> np.ndarray:
    t = np.arange(n) / SAMPLE_RATE
    return 0.5 * np.sin(2.0 * np.pi * freq * t)


def _chirp(f0: float, f1: float, n: int) -> np.ndarray:
    t = np.arange(n) / SAMPLE_RATE
    dur = n / SAMPLE_RATE
    phase = 2.0 * np.pi * (f0 * t + (f1 - f0) * t * t / (2.0 * dur))
    return 0.5 * np.sin(phase)


def _noise(n: int, rng: np.random.Generator) -> np.ndarray:
    return 0.25 * rng.standard_normal(n)


EVENT_NAMES = ("a low tone", "a high tone", "an upward chirp",
               "a downward chirp", "a noise burst", "silence")


def _render_event(index: int, rng: np.random.Generator) -> np.ndarray:
    n = EVENT_SAMPLES
    if index == 0:
        return _tone(220.0, n)
    if index == 1:
        return _tone(1760.0, n)
    if index == 2:
        return _chirp(220.0, 1760.0, n)
    if index == 3:
        return _chirp(1760.0, 220.0, n)
    if index == 4:
        return _noise(n, rng)
    if index == 5:
        return np.zeros(n)
    raise ValueError(f"unknown event index {index}")


def render_events(indices, rng: np.random.Generator) -> np.ndarray:
    return np.concatenate([_render_event(i, rng) for i in indices])


def caption_for_events(indices) -> str:
    return " followed by ".join(EVENT_NAMES[i] for i in indices)


def write_wav(path, samples: np.ndarray) -> None:
    pcm = np.clip(np.round(samples * 32767.0), -32768, 32767).astype("<i2")
    try:
        with open(path, "wb") as fh, wave.open(fh, "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(SAMPLE_RATE)
            wf.writeframes(pcm.tobytes())
    except OSError as e:
        raise IoError(str(e)) from e


def synthesize_corpus(n: int, seed: int, out_dir) -> list[ManifestEntry]:
    """Write n deterministic clips plus manifest.jsonl into out_dir."""
    if n < 1:
        raise ValueError("need at least one clip")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise IoError(str(e)) from e
    rng = nn.rng_from_seed([seed])
    entries = []
    for i in range(n):
        k = int(rng.integers(2, 6))  # 2..5 events
        events = [int(e) for e in rng.integers(0, len(EVENT_NAMES), size=k)]
        samples = render_events(events, rng)
        name = f"clip_{i:04d}.wav"
        write_wav(out / name, samples)
        entries.append(ManifestEntry(id=f"clip_{i:04d}", audio=name,
                                     captions=[caption_for_events(events)]))
    write_manifest(entries, out / "manifest.jsonl")
    return entries


# -- batching and schedule ---------------------------------------------------

def make_batches(entries: list, batch_size: int, seed: int,
                 epoch: int) -> list[list]:
    """Permutation seeded by (seed, epoch); the final short batch is kept."""
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    perm = nn.rng_from_seed([seed, epoch]).permutation(len(entries))
    ordered = [entries[i] for i in perm]
    return [ordered[i:i + batch_size] for i in range(0, len(ordered), batch_size)]


@dataclass
class StageConfig:
    epochs: int
    batch_size: int
    peak_lr: float
    warmup_epochs: int

    def __post_init__(self):
        if min(self.epochs, self.batch_size, self.warmup_epochs) < 1:
            raise ValueError("stage values must be > 0")
        if self.peak_lr <= 0:
            raise ValueError("stage values must be > 0")


@dataclass
class TrainingSchedule:
    stages: list[StageConfig]

    @classmethod
    def paper(cls) -> "TrainingSchedule":
        return cls(stages=[StageConfig(15, 48, 5e-5, 2),
                           StageConfig(30, 32, 5e-6, 2)])

    @classmethod
    def desk(cls) -> "TrainingSchedule":
        # 200 steps at batch 8 on an 8-clip corpus (one step per epoch)
        return cls(stages=[StageConfig(200, 8, 5e-4, 2)])


def lr_at_step(stage: StageConfig, step: int, steps_per_epoch: int) -> float:
    """Linear warmup to peak over warmup_epochs, constant thereafter.

    step is 1-indexed within the stage; during warmup the rate is
    peak * step / warmup_steps, afterwards exactly peak.
    """
    if step < 1:
        raise ValueError("step is 1-indexed")
    warmup_steps = stage.warmup_epochs * steps_per_epoch
    if step < warmup_steps:
        return stage.peak_lr * step / warmup_steps
    return stage.peak_lr


@dataclass
class TrainResult:
    loss_curve: list[float]
    stage_boundaries: list[int]  # step index where each stage starts


def extract_features(entries: list[ManifestEntry], base_dir,
                     cfg: FrontendConfig) -> dict[str, PatchSequence]:
    base = Path(base_dir)
    feats = {}
    for e in entries:
        wave_ = load_wav(base / e.audio)
        feats[e.id] = wave_to_patches(wave_, cfg)
    return feats


def corpus_feature_stats(features: dict[str, PatchSequence]) -> tuple[float, float]:
    """Scalar mean/std of log-mel patch values over the whole corpus."""
    values = np.concatenate([p.patches.reshape(-1) for p in features.values()])
    mean = float(values.mean())
    std = float(values.std())
    return mean, max(std, 1e-8)


def _keep_freed_memory() -> None:
    """Keep the heap memory that a training step frees inside the process.

    Each step frees its activations and gradients and the next allocates
    them again. glibc returns a freed heap top to the system and maps
    large arrays afresh, so every step faulted its memory back in, 1,000
    to 3,000 pages at batch 8. Both thresholds are set, because setting
    either one switches off glibc's dynamic mmap threshold, which raises
    them together. Idempotent; without glibc it does nothing.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: glibc's largest, 32 MiB
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD: keep up to 1 GiB of free top


def run_schedule(model, schedule: TrainingSchedule,
                 entries: list[ManifestEntry], base_dir, seed: int,
                 max_steps: int | None = None,
                 features: dict[str, PatchSequence] | None = None,
                 log=None) -> TrainResult:
    """Train through all stages; stage 2 continues from stage 1 parameters.

    Each epoch permutes one (clip, caption) item per reference caption.
    A `max_steps` cap below 1 is a ValueError, raised before training.
    The process keeps the heap memory that steps free (`_keep_freed_memory`).
    """
    if max_steps is not None and max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    _keep_freed_memory()
    if features is None:
        features = extract_features(entries, base_dir, model.cfg.frontend)
    mean, std = corpus_feature_stats(features)
    model.encoder.set_feature_stats(mean, std)

    items = [(features[e.id], c) for e in entries for c in e.captions]
    curve: list[float] = []
    boundaries: list[int] = []
    epoch_counter = 0
    for stage in schedule.stages:
        boundaries.append(len(curve))
        params = trainable_parameters(model)
        opt = AdamW(params, lr=stage.peak_lr)
        steps_per_epoch = math.ceil(len(items) / stage.batch_size)
        step_in_stage = 0
        for _ in range(stage.epochs):
            batches = make_batches(items, stage.batch_size, seed,
                                   epoch_counter)
            epoch_counter += 1
            for batch in batches:
                step_in_stage += 1
                lr = lr_at_step(stage, step_in_stage, steps_per_epoch)
                loss = model.loss_on_batch(batch)
                value = float(loss.data)
                if not math.isfinite(value):
                    raise NonFiniteLoss(
                        f"loss {value} at stage step {step_in_stage}")
                opt.zero_grad()
                loss.backward()
                opt.lr = lr
                opt.step()
                curve.append(value)
                if log is not None:
                    log(len(curve), value, lr)
                if max_steps is not None and len(curve) >= max_steps:
                    return TrainResult(curve, boundaries)
    return TrainResult(curve, boundaries)
