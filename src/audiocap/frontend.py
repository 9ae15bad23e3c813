"""Waveform loading, log-mel features, and 16x16 patch extraction.

WAV input is strict: RIFF/WAVE, PCM16, mono, 16 kHz, little-endian. The
feature chain is a 25 ms / 10 ms Hann STFT (512-point FFT), 64 triangular
HTK-mel filters over 0-8000 Hz, and a natural log with a 1e-10 floor,
giving 100 frames per second. Patches tile the spectrogram into
non-overlapping 16x16 blocks, time-major with frequency ascending.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np


class UnsupportedFormat(ValueError):
    pass


class CorruptHeader(ValueError):
    pass


class InputTooShort(ValueError):
    pass


SAMPLE_RATE = 16000  # the only rate `load_wav` reads; there is no resampling


@dataclass
class FrontendConfig:
    sample_rate: int = SAMPLE_RATE
    window: int = 400
    hop: int = 160
    n_fft: int = 512
    n_mels: int = 64
    f_min: float = 0.0
    f_max: float = 8000.0
    log_floor: float = 1e-10
    patch: int = 16

    def __post_init__(self):
        if self.sample_rate != SAMPLE_RATE:
            raise ValueError(f"sample_rate must be {SAMPLE_RATE}, "
                             f"got {self.sample_rate}")
        if self.patch < 1 or self.n_mels < self.patch or self.n_mels % self.patch:
            raise ValueError(f"n_mels {self.n_mels} is not a positive multiple "
                             f"of patch {self.patch}")
        if not (1 <= self.window <= self.n_fft and self.hop >= 1):
            raise ValueError(f"need 1 <= window <= n_fft and hop >= 1, got window "
                             f"{self.window}, n_fft {self.n_fft}, hop {self.hop}")
        if not 0.0 <= self.f_min < self.f_max <= self.sample_rate / 2:
            raise ValueError(f"need 0 <= f_min < f_max <= {self.sample_rate / 2}"
                             f", got f_min {self.f_min}, f_max {self.f_max}")
        if not 0.0 < self.log_floor < np.inf:  # NaN fails too
            raise ValueError(f"log_floor must be finite and > 0, got {self.log_floor}")
        empty = int((mel_filterbank(self).max(axis=1) == 0).sum())
        if empty:
            raise ValueError(f"{empty} of {self.n_mels} mel bands cover no FFT bin "
                             f"at n_fft {self.n_fft}; lower n_mels or raise n_fft")


@dataclass
class Waveform:
    samples: np.ndarray
    sample_rate: int


@dataclass
class PatchSequence:
    patches: np.ndarray  # (count, 256)
    grid: tuple[int, int]  # (time_patches, freq_patches)

    @property
    def count(self) -> int:
        return self.patches.shape[0]


def load_wav(path) -> Waveform:
    """Read a PCM16 mono 16 kHz RIFF/WAVE file, scaling samples by 1/32768."""
    try:
        with wave.open(str(path), "rb") as f:
            channels = f.getnchannels()
            width = f.getsampwidth()
            rate = f.getframerate()
            comp = f.getcomptype()
            raw = f.readframes(f.getnframes())
    except (wave.Error, EOFError, RuntimeError) as e:  # RuntimeError: Chunk.skip
        raise CorruptHeader(f"{path}: {e}") from e
    if comp != "NONE" or width != 2:
        raise UnsupportedFormat(f"{path}: only uncompressed PCM16 is supported")
    if channels != 1:
        raise UnsupportedFormat(f"{path}: expected mono, got {channels} channels")
    if rate != SAMPLE_RATE:
        raise UnsupportedFormat(f"{path}: expected 16 kHz, got {rate} (no resampling)")
    if len(raw) % 2:
        raise CorruptHeader(f"{path}: data chunk ends inside a sample")
    ints = np.frombuffer(raw, dtype="<i2")
    if ints.size == 0:
        raise UnsupportedFormat(f"{path}: empty audio payload")
    return Waveform(samples=ints.astype(np.float64) / 32768.0, sample_rate=rate)


def hann_window(n: int) -> np.ndarray:
    # periodic variant, the usual STFT analysis window
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(cfg: FrontendConfig) -> np.ndarray:
    """(n_mels, n_fft//2+1) triangular HTK-mel filters with unit peaks."""
    n_bins = cfg.n_fft // 2 + 1
    bin_hz = np.arange(n_bins) * (cfg.sample_rate / cfg.n_fft)
    pts = mel_to_hz(np.linspace(hz_to_mel(cfg.f_min), hz_to_mel(cfg.f_max),
                                cfg.n_mels + 2))
    lo, ctr, hi = pts[:-2, None], pts[1:-1, None], pts[2:, None]
    rising = (bin_hz - lo) / (ctr - lo)
    falling = (hi - bin_hz) / (hi - ctr)
    return np.clip(np.minimum(rising, falling), 0.0, None)


def frame_count(n_samples: int, cfg: FrontendConfig) -> int:
    return 1 + (n_samples - cfg.window) // cfg.hop


def compute_log_mel(w: Waveform, cfg: FrontendConfig) -> np.ndarray:
    """The (frames, n_mels) log-mel spectrogram of `w`."""
    x = np.asarray(w.samples, dtype=np.float64)
    if x.size < cfg.window:
        raise InputTooShort(f"need at least {cfg.window} samples, got {x.size}")
    frames = np.lib.stride_tricks.sliding_window_view(x, cfg.window)[::cfg.hop]
    spec = np.fft.rfft(frames * hann_window(cfg.window), n=cfg.n_fft)
    power = spec.real ** 2 + spec.imag ** 2
    mel = power @ mel_filterbank(cfg).T
    return np.log(np.maximum(mel, cfg.log_floor))


def patchify(values: np.ndarray, cfg: FrontendConfig) -> PatchSequence:
    """Tile (frames, n_mels) into 16x16 patches, right-padding time with
    the log floor."""
    p = cfg.patch
    if values.shape[1] != cfg.n_mels:
        raise ValueError(f"expected {cfg.n_mels} mel bands, got {values.shape[1]}")
    freq_patches = cfg.n_mels // p
    time_patches = -(-values.shape[0] // p)  # ceil
    padded = np.full((time_patches * p, cfg.n_mels), np.log(cfg.log_floor))
    padded[:values.shape[0]] = values
    patches = (padded.reshape(time_patches, p, freq_patches, p)
               .swapaxes(1, 2).reshape(-1, p * p))
    return PatchSequence(patches=patches, grid=(time_patches, freq_patches))


def wave_to_patches(w: Waveform, cfg: FrontendConfig) -> PatchSequence:
    return patchify(compute_log_mel(w, cfg), cfg)
