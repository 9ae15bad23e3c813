"""Waveform loading, log-mel features, and 16x16 patch extraction.

WAV input is strict: RIFF/WAVE, PCM16, mono, 16 kHz, little-endian, and
loads as a plain float64 sample array; 16 kHz (`SAMPLE_RATE`) is the one
rate. The feature chain is fixed: a 25 ms / 10 ms Hann STFT (512-point
FFT), HTK-mel filters over 0-8000 Hz and a natural log with a 1e-10 floor,
giving 100 frames per second. Only the band count and the patch size are
settable. Patches tile the spectrogram time-major, frequency ascending.
"""

from __future__ import annotations

import functools
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
WINDOW = 400  # 25 ms
HOP = 160  # 10 ms
N_FFT = 512
F_MAX = SAMPLE_RATE / 2  # the mel bands span 0 Hz to Nyquist
LOG_FLOOR = 1e-10


@dataclass(frozen=True)
class FrontendConfig:
    n_mels: int = 64
    patch: int = 16

    def __post_init__(self):
        if self.patch < 1 or self.n_mels < self.patch or self.n_mels % self.patch:
            raise ValueError(f"n_mels {self.n_mels} is not a positive multiple "
                             f"of patch {self.patch}")
        empty = int((mel_filterbank(self).max(axis=1) == 0).sum())
        if empty:
            raise ValueError(f"{empty} of {self.n_mels} mel bands cover no FFT bin "
                             f"at n_fft {N_FFT}; lower n_mels")


@dataclass
class PatchSequence:
    patches: np.ndarray  # (count, 256)
    grid: tuple[int, int]  # (time_patches, freq_patches)

    @property
    def count(self) -> int:
        return self.patches.shape[0]


def load_wav(path) -> np.ndarray:
    """Read a PCM16 mono 16 kHz RIFF/WAVE file's samples, scaled by 1/32768."""
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
    return ints.astype(np.float64) / 32768.0


def hann_window(n: int) -> np.ndarray:
    # periodic variant, the usual STFT analysis window
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(cfg: FrontendConfig) -> np.ndarray:
    """(n_mels, N_FFT//2+1) triangular HTK-mel filters with unit peaks."""
    n_bins = N_FFT // 2 + 1
    bin_hz = np.arange(n_bins) * (SAMPLE_RATE / N_FFT)
    pts = mel_to_hz(np.linspace(0.0, hz_to_mel(F_MAX), cfg.n_mels + 2))
    lo, ctr, hi = pts[:-2, None], pts[1:-1, None], pts[2:, None]
    rising = (bin_hz - lo) / (ctr - lo)
    falling = (hi - bin_hz) / (hi - ctr)
    return np.clip(np.minimum(rising, falling), 0.0, None)


@functools.lru_cache(maxsize=4)
def _analysis(cfg: FrontendConfig) -> tuple[np.ndarray, np.ndarray]:
    """The Hann window and mel filterbank of `cfg`, built once, read-only."""
    tables = hann_window(WINDOW), mel_filterbank(cfg)
    for table in tables:
        table.setflags(write=False)
    return tables


def compute_log_mel(samples: np.ndarray, cfg: FrontendConfig) -> np.ndarray:
    """The (frames, n_mels) log-mel spectrogram of `samples`."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size < WINDOW:
        raise InputTooShort(f"need at least {WINDOW} samples, got {x.size}")
    window, filterbank = _analysis(cfg)
    frames = np.lib.stride_tricks.sliding_window_view(x, WINDOW)[::HOP]
    spec = np.fft.rfft(frames * window, n=N_FFT)
    power = spec.real ** 2 + spec.imag ** 2
    mel = power @ filterbank.T
    return np.log(np.maximum(mel, LOG_FLOOR))


def patchify(values: np.ndarray, cfg: FrontendConfig) -> PatchSequence:
    """Tile (frames, n_mels) into patch x patch blocks, right-padding time
    with the log floor."""
    p = cfg.patch
    freq_patches = cfg.n_mels // p
    time_patches = -(-values.shape[0] // p)  # ceil
    padded = np.full((time_patches * p, cfg.n_mels), np.log(LOG_FLOOR))
    padded[:values.shape[0]] = values
    patches = (padded.reshape(time_patches, p, freq_patches, p)
               .swapaxes(1, 2).reshape(-1, p * p))
    return PatchSequence(patches=patches, grid=(time_patches, freq_patches))


def wave_to_patches(samples: np.ndarray, cfg: FrontendConfig) -> PatchSequence:
    return patchify(compute_log_mel(samples, cfg), cfg)
