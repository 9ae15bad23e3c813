import math
import wave
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiocap import frontend
from audiocap.frontend import SAMPLE_RATE, FrontendConfig


def write_pcm16(path, ints, rate=16000, channels=1, width=2):
    with wave.open(str(path), "wb") as f:
        f.setnchannels(channels)
        f.setsampwidth(width)
        f.setframerate(rate)
        f.writeframes(np.asarray(ints, dtype="<i2").tobytes())


def frame_count(n_samples):
    """Frames in a log-mel of n_samples: one per hop while a window fits."""
    return 1 + (n_samples - frontend.WINDOW) // frontend.HOP


def reference_filterbank(cfg):
    """The filterbank built one band at a time."""
    n_bins = frontend.N_FFT // 2 + 1
    bin_hz = np.arange(n_bins) * (SAMPLE_RATE / frontend.N_FFT)
    pts = frontend.mel_to_hz(np.linspace(0.0, frontend.hz_to_mel(frontend.F_MAX),
                                         cfg.n_mels + 2))
    fb = np.zeros((cfg.n_mels, n_bins))
    for m in range(cfg.n_mels):
        lo, ctr, hi = pts[m], pts[m + 1], pts[m + 2]
        rising = (bin_hz - lo) / (ctr - lo)
        falling = (hi - bin_hz) / (hi - ctr)
        fb[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    return fb


@pytest.fixture(scope="module")
def wav_clip(tmp_path_factory):
    """A valid 44-byte-header PCM16 clip, and a scratch path to edit it at."""
    path = tmp_path_factory.mktemp("wav") / "clip.wav"
    write_pcm16(path, np.arange(-400, 400, dtype=np.int16) * 40)
    return path.read_bytes(), path


class TestLoadWav:
    def test_exact_scaling(self, tmp_path):
        ints = np.array([0, 1, -1, 32767, -32768], dtype=np.int16)
        path = tmp_path / "a.wav"
        write_pcm16(path, ints)
        w = frontend.load_wav(path)
        assert w.dtype == np.float64
        assert np.array_equal(w, ints.astype(np.float64) / 32768.0)

    def test_rejects_stereo(self, tmp_path):
        path = tmp_path / "s.wav"
        with wave.open(str(path), "wb") as f:
            f.setnchannels(2)
            f.setsampwidth(2)
            f.setframerate(16000)
            f.writeframes(np.zeros(800, dtype="<i2").tobytes())
        with pytest.raises(frontend.UnsupportedFormat):
            frontend.load_wav(path)

    def test_rejects_wrong_rate(self, tmp_path):
        path = tmp_path / "r.wav"
        write_pcm16(path, np.zeros(400, dtype=np.int16), rate=44100)
        with pytest.raises(frontend.UnsupportedFormat):
            frontend.load_wav(path)

    def test_rejects_8bit(self, tmp_path):
        path = tmp_path / "b.wav"
        with wave.open(str(path), "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(1)
            f.setframerate(16000)
            f.writeframes(bytes(400))
        with pytest.raises(frontend.UnsupportedFormat):
            frontend.load_wav(path)

    def test_rejects_empty_payload(self, tmp_path):
        path = tmp_path / "e.wav"
        write_pcm16(path, np.zeros(0, dtype=np.int16))
        with pytest.raises(frontend.UnsupportedFormat):
            frontend.load_wav(path)

    def test_corrupt_header(self, tmp_path):
        path = tmp_path / "c.wav"
        path.write_bytes(b"not a riff file at all, just junk bytes")
        with pytest.raises(frontend.CorruptHeader):
            frontend.load_wav(path)

    @pytest.mark.parametrize("offset,value", [(16, 17), (4, 1)],
                             ids=["fmt-size-17", "riff-size-1"])
    def test_header_edit_is_corrupt_header(self, wav_clip, offset, value):
        # fmt size 17 made `wave` raise a bare RuntimeError from its chunk
        # skip; RIFF size 1 cut the data to an odd byte count
        blob, path = wav_clip
        edited = bytearray(blob)
        edited[offset] = value
        path.write_bytes(bytes(edited))
        with pytest.raises(frontend.CorruptHeader, match="clip.wav"):
            frontend.load_wav(path)

    @given(st.lists(st.tuples(st.integers(0, 43), st.integers(0, 255)),
                    min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_header_edits_raise_only_format_errors(self, wav_clip, edits):
        blob, path = wav_clip
        edited = bytearray(blob)
        for offset, value in edits:
            edited[offset] = value
        path.write_bytes(bytes(edited))
        try:
            frontend.load_wav(path)
        except (frontend.CorruptHeader, frontend.UnsupportedFormat):
            pass


class TestConfig:
    # each of these produced patches with no error before it was rejected;
    # the STFT and log values are constants, so a config cannot name them
    @pytest.mark.parametrize("over", [
        {"hop": -160}, {"hop": 0}, {"window": 0}, {"window": 600},
        {"n_fft": 256}, {"f_max": 12000.0}, {"f_min": 9000.0},
        {"f_min": -1.0}, {"f_min": 4000.0, "f_max": 4000.0},
        {"log_floor": 0.0}, {"log_floor": -1.0}, {"log_floor": math.inf},
        {"log_floor": math.nan}, {"n_mels": 128}, {"n_mels": 160},
        {"n_mels": 256},
    ], ids=lambda over: ",".join(f"{k}={v}" for k, v in over.items()))
    def test_setting_that_corrupts_features_is_rejected(self, over):
        error, match = ((ValueError, "mel bands") if "n_mels" in over
                        else (TypeError, "unexpected keyword argument"))
        with pytest.raises(error, match=match):
            FrontendConfig(**over)

    @pytest.mark.parametrize("n_mels,empty", [(128, 1), (160, 4), (256, 27)])
    def test_empty_mel_bands_are_counted(self, n_mels, empty):
        with pytest.raises(ValueError, match=f"^{empty} of {n_mels} mel bands "
                                             "cover no FFT bin"):
            FrontendConfig(n_mels=n_mels)

    def test_every_band_covers_a_bin_up_to_112_mels(self):
        for n_mels in range(16, 113, 16):
            fb = frontend.mel_filterbank(FrontendConfig(n_mels=n_mels))
            assert np.all(fb.max(axis=1) > 0)


class TestFraming:
    @pytest.mark.parametrize("n,expected", [
        (400, 1), (559, 1), (560, 2), (16000, 98), (480000, 2998),
    ])
    def test_frame_count(self, n, expected):
        cfg = FrontendConfig()
        mel = frontend.compute_log_mel(np.zeros(n), cfg)
        assert frame_count(n) == expected == mel.shape[0]

    def test_too_short(self):
        w = np.zeros(399)
        with pytest.raises(frontend.InputTooShort):
            frontend.compute_log_mel(w, FrontendConfig())

    @given(st.integers(400, 20000))
    @settings(max_examples=30, deadline=None)
    def test_spectrogram_shape_matches_count(self, n):
        w = np.zeros(n)
        m = frontend.compute_log_mel(w, FrontendConfig())
        assert m.shape[0] == 1 + (n - 400) // 160
        assert m.shape[1] == 64


class TestMelAnalysis:
    def test_htk_mel_hand_value(self):
        assert abs(frontend.hz_to_mel(700.0) - 2595.0 * math.log10(2.0)) < 1e-9

    def test_mel_hz_round_trip(self):
        f = np.array([0.0, 440.0, 1000.0, 8000.0])
        assert np.allclose(frontend.mel_to_hz(frontend.hz_to_mel(f)), f)

    def test_filterbank_shape_and_peaks(self):
        fb = frontend.mel_filterbank(FrontendConfig())
        assert fb.shape == (64, 257)
        assert np.all(fb >= 0)
        assert np.all(fb.max(axis=1) > 0)
        assert fb.max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("over", [
        {"n_mels": n} for n in (64, 80, 96, 128)
    ] + [{"n_fft": 1024, "n_mels": 64}, {"n_fft": 1024, "n_mels": 128}],
        ids=lambda over: ",".join(f"{k}={v}" for k, v in over.items()))
    def test_filterbank_matches_per_band_reference(self, monkeypatch, over):
        # n_mels=128 at N_FFT 512 has an empty band, which FrontendConfig
        # rejects; the filterbank is still defined there, and at any N_FFT
        monkeypatch.setattr(frontend, "N_FFT", over.get("n_fft", frontend.N_FFT))
        cfg = SimpleNamespace(n_mels=over["n_mels"])
        assert np.array_equal(frontend.mel_filterbank(cfg),
                              reference_filterbank(cfg))

    def test_window_and_filterbank_built_once_per_config(self, monkeypatch):
        # an empty cache, so the first call below builds
        frontend._analysis.cache_clear()
        cfg, equal = FrontendConfig(), FrontendConfig()
        built = []
        for name in ("hann_window", "mel_filterbank"):
            real = getattr(frontend, name)
            monkeypatch.setattr(frontend, name,
                                lambda *a, real=real: built.append(1) or real(*a))
        t = np.arange(4000) / 16000.0
        w = 0.5 * np.sin(2 * np.pi * 440.0 * t)
        first = frontend.compute_log_mel(w, cfg)
        again = frontend.compute_log_mel(w, equal)
        assert len(built) == 2 and np.array_equal(first, again)
        frames = np.lib.stride_tricks.sliding_window_view(w, 400)[::160]
        spec = np.fft.rfft(frames * frontend.hann_window(400), n=512)
        power = spec.real ** 2 + spec.imag ** 2
        fresh = np.log(np.maximum(power @ frontend.mel_filterbank(cfg).T, 1e-10))
        assert np.array_equal(first, fresh)
        assert not any(t.flags.writeable for t in frontend._analysis(cfg))

    def test_silence_hits_log_floor(self):
        m = frontend.compute_log_mel(np.zeros(16000), FrontendConfig())
        assert np.all(m == math.log(1e-10))

    def test_1khz_tone_band(self):
        t = np.arange(16000) / 16000.0
        w = 0.5 * np.sin(2 * np.pi * 1000.0 * t)
        m = frontend.compute_log_mel(w, FrontendConfig())
        band = int(np.argmax(m.mean(axis=0)))
        edges = np.linspace(0.0, frontend.hz_to_mel(frontend.F_MAX), m.shape[1] + 2)
        centers = frontend.mel_to_hz(edges[1:-1])
        assert band == 22
        assert abs(centers[band] - 1000.0) < 120.0

    def test_band_ordering_tracks_frequency(self):
        t = np.arange(16000) / 16000.0
        bands = []
        for hz in (220.0, 1000.0, 1760.0):
            w = 0.5 * np.sin(2 * np.pi * hz * t)
            m = frontend.compute_log_mel(w, FrontendConfig())
            bands.append(int(np.argmax(m.mean(axis=0))))
        assert bands[0] < bands[1] < bands[2]


class TestPatchify:
    @given(st.integers(1, 40))
    @settings(max_examples=20, deadline=None)
    def test_count_and_inverse(self, frames):
        r = np.random.Generator(np.random.PCG64(frames))
        values = r.normal(0, 1, (frames, 64))
        p = frontend.patchify(values, FrontendConfig())
        tp = -(-frames // 16)
        assert p.count == 4 * tp
        assert p.grid == (tp, 4)
        assert p.patches.shape == (4 * tp, 256)
        # undo the time-major raster of 16x16 tiles
        rebuilt = (p.patches.reshape(tp, 4, 16, 16).transpose(0, 2, 1, 3)
                   .reshape(tp * 16, 64))
        assert np.array_equal(rebuilt[:frames], values)
        assert np.all(rebuilt[frames:] == math.log(1e-10))

    def test_grid_is_time_major_freq_ascending(self):
        values = np.arange(32 * 64, dtype=np.float64).reshape(32, 64)
        p = frontend.patchify(values, FrontendConfig())
        for t in range(2):
            for f in range(4):
                block = values[t * 16:(t + 1) * 16, f * 16:(f + 1) * 16]
                assert np.array_equal(p.patches[t * 4 + f],
                                      block.reshape(-1))

    def test_thirty_seconds_gives_752_patches(self):
        frames = frame_count(480000)
        values = np.zeros((frames, 64))
        assert frontend.patchify(values, FrontendConfig()).count == 752

    def test_wave_to_patches_chain(self):
        w = np.zeros(16000)
        p = frontend.wave_to_patches(w, FrontendConfig())
        # 98 frames -> ceil(98/16)=7 time patches x 4 freq patches
        assert p.count == 28
