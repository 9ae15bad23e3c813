import builtins
import errno
import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiocap import checkpoint as ckpt
from audiocap import nn
from audiocap.data import StageConfig, TrainingSchedule, run_schedule, synthesize_corpus
from audiocap.decoder import build_vocab
from audiocap.model import build_model
from conftest import random_patches, tiny_config, tiny_vocab


def fresh_model(strategy=None, seed=3):
    cfg = tiny_config(seed=seed, strategy=strategy)
    model = build_model(cfg, tiny_vocab())
    model.encoder.set_feature_stats(-4.5, 3.25)
    return model


def reference_serialize(model) -> bytes:
    """The file's bytes built as parts and joined, as `serialize` once did."""
    table = ckpt._tensor_table(model)
    header = {
        "config": model.cfg.to_dict(),
        "vocab": model.vocab.tokens,
        "feature_stats": {"mean": model.encoder.feat_mean,
                          "std": model.encoder.feat_std},
        "tensors": [{"name": name, "shape": list(arr.shape)}
                    for name, arr in table],
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    parts = [ckpt.MAGIC, struct.pack("<I", ckpt.VERSION),
             struct.pack("<Q", len(header_bytes)), header_bytes]
    parts.extend(arr.astype("<f4").tobytes(order="C") for _, arr in table)
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(struct.pack("<I", crc))
    return b"".join(parts)


def sealed(body: bytes) -> bytes:
    """`body` with the CRC-32 trailer of a checkpoint."""
    return body + struct.pack("<I", zlib.crc32(body))


def with_header(edit):
    """A fresh model's checkpoint with its JSON header changed by `edit`.

    The checksum is recomputed, so only the header's contents are wrong.
    """
    blob = ckpt.serialize(fresh_model())
    (n,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16:16 + n])
    edit(header)
    raw = json.dumps(header).encode("utf-8")
    return sealed(blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + n:-4])


def swap_matrix_shape(header):
    """Swap the first non-square 2-D tensor shape, [a, b] -> [b, a]: the
    byte count, and so the checksummed length, stays the same."""
    entry = next(t for t in header["tensors"]
                 if len(t["shape"]) == 2 and t["shape"][0] != t["shape"][1])
    entry["shape"].reverse()


def as_old_version(blob: bytes, version: int) -> bytes:
    """The same model's file in format 1, 2 or 3.

    A format-3 header also holds its version, each tensor's dtype, the six
    STFT/log frontend values and a per-component strategy; formats 1 and 2
    also name `bridge.d_dec` and `frontend.sample_rate`; a version-1 file
    has no checksum trailer.
    """
    (n,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16:16 + n])
    config = header["config"]
    config["frontend"].update(window=400, hop=160, n_fft=512, f_min=0.0,
                              f_max=8000.0, log_floor=1e-10)
    config["strategy"] = {"encoder": config["strategy"],
                          "decoder": config["strategy"]}
    for entry in header["tensors"]:
        entry["dtype"] = "f32"
    header["version"] = version
    if version < 3:
        config["bridge"]["d_dec"] = config["decoder"]["d_dec"]
        config["frontend"]["sample_rate"] = 16000
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = (blob[:4] + struct.pack("<IQ", version, len(raw)) + raw
            + blob[16 + n:-4])
    return body if version == 1 else sealed(body)


class TestRoundTrip:
    def test_outputs_bit_identical_on_5_inputs(self):
        model = fresh_model()
        loaded = ckpt.deserialize(ckpt.serialize(model))
        for seed in range(5):
            p = random_patches(seed)
            assert np.array_equal(model.acoustic_tokens(p).data,
                                  loaded.acoustic_tokens(p).data)
            assert model.caption_patches(p) == loaded.caption_patches(p)

    def test_save_load_save_byte_identical(self, tmp_path):
        model = fresh_model()
        path = tmp_path / "m.ckpt"
        ckpt.save_checkpoint(model, path)
        first = path.read_bytes()
        assert first == ckpt.serialize(model)
        loaded = ckpt.load_checkpoint(path)
        assert ckpt.serialize(loaded) == first

    @pytest.mark.parametrize("strategy", [None, "lora"],
                             ids=["full", "lora"])
    def test_load_draws_no_random_weights(self, monkeypatch, strategy):
        blob = ckpt.serialize(fresh_model(strategy))

        def drawn(*args, **kwargs):
            raise AssertionError("a load drew weights that it overwrites")

        with monkeypatch.context() as m:
            m.setattr(np.random, "SeedSequence", drawn)
            loaded = ckpt.deserialize(blob)
        assert ckpt.serialize(loaded) == blob
        # the draws are back after the load: a fresh build has the same bits
        assert ckpt.serialize(fresh_model(strategy)) == blob

    def test_integer_float_setting_is_kept(self):
        # an integer in a float setting loads as it is, up to the largest
        # a float holds, so the file round-trips
        big = 10 ** 308
        blob = ckpt.serialize(ckpt.deserialize(with_header(
            lambda h: h["config"]["lora"].update(alpha=big))))
        model = ckpt.deserialize(blob)
        assert model.cfg.lora.alpha == big and type(model.cfg.lora.alpha) is int
        assert ckpt.serialize(model) == blob

    def test_feature_stats_restored(self):
        loaded = ckpt.deserialize(ckpt.serialize(fresh_model()))
        assert loaded.encoder.feat_mean == -4.5
        assert loaded.encoder.feat_std == 3.25

    def test_vocab_and_config_restored(self):
        model = fresh_model()
        loaded = ckpt.deserialize(ckpt.serialize(model))
        assert loaded.vocab.tokens == model.vocab.tokens
        assert loaded.cfg.to_dict() == model.cfg.to_dict()

    @pytest.mark.parametrize("kind", ["fresh", "lora", "float64"])
    def test_serialize_matches_parts_and_join(self, kind):
        model = fresh_model("lora" if kind == "lora" else None)
        for i, p in enumerate(model.parameters()):  # distinct, nonzero data
            p.data = p.data + np.float32(0.001 * (i + 1))
        if kind == "float64":
            model.astype(np.float64)
            model.parameters()[0].data[0] += 1e-12  # not a float32 value
        blob = ckpt.serialize(model)
        assert blob == reference_serialize(model)
        assert ckpt.serialize(ckpt.deserialize(blob)) == blob

    def test_save_writes_exactly_serialize(self, tmp_path):
        model = fresh_model(strategy="lora")
        ckpt.save_checkpoint(model, tmp_path / "m.ckpt")
        assert (tmp_path / "m.ckpt").read_bytes() == ckpt.serialize(model)

    def test_load_checkpoint_equals_deserialize(self, tmp_path):
        blob = ckpt.serialize(fresh_model())
        (tmp_path / "m.ckpt").write_bytes(blob)
        loaded = ckpt.load_checkpoint(tmp_path / "m.ckpt")
        parsed = ckpt.deserialize(blob)
        assert ckpt.serialize(loaded) == ckpt.serialize(parsed)
        for name, p in loaded.named_parameters().items():
            assert p.data.dtype == np.float32 and p.data.flags.c_contiguous, name

    def test_version_1_is_refused(self, tmp_path):
        # a version-1 file has no checksum trailer, so it cannot be checked;
        # version-2 and -3 files hold fields this format dropped, and are
        # refused by their version, not as a corrupt header
        for version in (1, 2, 3):
            blob = as_old_version(ckpt.serialize(fresh_model()), version)
            (tmp_path / "m.ckpt").write_bytes(blob)
            for load in (lambda: ckpt.deserialize(blob),
                         lambda: ckpt.load_checkpoint(tmp_path / "m.ckpt")):
                with pytest.raises(ckpt.VersionMismatch,
                                   match=f"version {version}"):
                    load()

    def test_lora_wrapped_model_round_trips(self):
        model = fresh_model(strategy="lora")
        loaded = ckpt.deserialize(ckpt.serialize(model))
        assert set(loaded.named_parameters()) == set(model.named_parameters())
        p = random_patches(2)
        assert np.array_equal(model.acoustic_tokens(p).data,
                              loaded.acoustic_tokens(p).data)


TORN_BASE = bytes(ckpt.serialize(fresh_model()))


class TestCorruption:
    def test_bad_magic(self):
        blob = ckpt.serialize(fresh_model())
        with pytest.raises(ckpt.CorruptCheckpoint):
            ckpt.deserialize(b"XXXX" + blob[4:])

    def test_truncated_blob(self):
        blob = ckpt.serialize(fresh_model())
        with pytest.raises(ckpt.CorruptCheckpoint):
            ckpt.deserialize(blob[:len(blob) - 5])

    def test_trailing_bytes(self):
        blob = ckpt.serialize(fresh_model())
        with pytest.raises(ckpt.CorruptCheckpoint, match="trailing"):
            ckpt.deserialize(blob + b"\x00\x00\x00\x00")

    def test_version_mismatch(self):
        blob = bytearray(ckpt.serialize(fresh_model()))
        blob[4:8] = struct.pack("<I", 99)
        with pytest.raises(ckpt.VersionMismatch):
            ckpt.deserialize(bytes(blob))

    def test_garbage_header(self):
        head = (ckpt.MAGIC + struct.pack("<I", ckpt.VERSION) + struct.pack("<Q", 4)
                + b"not{")
        with pytest.raises(ckpt.CorruptCheckpoint):
            ckpt.deserialize(head)

    def test_deeply_nested_header(self):
        header = b"[" * 100_000
        blob = sealed(ckpt.MAGIC + struct.pack("<I", ckpt.VERSION)
                      + struct.pack("<Q", len(header)) + header)
        with pytest.raises(ckpt.CorruptCheckpoint):
            ckpt.deserialize(blob)

    def test_config_not_an_object(self):
        with pytest.raises(ckpt.CorruptCheckpoint):
            ckpt.deserialize(with_header(lambda h: h.update(config=[])))

    @pytest.mark.parametrize("edit", [
        lambda h: h.update(feature_stats={}),
        lambda h: h["tensors"][0].pop("shape"),
        lambda h: h.update(feature_stats=[]),
        lambda h: h["tensors"].__setitem__(0, list(h["tensors"][0].values())),
        lambda h: h.update(tensors={t["name"]: t for t in h["tensors"]}),
        lambda h: h["feature_stats"].update(mean="x"),
        lambda h: h["tensors"][0].update(shape=["x"]),
        lambda h: h["feature_stats"].update(mean=float("nan")),
        lambda h: h["feature_stats"].update(std=float("inf")),
        lambda h: h["feature_stats"].update(std=0.0),
        lambda h: h["config"]["bridge"].update(heads=0),
        lambda h: h["config"]["frontend"].update(hop=160),
        lambda h: h["config"].update(strategy={"encoder": "lora",
                                               "qformer": "frozen"}),
        lambda h: h["config"].update(strategy=1),
        lambda h: h["config"]["decoder"].update(max_caption=0),
        lambda h: h["config"]["lora"].update(alpha=float("nan")),
        lambda h: h["vocab"].__setitem__(-1, 5),
        lambda h: h["vocab"].__setitem__(-1, h["vocab"][-2]),
        lambda h: h["tensors"][0].update(shape=[float("inf")]),
        lambda h: h["tensors"][0]["shape"].__setitem__(
            0, h["tensors"][0]["shape"][0] + 0.5),
        lambda h: h["config"].update(seed=-1),
        lambda h: (h["config"].update(strategy="lora"),
                   h["config"]["lora"].update(rank=0)),
        lambda h: (h["config"].update(strategy="lora"),
                   h["config"]["lora"].update(rank=99)),
        lambda h: h["feature_stats"].update(mean=10 ** 400),
        lambda h: h["feature_stats"].update(std=10 ** 400),
        lambda h: h["config"]["lora"].update(alpha=10 ** 400),
    ], ids=["stats-empty", "no-shape", "stats-list", "entry-list",
            "tensors-object", "mean-string", "shape-string", "mean-nan",
            "std-inf", "std-zero", "heads-zero", "frontend-field-unknown",
            "strategy-unknown-component",
            "strategy-mode-not-string", "max_caption-zero",
            "alpha-nan", "vocab-int-token", "vocab-duplicate-word",
            "shape-inf", "shape-fraction", "seed-negative",
            "lora-rank-zero", "lora-rank-past-width", "mean-past-float",
            "std-past-float", "alpha-past-float"])
    def test_bad_header_field(self, edit):
        with pytest.raises(ckpt.CorruptCheckpoint):
            ckpt.deserialize(with_header(edit))

    def test_integer_past_the_digit_limit(self):
        # json.loads raises a plain ValueError on 4,301 digits
        blob = ckpt.serialize(fresh_model())
        (n,) = struct.unpack_from("<Q", blob, 8)
        header = blob[16:16 + n].replace(b'"mean":-4.5', b'"mean":9' + b"0" * 4300)
        assert len(header) > n
        blob = sealed(blob[:8] + struct.pack("<Q", len(header)) + header
                      + blob[16 + n:-4])
        with pytest.raises(ckpt.CorruptCheckpoint, match="unreadable header"):
            ckpt.deserialize(blob)

    # headers that pass the length and CRC-32 checks but not the model
    @pytest.mark.parametrize("edit, match", [
        (lambda h: h["tensors"][0].update(name="renamed"), "tensor table"),
        (swap_matrix_shape, "shape mismatch"),
    ], ids=["renamed", "shape-swapped"])
    def test_tensor_table_checked_against_the_model(self, edit, match):
        with pytest.raises(ckpt.CorruptCheckpoint, match=match):
            ckpt.deserialize(with_header(edit))

    def test_single_bit_flips_never_load(self):
        # bits 0, 1 and 5 of every header byte, then a sample of tensor
        # and checksum bytes
        blob = ckpt.serialize(fresh_model())
        (n,) = struct.unpack_from("<Q", blob, 8)
        tail = nn.rng_from_seed(4).choice(np.arange(16 + n, len(blob)), 500,
                                           replace=False)
        offsets = list(range(16 + n)) + sorted(tail.tolist())
        offsets += range(len(blob) - 4, len(blob))
        flips = [(i, 1 << b) for i in offsets for b in (0, 1, 5)]
        loaded = []
        for i, mask in flips:
            broken = bytearray(blob)
            broken[i] ^= mask
            try:
                ckpt.deserialize(bytes(broken))
            except (ckpt.CorruptCheckpoint, ckpt.VersionMismatch):
                continue
            loaded.append((i, mask))
        assert len(flips) > 3 * 5000 and loaded == []

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_torn_writes_never_load(self, tmp_path_factory, data):
        # a run of 1-64 bytes overwritten anywhere, or the file cut short
        blob = TORN_BASE
        if data.draw(st.booleans(), label="truncate"):
            torn = blob[:data.draw(st.integers(0, len(blob) - 1), label="cut")]
            hits_version = False
        else:
            start = data.draw(st.integers(0, len(blob) - 1), label="start")
            run = data.draw(st.binary(min_size=1, max_size=64), label="run")
            run = run[:len(blob) - start]
            torn = blob[:start] + run + blob[start + len(run):]
            hits_version = torn[4:8] != blob[4:8]
        if torn == blob:
            return
        allowed = ((ckpt.CorruptCheckpoint, ckpt.VersionMismatch)
                   if hits_version else ckpt.CorruptCheckpoint)
        path = tmp_path_factory.mktemp("torn") / "m.ckpt"
        path.write_bytes(torn)
        for load in (lambda: ckpt.deserialize(torn),
                     lambda: ckpt.load_checkpoint(path)):
            with pytest.raises(allowed):
                load()

    def test_checksum_mismatch(self):
        blob = bytearray(ckpt.serialize(fresh_model()))
        blob[-1] ^= 1
        with pytest.raises(ckpt.CorruptCheckpoint, match="checksum"):
            ckpt.deserialize(bytes(blob))

    @pytest.mark.parametrize("cut", ["inside-tensor", "bad-trailer"])
    def test_damaged_file_raises(self, tmp_path, cut):
        blob = ckpt.serialize(fresh_model())
        (n,) = struct.unpack_from("<Q", blob, 8)
        if cut == "inside-tensor":
            blob = blob[:16 + n + 10]
        else:
            blob = blob[:-4] + bytes(b ^ 0xFF for b in blob[-4:])
        path = tmp_path / "damaged.ckpt"
        path.write_bytes(blob)
        with pytest.raises(ckpt.CorruptCheckpoint):
            ckpt.load_checkpoint(path)
        with pytest.raises(ckpt.CorruptCheckpoint):
            ckpt.deserialize(blob)

    def test_tiny_blob(self):
        with pytest.raises(ckpt.CorruptCheckpoint):
            ckpt.deserialize(b"LO")

    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        ckpt.save_checkpoint(fresh_model(seed=3), path)
        old = path.read_bytes()

        class HalfWritten:  # writes half its data, then the disk is full
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(memoryview(data)[:len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        def failing_open(file, mode="r", *args, **kwargs):
            fh = builtins.open(file, mode, *args, **kwargs)
            return HalfWritten(fh) if "w" in mode else fh

        monkeypatch.setattr(ckpt, "open", failing_open, raising=False)
        from audiocap.data import IoError
        with pytest.raises(IoError, match="No space"):
            ckpt.save_checkpoint(fresh_model(seed=4), path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_missing_file(self, tmp_path):
        from audiocap.data import IoError
        with pytest.raises(IoError):
            ckpt.load_checkpoint(tmp_path / "none.ckpt")


class TestTrainedState:
    def test_frozen_base_survives_lora_training(self, tmp_path):
        entries = synthesize_corpus(2, seed=9, out_dir=tmp_path)
        cfg = tiny_config(seed=5, strategy="lora")
        vocab = build_vocab([e.captions[0] for e in entries])
        model = build_model(cfg, vocab)
        frozen_before = {
            name: p.data.tobytes()
            for name, p in model.named_parameters().items()
            if not p.requires_grad}
        assert frozen_before
        run_schedule(model, TrainingSchedule([StageConfig(3, 2, 1e-3, 1)]),
                     entries, tmp_path, seed=0)
        params = model.named_parameters()
        for name, blob in frozen_before.items():
            assert params[name].data.tobytes() == blob, name
        moved = [n for n, p in params.items()
                 if p.requires_grad and n.endswith("lora_b")]
        assert any(params[n].data.any() for n in moved)
        # and the trained state round-trips
        loaded = ckpt.deserialize(ckpt.serialize(model))
        assert ckpt.serialize(loaded) == ckpt.serialize(model)
