import json
import math
import platform
import resource

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiocap import data, nn
from audiocap.data import (EVENT_NAMES, EVENT_SAMPLES, ManifestEntry,
                           StageConfig, TrainingSchedule, caption_for_events,
                           corpus_feature_stats, extract_features, lr_at_step,
                           make_batches, parse_manifest, render_events,
                           run_schedule, synthesize_corpus, write_manifest)
from audiocap.frontend import FrontendConfig, load_wav
from audiocap.lora import trainable_parameters
from audiocap.decoder import build_vocab
from audiocap.model import PipelineConfig, build_model
from conftest import tiny_config


class TestManifest:
    def entry(self, ident="c1"):
        return ManifestEntry(id=ident, audio=f"{ident}.wav",
                             captions=["a low tone"])

    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.jsonl"
        entries = [self.entry("a"), self.entry("b")]
        write_manifest(entries, path)
        assert parse_manifest(path) == entries

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('\n{"id": "a", "audio": "a.wav", "captions": ["x y"]}\n\n')
        assert len(parse_manifest(path)) == 1

    def test_invalid_json_line_number(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "a", "audio": "a.wav", "captions": ["x"]}\n{oops\n')
        with pytest.raises(data.MalformedLine, match="line 2") as ei:
            parse_manifest(path)
        assert ei.value.lineno == 2

    def test_integer_past_the_digit_limit_is_malformed_line(self, tmp_path):
        # 4,301 digits: past Python's int-string limit, json.loads raises a
        # plain ValueError
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "a", "audio": "a.wav", "captions": ["x"]}\n'
                        '{"id": "b", "audio": "b.wav", "captions": ["x"], '
                        '"n": 9%s}\n' % ("0" * 4300))
        with pytest.raises(data.MalformedLine, match="line 2: invalid JSON") as ei:
            parse_manifest(path)
        assert ei.value.lineno == 2

    def test_non_utf8_line_number(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_bytes(b'{"id": "a", "audio": "a.wav", "captions": ["x"]}\n'
                         b'{"id": "b", "audio": "b.wav", "captions": ["\xff"]}\n')
        with pytest.raises(data.MalformedLine, match="line 2: not UTF-8") as ei:
            parse_manifest(path)
        assert ei.value.lineno == 2

    def test_missing_field(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "a", "captions": ["x"]}\n')
        with pytest.raises(data.MissingField, match="audio"):
            parse_manifest(path)

    def test_empty_captions_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "a", "audio": "a.wav", "captions": []}\n')
        with pytest.raises(data.MissingField):
            parse_manifest(path)

    def test_blank_caption_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "a", "audio": "a.wav", "captions": ["  "]}\n')
        with pytest.raises(data.MissingField):
            parse_manifest(path)

    def test_six_captions_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        caps = json.dumps([f"c {i}" for i in range(6)])
        path.write_text(f'{{"id": "a", "audio": "a.wav", "captions": {caps}}}\n')
        with pytest.raises(data.MalformedLine, match="5"):
            parse_manifest(path)

    def test_five_captions_accepted(self, tmp_path):
        path = tmp_path / "m.jsonl"
        caps = json.dumps([f"c {i}" for i in range(5)])
        path.write_text(f'{{"id": "a", "audio": "a.wav", "captions": {caps}}}\n')
        assert len(parse_manifest(path)[0].captions) == 5

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "m.jsonl"
        row = '{"id": "a", "audio": "a.wav", "captions": ["x"]}\n'
        path.write_text(row + row)
        with pytest.raises(data.DuplicateId):
            parse_manifest(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(data.IoError):
            parse_manifest(tmp_path / "absent.jsonl")

    @pytest.mark.parametrize("ident,audio", [
        (1, "a.wav"), ("a", True), (["a"], "a.wav"), (None, "a.wav"),
        ("", "a.wav"), ("a", ""), ("a", "  "),
    ])
    def test_id_and_audio_are_non_blank_strings(self, tmp_path, ident, audio):
        path = tmp_path / "m.jsonl"
        row = {"id": ident, "audio": audio, "captions": ["x"]}
        path.write_text('{"id": "z", "audio": "z.wav", "captions": ["x"]}\n'
                        + json.dumps(row) + "\n")
        with pytest.raises(data.MalformedLine, match="line 2"):
            parse_manifest(path)


class TestSyntheticCorpus:
    def test_deterministic_and_byte_identical(self, tmp_path):
        a = synthesize_corpus(4, seed=11, out_dir=tmp_path / "a")
        b = synthesize_corpus(4, seed=11, out_dir=tmp_path / "b")
        assert a == [ManifestEntry(e.id, e.audio, e.captions) for e in b]
        for e in a:
            wav_a = (tmp_path / "a" / e.audio).read_bytes()
            wav_b = (tmp_path / "b" / e.audio).read_bytes()
            assert wav_a == wav_b
        assert (tmp_path / "a" / "manifest.jsonl").read_bytes() == \
            (tmp_path / "b" / "manifest.jsonl").read_bytes()

    def test_seed_changes_corpus(self, tmp_path):
        a = synthesize_corpus(4, seed=11, out_dir=tmp_path / "a")
        b = synthesize_corpus(4, seed=12, out_dir=tmp_path / "b")
        assert [e.captions for e in a] != [e.captions for e in b]

    def test_clip_length_is_event_multiple(self, tmp_path):
        entries = synthesize_corpus(6, seed=3, out_dir=tmp_path)
        for e in entries:
            w = load_wav(tmp_path / e.audio)
            n_events = len(e.captions[0].split(" followed by "))
            assert 2 <= n_events <= 5
            assert w.size == n_events * EVENT_SAMPLES

    def test_caption_matches_event_grammar(self, tmp_path):
        entries = synthesize_corpus(8, seed=5, out_dir=tmp_path)
        for e in entries:
            for part in e.captions[0].split(" followed by "):
                assert part in EVENT_NAMES

    def test_caption_for_events(self):
        assert caption_for_events([0, 5]) == "a low tone followed by silence"
        assert caption_for_events([2]) == "an upward chirp"

    def test_render_amplitudes(self):
        rng = nn.rng_from_seed(0)
        wave_ = render_events([0, 1, 2, 3, 5], rng)
        assert wave_.size == 5 * EVENT_SAMPLES
        assert np.abs(wave_).max() <= 0.5 + 1e-9
        assert np.all(wave_[4 * EVENT_SAMPLES:] == 0.0)

    def test_unknown_event_index(self):
        with pytest.raises(ValueError):
            render_events([9], nn.rng_from_seed(0))

    def test_zero_clips_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            synthesize_corpus(0, seed=1, out_dir=tmp_path)

    @pytest.mark.parametrize("write", [
        lambda under: synthesize_corpus(1, seed=1, out_dir=under / "sub"),
        lambda under: data.write_wav(under / "a.wav", np.zeros(4)),
        lambda under: write_manifest([], under / "manifest.jsonl"),
    ], ids=["corpus-dir", "wav", "manifest"])
    def test_os_error_is_io_error(self, tmp_path, write):
        # a path beneath a regular file raises NotADirectoryError, as root too
        under = tmp_path / "file"
        under.write_text("")
        with pytest.raises(data.IoError):
            write(under)


class TestBatching:
    def entries(self, n):
        return [ManifestEntry(id=f"c{i}", audio=f"c{i}.wav", captions=["x y"])
                for i in range(n)]

    def test_sizes_with_short_tail(self):
        batches = make_batches(self.entries(10), 4, seed=0, epoch=0)
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_partition_property(self):
        entries = self.entries(13)
        batches = make_batches(entries, 5, seed=3, epoch=2)
        flat = [e.id for b in batches for e in b]
        assert sorted(flat) == sorted(e.id for e in entries)
        assert len(set(flat)) == len(entries)

    def test_same_seed_epoch_reproduces(self):
        entries = self.entries(9)
        a = make_batches(entries, 4, seed=1, epoch=3)
        b = make_batches(entries, 4, seed=1, epoch=3)
        assert [[e.id for e in batch] for batch in a] == \
            [[e.id for e in batch] for batch in b]

    def test_epoch_changes_order(self):
        entries = self.entries(16)
        a = [e.id for b in make_batches(entries, 16, 1, epoch=0) for e in b]
        b = [e.id for b in make_batches(entries, 16, 1, epoch=1) for e in b]
        assert a != b

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            make_batches(self.entries(3), 0, 0, 0)


class TestSchedule:
    def test_paper_preset(self):
        stages = TrainingSchedule.paper().stages
        assert [(s.epochs, s.batch_size, s.peak_lr) for s in stages] == \
            [(15, 48, 5e-5), (30, 32, 5e-6)]
        assert all(s.warmup_epochs == 2 for s in stages)

    def test_desk_preset(self):
        stages = TrainingSchedule.desk().stages
        assert [(s.epochs, s.batch_size, s.peak_lr) for s in stages] == \
            [(200, 8, 5e-4)]

    def test_warmup_law_stage_one(self):
        # 480 items at batch 48 -> 10 steps/epoch -> warmup of 20 steps
        stage = TrainingSchedule.paper().stages[0]
        spe = math.ceil(480 / stage.batch_size)
        assert spe == 10
        assert lr_at_step(stage, 1, spe) == pytest.approx(5e-5 / 20)
        assert lr_at_step(stage, 10, spe) == pytest.approx(5e-5 / 2)
        assert lr_at_step(stage, 19, spe) == pytest.approx(5e-5 * 19 / 20)
        assert lr_at_step(stage, 20, spe) == 5e-5
        assert lr_at_step(stage, 21, spe) == 5e-5
        assert lr_at_step(stage, 150, spe) == 5e-5

    def test_warmup_law_stage_two(self):
        stage = TrainingSchedule.paper().stages[1]
        spe = math.ceil(480 / stage.batch_size)
        assert spe == 15
        assert lr_at_step(stage, 15, spe) == pytest.approx(5e-6 / 2)
        assert lr_at_step(stage, 30, spe) == 5e-6
        assert lr_at_step(stage, 400, spe) == 5e-6

    def test_step_is_one_indexed(self):
        stage = StageConfig(1, 1, 1e-3, 1)
        with pytest.raises(ValueError):
            lr_at_step(stage, 0, 1)

    def test_stage_validation(self):
        # each error names its field (all once read "stage values must be
        # > 0"), and a NaN peak_lr, which once passed, fails too
        for args, name in [
                ((0, 8, 1e-3, 2), "epochs"), ((1, 0, 1e-3, 2), "batch_size"),
                ((1, 8, 1e-3, 0), "warmup_epochs"), ((1, 8, 0.0, 2), "peak_lr"),
                ((1, 8, math.nan, 2), "peak_lr")]:
            with pytest.raises(ValueError, match=f"StageConfig.{name} must be"):
                StageConfig(*args)


class TestTraining:
    def _corpus_and_model(self, tmp_path, n=4):
        entries = synthesize_corpus(n, seed=21, out_dir=tmp_path)
        cfg = tiny_config(strategy="full_finetune")
        vocab = build_vocab([e.captions[0] for e in entries])
        return entries, build_model(cfg, vocab)

    def test_loss_curve_and_feature_stats(self, tmp_path):
        entries, model = self._corpus_and_model(tmp_path)
        schedule = TrainingSchedule([StageConfig(2, 2, 1e-3, 1)])
        result = run_schedule(model, schedule, entries, tmp_path, seed=0)
        assert len(result.loss_curve) == 4  # 2 epochs x 2 batches
        assert result.stage_boundaries == [0]
        assert all(math.isfinite(v) for v in result.loss_curve)
        assert model.encoder.feat_mean != 0.0
        assert model.encoder.feat_std != 1.0

    def test_max_steps_truncates(self, tmp_path):
        entries, model = self._corpus_and_model(tmp_path)
        schedule = TrainingSchedule([StageConfig(5, 2, 1e-3, 1)])
        result = run_schedule(model, schedule, entries, tmp_path, seed=0,
                              max_steps=3)
        assert len(result.loss_curve) == 3

    def test_stage_chaining_is_seamless(self, tmp_path):
        # the second stage must start from the first stage's parameters:
        # rerunning the first batch of stage 2 on a model trained with a
        # single combined stage of the same epochs gives the same loss
        entries, model = self._corpus_and_model(tmp_path)
        two = TrainingSchedule([StageConfig(2, 4, 1e-3, 1),
                                StageConfig(1, 4, 1e-3, 1)])
        result = run_schedule(model, two, entries, tmp_path, seed=0)
        assert result.stage_boundaries == [0, 2]

        entries2, model2 = self._corpus_and_model(tmp_path)
        ref = run_schedule(model2, TrainingSchedule([StageConfig(2, 4, 1e-3, 1)]),
                           entries2, tmp_path, seed=0)
        # identical inits and batches: stage-1 losses agree step for step,
        # and stage 2's first loss is computed from the stage-1-end weights
        assert result.loss_curve[:2] == pytest.approx(ref.loss_curve, abs=1e-7)
        batch3 = make_batches(entries2, 4, seed=0, epoch=2)[0]
        feats = extract_features(entries2, tmp_path, model2.cfg.frontend)
        expected = float(model2.loss_on_batch(
            [(feats[e.id], e.captions[0]) for e in batch3]).data)
        assert result.loss_curve[2] == pytest.approx(expected, abs=1e-6)

    def test_gradients_are_released_after_each_update(self, tmp_path):
        entries, model = self._corpus_and_model(tmp_path)
        held = []

        def log(step, loss, lr):
            held.append([k for k, p in model.named_parameters().items()
                         if p.grad is not None])

        schedule = TrainingSchedule([StageConfig(2, 2, 1e-3, 1)])
        run_schedule(model, schedule, entries, tmp_path, seed=0, log=log)
        assert held == [[]] * 4

    def test_loss_curve_matches_zero_before_backward_loop(self, tmp_path):
        entries, model = self._corpus_and_model(tmp_path)
        stage = StageConfig(3, 2, 1e-3, 1)
        result = run_schedule(model, TrainingSchedule([stage]), entries,
                              tmp_path, seed=0, max_steps=5)

        entries, model = self._corpus_and_model(tmp_path)
        feats = extract_features(entries, tmp_path, model.cfg.frontend)
        model.encoder.set_feature_stats(*corpus_feature_stats(feats))
        items = [(feats[e.id], c) for e in entries for c in e.captions]
        opt = nn.AdamW(trainable_parameters(model), lr=stage.peak_lr)
        curve = []
        for epoch in range(stage.epochs):
            for batch in make_batches(items, stage.batch_size, 0, epoch):
                loss = model.loss_on_batch(batch)
                opt.zero_grad()
                loss.backward()
                opt.lr = lr_at_step(stage, len(curve) + 1, 2)
                opt.step()
                curve.append(float(loss.data))
        assert len(curve) == 6
        assert [v.hex() for v in result.loss_curve] == [v.hex() for v in curve[:5]]

    def test_epoch_counter_advances_across_stages(self, tmp_path):
        # batch permutations keep advancing instead of repeating epoch 0
        entries = self.entries_for_perm()
        first = [e.id for b in make_batches(entries, 8, 0, epoch=0) for e in b]
        second = [e.id for b in make_batches(entries, 8, 0, epoch=1) for e in b]
        assert first != second

    def entries_for_perm(self):
        return [ManifestEntry(id=f"c{i}", audio="", captions=["x y"])
                for i in range(16)]

    def test_every_reference_caption_is_an_item(self, tmp_path, monkeypatch):
        entries, model = self._corpus_and_model(tmp_path, n=2)
        entries[0].captions = ["a low tone", "a high tone", "an upward chirp"]
        entries[1].captions = ["a noise burst"]
        seen = []

        def record(batch):
            seen.append([caption for _, caption in batch])
            return loss_on_batch(batch)

        loss_on_batch = model.loss_on_batch
        monkeypatch.setattr(model, "loss_on_batch", record)
        schedule = TrainingSchedule([StageConfig(2, 2, 1e-3, 1)])
        result = run_schedule(model, schedule, entries, tmp_path, seed=0)
        assert len(result.loss_curve) == 4  # 2 epochs x 4 items / batch 2
        for epoch in (seen[:2], seen[2:]):
            assert sorted(c for batch in epoch for c in batch) == sorted(
                entries[0].captions + entries[1].captions)

    def test_nonfinite_loss_raises(self, tmp_path):
        entries, model = self._corpus_and_model(tmp_path, n=2)
        for p in model.named_parameters().values():
            p.data[:] = np.nan
        schedule = TrainingSchedule([StageConfig(1, 2, 1e-3, 1)])
        with pytest.raises(data.NonFiniteLoss):
            run_schedule(model, schedule, entries, tmp_path, seed=0)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap settings are glibc's")
    def test_warm_steps_take_no_page_faults(self, tmp_path):
        # batch-8 desk steps: each used to fault ~1,000-3,000 pages of
        # the memory the previous step freed back in. Now most take none;
        # a step whose batch order first needs a larger heap still faults
        # its growth in (up to ~100 pages seen), so the test bounds the mean.
        entries = synthesize_corpus(8, seed=7, out_dir=tmp_path)
        model = build_model(PipelineConfig(seed=0),
                            build_vocab(e.captions[0] for e in entries))
        faults = []

        def log(step, loss, lr):
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

        run_schedule(model, TrainingSchedule.desk(), entries, tmp_path, seed=0,
                     max_steps=13, log=log)
        per_step = np.diff(faults[2:])  # 10 steps after 3 warm-up steps
        assert per_step.sum() < 100 * len(per_step), per_step

    def test_corpus_feature_stats(self, tmp_path):
        entries, model = self._corpus_and_model(tmp_path, n=2)
        feats = extract_features(entries, tmp_path, FrontendConfig())
        mean, std = corpus_feature_stats(feats)
        values = np.concatenate([p.patches.reshape(-1)
                                 for p in feats.values()])
        assert mean == pytest.approx(float(values.mean()))
        assert std == pytest.approx(float(values.std()))
