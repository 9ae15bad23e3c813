import contextlib
import io
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from audiocap import cli, data, fluency, metrics
from audiocap.data import parse_manifest
from audiocap.model import CaptionModel
from conftest import tiny_config
from test_checkpoint import swap_matrix_shape, with_header
from test_fluency import BAD_ENDPOINTS, completion


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Synthetic corpus plus a briefly trained tiny checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    assert cli.main(["synth", "--out", str(corpus), "--n", "3",
                     "--seed", "5"]) == 0
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(tiny_config(seed=1).to_dict()))
    ckpt_path = root / "model.ckpt"
    rc = cli.main(["train", "--manifest", str(corpus / "manifest.jsonl"),
                   "--config", str(cfg_path), "--out", str(ckpt_path),
                   "--max-steps", "4"])
    assert rc == 0
    return {"root": root, "corpus": corpus, "cfg": cfg_path,
            "ckpt": ckpt_path}


@pytest.fixture
def dangling_captions(monkeypatch):
    """Every decode returns a caption that the rules gate corrects."""
    text = "a car drives by and"
    monkeypatch.setattr(CaptionModel, "caption_wave",
                        lambda self, wave, beam=1: text)
    monkeypatch.setattr(CaptionModel, "caption_patches",
                        lambda self, patches, beam=1: text)


class TestSynth:
    def test_outputs(self, workdir):
        entries = parse_manifest(workdir["corpus"] / "manifest.jsonl")
        assert len(entries) == 3
        for e in entries:
            assert (workdir["corpus"] / e.audio).exists()

    def test_unwritable_out_is_data_error(self, tmp_path, capsys):
        under = tmp_path / "file"
        under.write_text("")
        assert cli.main(["synth", "--out", str(under / "sub"), "--n", "1"]) == 2
        assert capsys.readouterr().err.startswith("data error: ")


class TestTrain:
    def test_checkpoint_and_losses_written(self, workdir):
        assert workdir["ckpt"].exists()
        losses = json.loads(
            (workdir["root"] / "model.ckpt.losses.json").read_text())
        assert len(losses["losses"]) == 4
        assert losses["stage_boundaries"] == [0]

    def test_dump_config_applies_overrides(self, capsys):
        rc = cli.main(["train", "--dump-config", "--strategy", "lora",
                       "--seed", "9"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["strategy"] == {"encoder": "lora", "decoder": "lora"}
        assert doc["seed"] == 9
        assert doc["bridge"]["window"] == 17

    def test_non_finite_loss_is_runtime_error(self, workdir, tmp_path, capsys,
                                              monkeypatch):
        def diverge(*args, **kwargs):
            raise data.NonFiniteLoss("loss is nan at step 1")
        monkeypatch.setattr(data, "run_schedule", diverge)
        out = tmp_path / "x.ckpt"
        rc = cli.main(["train", "--manifest",
                       str(workdir["corpus"] / "manifest.jsonl"),
                       "--config", str(workdir["cfg"]), "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("runtime error: ")
        assert not out.exists()

    def test_missing_manifest_flag_is_usage_error(self, workdir):
        assert cli.main(["train", "--out", "x.ckpt"]) == 1

    def test_nonexistent_manifest_is_data_error(self, workdir, tmp_path):
        rc = cli.main(["train", "--manifest", str(tmp_path / "no.jsonl"),
                       "--out", str(tmp_path / "x.ckpt")])
        assert rc == 2

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_max_steps_below_one_is_data_error(self, workdir, tmp_path, steps):
        out = tmp_path / "x.ckpt"
        rc = cli.main(["train", "--manifest",
                       str(workdir["corpus"] / "manifest.jsonl"),
                       "--config", str(workdir["cfg"]), "--out", str(out),
                       "--max-steps", steps])
        assert rc == 2
        assert not out.exists()

    def test_duplicate_ids_across_manifests(self, workdir, tmp_path):
        m = workdir["corpus"] / "manifest.jsonl"
        rc = cli.main(["train", "--manifest", str(m), "--manifest", str(m),
                       "--out", str(tmp_path / "x.ckpt")])
        assert rc == 2

    @pytest.mark.parametrize("frontend,expected", [
        ({"n_mels": 128}, 2), ({"patch": 8}, 0), ({"n_mels": 40}, 2),
        ({"n_mels": 112}, 0),
    ])
    def test_encoder_follows_frontend_geometry(self, workdir, tmp_path, capsys,
                                               frontend, expected):
        doc = tiny_config(seed=1).to_dict()
        doc["frontend"] = frontend
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        ckpt = tmp_path / "x.ckpt"
        rc = cli.main(["train", "--manifest",
                       str(workdir["corpus"] / "manifest.jsonl"),
                       "--config", str(cfg), "--out", str(ckpt),
                       "--max-steps", "1"])
        assert rc == expected
        if expected:
            message = {128: "1 of 128 mel bands cover no FFT bin",
                       40: "not a positive multiple of patch"}[frontend["n_mels"]]
            assert message in capsys.readouterr().err
            return
        rc = cli.main(["caption", "--ckpt", str(ckpt),
                       "--wav", str(workdir["corpus"] / "clip_0000.wav")])
        assert rc == 0


    @pytest.mark.parametrize("doc", [
        {"frontend": {"patch": "16"}}, {"encoder": {"d_enc": "64"}},
        {"bridge": {"window": 2.5}}, {"frontend": []}, [],
        {"frontend": {"sample_rate": 22050}},
    ])
    def test_config_value_of_wrong_type_is_data_error(self, workdir, tmp_path,
                                                      capsys, doc):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        rc = cli.main(["train", "--manifest",
                       str(workdir["corpus"] / "manifest.jsonl"),
                       "--config", str(cfg), "--out", str(tmp_path / "x.ckpt"),
                       "--max-steps", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc, override", [
        ({"seed": -1}, []), ({"lora": {"rank": 0}}, []), ({}, ["--seed", "-1"]),
    ], ids=["seed-negative", "lora-rank-zero", "seed-override-negative"])
    def test_unbuildable_config_is_data_error(self, tmp_path, capsys, doc,
                                              override):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        rc = cli.main(["train", "--config", str(cfg), "--dump-config"]
                      + override)
        assert rc == 2
        assert capsys.readouterr().err.startswith("data error: ")

    def test_deeply_nested_config_is_data_error(self, workdir, tmp_path,
                                                 capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("[" * 100_000)
        rc = cli.main(["train", "--manifest",
                       str(workdir["corpus"] / "manifest.jsonl"),
                       "--config", str(cfg), "--out", str(tmp_path / "x.ckpt")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("data error: ")

    @pytest.mark.parametrize("frontend", [
        {"hop": -160}, {"n_fft": 256}, {"f_max": 12000.0}, {"log_floor": 0.0},
    ], ids=["hop", "n_fft", "f_max", "log_floor"])
    def test_frontend_setting_that_corrupts_features_is_data_error(
            self, workdir, tmp_path, capsys, frontend):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"frontend": frontend}))
        out = tmp_path / "x.ckpt"
        rc = cli.main(["train", "--manifest",
                       str(workdir["corpus"] / "manifest.jsonl"),
                       "--config", str(cfg), "--out", str(out),
                       "--max-steps", "1"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("data error: ")
        assert not out.exists()

    @pytest.mark.parametrize("section,name", [
        ("encoder", "d_enc"), ("encoder", "ffn_mult"),
        ("encoder", "max_time_patches"), ("bridge", "d_q"),
        ("bridge", "max_windows"), ("decoder", "d_dec"),
        ("decoder", "ffn_mult"), ("decoder", "max_seq"),
        ("decoder", "max_caption"), ("bridge", "cross_layers"),
        ("decoder", "layers"),
    ])
    def test_zero_model_size_is_data_error(self, workdir, tmp_path, capsys,
                                           section, name):
        # d_enc, d_q and d_dec at 0 divided by zero; max_caption 0 trained
        # a model that captions ""; no cross-attention or decoder layer
        # trained a model whose captions do not depend on the audio
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({section: {name: 0}}))
        out = tmp_path / "x.ckpt"
        rc = cli.main(["train", "--manifest",
                       str(workdir["corpus"] / "manifest.jsonl"),
                       "--config", str(cfg), "--out", str(out),
                       "--max-steps", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "Traceback" not in err
        assert f"{name} must be >= 1, got 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        {"encoder": {"layers": -2}}, {"decoder": {"layers": -1}},
        {"bridge": {"cross_layers": -1}}, {"bridge": {"self_layers": -1}},
        {"lora": {"alpha": float("nan")},
         "strategy": {"encoder": "lora", "decoder": "lora"}},
        {"lora": {"alpha": 10 ** 400}}, {"lora": {"alpha": -10 ** 400}},
        {"frontend": {"log_floor": 10 ** 400}},
    ], ids=["encoder-layers", "decoder-layers", "cross_layers", "self_layers",
            "alpha-nan", "alpha-past-float", "alpha-past-negative-float",
            "log_floor-past-float"])
    def test_negative_layers_or_nan_alpha_is_data_error(self, workdir, tmp_path,
                                                         capsys, doc):
        # negative layer counts built no layers and trained; a NaN alpha
        # failed at the first loss with exit 3; an integer past float range
        # raised OverflowError in a float check: a traceback and exit 1
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "x.ckpt"
        rc = cli.main(["train", "--manifest",
                       str(workdir["corpus"] / "manifest.jsonl"),
                       "--config", str(cfg), "--out", str(out),
                       "--max-steps", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "Traceback" not in err
        assert not out.exists()


class TestCaption:
    def test_caption_prints_line(self, workdir, capsys):
        wav = workdir["corpus"] / "clip_0000.wav"
        rc = cli.main(["caption", "--ckpt", str(workdir["ckpt"]),
                       "--wav", str(wav)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.endswith("\n")

    def test_default_beam_equals_beam_one(self, workdir, capsys):
        wav = workdir["corpus"] / "clip_0001.wav"
        base = ["caption", "--ckpt", str(workdir["ckpt"]), "--wav", str(wav)]
        assert cli.main(base) == 0
        first = capsys.readouterr().out
        assert cli.main(base + ["--beam", "1"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_missing_checkpoint_is_data_error(self, workdir, tmp_path):
        wav = workdir["corpus"] / "clip_0000.wav"
        rc = cli.main(["caption", "--ckpt", str(tmp_path / "no.ckpt"),
                       "--wav", str(wav)])
        assert rc == 2

    def test_corrupt_checkpoint_is_data_error(self, workdir, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"JUNK" + bytes(64))
        wav = workdir["corpus"] / "clip_0000.wav"
        rc = cli.main(["caption", "--ckpt", str(bad), "--wav", str(wav)])
        assert rc == 2

    def test_bad_tensor_shape_is_data_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(with_header(
            lambda h: h["tensors"][0].update(shape=[float("inf")])))
        wav = workdir["corpus"] / "clip_0000.wav"
        rc = cli.main(["caption", "--ckpt", str(bad), "--wav", str(wav)])
        assert rc == 2
        assert "tensor shape" in capsys.readouterr().err

    def test_swapped_tensor_shape_is_data_error(self, workdir, tmp_path,
                                                capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(with_header(swap_matrix_shape))
        wav = workdir["corpus"] / "clip_0000.wav"
        rc = cli.main(["caption", "--ckpt", str(bad), "--wav", str(wav)])
        assert rc == 2
        assert "shape mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda h: h["feature_stats"].update(mean=10 ** 400),
        lambda h: h["config"]["lora"].update(alpha=10 ** 400),
    ], ids=["mean", "alpha"])
    def test_header_integer_past_float_range_is_data_error(self, workdir,
                                                           tmp_path, capsys,
                                                           edit):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(with_header(edit))
        wav = workdir["corpus"] / "clip_0000.wav"
        rc = cli.main(["caption", "--ckpt", str(bad), "--wav", str(wav)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: invalid header contents")

    def test_correct_applies_the_rules_gate(self, workdir, capsys,
                                            dangling_captions):
        wav = workdir["corpus"] / "clip_0000.wav"
        base = ["caption", "--ckpt", str(workdir["ckpt"]), "--wav", str(wav)]
        assert cli.main(base) == 0
        assert capsys.readouterr().out == "a car drives by and\n"
        assert cli.main(base + ["--correct"]) == 0
        assert capsys.readouterr().out == "a car drives by\n"

    def test_non_wav_input_is_data_error(self, workdir, tmp_path):
        txt = tmp_path / "not.wav"
        txt.write_text("hello")
        rc = cli.main(["caption", "--ckpt", str(workdir["ckpt"]),
                       "--wav", str(txt)])
        assert rc == 2


class TestEvaluate:
    def test_report_without_spice(self, workdir, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = cli.main(["evaluate", "--ckpt", str(workdir["ckpt"]),
                       "--manifest", str(workdir["corpus"] / "manifest.jsonl"),
                       "--out", str(out)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert "cider_d" in summary
        report = json.loads(out.read_text())
        assert report["flags"]["spice"] == "absent"
        assert report["flags"]["spider_fl"] == "absent"
        assert report["flags"]["fluency"] == "computed"
        assert len(report["items"]) == 3

    def test_report_with_spice(self, workdir, tmp_path, capsys):
        entries = parse_manifest(workdir["corpus"] / "manifest.jsonl")
        spice = tmp_path / "spice.jsonl"
        spice.write_text("".join(
            json.dumps({"id": e.id, "spice": 0.25}) + "\n" for e in entries))
        out = tmp_path / "report.json"
        rc = cli.main(["evaluate", "--ckpt", str(workdir["ckpt"]),
                       "--manifest", str(workdir["corpus"] / "manifest.jsonl"),
                       "--spice", str(spice), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["flags"]["spice"] == "supplied"
        assert report["flags"]["spider"] == "computed"
        assert "spider_fl" in report["corpus"]
        capsys.readouterr()


    def test_correct_scores_the_gated_text(self, workdir, tmp_path, capsys,
                                           dangling_captions):
        out = tmp_path / "report.json"
        rc = cli.main(["evaluate", "--ckpt", str(workdir["ckpt"]),
                       "--manifest", str(workdir["corpus"] / "manifest.jsonl"),
                       "--correct", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        items = json.loads(out.read_text())["items"]
        assert [it["candidate"] for it in items] == ["a car drives by"] * 3
        assert all(it["fluency_prob"] == 0.0 for it in items)

    def test_blank_manifest_is_data_error(self, workdir, tmp_path, capsys):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("\n  \n\n")
        rc = cli.main(["evaluate", "--ckpt", str(workdir["ckpt"]),
                       "--manifest", str(manifest),
                       "--out", str(tmp_path / "report.json")])
        assert rc == 2
        assert "manifest has no entries" in capsys.readouterr().err


class TestScore:
    def write_corpus(self, tmp_path):
        cands = tmp_path / "cands.jsonl"
        refs = tmp_path / "refs.jsonl"
        cands.write_text(
            json.dumps({"id": "a", "caption": "a dog barks"}) + "\n"
            + json.dumps({"id": "b", "caption": "rain falls"}) + "\n")
        refs.write_text(
            json.dumps({"id": "b", "captions": ["rain falls"]}) + "\n"
            + json.dumps({"id": "a", "captions": ["a dog barks"]}) + "\n")
        return cands, refs

    def test_round_trip_with_spice(self, tmp_path, capsys):
        cands, refs = self.write_corpus(tmp_path)
        spice = tmp_path / "spice.jsonl"
        spice.write_text('{"id": "a", "spice": 0.5}\n{"id": "b", "spice": 0.1}\n')
        out = tmp_path / "report.json"
        rc = cli.main(["score", "--candidates", str(cands),
                       "--references", str(refs), "--spice", str(spice),
                       "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        # items follow the references file order
        assert [it["id"] for it in report["items"]] == ["b", "a"]
        assert "spider_fl" in report["corpus"]
        summary = json.loads(capsys.readouterr().out)
        assert summary == report["corpus"]

    def test_long_candidate_scores(self, tmp_path, capsys):
        # 1,202 tokens: the METEOR chunk search used to recurse once per
        # candidate position and raise RecursionError
        cands, refs = tmp_path / "cands.jsonl", tmp_path / "refs.jsonl"
        cands.write_text(json.dumps({"id": "a", "caption": "x " * 1200 + "a car"}))
        refs.write_text(json.dumps({"id": "a", "captions": ["a car drives by"]}))
        out = tmp_path / "report.json"
        rc = cli.main(["score", "--candidates", str(cands),
                       "--references", str(refs), "--out", str(out)])
        assert rc == 0
        p, r = 2 / 1202, 2 / 4  # "a car" matches as one chunk
        meteor = 10 * p * r / (r + 9 * p) * (1 - 0.5 * (1 / 2) ** 3)
        item = json.loads(out.read_text())["items"][0]
        assert item["scores"]["meteor_lite"] == pytest.approx(meteor, rel=1e-12)

    @pytest.mark.parametrize("value", ["NaN", '"7"'])
    def test_bad_spice_value_is_data_error(self, tmp_path, capsys, value):
        cands, refs = self.write_corpus(tmp_path)
        spice = tmp_path / "spice.jsonl"
        spice.write_text('{"id": "a", "spice": 0.5}\n'
                         '{"id": "b", "spice": %s}\n' % value)
        out = tmp_path / "report.json"
        rc = cli.main(["score", "--candidates", str(cands),
                       "--references", str(refs), "--spice", str(spice),
                       "--out", str(out)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err
        assert not out.exists()

    def test_id_mismatch_is_data_error(self, tmp_path, capsys):
        cands, refs = self.write_corpus(tmp_path)
        refs.write_text(json.dumps({"id": "zzz", "captions": ["x y"]}) + "\n")
        rc = cli.main(["score", "--candidates", str(cands),
                       "--references", str(refs),
                       "--out", str(tmp_path / "r.json")])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("which,row", [
        ("cands", "5"),
        ("refs", '{"id": "a", "captions": "a dog"}'),
        ("refs", '{"id": "a", "captions": [""]}'),
        ("refs", '{"id": "a", "captions": ["  "]}'),
        ("cands", '{"id": "c", "caption": null}'),
        ("cands", '{"id": "c", "caption": ["x"]}'),
        pytest.param("cands", "[" * 100_000, id="cands-deeply-nested"),
        pytest.param("cands", '{"id": "c", "caption": 1%s}' % ("0" * 4300),
                     id="cands-past-the-digit-limit"),
        pytest.param("refs", '{"id": "c", "captions": [1%s]}' % ("0" * 4300),
                     id="refs-past-the-digit-limit"),
    ])
    def test_malformed_row_is_data_error(self, tmp_path, capsys, which, row):
        cands, refs = self.write_corpus(tmp_path)
        path = cands if which == "cands" else refs
        path.write_text(path.read_text() + row + "\n")
        rc = cli.main(["score", "--candidates", str(cands),
                       "--references", str(refs),
                       "--out", str(tmp_path / "r.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: line 3:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("which,row", [
        ("candidate", {"id": "a", "caption": "a cat"}),
        ("reference", {"id": "b", "captions": ["rain"]}),
    ])
    def test_duplicate_id_names_id_and_line(self, tmp_path, capsys, which, row):
        cands, refs = self.write_corpus(tmp_path)
        path = cands if which == "candidate" else refs
        path.write_text(path.read_text() + json.dumps(row) + "\n")
        rc = cli.main(["score", "--candidates", str(cands),
                       "--references", str(refs),
                       "--out", str(tmp_path / "r.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"data error: line 3: duplicate {which} id {row['id']!r}\n"

    def test_non_utf8_candidate_is_malformed_line(self, tmp_path, capsys):
        cands, refs = self.write_corpus(tmp_path)
        cands.write_bytes(cands.read_bytes()
                          + b'{"id": "c", "caption": "\xff"}\n')
        rc = cli.main(["score", "--candidates", str(cands),
                       "--references", str(refs),
                       "--out", str(tmp_path / "r.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: line 3: not UTF-8")

    @pytest.mark.parametrize("cand_id,ref_id", [
        (1, "1"), (None, "None"), ("c", ["c"]), ("", ""),
    ])
    def test_ids_are_not_coerced(self, tmp_path, capsys, cand_id, ref_id):
        # coercing both sides with str() would pair 1 with "1", null with "None"
        cands, refs = self.write_corpus(tmp_path)
        cands.write_text(cands.read_text()
                         + json.dumps({"id": cand_id, "caption": "x y"}) + "\n")
        refs.write_text(refs.read_text()
                        + json.dumps({"id": ref_id, "captions": ["x y"]}) + "\n")
        rc = cli.main(["score", "--candidates", str(cands),
                       "--references", str(refs),
                       "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("data error: line 3:")

    def test_empty_corpus_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = cli.main(["score", "--candidates", str(empty),
                       "--references", str(empty),
                       "--out", str(tmp_path / "r.json")])
        assert rc == 2
        capsys.readouterr()


# -- the JSON Lines readers on generated rows ---------------------------------

DIGIT_LIMIT = 4300  # Python's int-string limit: json.loads refuses more digits


class RawJson(str):
    """JSON text written as it is: an integer `json.dumps` cannot write."""


def to_json(value) -> str:
    """`json.dumps`, writing `RawJson` values unchanged."""
    if isinstance(value, RawJson):
        return value
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {to_json(v)}"
                               for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(to_json, value)) + "]"
    return json.dumps(value)


PAST_THE_DIGIT_LIMIT = RawJson("9" * (DIGIT_LIMIT + 1))
# integers past the digit limit, and past float range within it
BIG_INTEGERS = st.one_of(
    st.integers(DIGIT_LIMIT + 1, DIGIT_LIMIT + 20).map(lambda n: RawJson("9" * n)),
    st.integers(309, 400).map(lambda n: RawJson("-1" + "0" * n)))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6) | BIG_INTEGERS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
# field values of the right type, so that rows get past parsing too
PLAUSIBLE = {
    "id": st.sampled_from(["a", "b", " "]),
    "audio": st.sampled_from(["a.wav", ""]),
    "caption": st.text(max_size=12),
    "captions": st.lists(st.text(max_size=8), max_size=6),
    "spice": st.floats(-0.5, 1.5),
}


def jsonl_rows(*keys):
    """A JSON Lines file's text: objects holding some of `keys`, and other
    JSON values."""
    row = st.fixed_dictionaries(
        {}, optional={k: PLAUSIBLE[k] | JSON_VALUES for k in keys})
    return st.lists(row | JSON_VALUES, min_size=1, max_size=4).map(
        lambda rows: "".join(to_json(r) + "\n" for r in rows))


class TestJsonlReaders:
    """Every reader raises only its documented errors on any rows, and the
    CLI reports each as a data error: exit 2, no traceback."""

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("jsonl")
        (root / "cands.jsonl").write_text(
            json.dumps({"id": "a", "caption": "a dog barks"}) + "\n")
        (root / "refs.jsonl").write_text(
            json.dumps({"id": "a", "captions": ["a dog barks"]}) + "\n")
        return root

    @staticmethod
    def run(argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = cli.main([str(a) for a in argv])
        return rc, err.getvalue()

    def score(self, corpus, spice=None, **generated):
        """`score` on the corpus files, with `generated` replacing one."""
        files = {"candidates": corpus / "cands.jsonl",
                 "references": corpus / "refs.jsonl"}
        for which, text in generated.items():
            files[which] = corpus / f"generated-{which}.jsonl"
            files[which].write_text(text, encoding="utf-8")
        argv = ["score", "--candidates", files["candidates"], "--references",
                files["references"], "--out", corpus / "report.json"]
        return self.run(argv + (["--spice", spice] if spice else []))

    @given(text=jsonl_rows("id", "audio", "captions"))
    @example(text=to_json({"id": "a", "audio": "a.wav",
                           "captions": [[PAST_THE_DIGIT_LIMIT]]}) + "\n")
    @settings(max_examples=60, deadline=None)
    def test_manifest(self, corpus, text):
        path = corpus / "manifest.jsonl"
        path.write_text(text, encoding="utf-8")
        try:
            data.parse_manifest(path)
        except (data.MalformedLine, data.MissingField, data.DuplicateId) as e:
            rc, err = self.run(["train", "--manifest", path,
                                "--out", corpus / "x.ckpt"])
            assert (rc, err) == (2, f"data error: {e}\n")

    @given(text=jsonl_rows("id", "spice"))
    @example(text=to_json({"id": "a", "spice": PAST_THE_DIGIT_LIMIT}) + "\n")
    @settings(max_examples=60, deadline=None)
    def test_spice_sidecar(self, corpus, text):
        path = corpus / "spice.jsonl"
        path.write_text(text, encoding="utf-8")
        try:
            metrics.read_spice_sidecar(path)
        except (metrics.MissingSpice, metrics.IdMismatch) as e:
            assert self.score(corpus, spice=path) == (2, f"data error: {e}\n")

    # a row's error names its line; ids that do not pair up are the files'
    SCORE_ERROR = re.compile(r"data error: (line \d+: |candidate and "
                             r"reference ids differ\n$)")

    @given(text=jsonl_rows("id", "caption"))
    @example(text=to_json({"id": "a", "caption": PAST_THE_DIGIT_LIMIT}) + "\n")
    @settings(max_examples=60, deadline=None)
    def test_score_candidates(self, corpus, text):
        rc, err = self.score(corpus, candidates=text)
        assert rc == 0 or (rc == 2 and self.SCORE_ERROR.match(err)), err

    @given(text=jsonl_rows("id", "captions"))
    @example(text=to_json({"id": "a", "captions": [PAST_THE_DIGIT_LIMIT]}) + "\n")
    @settings(max_examples=60, deadline=None)
    def test_score_references(self, corpus, text):
        rc, err = self.score(corpus, references=text)
        assert rc == 0 or (rc == 2 and self.SCORE_ERROR.match(err)), err


class TestCorrect:
    def test_trailing_conjunction_example(self, capsys):
        rc = cli.main(["correct", "--text", "a man speaks and"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "a man speaks"
        doc = json.loads(lines[1])
        assert doc["corrected"] is True
        assert doc["pre"]["rules"] == ["R2"]
        assert doc["post"]["rules"] == []

    def test_clean_text_untouched(self, capsys):
        rc = cli.main(["correct", "--text", "rain falls on a tin roof"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "rain falls on a tin roof"
        assert json.loads(lines[1])["corrected"] is False

    def test_unreachable_endpoint_is_external_error(self, capsys, monkeypatch):
        monkeypatch.setenv("AUDIOCAP_API_KEY", "sk-test")
        monkeypatch.setattr(fluency.time, "sleep", lambda s: None)
        rc = cli.main(["correct", "--text", "a man speaks and",
                       "--endpoint", "http://127.0.0.1:9/v1",
                       "--mode", "external"])
        assert rc == 4
        capsys.readouterr()

    def test_fallback_mode_recovers(self, capsys, monkeypatch):
        monkeypatch.setenv("AUDIOCAP_API_KEY", "sk-test")
        monkeypatch.setattr(fluency.time, "sleep", lambda s: None)
        rc = cli.main(["correct", "--text", "a man speaks and",
                       "--endpoint", "http://127.0.0.1:9/v1"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "a man speaks"
        assert json.loads(lines[1])["warnings"]

    @pytest.mark.parametrize("endpoint", BAD_ENDPOINTS)
    def test_bad_endpoint_is_external_error(self, tmp_path, capsys,
                                            monkeypatch, endpoint):
        monkeypatch.setenv("AUDIOCAP_API_KEY", "sk-test")
        monkeypatch.setattr(fluency.time, "sleep", lambda s: None)
        reply = tmp_path / "reply.json"
        reply.write_text(json.dumps(completion("read from a file")))
        rc = cli.main(["correct", "--text", "a man speaks and",
                       "--endpoint", endpoint.format(reply=reply),
                       "--mode", "external"])
        assert rc == 4
        out, err = capsys.readouterr()
        assert err.startswith("external service error: ")
        assert "read from a file" not in out


class TestUsage:
    def test_no_command(self, capsys):
        assert cli.main([]) == 1
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert cli.main(["synth", "--wat", "1"]) == 1
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert cli.main(["transmogrify"]) == 1
        capsys.readouterr()

    def test_bad_int(self, capsys):
        assert cli.main(["synth", "--out", "x", "--n", "lots"]) == 1
        capsys.readouterr()

