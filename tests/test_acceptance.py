"""Acceptance gate: ten end-to-end criteria at pinned tolerances.

The run ends with an `acceptance criteria` terminal section holding one
PASS/FAIL line per criterion (with the measured values on PASS); under
`pytest -v` every criterion also appears as its own PASSED/FAILED row.
"""

import inspect
import json
import math
import time

import numpy as np
import pytest

import conftest

from audiocap import checkpoint as ckpt
from audiocap import data, fluency, lora, metrics, nn
from audiocap.bridge import BridgeConfig, QueryBridge, output_count
from audiocap.decoder import (ACOUSTIC_SLOT, CAPTION_INSTRUCTION,
                              CaptionDecoder, DecoderConfig, build_vocab)
from audiocap.encoder import EncoderConfig
from audiocap.frontend import wave_to_patches
from audiocap.lora import trainable_parameters
from audiocap.model import PipelineConfig, build_model
from conftest import tiny_config, tiny_vocab
from test_fluency import StubServer, completion, external_cfg
from _cider_oracle import oracle_cider
from _grad_check import grad_check


def report(num, name, detail):
    line = f"criterion {num:02d} ({name}): {detail}"
    conftest.ACCEPTANCE_LINES[inspect.stack()[1].function] = line
    print(line)


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """Two identical desk-preset training runs on the 8-clip corpus."""
    root = tmp_path_factory.mktemp("desk")
    entries = data.synthesize_corpus(8, seed=7, out_dir=root)
    vocab = build_vocab([e.captions[0] for e in entries])

    def one_run():
        model = build_model(PipelineConfig(seed=0), vocab)
        result = data.run_schedule(model, data.TrainingSchedule.desk(),
                                   entries, root, seed=0)
        return model, result

    t0 = time.monotonic()
    model1, result1 = one_run()
    run1_seconds = time.monotonic() - t0
    model2, _ = one_run()
    total_seconds = time.monotonic() - t0
    feats = data.extract_features(entries, root, model1.cfg.frontend)
    return {"entries": entries, "model": model1, "result": result1,
            "bytes1": ckpt.serialize(model1), "bytes2": ckpt.serialize(model2),
            "run1_seconds": run1_seconds, "total_seconds": total_seconds,
            "feats": feats}


def micro_model():
    """Full pipeline at reduced width in float64 for finite differences."""
    cfg = PipelineConfig(
        encoder=EncoderConfig(d_enc=64, layers=2, heads=4,
                              max_time_patches=32),
        bridge=BridgeConfig(d_q=64, heads=4, cross_layers=1, self_layers=1,
                            max_windows=8),
        decoder=DecoderConfig(d_dec=64, layers=2, heads=4, max_seq=64),
        seed=11,
    )
    events = [[0, 4], [2, 1]]
    rng = nn.rng_from_seed(5)
    batch = []
    captions = []
    for ev in events:
        wave = data.render_events(ev, rng)
        batch.append(wave_to_patches(wave, cfg.frontend))
        captions.append(data.caption_for_events(ev))
    model = build_model(cfg, build_vocab(captions)).astype(np.float64)
    model.encoder.set_feature_stats(-5.0, 4.0)
    return model, list(zip(batch, captions))


def test_criterion_01_gradient_fidelity():
    t0 = time.monotonic()
    model, batch = micro_model()
    params = trainable_parameters(model)
    worst, worst_name = 0.0, ""
    for name, p in sorted(params.items()):
        err = grad_check(lambda: model.loss_on_batch(batch), {name: p},
                         h=(1e-5, 1e-4, 1e-3), samples_per_param=3,
                         seed=13)
        if err > worst:
            worst, worst_name = err, name
    elapsed = time.monotonic() - t0
    assert worst < 1e-4, f"max relative error {worst:.3e} at {worst_name}"
    assert elapsed < 60.0
    report(1, "gradient fidelity",
           f"max rel err {worst:.2e} over {len(params)} tensors, "
           f"{elapsed:.1f}s")


def test_criterion_02_lora_identity_and_adaptation():
    t0 = time.monotonic()
    r = nn.rng_from_seed(1)
    base = nn.Linear.from_weights(r.normal(0, 0.1, (32, 32)).astype(np.float32),
                                  np.zeros(32, np.float32))
    x = nn.Tensor(r.normal(0, 1, (100, 32)).astype(np.float32))
    before = base(x).data.copy()
    wrapped = lora.LoraLinear(base, 4, 8.0, nn.rng_from_seed(2))
    assert np.array_equal(wrapped(x).data, before)

    wrapped.lora_b.data = r.normal(0, 0.05,
                                   wrapped.lora_b.data.shape).astype(np.float32)
    merged = wrapped.merge()
    adapter_out, merged_out = wrapped(x).data, merged(x).data
    # relative error per input vector: elementwise is undefined at the
    # zero crossings float32 associativity perturbs
    rel = (np.linalg.norm(adapter_out - merged_out, axis=1)
           / np.linalg.norm(merged_out, axis=1))
    assert rel.max() < 1e-5, f"merge relative error {rel.max():.3e}"

    model = build_model(tiny_config(strategy="lora"),
                        tiny_vocab())
    frozen = {n: p.data.tobytes()
              for n, p in model.named_parameters().items()
              if not p.requires_grad}
    assert frozen
    patches = wave_to_patches(
        data.render_events([0, 1], nn.rng_from_seed(3)),
        model.cfg.frontend)
    opt = nn.AdamW(trainable_parameters(model), lr=1e-3)
    for _ in range(10):
        loss = model.loss_on_batch([(patches, "a low tone")])
        opt.zero_grad()
        loss.backward()
        opt.step()
    after = model.named_parameters()
    changed = [n for n, blob in frozen.items()
               if after[n].data.tobytes() != blob]
    assert changed == []
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(2, "lora identity and adaptation",
           f"identity bit-equal, merge rel err {rel.max():.1e} < 1e-5 "
           f"on 100 inputs, {len(frozen)} frozen tensors byte-stable "
           f"over 10 steps, {elapsed:.1f}s")


def test_criterion_03_compression_arithmetic():
    t0 = time.monotonic()
    table = {1: 1, 17: 1, 18: 2, 170: 10, 752: 45, 1500: 89}
    for n, expected in table.items():
        assert output_count(n, 17) == expected
    cfg = BridgeConfig(window=17, d_q=16, heads=2, cross_layers=1,
                       self_layers=1, max_windows=89)
    bridge = QueryBridge(cfg, 24, 16, nn.rng_from_seed(0))
    r = nn.rng_from_seed(1)
    for n, expected in table.items():
        toks = nn.Tensor(r.normal(0, 1, (n, 24)).astype(np.float32))
        assert bridge(toks).data.shape == (expected, 16)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(3, "compression arithmetic",
           f"17:1 table verified by count and forward shape, {elapsed:.1f}s")


def test_criterion_04_desk_overfit(desk):
    result = desk["result"]
    model = desk["model"]
    entries = desk["entries"]
    feats = desk["feats"]
    final_loss = result.loss_curve[-1]
    assert final_loss < 0.05
    assert len(result.loss_curve) == 200

    decoded = {e.id: model.caption_patches(feats[e.id]) for e in entries}
    exact = sum(decoded[e.id] == e.captions[0] for e in entries)
    assert exact == len(entries)

    # output follows the acoustic input: exchanging two clips' features
    # exchanges the decoded captions
    a, b = entries[0], next(e for e in entries
                            if e.captions != entries[0].captions)
    swapped = [model.caption_patches(feats[b.id]),
               model.caption_patches(feats[a.id])]
    assert swapped == [b.captions[0], a.captions[0]]
    assert desk["run1_seconds"] < 600.0
    report(4, "desk-preset overfit",
           f"final loss {final_loss:.5f} < 0.05, {exact}/8 captions exact, "
           f"swap check ok, {desk['run1_seconds']:.1f}s")


def test_criterion_05_metric_fidelity():
    t0 = time.monotonic()
    words = ["a", "dog", "barks", "rain", "falls", "wind", "blows", "loud"]
    worst = 0.0
    for seed in range(20):
        r = np.random.Generator(np.random.PCG64(seed))
        n = int(r.integers(2, 6))
        cands = [" ".join(r.choice(words, size=int(r.integers(0, 7))))
                 for _ in range(n)]
        refs = [[" ".join(r.choice(words, size=int(r.integers(1, 7))))
                 for _ in range(int(r.integers(1, 4)))] for _ in range(n)]
        ours = metrics.cider_d(cands, refs)
        oracle = oracle_cider(cands, refs)
        worst = max(worst, max(abs(x - y) for x, y in zip(ours, oracle)))
    assert worst < 1e-9

    m1 = metrics.meteor_lite("a dog barks", ["a dog barks"])
    m2 = metrics.meteor_lite("barks a dog", ["a dog barks"])
    assert abs(m1 - 0.9814814814814815) < 1e-5
    assert abs(m2 - 0.8518518518518519) < 1e-5
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(5, "metric fidelity",
           f"cider vs oracle max |diff| {worst:.1e} over 20 corpora, "
           f"meteor hand values within 1e-5, {elapsed:.1f}s")


def test_criterion_06_spider_fl_gate_and_scaling():
    t0 = time.monotonic()
    assert abs(metrics.spider_fl(0.5, 0.95) - 0.05) < 1e-12
    assert metrics.spider_fl(0.5, 0.90) == 0.5
    assert metrics.spider_fl(0.5, 0.95, penalty=1.0) == 0.0

    items = [metrics.ScoredItem("x1", "a dog barks",
                                ["a dog barks", "a dog barks"]),
             metrics.ScoredItem("x2", "rain falls",
                                ["rain falls", "rain falls"])]
    rep = metrics.evaluate_corpus(items, detector=lambda t: 0.0,
                                  spice={"x1": 0.5, "x2": 0.1})
    assert rep.corpus["cider_d"] == 625.0  # raw mean 6.25, scaled x100
    for key in rep.corpus:
        raw = [it.scores[key] for it in rep.items]
        assert rep.corpus[key] == round(sum(raw) / len(raw) * 100.0, 1)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(6, "spider-fl gate and scaling",
           "strict 0.90 gate, x0.1 penalty, corpus means = "
           f"round(mean*100, 1), {elapsed:.2f}s")


def test_criterion_07_fluency_rules_round_trip():
    t0 = time.monotonic()
    car = ("a car drives by and then another car drives by and then another "
           "car drives by and then another car drives by and then another "
           "car drives by")
    pre = fluency.detect_errors(car)
    assert pre.probability == 0.95
    assert "R1" in pre.triggered_rules
    fixed = fluency.correct_with_rules(car)
    assert fixed == "a car drives by and then another car drives by"
    assert fluency.detect_errors(fixed).probability == 0.0

    r = np.random.Generator(np.random.PCG64(17))
    alphabet = ["a", "b", "c", "and", "then", "dog", "runs", "the"]
    checked = 0
    for _ in range(1000):
        text = " ".join(r.choice(alphabet, size=int(r.integers(0, 15))))
        once = fluency.correct_with_rules(text)
        assert fluency.correct_with_rules(once) == once, text
        post = fluency.detect_errors(once).triggered_rules
        assert "R1" not in post and "R4" not in post, text
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(7, "fluency rules round trip",
           f"car loop corrected exactly, idempotent on {checked} fuzzed "
           f"inputs, {elapsed:.1f}s")


def test_criterion_08_prompt_fidelity():
    t0 = time.monotonic()
    assert CAPTION_INSTRUCTION == ("Describe the detail of this audio: "
                                   "<AcousticTokens> \n --- \n Detailed: ")
    vocab = tiny_vocab()
    acoustic = nn.Tensor(nn.rng_from_seed(0).normal(0, 1, (6, 32)))
    decoder = CaptionDecoder(DecoderConfig(d_dec=32, layers=1, heads=2), vocab,
                             nn.rng_from_seed(0))
    assert [vocab.tokens[i] for i in decoder.prompt_head] == \
        ["<bos>", "describe", "the", "detail", "of", "this", "audio", ":"]
    assert [vocab.tokens[i] for i in decoder.prompt_tail] == \
        ["\n", "---", "\n", "detailed", ":"]
    stream, lengths = decoder.embed_stream(
        acoustic, [6], [vocab.encode("a low tone") + [vocab.EOS]])
    # prompt around the acoustic block
    assert lengths == [stream.shape[0]] == [8 + 6 + 5 + 4]

    assert fluency.REVISION_PROMPT == (
        "Revise the sentence to make it more correct and idiomatic: \n "
        "rain is falling on a tin roof ==> "
        "rain is falling on the tin roof \n <Text> ==>")
    with StubServer([(200, completion("a car drives by"))]) as srv:
        fluency.correct_external("dog dog dog dog", external_cfg(srv.endpoint))
    _, _, body = srv.requests[0]
    sent = body["messages"][0]["content"]
    assert sent == fluency.REVISION_PROMPT.replace(fluency.TEXT_SLOT,
                                                   "dog dog dog dog")
    assert body["temperature"] == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(8, "prompt fidelity",
           f"caption splice token-for-token, revision request verbatim, "
           f"{elapsed:.1f}s")


def test_criterion_09_schedule_law():
    t0 = time.monotonic()
    stage1, stage2 = data.TrainingSchedule.paper().stages
    spe1 = math.ceil(480 / stage1.batch_size)  # 10 steps per epoch
    ws1 = stage1.warmup_epochs * spe1
    for step in (1, 5, 10, 19):
        assert data.lr_at_step(stage1, step, spe1) == \
            pytest.approx(stage1.peak_lr * step / ws1)
    for step in (20, 21, 150):
        assert data.lr_at_step(stage1, step, spe1) == stage1.peak_lr

    spe2 = math.ceil(480 / stage2.batch_size)  # 15 steps per epoch
    ws2 = stage2.warmup_epochs * spe2
    for step in (1, 15, 29):
        assert data.lr_at_step(stage2, step, spe2) == \
            pytest.approx(stage2.peak_lr * step / ws2)
    assert data.lr_at_step(stage2, 30, spe2) == stage2.peak_lr

    (desk_stage,) = data.TrainingSchedule.desk().stages
    assert data.lr_at_step(desk_stage, 1, 1) == pytest.approx(5e-4 / 2)
    assert data.lr_at_step(desk_stage, 2, 1) == 5e-4
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(9, "schedule law",
           f"warmup lr = peak*step/warmup_steps on both stages and the "
           f"desk preset, {elapsed:.2f}s")


def test_criterion_10_persistence_and_determinism(desk):
    blob = desk["bytes1"]
    loaded = ckpt.deserialize(blob)
    assert ckpt.serialize(loaded) == blob
    feats = desk["feats"]
    model = desk["model"]
    for e in desk["entries"][:3]:
        assert model.caption_patches(feats[e.id]) == \
            loaded.caption_patches(feats[e.id])
    assert desk["bytes1"] == desk["bytes2"]
    assert desk["total_seconds"] < 1200.0
    report(10, "persistence and determinism",
           f"checkpoint round trip bit-exact ({len(blob)} bytes), two desk "
           f"runs byte-identical, {desk['total_seconds']:.1f}s for both runs")
