"""The package names the desk benchmark's tracer binds, and how it binds them.

`deskbench/spans.py` wraps each public boundary where callers bind it, so
a renamed method, a module that stops importing `wave_to_patches` by
name, or a `correction_pipeline` whose last default is no longer the
detector would break the benchmark. So would a changed signature: the
tracer's `_after_*` hooks read the wrapped calls' positional arguments.
The benchmark's own test takes about a minute; this one reads `spans.py`
as text and runs it in a fresh namespace, so nothing is written under
`deskbench/`.
"""

import types
from pathlib import Path

import pytest

from audiocap import data, fluency, frontend, model
from conftest import random_patches, tiny_config, tiny_vocab

SPANS = Path(__file__).resolve().parents[1] / "deskbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    module = types.ModuleType("deskbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"),
         module.__dict__)
    return module


def test_every_layer_resolves(spans):
    assert spans.LAYERS
    for name, (owner, attr) in spans.LAYERS.items():
        assert callable(getattr(owner, attr, None)), name


def test_wave_to_patches_bound_by_name():
    assert data.wave_to_patches is frontend.wave_to_patches
    assert model.wave_to_patches is frontend.wave_to_patches


def test_correction_pipeline_defaults_to_the_detector():
    assert fluency.correction_pipeline.__defaults__[-1] is fluency.detect_errors


def test_tracer_hooks_read_the_calls_they_wrap(spans):
    # a training step and greedy and beam-3 captions of a tiny model, with
    # every layer traced as operation 0
    mdl = model.build_model(tiny_config(), tiny_vocab())
    batch = [(random_patches(seed=1), "a low tone"),
             (random_patches(seed=2, time_patches=3), "a high tone")]
    tracer = spans.Tracer()
    with tracer.installed(op=0):
        mdl.loss_on_batch(batch).backward()
        for beam in (1, 3):
            mdl.caption_patches(random_patches(seed=3), beam=beam)
    metrics = tracer.per_layer_metrics({})
    for name in ("decoder.logits.rows", "encoder.patches", "bridge.tokens_out",
                 "decoder.tokens_out"):
        assert metrics[name] > 0, name
    assert tracer.violations == []
