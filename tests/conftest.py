"""Shared helpers: tiny configurations sized for fast unit tests."""

import numpy as np
import pytest

from audiocap import fluency, nn
from audiocap.bridge import BridgeConfig
from audiocap.decoder import DecoderConfig, build_vocab
from audiocap.encoder import EncoderConfig
from audiocap.frontend import PatchSequence
from audiocap.lora import LoraConfig
from audiocap.model import PipelineConfig


@pytest.fixture(autouse=True)
def api_key(monkeypatch):
    """The external corrector's bearer token, so a request can be sent."""
    monkeypatch.setenv(fluency.API_KEY_ENV, "sk-test")


def tiny_config(seed=0, strategy=None, **over):
    kw = dict(
        encoder=EncoderConfig(d_enc=32, layers=1, heads=2, ffn_mult=2,
                              max_time_patches=64),
        bridge=BridgeConfig(window=17, d_q=32, heads=2, cross_layers=1,
                            self_layers=1, max_windows=16),
        decoder=DecoderConfig(d_dec=32, layers=1, heads=2, ffn_mult=2,
                              max_seq=128, max_caption=30),
        lora=LoraConfig(rank=2, alpha=4.0),
        seed=seed,
    )
    if strategy is not None:
        kw["strategy"] = strategy
    kw.update(over)
    return PipelineConfig(**kw)


def tiny_vocab(extra=()):
    captions = ["a low tone", "a high tone", "an upward chirp",
                "a noise burst followed by silence"]
    return build_vocab(list(captions) + list(extra))


def random_patches(seed=0, time_patches=2):
    r = nn.rng_from_seed(seed)
    return PatchSequence(
        patches=r.normal(0.0, 1.0, (time_patches * 4, 256)),
        grid=(time_patches, 4))


# criterion test name -> measured-values line, filled by test_acceptance
ACCEPTANCE_LINES = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = []
    for outcome, word in (("passed", "PASS"), ("failed", "FAIL"),
                          ("error", "FAIL")):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            if outcome != "error" and getattr(rep, "when", "call") != "call":
                continue
            name = nodeid.split("::")[-1]
            detail = ACCEPTANCE_LINES.get(
                name, name.replace("test_criterion_", "criterion "))
            rows.append((name, f"{word} {detail}"))
    if rows:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(rows):
            terminalreporter.write_line(line)
