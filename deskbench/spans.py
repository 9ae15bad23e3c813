"""Span tracing of audiocap's layers from outside the package.

`Tracer.installed()` replaces each public boundary listed in `LAYERS` with
a timing wrapper for the duration of a `with` block. A function is
replaced wherever a caller binds it: every module attribute in the
package that holds it (``data`` and ``model`` import ``wave_to_patches``
by name) and every default argument that holds it (``correction_pipeline``
defaults its detector to ``detect_errors``). Methods are replaced on
their class. Leaving the block restores the originals, so untraced code
runs the package unchanged.

Each span records name, start, end, parent span and operation id. Spans
stay in memory; `per_layer_metrics` reduces them when the run ends.
"""

from __future__ import annotations

import contextlib
import gc
import math
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from audiocap import (bridge, checkpoint, data, decoder, encoder, fluency,
                      frontend, lora, metrics, model, nn)

SETUP = "setup"
METEOR_TAIL_PERCENTILE = 90

# layer name -> (owner, attribute); owner is a module or a class
LAYERS = {
    "frontend.load_wav": (frontend, "load_wav"),
    "frontend.wave_to_patches": (frontend, "wave_to_patches"),
    "encoder.forward": (encoder.PatchEncoder, "__call__"),
    "bridge.forward": (bridge.QueryBridge, "__call__"),
    "decoder.forward_loss": (decoder.CaptionDecoder, "forward_loss"),
    "decoder.greedy_decode": (decoder.CaptionDecoder, "greedy_decode"),
    "decoder.beam_decode": (decoder.CaptionDecoder, "beam_decode"),
    "decoder.logits": (decoder.CaptionDecoder, "logits"),
    "nn.backward": (nn.Tensor, "backward"),
    "nn.adamw_step": (nn.AdamW, "step"),
    "nn.gelu": (nn, "gelu"),
    "nn.multi_head_attention": (nn, "multi_head_attention"),
    "lora.apply_strategy": (lora, "apply_strategy"),
    "lora.LoraLinear": (lora.LoraLinear, "__call__"),
    "model.loss_on_batch": (model.CaptionModel, "loss_on_batch"),
    "model.acoustic_tokens": (model.CaptionModel, "acoustic_tokens"),
    "data.synthesize_corpus": (data, "synthesize_corpus"),
    "data.extract_features": (data, "extract_features"),
    "checkpoint.serialize": (checkpoint, "serialize"),
    "checkpoint.deserialize": (checkpoint, "deserialize"),
    "fluency.correction_pipeline": (fluency, "correction_pipeline"),
    "fluency.detect_errors": (fluency, "detect_errors"),
    "metrics.evaluate_corpus": (metrics, "evaluate_corpus"),
    "metrics.cider_d": (metrics, "cider_d"),
    "metrics.meteor_lite": (metrics, "meteor_lite"),
    "metrics.fense_proxy": (metrics, "fense_proxy"),
}

# layers reported with calls, ms_p50 and self_ms; LoraLinear reports calls only
TIMED_LAYERS = [name for name in LAYERS if name != "lora.LoraLinear"]

COUNTERS = {
    "encoder.patches": "count",
    "bridge.tokens_in": "count",
    "bridge.tokens_out": "count",
    "decoder.logits.rows": "count",
    "decoder.tokens_out": "count",
    "decoder.useful_row_share": "share",
    "nn.graph_nodes_per_step": "count",
    "nn.gc_ms": "ms",
    "nn.gc_collections": "count",
    "lora.LoraLinear.calls": "count",
    "checkpoint.bytes": "bytes",
    "fluency.corrected_share": "share",
    "metrics.meteor_lite.ms_tail": "ms",
    "trace.ops": "count",
    "trace.overhead_ms": "ms",
    "trace.overhead_share": "share",
}

DECODE_SPANS = ("decoder.greedy_decode", "decoder.beam_decode")


def metric_names() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    names = {}
    for layer in TIMED_LAYERS:
        names[f"{layer}.calls"] = "count"
        names[f"{layer}.ms_p50"] = "ms"
        names[f"{layer}.self_ms"] = "ms"
    names.update(COUNTERS)
    return names


def graph_size(root) -> int:
    """Nodes reachable from `root` through autograd parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def _package_modules():
    return [m for name, m in sys.modules.items()
            if name == "audiocap" or name.startswith("audiocap.")]


class Tracer:
    """In-memory span recorder with per-operation counters."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.op = SETUP
        self.counts = defaultdict(lambda: defaultdict(float))  # name -> op -> n
        self.graph_nodes: list[int] = []  # per backward call
        self.violations: list[str] = []
        self.decode_depth = 0
        self._gc_start = None

    # -- recording ---------------------------------------------------------

    def count(self, name: str, n: float = 1.0):
        self.counts[name][self.op] += n

    def _wrap(self, name, fn):
        # counters hook in as _before_<layer> / _after_<layer> methods
        tracer = self
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        decode = name in DECODE_SPANS

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            record = [name, time.perf_counter(), 0.0, parent, tracer.op]
            tracer.spans.append(record)
            tracer.stack.append(index)
            tracer.decode_depth += decode
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.decode_depth -= decode
                tracer.stack.pop()
                record[2] = time.perf_counter()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _before_nn_backward(self, args):
        self.graph_nodes.append(graph_size(args[0]))

    def _after_encoder_forward(self, args, result):
        self.count("encoder.patches", args[1].count)

    def _after_bridge_forward(self, args, result):
        n_in, n_out = args[1].data.shape[0], result.data.shape[0]
        self.count("bridge.tokens_in", n_in)
        self.count("bridge.tokens_out", n_out)
        expected = bridge.output_count(n_in, args[0].cfg.window)
        if n_out != expected:
            self.violations.append(
                f"bridge emitted {n_out} tokens for {n_in}, expected {expected}")

    def _after_decoder_logits(self, args, result):
        rows = math.prod(args[1].data.shape[:-1])
        self.count("decoder.logits.rows", rows)
        if self.decode_depth:
            self.count("decode.rows", rows)
            self.count("decoder.tokens_out")

    def _after_lora_LoraLinear(self, args, result):
        self.count("lora.LoraLinear.calls")

    def _after_checkpoint_serialize(self, args, result):
        self.count("checkpoint.bytes", len(result))

    def _after_fluency_correction_pipeline(self, args, result):
        self.count("fluency.assessed")
        self.count("fluency.corrected", bool(result.corrected))

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.count("nn.gc_ms", (time.perf_counter() - self._gc_start) * 1e3)
            self.count("nn.gc_collections")
            self._gc_start = None

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, op=SETUP):
        """Trace every layer in LAYERS, attributing spans to `op`."""
        self.op = op
        originals = {name: getattr(owner, attr)
                     for name, (owner, attr) in LAYERS.items()}
        wrapped = {id(fn): self._wrap(name, fn)
                   for name, fn in originals.items()}
        restore = []
        for name, (owner, attr) in LAYERS.items():
            if isinstance(owner, type):
                restore.append((owner, attr, originals[name]))
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    restore.append((module, attr, value))
            for value in list(vars(module).values()):
                defaults = getattr(value, "__defaults__", None)
                if defaults and any(id(d) in wrapped for d in defaults):
                    restore.append((value, "__defaults__", defaults))
        for owner, attr, value in restore:
            if attr == "__defaults__":
                setattr(owner, attr, tuple(wrapped.get(id(d), d) for d in value))
            else:
                setattr(owner, attr, wrapped[id(value)])
        gc.callbacks.append(self._on_gc)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._on_gc)
            self._gc_start = None
            for owner, attr, value in reversed(restore):
                setattr(owner, attr, value)
            self.op = SETUP

    # -- reduction ---------------------------------------------------------

    def per_layer_metrics(self, op_ms: dict[str, tuple[list, list]]) -> dict:
        """Reduce spans and counters to the named per-layer metrics.

        Operations carry integer ids; other non-set-up spans (the caption
        workloads' per-pass scoring) count toward the operations' share
        but not toward their number. A layer that runs inside operations
        is reported per traced operation; a layer that runs only during
        set-up is reported per set-up. `op_ms` maps an operation key to
        (traced, untraced) durations in ms, from which the tracing
        overhead is taken.
        """
        traced_ops = {rec[4] for rec in self.spans if isinstance(rec[4], int)}
        n_ops = len(traced_ops)
        child_ms = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_ms[parent] += end - start
        by_layer = defaultdict(lambda: {"op": [], SETUP: []})
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            phase = SETUP if op == SETUP else "op"
            by_layer[name][phase].append(((end - start) * 1e3,
                                          (end - start - child_ms[i]) * 1e3))
        out = {}
        for layer in TIMED_LAYERS:
            spans = by_layer[layer]["op"]
            denom = n_ops
            if not spans:
                spans, denom = by_layer[layer][SETUP], 1
            durations = [d for d, _ in spans]
            out[f"{layer}.calls"] = len(spans) / denom if spans else 0.0
            out[f"{layer}.ms_p50"] = statistics.median(durations) if spans else 0.0
            out[f"{layer}.self_ms"] = (sum(s for _, s in spans) / denom
                                       if spans else 0.0)

        def per_op(name):
            total = sum(v for k, v in self.counts[name].items() if k != SETUP)
            return total / n_ops if n_ops else 0.0

        for name in ("encoder.patches", "bridge.tokens_in", "bridge.tokens_out",
                     "decoder.logits.rows", "decoder.tokens_out",
                     "lora.LoraLinear.calls", "nn.gc_collections"):
            out[name] = per_op(name)
        decode_rows = per_op("decode.rows")
        out["decoder.useful_row_share"] = (
            out["decoder.tokens_out"] / decode_rows if decode_rows else 0.0)
        out["nn.graph_nodes_per_step"] = (statistics.median(self.graph_nodes)
                                          if self.graph_nodes else 0.0)
        gc_ms = [self.counts["nn.gc_ms"].get(op, 0.0) for op in traced_ops]
        out["nn.gc_ms"] = statistics.median(gc_ms) if gc_ms else 0.0
        out["checkpoint.bytes"] = self.counts["checkpoint.bytes"][SETUP]
        assessed = per_op("fluency.assessed")
        out["fluency.corrected_share"] = (
            per_op("fluency.corrected") / assessed if assessed else 0.0)
        meteor = [d for d, _ in by_layer["metrics.meteor_lite"]["op"]]
        out["metrics.meteor_lite.ms_tail"] = (
            float(np.percentile(meteor, METEOR_TAIL_PERCENTILE)) if meteor else 0.0)
        out["trace.ops"] = float(n_ops)
        gaps, bases = [], []
        for traced, untraced in op_ms.values():
            if traced and untraced:
                gaps.append(statistics.mean(traced) - statistics.mean(untraced))
                bases.append(statistics.mean(untraced))
        out["trace.overhead_ms"] = statistics.median(gaps) if gaps else 0.0
        out["trace.overhead_share"] = (sum(gaps) / sum(bases)) if gaps else 0.0
        return out
