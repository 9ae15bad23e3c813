"""The desk benchmark's workloads, each a closed loop with one caller.

Every workload sets up its inputs from the seed, then repeats operations
until the time is up, checking each output. In a traced run the set-up
runs once under the tracer and the operations alternate untraced and
traced, so the per-layer numbers and the tracing overhead come from the
same operations.

The training corpus holds two clips of each event count from 2 to 5,
taken in generation order from `synthesize_corpus(64, seed)`: the seed
changes which events are heard, not how long the clips and captions are,
so step times compare across seeds.

The caption workloads decode the fixed desk corpus, `synthesize_corpus(8,
7)`, with a model trained on it; the seed only orders the clips. Beam
search here runs until every kept hypothesis ends, so its cost depends on
how long the losing hypotheses survive in the trained model: on models
trained from other seeds' corpora the beam-3 median per clip ranged from
0.6 s to 1.9 s, which would measure the corpus, not the code.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import itertools
import math
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from audiocap import (checkpoint, data, decoder, fluency, frontend, metrics,
                      model, nn)

POOL_CLIPS = 64
EVENT_COUNTS = (2, 3, 4, 5)
CLIPS_PER_COUNT = 2
SETUP_REPEATS = 7
DESK_SEED = 7
# Desk steps before captioning (loss about 0.04). Every greedy and beam-3
# caption of the desk corpus is exact from step 40 (loss 0.30); the margin
# absorbs rounding changes that shift the loss curve.
CAPTION_TRAIN_STEPS = 80
CIDER_TOLERANCE = 1e-9  # acceptance criterion 5


class Deadline(Exception):
    """Raised from the training log callback when the time is up."""


@dataclass
class Outcome:
    setup_s: float
    inputs: dict
    op_ms: list[float] = field(default_factory=list)  # untraced operations
    items: int = 0              # clips trained or captioned
    elapsed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    op_pairs: dict = field(default_factory=dict)  # key -> (traced, untraced)
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


class OpClock:
    """Times operations; with a tracer, every second one per key is traced."""

    def __init__(self, tracer, outcome: Outcome):
        self.tracer = tracer
        self.outcome = outcome
        self.seen = defaultdict(int)
        self.pairs = defaultdict(lambda: ([], []))
        self._open = None

    def begin(self, key):
        traced = self.tracer is not None and self.seen[key] % 2 == 1
        self.seen[key] += 1
        stack = contextlib.ExitStack()
        if traced:
            stack.enter_context(self.tracer.installed(op=self.outcome.attempted))
        self.outcome.attempted += 1
        self._open = (key, traced, stack, time.perf_counter())

    def end(self):
        key, traced, stack, start = self._open
        ms = (time.perf_counter() - start) * 1e3
        stack.close()
        self._open = None
        self.pairs[key][0 if traced else 1].append(ms)
        if not traced:
            self.outcome.op_ms.append(ms)

    def abandon(self):
        if self._open is not None:
            self._open[2].close()
            self._open = None

    def done(self, deadline: float) -> bool:
        """Time is up, and a traced run has traced every key at least once."""
        return (time.perf_counter() >= deadline
                and (self.tracer is None or min(self.seen.values()) >= 2))

    def finish(self):
        self.outcome.op_pairs = dict(self.pairs)


def _setup_phase(tracer, fn):
    """Run `fn` once under the tracer, else SETUP_REPEATS times untraced.

    Returns the last result and the median wall time in seconds. The
    garbage of earlier repeats is collected before measuring starts.
    """
    times, result = [], None
    for i in range(1 if tracer else SETUP_REPEATS):
        with (tracer.installed() if tracer else contextlib.nullcontext()):
            start = time.perf_counter()
            result = fn(i)
            times.append(time.perf_counter() - start)
    gc.collect()
    return result, statistics.median(times)


# -- desk corpus ---------------------------------------------------------------

def event_count(caption: str) -> int:
    return caption.count(" followed by ") + 1


def stratified_corpus(seed: int, out_dir: Path):
    """Two clips per event count from a pool synthesized with `seed`."""
    pool = data.synthesize_corpus(POOL_CLIPS, seed, out_dir)
    entries = []
    for k in EVENT_COUNTS:
        chosen = [e for e in pool if event_count(e.captions[0]) == k]
        if len(chosen) < CLIPS_PER_COUNT:
            raise RuntimeError(f"seed {seed}: fewer than {CLIPS_PER_COUNT} "
                               f"clips with {k} events in a pool of {POOL_CLIPS}")
        entries.extend(chosen[:CLIPS_PER_COUNT])
    return entries


def desk_setup(entries, out_dir: Path):
    """Features, vocabulary and a fresh desk-preset model for `entries`."""
    cfg = model.PipelineConfig(seed=0)
    features = data.extract_features(entries, out_dir, cfg.frontend)
    vocab = decoder.build_vocab(c for e in entries for c in e.captions)
    return out_dir, entries, features, model.build_model(cfg, vocab)


def desk_inputs(entries, features) -> dict:
    return {"clips": len(entries),
            "time_patches": [features[e.id].grid[0] for e in entries],
            "caption_words": [len(e.captions[0].split()) for e in entries]}


# -- train_desk ------------------------------------------------------------------

def train_desk(seed: int, seconds: float, workdir: Path, tracer=None) -> Outcome:
    def prepare(i):
        out_dir = workdir / f"corpus{i}"
        return desk_setup(stratified_corpus(seed, out_dir), out_dir)

    (_, entries, features, mdl), setup_s = _setup_phase(tracer, prepare)
    out = Outcome(setup_s, desk_inputs(entries, features))
    clock = OpClock(tracer, out)
    schedule = data.TrainingSchedule.desk()
    deadline = time.perf_counter() + seconds

    def log(step, loss, lr):
        clock.end()
        out.items += len(entries)  # the whole corpus is one batch
        if not math.isfinite(loss):
            out.fail(f"step {step}: loss {loss}")
        if clock.done(deadline):
            raise Deadline
        clock.begin("step")

    start = time.perf_counter()
    clock.begin("step")
    try:
        while True:  # the schedule ends after 200 steps; start it again
            data.run_schedule(mdl, schedule, entries, workdir, seed=mdl.cfg.seed,
                              features=features, log=log)
    except Deadline:
        pass
    except data.NonFiniteLoss as e:
        clock.abandon()
        out.fail(str(e))
    out.elapsed_s = time.perf_counter() - start
    clock.finish()
    return out


# -- caption_greedy / caption_beam3 --------------------------------------------

def desk_checkpoint_name() -> str:
    """Names the trained desk model by everything that determines it."""
    digest = hashlib.sha256()
    for path in sorted(Path(data.__file__).resolve().parent.glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    digest.update(f"{DESK_SEED} {CAPTION_TRAIN_STEPS} {np.__version__}".encode())
    return f"desk-{digest.hexdigest()[:16]}.ckpt"


def _score_problems(report, oracle) -> list[str]:
    """Checks of a corpus report against the CIDEr-D oracle and score ranges."""
    problems = []
    want = oracle([it.candidate for it in report.items],
                  [it.references for it in report.items])
    worst = max(abs(it.scores["cider_d"] - w) for it, w in zip(report.items, want))
    if not worst < CIDER_TOLERANCE:
        problems.append(f"CIDEr-D off the oracle by {worst:.2e}")
    for it in report.items:
        s = it.scores
        if not (0.0 <= s["cider_d"] <= 10.0 + 1e-9
                and 0.0 <= s["meteor_lite"] <= 1.0 + 1e-9
                and -1e-9 <= s["fense_proxy"] <= 1.0 + 1e-9
                and 0.0 <= it.fluency_prob <= 1.0):
            problems.append(f"{it.id}: score out of range {s}")
    return problems


def caption(seed: int, seconds: float, workdir: Path, cache: Path, beam: int,
            oracle, tracer=None) -> Outcome:
    """Caption the desk corpus with a model trained on it.

    Each pass over the clips ends with a corpus report on the gated
    captions; the first is checked against `oracle(candidates, references)`,
    a reference CIDEr-D, and every later one must repeat it.

    Training is deterministic, so the trained model is kept in `cache`
    under a name derived from the package source and reused by later
    runs, like a build product: only the run that trains it pays for
    training in its set-up time.
    """
    def prepare(i):
        out_dir = workdir / f"corpus{i}"
        return desk_setup(data.synthesize_corpus(8, DESK_SEED, out_dir), out_dir)

    (base, entries, features, trained), prep_s = _setup_phase(tracer, prepare)
    cached = cache / desk_checkpoint_name()
    train_s = 0.0
    if not cached.is_file():
        with (tracer.installed() if tracer else contextlib.nullcontext()):
            start = time.perf_counter()
            data.run_schedule(trained, data.TrainingSchedule.desk(), entries,
                              base, seed=trained.cfg.seed,
                              max_steps=CAPTION_TRAIN_STEPS, features=features)
            train_s = time.perf_counter() - start
        cache.mkdir(parents=True, exist_ok=True)
        checkpoint.save_checkpoint(trained, workdir / "trained.ckpt")
        os.replace(workdir / "trained.ckpt", cached)

    def round_trip(i):
        path = workdir / f"desk{i}.ckpt"
        checkpoint.save_checkpoint(checkpoint.load_checkpoint(cached), path)
        return checkpoint.load_checkpoint(path)

    mdl, round_trip_s = _setup_phase(tracer, round_trip)
    out = Outcome(prep_s + train_s + round_trip_s, desk_inputs(entries, features))
    out.inputs["trained_this_run"] = train_s > 0
    gate = fluency.CorrectorConfig()
    corrected_refs = {e.id: fluency.correction_pipeline(e.captions[0], gate).text
                      for e in entries}
    entries = [entries[i] for i in nn.rng_from_seed([seed, 2]).permutation(
        len(entries))]

    clock = OpClock(tracer, out)
    first_corpus = None
    deadline = time.perf_counter() + seconds
    start = time.perf_counter()
    for passes in itertools.count(1):
        traced = tracer is not None and passes % 2 == 0  # as OpClock alternates
        texts = []
        for e in entries:
            clock.begin(e.id)
            try:
                wave = frontend.load_wav(base / e.audio)
                text = mdl.caption_wave(wave, beam=beam)
                fixed = fluency.correction_pipeline(text, gate).text
            except Exception as exc:  # a failed operation is counted, not fatal
                clock.abandon()
                out.fail(f"{e.id}: {exc!r}")
                texts.append("")
                continue
            clock.end()
            out.items += 1
            texts.append(fixed)
            if text != e.captions[0] or fixed != corrected_refs[e.id]:
                out.fail(f"{e.id} beam {beam}: {text!r} != {e.captions[0]!r}")
        out.attempted += 1  # the pass's corpus report
        with (tracer.installed(op="pass-end") if traced
              else contextlib.nullcontext()):
            report = metrics.evaluate_corpus(
                [metrics.ScoredItem(e.id, t, e.captions)
                 for e, t in zip(entries, texts)],
                detector=lambda t: fluency.detect_errors(t).probability)
        if first_corpus is None:
            first_corpus = report.corpus
            problems = _score_problems(report, oracle)
        elif report.corpus != first_corpus:
            problems = [f"corpus report changed: {report.corpus} != {first_corpus}"]
        else:
            problems = []
        if problems:
            out.fail("; ".join(problems))
        if clock.done(deadline):
            break
    out.elapsed_s = time.perf_counter() - start
    clock.finish()
    return out
