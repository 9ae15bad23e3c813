"""Behaviour fingerprint of the package, printed as one JSON object.

    python3 scripts/fingerprint.py [--steps N] [--curve PATH]

Trains the desk preset on the fixed desk corpus (`synthesize_corpus(8, 7)`)
for N steps (default 80), captions its 8 clips, and prints

  loss_curve    sha256 of the loss curve, one `float.hex()` per line;
                `--curve PATH` also writes those lines to PATH, so that
                two trees' curves can be diffed
  first_step    the step-1 loss as `float.hex()`, and the sha256 of the
                bytes of the logit rows `nn.cross_entropy` receives at
                step 1 (one row per caption token, in batch order)
  checkpoint    sha256 and length of the `checkpoint.serialize` bytes
  captions      sha256 of the greedy and of the beam-3 captions, one a line
  decode_logits sha256 of the bytes of every `CaptionDecoder.logits` result
                while the greedy, then the beam-3 captions are written, so
                a decode change that moves logits but no caption shows
  report        the corpus report of the greedy captions, as `evaluate`
                scores them (fluency detector on, no SPICE)
  meteor_lite   sha256 of `meteor_lite(greedy_i, [reference_j])` for all
                8 x 8 clip pairs, one `float.hex()` per line; at 80 steps
                52 of them need more than one chunk, so this covers
                METEOR-lite's chunk search
  census        `scripts/design_census.py`'s counts
  blas_threads  the BLAS thread count, pinned to 1

Two trees whose objects differ only in `census` train, save and caption
bit-identically; two whose `first_step` agree compute the same first
forward pass. Results depend on the BLAS thread count, so it is pinned
before numpy loads, as `deskbench/run.py` pins it.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from audiocap import checkpoint, data, decoder, fluency, metrics, model, nn  # noqa: E402
from design_census import PACKAGE, census  # noqa: E402

DESK_CLIPS, DESK_SEED = 8, 7


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(steps: int) -> tuple[dict, str]:
    """The fingerprint object and the loss curve's `float.hex()` lines."""
    scored_rows = []  # the digest of the first `nn.cross_entropy` call's rows
    real_cross_entropy = nn.cross_entropy

    def cross_entropy(logits, targets):
        if not scored_rows:
            scored_rows.append(hashlib.sha256(logits.data.tobytes()).hexdigest())
        return real_cross_entropy(logits, targets)

    with tempfile.TemporaryDirectory() as tmp:
        entries = data.synthesize_corpus(DESK_CLIPS, DESK_SEED, tmp)
        cfg = model.PipelineConfig(seed=0)
        feats = data.extract_features(entries, tmp, cfg.frontend)
        vocab = decoder.build_vocab(c for e in entries for c in e.captions)
        mdl = model.build_model(cfg, vocab)
        nn.cross_entropy = cross_entropy
        try:
            result = data.run_schedule(mdl, data.TrainingSchedule.desk(),
                                       entries, tmp, seed=cfg.seed,
                                       max_steps=steps, features=feats)
        finally:
            nn.cross_entropy = real_cross_entropy
    curve = "\n".join(v.hex() for v in result.loss_curve)
    blob = checkpoint.serialize(mdl)
    logits_digest = hashlib.sha256()
    real_logits = decoder.CaptionDecoder.logits

    def logits(self, *args, **kwargs):
        result = real_logits(self, *args, **kwargs)
        logits_digest.update(result.data.tobytes())
        return result

    decoder.CaptionDecoder.logits = logits
    try:
        greedy = [mdl.caption_patches(feats[e.id]) for e in entries]
        beam3 = [mdl.caption_patches(feats[e.id], beam=3) for e in entries]
    finally:
        decoder.CaptionDecoder.logits = real_logits
    report = metrics.evaluate_corpus(
        [metrics.ScoredItem(e.id, c, e.captions) for e, c in zip(entries, greedy)],
        detector=lambda t: fluency.detect_errors(t).probability)
    return {
        "steps": len(result.loss_curve),
        "loss_curve": sha256(curve),
        "first_step": {"loss": result.loss_curve[0].hex(),
                       "scored_rows": scored_rows[0]},
        "checkpoint": {"sha256": hashlib.sha256(blob).hexdigest(),
                       "bytes": len(blob)},
        "captions": {"greedy": sha256("\n".join(greedy)),
                     "beam3": sha256("\n".join(beam3))},
        "decode_logits": logits_digest.hexdigest(),
        "report": report.corpus,
        "meteor_lite": sha256("\n".join(
            metrics.meteor_lite(c, [e.captions[0]]).hex()
            for c in greedy for e in entries)),
        "census": census(PACKAGE),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }, curve


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=80)
    parser.add_argument("--curve", type=Path,
                        help="write the loss curve here, one float.hex() a line")
    args = parser.parse_args()
    printed, curve = fingerprint(args.steps)
    if args.curve is not None:
        args.curve.write_text(curve + "\n", encoding="utf-8")
    print(json.dumps(printed, sort_keys=True))
