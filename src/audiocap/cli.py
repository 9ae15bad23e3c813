"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 runtime/numeric
error, 4 external-service error. All diagnostics go to standard error;
results (captions, reports, corrected text) go to standard output or the
file named by --out.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import checkpoint as ckpt
from . import data, decoder, fluency, frontend, metrics
from .model import PipelineConfig, build_model

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3
EXIT_EXTERNAL = 4


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: error: {message}")


def build_parser() -> Parser:
    p = Parser(prog="audiocap",
               description="Desk-scale audio captioning pipeline.")
    sub = p.add_subparsers(dest="command", parser_class=Parser)

    sp = sub.add_parser("synth", help="generate a synthetic corpus")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--n", type=int, required=True, help="number of clips")
    sp.add_argument("--seed", type=int, default=0)

    tp = sub.add_parser("train", help="train a model on manifests")
    tp.add_argument("--manifest", action="append", default=[],
                    help="manifest JSONL (repeatable)")
    tp.add_argument("--config", help="pipeline config JSON file")
    tp.add_argument("--out", help="checkpoint output path")
    tp.add_argument("--strategy", choices=("frozen", "full", "lora"),
                    help="override encoder+decoder train strategy")
    tp.add_argument("--preset", choices=("paper", "desk"), default="desk")
    tp.add_argument("--seed", type=int, help="override config seed")
    tp.add_argument("--max-steps", type=int, help="cap total optimizer steps")
    tp.add_argument("--losses", help="loss curve JSON (default <out>.losses.json)")
    tp.add_argument("--dump-config", action="store_true",
                    help="print the effective config JSON and exit")

    cp = sub.add_parser("caption", help="caption one WAV file")
    cp.add_argument("--ckpt", required=True)
    cp.add_argument("--wav", required=True)
    cp.add_argument("--beam", type=int, default=1)
    cp.add_argument("--correct", action="store_true",
                    help="apply the fluency correction pipeline")

    ep = sub.add_parser("evaluate", help="decode a manifest and score it")
    ep.add_argument("--ckpt", required=True)
    ep.add_argument("--manifest", required=True)
    ep.add_argument("--spice", help="external SPICE sidecar JSONL")
    ep.add_argument("--beam", type=int, default=1)
    ep.add_argument("--correct", action="store_true")
    ep.add_argument("--out", required=True, help="report JSON path")

    scp = sub.add_parser("score", help="score candidate captions (no model)")
    scp.add_argument("--candidates", required=True,
                     help="JSONL of {id, caption}")
    scp.add_argument("--references", required=True,
                     help="JSONL of {id, captions}")
    scp.add_argument("--spice", help="external SPICE sidecar JSONL")
    scp.add_argument("--out", required=True, help="report JSON path")

    crp = sub.add_parser("correct", help="run the correction pipeline on text")
    crp.add_argument("--text", required=True)
    crp.add_argument("--endpoint", default="")
    crp.add_argument("--mode", choices=fluency.MODES)
    crp.add_argument("--threshold", type=float, default=metrics.FLUENCY_GATE)
    return p


def _load_config(args) -> PipelineConfig:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                cfg = PipelineConfig.from_dict(json.load(fh))
            except RecursionError as e:
                raise ValueError(f"{args.config}: JSON nested too deeply") from e
    else:
        cfg = PipelineConfig()
    if args.strategy:
        mode = {"frozen": "frozen", "full": "full_finetune",
                "lora": "lora"}[args.strategy]
        cfg.strategy.encoder = mode
        cfg.strategy.decoder = mode
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)  # checks the seed
    return cfg


def _cmd_synth(args) -> int:
    data.synthesize_corpus(args.n, args.seed, args.out)
    print(f"wrote {args.n} clips and manifest.jsonl to {args.out}",
          file=sys.stderr)
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    if args.dump_config:
        print(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
        return EXIT_OK
    if not args.manifest or not args.out:
        raise UsageError("train: error: --manifest and --out are required")

    entries: list[data.ManifestEntry] = []
    features = {}
    seen_ids: set[str] = set()
    for mpath in args.manifest:
        parsed = data.parse_manifest(mpath)
        for e in parsed:
            if e.id in seen_ids:
                raise data.DuplicateId(f"id {e.id!r} appears in two manifests")
            seen_ids.add(e.id)
        entries.extend(parsed)
        features.update(data.extract_features(parsed, Path(mpath).parent,
                                              cfg.frontend))
    vocab = decoder.build_vocab(c for e in entries for c in e.captions)
    model = build_model(cfg, vocab)
    schedule = (data.TrainingSchedule.paper() if args.preset == "paper"
                else data.TrainingSchedule.desk())

    def log(step, value, lr):
        if step % 50 == 0 or step == 1:
            print(f"step {step}: loss {value:.5f} lr {lr:.2e}", file=sys.stderr)

    result = data.run_schedule(model, schedule, entries, base_dir=".",
                               seed=cfg.seed, max_steps=args.max_steps,
                               features=features, log=log)
    ckpt.save_checkpoint(model, args.out)
    losses_path = args.losses or f"{args.out}.losses.json"
    with open(losses_path, "w", encoding="utf-8") as fh:
        json.dump({"losses": result.loss_curve,
                   "stage_boundaries": result.stage_boundaries}, fh)
    print(f"final loss {result.loss_curve[-1]:.5f}; checkpoint at {args.out}",
          file=sys.stderr)
    return EXIT_OK


def _corrector_config(args) -> fluency.CorrectorConfig:
    mode = args.mode
    if mode is None:
        mode = "external_with_rules_fallback" if args.endpoint else "rules"
    return fluency.CorrectorConfig(threshold=args.threshold, mode=mode,
                                   endpoint=args.endpoint)


def _gate(text: str) -> str:
    """The default rules gate that `caption/evaluate --correct` apply."""
    return fluency.correction_pipeline(text, fluency.CorrectorConfig()).text


def _cmd_caption(args) -> int:
    model = ckpt.load_checkpoint(args.ckpt)
    wav = frontend.load_wav(args.wav)
    text = model.caption_wave(wav, beam=args.beam)
    print(_gate(text) if args.correct else text)
    return EXIT_OK


def _decode_manifest(model, entries, manifest_dir, beam, correct):
    feats = data.extract_features(entries, manifest_dir, model.cfg.frontend)
    out = []
    for e in entries:
        text = model.caption_patches(feats[e.id], beam=beam)
        out.append(_gate(text) if correct else text)
    return out


def _score_and_report(items: list[metrics.ScoredItem], args) -> int:
    """Score `items` with the fluency detector and the optional `--spice`
    sidecar, write the report to `--out` and print the corpus scores."""
    spice = metrics.read_spice_sidecar(args.spice) if args.spice else None
    detector = lambda t: fluency.detect_errors(t).probability
    report = metrics.evaluate_corpus(items, detector=detector, spice=spice)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    print(json.dumps(report.corpus, sort_keys=True))
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    model = ckpt.load_checkpoint(args.ckpt)
    entries = data.parse_manifest(args.manifest)
    if not entries:
        raise metrics.EmptyCorpus("manifest has no entries")
    candidates = _decode_manifest(model, entries, Path(args.manifest).parent,
                                  args.beam, args.correct)
    items = [metrics.ScoredItem(id=e.id, candidate=c, references=e.captions)
             for e, c in zip(entries, candidates)]
    return _score_and_report(items, args)


def _cmd_score(args) -> int:
    cand_rows = []
    for lineno, r in data.read_jsonl(args.candidates, ("id", "caption")):
        data.check_string(lineno, r, "id")
        if not isinstance(r["caption"], str):
            raise data.MalformedLine(lineno, "caption is not a string")
        cand_rows.append(r)
    ref_rows = []
    for lineno, r in data.read_jsonl(args.references, ("id", "captions")):
        data.check_string(lineno, r, "id")
        data.check_captions(lineno, r["captions"])
        ref_rows.append(r)
    cands = {r["id"]: r["caption"] for r in cand_rows}
    if len(cands) != len(cand_rows):
        raise data.DuplicateId("duplicate candidate ids")
    ref_ids = [r["id"] for r in ref_rows]
    if len(set(ref_ids)) != len(ref_ids):
        raise data.DuplicateId("duplicate reference ids")
    if set(cands) != set(ref_ids):
        raise metrics.IdMismatch("candidate and reference ids differ")
    items = [metrics.ScoredItem(id=r["id"], candidate=cands[r["id"]],
                                references=r["captions"])
             for r in ref_rows]
    return _score_and_report(items, args)


def _cmd_correct(args) -> int:
    result = fluency.correction_pipeline(args.text, _corrector_config(args))
    print(result.text)
    print(json.dumps({
        "corrected": result.corrected,
        "pre": {"probability": result.pre.probability,
                "rules": result.pre.triggered_rules},
        "post": {"probability": result.post.probability,
                 "rules": result.post.triggered_rules},
        "warnings": result.warnings,
    }, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        handler = {
            "synth": _cmd_synth, "train": _cmd_train, "caption": _cmd_caption,
            "evaluate": _cmd_evaluate, "score": _cmd_score,
            "correct": _cmd_correct,
        }[args.command]
        return handler(args)
    except UsageError as e:
        print(str(e), file=sys.stderr)
        return EXIT_USAGE
    except fluency.CorrectorError as e:
        print(f"external service error: {e}", file=sys.stderr)
        return EXIT_EXTERNAL
    except FloatingPointError as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, KeyError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
