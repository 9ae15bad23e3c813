"""Lines of the package that no CLI command reaches, printed as one JSON object.

    python3 scripts/reach.py [--clips N] [--steps N]

Synthesizes an N-clip corpus (seed 7, default 8 clips, the desk corpus) in
a temporary directory, then runs these commands in-process through
`cli.main` under `sys.settrace`, tracing only `src/audiocap`:

  synth; train --dump-config; train with a --config file that sets the
  full strategy, with --strategy lora and frozen and with --preset paper,
  each for --steps steps (default 2); caption greedy and at beam 3, each
  with and without --correct, with the full and with the lora
  checkpoint; evaluate --correct; score --spice on files with blank
  lines, once on every clip, the first captioned with one word that
  shares none with its references, once on that clip alone; correct on
  a looping caption

The external corrector is left out: it needs a chat-completions server.
The package is imported under the trace, so module-level lines count.

The object maps each `src/audiocap/*.py` file name to the executable
lines (line numbers of its compiled code) that no command ran, split into

  error  lines inside a `raise` or `assert` statement or an `except`
         body, as a list
  other  every other unreached line, grouped by the qualified name of the
         innermost function or class that holds it (`Module.astype`,
         `Tensor.__mul__.backward`; `<module>` outside them all)

`scripts/reach_allowlist.json` names each function that may keep `other`
lines, with the reason; `tests/test_scripts.py` fails when the two differ.
At fewer clips or steps, lines that the desk corpus reaches go unreached.
"""

import argparse
import ast
import contextlib
import importlib
import io
import json
import sys
import tempfile
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
PACKAGE = HERE.parent / "src" / "audiocap"
sys.path.insert(0, str(PACKAGE.parent))

CORPUS_SEED = 7
LOOP = "a car drives by a car drives by a car drives by"
ONE_WORD = "quiet"  # in no desk caption


def executable_lines(code: types.CodeType) -> set[int]:
    lines, stack = set(), [code]
    while stack:
        c = stack.pop()
        lines.update(line for _, _, line in c.co_lines() if line)
        stack.extend(k for k in c.co_consts if isinstance(k, types.CodeType))
    return lines


def error_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Raise, ast.Assert, ast.ExceptHandler)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def scope_names(tree: ast.AST) -> dict[int, str]:
    """Each line of a function or class body mapped to the qualified name
    of the innermost one that holds it; a def's own lines belong outside."""
    names = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = prefix + child.name
                names.update(dict.fromkeys(
                    range(child.body[0].lineno, child.end_lineno + 1), name))
                visit(child, name + ".")
            else:
                visit(child, prefix)
    visit(tree, "")
    return names


def trace_into(reached: dict[str, set[int]]):
    """A `sys.settrace` function that records the lines run in the files
    named by `reached` and ignores every other frame."""
    def on_call(frame, event, arg):
        lines = reached.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)  # a call fires no line event for the def line

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line
    return on_call


def run(argv: list[str]) -> None:
    from audiocap import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}: {err.getvalue()}")


def run_commands(tmp: Path, clips: int, steps: int) -> None:
    from audiocap import data
    corpus = tmp / "corpus"
    manifest = str(corpus / "manifest.jsonl")
    run(["synth", "--out", str(corpus), "--n", str(clips),
         "--seed", str(CORPUS_SEED)])
    run(["train", "--dump-config", "--strategy", "lora", "--seed", "1"])
    config = tmp / "config.json"
    config.write_text(json.dumps({"strategy": "full_finetune"}))
    for name, flags in [("full", ["--config", str(config)]),
                        ("lora", ["--strategy", "lora"]),
                        ("frozen", ["--strategy", "frozen"]),
                        ("paper", ["--preset", "paper"])]:
        run(["train", "--manifest", manifest, "--out", str(tmp / f"{name}.ckpt"),
             "--max-steps", str(steps), *flags])
    wav = str(corpus / "clip_0000.wav")
    for name in ("full", "lora"):
        for beam in ("1", "3"):
            for correct in ([], ["--correct"]):
                run(["caption", "--ckpt", str(tmp / f"{name}.ckpt"), "--wav", wav,
                     "--beam", beam, *correct])
    run(["evaluate", "--ckpt", str(tmp / "full.ckpt"), "--manifest", manifest,
         "--correct", "--out", str(tmp / "evaluate.json")])

    entries = data.parse_manifest(manifest)
    captions = [ONE_WORD] + [e.captions[0] for e in entries[1:]]
    for n in (len(entries), 1):
        files = {"candidates": [{"id": e.id, "caption": c}
                                for e, c in zip(entries[:n], captions)],
                 "references": [{"id": e.id, "captions": e.captions}
                                for e in entries[:n]],
                 "spice": [{"id": e.id, "spice": 0.5} for e in entries[:n]]}
        for name, rows in files.items():
            (tmp / f"{name}.jsonl").write_text(
                "".join(json.dumps(r) + "\n\n" for r in rows), encoding="utf-8")
        run(["score", "--candidates", str(tmp / "candidates.jsonl"),
             "--references", str(tmp / "references.jsonl"),
             "--spice", str(tmp / "spice.jsonl"), "--out", str(tmp / "score.json")])
    run(["correct", "--text", LOOP])


def reach(clips: int, steps: int) -> dict:
    paths = sorted(PACKAGE.glob("*.py"))
    reached = {str(p): set() for p in paths}
    sys.settrace(trace_into(reached))
    try:
        for p in paths:  # imported under the trace
            importlib.import_module("audiocap" if p.stem == "__init__"
                                    else f"audiocap.{p.stem}")
        with tempfile.TemporaryDirectory() as tmp:
            run_commands(Path(tmp), clips, steps)
    finally:
        sys.settrace(None)
    report = {}
    for p in paths:
        source = p.read_text(encoding="utf-8")
        missed = executable_lines(compile(source, str(p), "exec")) - reached[str(p)]
        tree = ast.parse(source)
        errors, names = error_lines(tree), scope_names(tree)
        other: dict[str, list[int]] = {}
        for line in sorted(missed - errors):
            other.setdefault(names.get(line, "<module>"), []).append(line)
        report[p.name] = {"error": sorted(missed & errors), "other": other}
    return report


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clips", type=int, default=8)
    parser.add_argument("--steps", type=int, default=2)
    args = parser.parse_args()
    print(json.dumps(reach(args.clips, args.steps), sort_keys=True))
