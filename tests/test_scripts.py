import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_correction_stub_demo_prints_canned_revision():
    # the script serves its stub endpoint on 127.0.0.1 only
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "correction_stub_demo.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "-- output: a man speaks while a horse gallops" in run.stdout


def run_census(*args):
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "design_census.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_design_census_counts_the_package():
    counts = run_census()
    assert set(counts) == {"src_lines", "settable_values"}
    assert counts["src_lines"] == sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in (ROOT / "src" / "audiocap").glob("*.py"))
    assert counts["settable_values"] > 0


def test_design_census_counting_rule(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, *, c=2, d): return lambda x=0: x\n"
        "@dataclass\n"
        "class C:\n"
        "    plain: int\n"
        "    n: int = 3\n"
        "    xs: list = field(default_factory=list)\n"
        "    LIMIT = 4\n"
        "class NotData:\n"
        "    m: int = 5\n")
    # b, c and the lambda's x; the dataclass's n and xs
    assert run_census(str(tmp_path)) == {"src_lines": 10, "settable_values": 5}


def test_fingerprint_repeats_itself():
    runs = [subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "fingerprint.py"), "--steps", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=300) for _ in range(2)]
    assert all(run.returncode == 0 for run in runs), runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    printed = json.loads(runs[0].stdout)
    assert printed["steps"] == 3 and printed["blas_threads"] == 1
    assert printed["census"] == run_census()
    assert printed["checkpoint"]["bytes"] > 0


def test_reach_lists_every_module_and_reaches_train():
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reach.py"),
         "--clips", "2", "--steps", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    missed = json.loads(run.stdout)
    package = ROOT / "src" / "audiocap"
    assert set(missed) == {p.name for p in package.glob("*.py")}
    tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    train = next(n for n in ast.walk(tree)
                 if isinstance(n, ast.FunctionDef) and n.name == "_cmd_train")
    body = set(range(train.body[0].lineno, train.end_lineno + 1))
    assert not body & set(missed["cli.py"]["other"])
