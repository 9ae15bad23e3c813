import ast
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_fingerprint_repeats_itself(tmp_path):
    curves = [tmp_path / f"curve{i}.txt" for i in range(2)]
    runs = [subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "fingerprint.py"), "--steps", "3",
         "--curve", str(curve)],
        cwd=ROOT, capture_output=True, text=True, timeout=300) for curve in curves]
    assert all(run.returncode == 0 for run in runs), runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    printed = json.loads(runs[0].stdout)
    assert printed["steps"] == 3 and printed["blas_threads"] == 1
    core = printed["blas_core"]  # null where numpy's BLAS is not OpenBLAS
    assert core is None or (isinstance(core, str) and core)
    assert printed["census"] == run_census()
    assert printed["checkpoint"]["bytes"] > 0
    # the curve file holds the lines whose digest is `loss_curve`
    text = curves[0].read_text(encoding="utf-8")
    assert text == curves[1].read_text(encoding="utf-8")
    lines = text.splitlines()
    assert len(lines) == 3 and text == "\n".join(lines) + "\n"
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == printed["loss_curve"]
    first = printed["first_step"]
    assert first["loss"] == lines[0] and float.fromhex(lines[0]) > 0
    assert len(first["scored_rows"]) == 64 and int(first["scored_rows"], 16)


@pytest.fixture(scope="module")
def reach():
    """reach.py's object at its defaults, the desk corpus and 2 steps."""
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "reach.py")],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_reach_lists_every_module_and_reaches_train(reach):
    package = ROOT / "src" / "audiocap"
    assert set(reach) == {p.name for p in package.glob("*.py")}
    assert "_cmd_train" not in reach["cli.py"]["other"]


def test_reach_classifies_lines_by_ast():
    spec = importlib.util.spec_from_file_location(
        "reach", ROOT / "scripts" / "reach.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    tree = ast.parse("class A:\n"
                     "    def f(self):\n"
                     "        def g():\n"
                     "            return 1\n"
                     "        assert g(), (\n"
                     "            'message')\n"
                     "x = 1\n")
    # an assertion's message runs only when it fails
    assert script.error_lines(tree) == {5, 6}
    assert script.scope_names(tree) == {2: "A", 3: "A.f", 4: "A.f.g",
                                        5: "A.f", 6: "A.f"}


def test_reach_gate_every_unreached_function_has_a_reason(reach):
    allowlist = json.loads(
        (ROOT / "scripts" / "reach_allowlist.json").read_text(encoding="utf-8"))
    assert all(isinstance(r, str) and r.strip() for r in allowlist.values())
    found = {f"{name}:{scope}" for name, lines in reach.items()
             for scope in lines["other"]}
    unlisted = sorted(found - set(allowlist))
    assert not unlisted, (
        "functions with lines no CLI command runs, not in "
        f"scripts/reach_allowlist.json: reach them, delete them or list them "
        f"with a reason: {unlisted}")
    stale = sorted(set(allowlist) - found)
    assert not stale, (
        "listed in scripts/reach_allowlist.json, but fully reached or gone: "
        f"drop them from the list: {stale}")
