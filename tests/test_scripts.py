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
