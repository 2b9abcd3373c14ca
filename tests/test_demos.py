"""Smoke test of the demos: each runs to completion in a fresh interpreter.

Demo 04 is left out: it trains for several seconds, and the acceptance
tests already cover its training path.
"""

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = ("01_analogy_geometry.py", "02_autodiff_tape.py", "03_encode_and_rank.py",
         "05_cli_pipeline.py")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path, src_env):
    src_env["TMPDIR"] = str(tmp_path)  # demo 05's scratch directory goes there
    proc = subprocess.run([sys.executable, str(REPO / "demos" / name)], cwd=tmp_path, env=src_env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp_path.glob("analogia-demo-*"))  # demo 05 removes its scratch directory
