"""Smoke test: every script in demos/ runs to completion."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.slow
def test_demos_run(tmp_path):
    # about 5 s in all; cwd is tmp_path, as verification_report.py writes ./reports
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    scripts = sorted((ROOT / "demos").glob("*.py"))
    assert scripts
    for script in scripts:
        proc = subprocess.run(
            [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, f"{script.name}: {proc.stderr}"
