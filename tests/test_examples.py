"""Smoke test: every example script and the weather calibration tool run
to completion (exit 0) in a fresh interpreter.

The scripts are end-to-end users of the public API; this is the only place
they run, so an API change that breaks one fails here.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
REPO_ROOT = SRC.parent
SCRIPTS = sorted((REPO_ROOT / "examples").glob("*.py")) \
    + [REPO_ROOT / "tools" / "calibrate_weather.py"]


@pytest.mark.parametrize("script", SCRIPTS,
                         ids=[f"{p.parent.name}/{p.name}" for p in SCRIPTS])
def test_script_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, str(script)], cwd=REPO_ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.strip()


def test_calibration_violation_exits_one(monkeypatch, capsys):
    # A constraint the shipped weather cannot meet makes the tool fail.
    monkeypatch.syspath_prepend(str(REPO_ROOT / "tools"))
    import calibrate_weather

    monkeypatch.setattr(calibrate_weather, "CONSTRAINTS",
                        (("madrid", 540.0, 720.0, False),))
    assert calibrate_weather.main() == 1
    assert "CALIBRATION BROKEN" in capsys.readouterr().out
