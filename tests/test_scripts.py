"""Smoke tests for the scripts under scripts/: each runs as its own process,
exits 0 and prints its table header."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_stacking_experiment_prints_its_table():
    out = run_script("stacking_experiment.py", "--samples", "200", "--models", "3",
                     "--epochs", "2")
    lines = out.splitlines()
    assert f"{'combiner':<22}{'F2 @ 0.5':>10}{'tuned F2':>10}" in lines
    assert any(line.startswith("stacked meta-learner") for line in lines)


def test_scoreboard_consistency_prints_each_board():
    lines = run_script("scoreboard_consistency.py").splitlines()
    for board in ("single_model_scoreboard.csv", "stacked_thresholded_scoreboard.csv"):
        header = lines[lines.index(f"== {board} ==") + 1]
        assert header.startswith(f"{'class':<20}{'printed F2':>12}{'recomputed':>12}")
