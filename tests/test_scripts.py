import csv
import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


@pytest.mark.parametrize("script", ["synth_quickstart.py",
                                    "sampler_bias_study.py"])
def test_script_help_runs(script):
    # each script puts src/ on its own path, so a broken import fails here
    done = subprocess.run([sys.executable, os.path.join(SCRIPTS, script),
                           "--help"], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


def test_bias_study_writes_a_table_per_budget(tmp_path):
    done = subprocess.run([sys.executable,
                           os.path.join(SCRIPTS, "sampler_bias_study.py"),
                           "--n", "12", "--budgets", "4,12", "--trials",
                           "50", "--out-dir", str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for budget in (4, 12):
        with open(tmp_path / f"bias_m{budget}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for mode in ("uniform", "frequency"):
            mine = [r for r in rows if r["mode"] == mode]
            assert sorted(int(r["vertex_id"]) for r in mine) == \
                list(range(12))
            if budget == 12:  # one batch holds every vertex: exact
                assert all(float(r["bias"]) == 0.0 for r in mine)


def test_quickstart_trains_and_writes_its_maps(tmp_path):
    done = subprocess.run([sys.executable,
                           os.path.join(SCRIPTS, "synth_quickstart.py"),
                           "--size", "16", "--bands", "8", "--epochs", "2",
                           "--out-dir", str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for name in ("map_minigcn.ppm", "map_funet-c.ppm", "truth.ppm",
                 "legend.txt"):
        assert (tmp_path / name).stat().st_size > 0
