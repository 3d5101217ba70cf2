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
