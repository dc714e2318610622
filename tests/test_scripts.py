"""Example scripts: each runs to completion in a fresh interpreter.

``demo_pipeline.py`` exits 1 on an oracle mismatch or a float op on the
integer path, and it is the only run of a BiLSTM -> MadNorm-LSTM ->
attention decoder stack outside the unit tests.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["demo_pipeline.py", "--cell-bits", "8"],
        ["demo_pipeline.py", "--cell-bits", "16"],
        ["pwl_error_sweep.py"],
        ["cell_bitwidth_gap.py", "--seeds", "2"],
    ],
    ids=["demo_pipeline-cell8", "demo_pipeline-cell16", "pwl_error_sweep", "cell_bitwidth_gap"],
)
def test_script_exits_cleanly(argv, tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
