import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script,args,header", [
    ("betti_report.py", ["3", "3", "2", "1"],
     "powers b=1 of the 2x2 minors, 3x3 matrix"),
    ("regularity_scan.py", ["--max-n", "3", "--max-d", "3"],
     " n  p  d   power pred   symb pred    sat pred"),
])
def test_script_runs(script, args, header):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header
