import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


@pytest.mark.parametrize("script,args,header", [
    ("betti_report.py", ["3", "3", "2", "1"],
     "powers b=1 of the 2x2 minors, 3x3 matrix"),
    ("regularity_scan.py", ["--max-n", "3", "--max-d", "3"],
     " n  p  d   power pred   symb pred    sat pred"),
])
def test_script_runs(script, args, header):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        capture_output=True, text=True, env=ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header


@pytest.mark.parametrize("args,message", [
    (["3", "3", "4", "1"], "error: minor size a must be in 1..3, got 4\n"),
    (["2", "3", "1", "1"], "error: need m >= n >= 1, got m=2, n=3\n"),
])
def test_betti_report_domain_error_is_one_line(args, message):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "betti_report.py"), *args],
        capture_output=True, text=True, env=ENV,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == message


@pytest.mark.parametrize("script,args", [
    ("betti_report.py", ["3", "3", "2", "1"]),
    ("regularity_scan.py", ["--max-n", "3", "--max-d", "3"]),
])
def test_script_ends_quietly_on_closed_stdout(script, args):
    # the pipe is closed before the script writes, so its first flush fails
    proc = subprocess.Popen(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""
