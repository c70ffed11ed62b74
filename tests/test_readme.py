"""The examples in README.md, run as written.

Every `$ glinv ...` line of a fenced block is run through `python -m glinv`
and its stdout is compared with the lines shown under it, up to the next
`$` line or the end of the block. A `...` line stands for any number of
output lines before the next line shown.
"""

import os
import re
import shlex
import subprocess
import sys

import pytest

import glinv

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
README = open(os.path.join(ROOT, "README.md"), encoding="utf-8").read()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)


def _examples():
    out = []
    for lang, body in BLOCKS:
        if lang:
            continue
        command = None
        for line in body.splitlines():
            if line.startswith("$ "):
                command = [line[2:], []]
                out.append(command)
            elif command is not None:
                command[1].append(line)
    for command in out:
        while command[1] and not command[1][-1]:
            command[1].pop()
    return out


EXAMPLES = _examples()


def _matches(shown: list[str], got: list[str]) -> bool:
    """Whether got reads as shown, each `...` line skipping output lines."""
    if not shown:
        return not got
    if shown[0] == "...":
        return any(_matches(shown[1:], got[k:]) for k in range(len(got) + 1))
    return bool(got) and got[0] == shown[0] and _matches(shown[1:], got[1:])


def test_readme_has_examples():
    assert len(EXAMPLES) >= 12
    assert all(shlex.split(cmd)[0] == "glinv" for cmd, _ in EXAMPLES)


@pytest.mark.parametrize("command,shown", EXAMPLES, ids=[cmd for cmd, _ in EXAMPLES])
def test_readme_example(command, shown):
    argv = shlex.split(command)[1:]
    proc = subprocess.run([sys.executable, "-m", "glinv", *argv], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert _matches(shown, proc.stdout.splitlines()), proc.stdout


def test_readme_library_snippet():
    snippets = [body for lang, body in BLOCKS if lang == "python"]
    assert len(snippets) == 1
    proc = subprocess.run([sys.executable, "-c", snippets[0]], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "6"


def test_every_exported_name_resolves():
    for name in glinv.__all__:
        assert getattr(glinv, name) is not None, name
