"""Smoke tests: each demo script runs to its end on the current API."""

import os
import subprocess
import sys

import pytest

import d2dcap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_demo(name, *args):
    src = os.path.dirname(os.path.dirname(d2dcap.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name),
                          *args], env=env, capture_output=True, text=True,
                         timeout=600, check=True)
    return out.stdout.splitlines()


def after(lines, prefix):
    """The text after ``prefix`` and a colon on the first line starting
    with ``prefix``."""
    line = next(line for line in lines if line.startswith(prefix))
    return line[len(prefix):].split(":", 1)[1].strip()


def test_exact_analysis_demo():
    lines = run_demo("exact_analysis.py")
    assert after(lines, "states") == "0|0, 1|0, 0|1, 1|1"
    assert after(lines, "zero-temperature limit") \
        == after(lines, "brute-force optimum")
    assert lines[-1].endswith("zero-resistance edge: True")


@pytest.mark.slow
def test_quickstart_demo():
    lines = run_demo("quickstart.py", "--realizations", "2")
    assert lines[1].startswith("brute-force optimum over 81 profiles:")
    assert lines[1].endswith(", 6 equivalent assignments")
    share = float(after(lines, "fraction of late slots"))
    assert 0.0 <= share <= 1.0
    assert 0.0 < float(after(lines, "ratio to optimum")) <= 1.0
