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


def test_sample_complexity_demo():
    lines = run_demo("sample_complexity.py")
    assert lines[0] == "failure budget xi = 1e-05"
    # tau = 0.1: Hoeffding's 1645 and the closed-form Gaussian count
    assert lines[4].split() == ["0.1", "1645", "6580", "0.10000"]
    assert len(lines) == 9


@pytest.mark.slow
def test_temperature_schedules_demo():
    lines = run_demo("temperature_schedules.py")
    rows = lines[1:5]
    assert [r[:22].strip() for r in rows] == [
        "fixed tau=0.2", "fixed tau=0.1", "fixed tau=0.05",
        "tau = 0.1/ln(1+t)"]
    for row in rows:
        occ, rate = map(float, row[22:].split())
        assert 0.0 <= occ <= 1.0 and rate > 0.0
    assert lines[-1].startswith("occupancy: fraction of the last 25%")
