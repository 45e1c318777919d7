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


# the full stdout of the two fast demos: every value they print (the
# kernel, the three stationary laws, the stable set, the resistances and
# the sample counts) is pinned to its printed digits
EXACT_ANALYSIS_STDOUT = """\
states (channel of pair 0 | pair 1): 0|0, 1|0, 0|1, 1|1
sum rates: 1.4068e+06 2.7532e+06 2.7532e+06 1.4068e+06

one-slot kernel at tau=0.1:
   0.50373   0.24813   0.24813   0.00000
   0.00187   0.99627   0.00000   0.00187
   0.00187   0.00000   0.99627   0.00187
   0.00000   0.24813   0.24813   0.50373

stationary law, three ways:
  elimination : 0.003732 0.496268 0.496268 0.003732
  Gibbs form  : 0.003732 0.496268 0.496268 0.003732
  tree theorem: 0.003732 0.496268 0.496268 0.003732

zero-temperature limit (stochastically stable): 0|1, 1|0
brute-force optimum: 0|1, 1|0

edge resistances (inf where no single switch connects):
       inf    0.0000    0.0000       inf
    0.4890       inf       inf    0.4890
    0.4890       inf       inf    0.4890
       inf    0.0000    0.0000       inf
minimum in-tree resistance 0.4890, rooted at 1|0; every minimizing tree has a zero-resistance edge: True
"""

SAMPLE_COMPLEXITY_STDOUT = """\
failure budget xi = 1e-05
   tau  N bounded(1)  N gaussian(1)     theta*
   0.5            34            136    0.50000
   0.2           287           1145    0.20000
   0.1          1645           6580    0.10000
  0.05         10581          42321    0.05000
  0.02        141127         564508    0.02000

the 1/tau^3 blow-up is why decreasing-temperature runs spend almost all their samples in the last slots
"""


def test_exact_analysis_demo():
    lines = run_demo("exact_analysis.py")
    assert lines == EXACT_ANALYSIS_STDOUT.splitlines()
    assert after(lines, "zero-temperature limit") \
        == after(lines, "brute-force optimum")


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
    assert lines == SAMPLE_COMPLEXITY_STDOUT.splitlines()


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
