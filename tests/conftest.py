"""Shared test plumbing.

Collects one PASS/FAIL line per acceptance criterion and prints the table
after the run.  Heavy trajectory aggregates that several criteria share are
memoized per session.
"""

import time
from contextlib import contextmanager
from functools import lru_cache

import pytest
from hypothesis import settings

from d2dcap.experiments import ExperimentConfig, run_experiment

# property tests draw the same examples on every run, so Tier-1 stays
# reproducible; nothing is read from or written to an example database
settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None, max_examples=40)
settings.load_profile("tier1")

_ACCEPTANCE: dict = {}


@contextmanager
def _criterion(num: int, name: str):
    info = {"ok": False, "detail": ""}
    t0 = time.perf_counter()
    try:
        yield info
    except BaseException as exc:
        _ACCEPTANCE[num] = (name, False, f"error: {exc!r}",
                            time.perf_counter() - t0)
        raise
    elapsed = time.perf_counter() - t0
    _ACCEPTANCE[num] = (name, bool(info["ok"]), info["detail"], elapsed)
    assert info["ok"], f"criterion {num} ({name}): {info['detail']}"


@pytest.fixture
def criterion():
    return _criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        name, ok, detail, elapsed = _ACCEPTANCE[num]
        status = "PASS" if ok else "FAIL"
        tr.write_line(f"ACCEPTANCE {num:2d} {name}: {status} "
                      f"({detail}; {elapsed:.1f} s)")


# ----------------------------------------------------------------------
# shared instance: 4 D2D pairs, 3 channels, dense cell, 6-element optimal set

ACCEPT_INSTANCE = dict(num_uec=0, num_ued=4, num_channels=3,
                       cell_radius_m=60.0, topology_seed=25,
                       noise_model="bounded", horizon=500, realizations=100,
                       base_seed=3000, track_optimum=True)


def accept_config(**overrides) -> ExperimentConfig:
    merged = {**ACCEPT_INSTANCE, **overrides}
    return ExperimentConfig(**merged)


@lru_cache(maxsize=None)
def decreasing_point():
    """BLLA with the log-decreasing schedule; shared by two criteria."""
    cfg = accept_config(schedule="log_decreasing", tau_scale=0.1)
    return run_experiment(cfg).points[0]


@lru_cache(maxsize=None)
def fixed_point(tau: float):
    cfg = accept_config(schedule="fixed", tau=tau)
    return run_experiment(cfg).points[0]


@lru_cache(maxsize=None)
def br_point(n_samples: int):
    cfg = accept_config(algorithm="br", br_samples=n_samples)
    return run_experiment(cfg).points[0]
