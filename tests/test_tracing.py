"""The benchmark tracer's contract with the package: the boundaries that
``perfbench/tracing.py`` wraps still exist, and its per-command totals see
the work of a learning run and of an exact analysis."""

import importlib.util
import pathlib

import pytest

import d2dcap.cli
from d2dcap.experiments import ExperimentConfig

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" \
    / "tracing.py"
# the per-step functions of an earlier runner; one slot loop replaced them
RETIRED = {"d2dcap.learning.blla_step", "d2dcap.learning.better_response_step"}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_command(tracing, tmp_path, argv, **config):
    """Run one CLI command on a 2-pair, 2-channel config under the tracer;
    returns the boundaries it lacks and the command's totals."""
    base = dict(num_uec=0, num_ued=2, num_channels=2, cell_radius_m=60.0,
                topology_seed=25, base_seed=100)
    path = tmp_path / "tiny.cfg"
    path.write_text(ExperimentConfig(**{**base, **config}).to_text())
    tracer = tracing.Tracer()
    with tracer.installed():
        assert d2dcap.cli.main([*argv, "--config", str(path)]) == 0
    return tracer.missing, tracing.command_totals(tracer.take())


def test_tracer_sees_a_learning_run(tracing, tmp_path):
    # one realization runs in this process, where the tracer is installed
    missing, totals = traced_command(
        tracing, tmp_path, ["run-blla"], noise_model="bounded", tau=0.1,
        horizon=12, realizations=1, track_optimum=False)
    assert set(missing) <= RETIRED
    assert totals["game.utility_mean.calls"] > 0
    assert totals["samples"] > 0
    assert totals["coeffs"] > 0
    assert totals["slots"] == 12


def test_tracer_sees_an_exact_analysis(tracing, tmp_path):
    missing, totals = traced_command(
        tracing, tmp_path, ["analyze-stationary", "--tau-grid", "0.1,0.05"],
        noise_model="none")
    assert set(missing) <= RETIRED
    assert totals["states"] == 4
    assert totals["analysis.exact_transition_matrix.calls"] == 2
