import os
import subprocess
import sys
import time

import pytest

import d2dcap
import d2dcap.experiments as expmod
from d2dcap.cli import main
from d2dcap.experiments import ExperimentConfig


def write_tiny_config(path, **overrides):
    base = dict(num_uec=0, num_ued=2, num_channels=2, cell_radius_m=60.0,
                topology_seed=25, noise_model="none", horizon=40,
                realizations=2, base_seed=100)
    base.update(overrides)
    path.write_text(ExperimentConfig(**base).to_text())
    return str(path)


def test_samples_calc_bounded(capsys):
    assert main(["samples-calc", "--tau", "0.1", "--xi", "1e-5"]) == 0
    out = capsys.readouterr().out
    assert "samples per estimate N = 1645" in out
    assert "bounded" in out


def test_samples_calc_gaussian(capsys):
    rc = main(["samples-calc", "--tau", "0.1", "--xi", "0.5",
               "--noise", "gaussian", "--sigma", "1.0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "theta_star = 0.049999999258046865" in out
    assert "numerator = 22.079441541679834" in out
    assert "denominator = 0.00125" in out
    assert "samples per estimate N = 17664" in out


def test_run_blla_writes_tables(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path / "tiny.cfg")
    out_dir = tmp_path / "tables"
    rc = main(["run-blla", "--config", cfg_path, "--out", str(out_dir),
               "--seed", "7", "--realizations", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "run: final-window sum rate" in out
    assert "config hash" in out
    assert (out_dir / "manifest.txt").exists()
    assert (out_dir / "run_trace.csv").exists()
    # the seed override must land in the emitted config
    written = ExperimentConfig.from_file(out_dir / "config.txt")
    assert written.base_seed == 7


def test_run_br_accepts_sample_budget(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path / "tiny.cfg")
    rc = main(["run-br", "--config", cfg_path, "--br-samples", "3"])
    assert rc == 0
    assert "final-window sum rate" in capsys.readouterr().out


def test_sweep_channels_smoke(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path / "tiny.cfg", horizon=20)
    rc = main(["sweep-channels", "--config", cfg_path, "--counts", "2,3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "channels_2: final-window sum rate" in out
    assert "channels_3: final-window sum rate" in out


def test_sweep_ues_smoke(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path / "tiny.cfg", horizon=20,
                                 track_optimum=False)
    rc = main(["sweep-ues", "--config", cfg_path, "--counts", "1,2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ueds_1:" in out and "ueds_2:" in out


def test_analyze_stationary_desk_default(capsys):
    rc = main(["analyze-stationary", "--tau-grid", "0.1,0.05"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "states: 81" in out
    assert "brute-force optimum:" in out
    assert "verdict: PASS" in out


def test_analyze_stationary_single_tau(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path / "tiny.cfg")
    rc = main(["analyze-stationary", "--config", cfg_path,
               "--tau-grid", "0.1"])
    assert rc == 0
    assert "no stability verdict" in capsys.readouterr().out


def test_bad_config_path_is_reported(capsys):
    rc = main(["run-blla", "--config", "/nonexistent/nowhere.cfg"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_badly_typed_config_value_is_reported(tmp_path, capsys):
    cfg_path = tmp_path / "typo.cfg"
    cfg_path.write_text("num_ued = 2\nhorizon = 5OO\n")
    assert main(["run-blla", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "'horizon' on line 2" in err


def test_analyze_stationary_refuses_oversized_dense_kernel(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path / "big.cfg", num_ued=9,
                                 num_channels=3)
    t0 = time.perf_counter()
    rc = main(["analyze-stationary", "--config", cfg_path])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    # the largest benchmark instance, 3^6 = 729 profiles, still runs
    cfg_path = write_tiny_config(tmp_path / "729.cfg", num_ued=6,
                                 num_channels=3)
    rc = main(["analyze-stationary", "--config", cfg_path,
               "--tau-grid", "0.1,0.05"])
    assert rc == 0
    assert "states: 729" in capsys.readouterr().out


def test_bad_counts_are_reported(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path / "tiny.cfg")
    rc = main(["sweep-channels", "--config", cfg_path, "--counts", "2,x"])
    assert rc == 2
    assert "comma-separated integers" in capsys.readouterr().err


def _use_cpus(monkeypatch, n):
    monkeypatch.setattr(expmod.os, "sched_getaffinity",
                        lambda pid: set(range(n)), raising=False)


def test_cpu_count_does_not_change_the_output(tmp_path, capsys, monkeypatch):
    cfg_path = write_tiny_config(tmp_path / "tiny.cfg", realizations=3)
    out_dir = tmp_path / "tables"
    tables = []
    for cpus in (1, 2):
        _use_cpus(monkeypatch, cpus)
        assert main(["run-blla", "--config", cfg_path,
                     "--out", str(out_dir)]) == 0
        tables.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
    assert tables[0] == tables[1]
    outs = capsys.readouterr().out.splitlines()
    assert outs[:len(outs) // 2] == outs[len(outs) // 2:]


def test_one_realization_runs_without_a_pool(tmp_path):
    # the pool's modules stay unimported, so they cost nothing at start-up
    cfg_path = write_tiny_config(tmp_path / "tiny.cfg", realizations=1)
    code = ("import sys; from d2dcap.cli import main; "
            f"assert main(['run-blla', '--config', {cfg_path!r}]) == 0; "
            "assert 'multiprocessing' not in sys.modules")
    src = os.path.dirname(os.path.dirname(d2dcap.__file__))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=src),
                   stdout=subprocess.DEVNULL, timeout=60)


def test_worker_error_is_reported(tmp_path, capsys, monkeypatch):
    cfg_path = write_tiny_config(tmp_path / "tiny.cfg", realizations=3)
    real_run_one = expmod._run_one

    def failing(config, topology, seed):
        if seed == config.base_seed + 1:
            raise ValueError("realization 1 failed")
        return real_run_one(config, topology, seed)

    monkeypatch.setattr(expmod, "_run_one", failing)
    _use_cpus(monkeypatch, 2)
    rc = main(["run-blla", "--config", cfg_path])
    assert rc == 2
    assert "realization 1 failed" in capsys.readouterr().err


def test_unknown_preset_rejected_by_parser():
    with pytest.raises(SystemExit):
        main(["run-blla", "--preset", "galaxy"])


def test_missing_subcommand_rejected():
    with pytest.raises(SystemExit):
        main([])
