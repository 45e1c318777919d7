import filecmp
import math
from dataclasses import replace

import numpy as np
import pytest

import d2dcap.experiments as expmod
from d2dcap.experiments import (
    ExperimentConfig,
    analyze_stationary,
    run_experiment,
    sweep_channels,
    sweep_ues,
)
from d2dcap.learning import run_blla


def tiny_config(**overrides):
    base = dict(num_uec=0, num_ued=2, num_channels=2, cell_radius_m=60.0,
                topology_seed=25, noise_model="none", horizon=40,
                realizations=3, base_seed=100, track_optimum=True)
    base.update(overrides)
    return ExperimentConfig(**base)


# ----------------------------------------------------------------------
# config plumbing


def test_config_text_round_trip():
    cfg = tiny_config(algorithm="br", br_samples=7, noise_model="gaussian",
                      noise_sigma=0.3, out_dir="")
    again = ExperimentConfig.from_text(cfg.to_text())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


def test_config_file_round_trip(tmp_path):
    cfg = tiny_config()
    path = tmp_path / "run.cfg"
    cfg.to_file(path)
    assert ExperimentConfig.from_file(path) == cfg


def test_config_accepts_bare_strings():
    cfg = ExperimentConfig.from_text("algorithm = blla\nschedule = fixed\n")
    assert cfg.algorithm == "blla"


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="line 2"):
        ExperimentConfig.from_text("tau = 0.1\nbogus_key = 3\n")
    with pytest.raises(ValueError):
        ExperimentConfig.from_text("just some words\n")


def test_config_rejects_badly_typed_values():
    with pytest.raises(ValueError, match="'horizon' on line 2"):
        ExperimentConfig.from_text("tau = 0.1\nhorizon = 5OO\n")
    with pytest.raises(ValueError, match="'realizations'"):
        ExperimentConfig.from_text("realizations = 2.5\n")
    with pytest.raises(ValueError, match="'track_optimum'"):
        ExperimentConfig.from_text("track_optimum = 1\n")
    with pytest.raises(ValueError, match="'horizon'"):
        ExperimentConfig.from_text("horizon = True\n")
    with pytest.raises(ValueError, match="'algorithm'"):
        ExperimentConfig.from_text("algorithm = 3\n")
    cfg = ExperimentConfig.from_text("tau = 1\nxi = 1e-4\nhorizon = 50\n")
    assert (cfg.tau, cfg.xi, cfg.horizon) == (1, 1e-4, 50)


def test_config_built_in_code_is_type_checked():
    with pytest.raises(ValueError, match="'horizon' expects int"):
        ExperimentConfig(horizon="5").validate()
    with pytest.raises(ValueError, match="'shared_topology'"):
        ExperimentConfig(shared_topology=1).validate()
    with pytest.raises(ValueError, match="'tau'"):
        run_experiment(ExperimentConfig(tau="0.1", realizations=1))
    ExperimentConfig(tau=1, noise_width=2).validate()


def test_config_hash_tracks_content():
    a = tiny_config()
    b = tiny_config(tau=0.06)
    assert a.config_hash() != b.config_hash()
    assert len(a.config_hash()) == 16


def test_config_validation_guards():
    with pytest.raises(ValueError):
        tiny_config(algorithm="annealing").validate()
    with pytest.raises(ValueError):
        tiny_config(noise_model="poisson").validate()
    with pytest.raises(ValueError):
        tiny_config(realizations=0).validate()
    with pytest.raises(ValueError):
        tiny_config(num_uec=3, num_channels=2).validate()


def test_schedule_and_noise_builders():
    assert tiny_config(schedule="fixed", tau=0.2).schedule_obj().tau_at(5) == 0.2
    dec = tiny_config(schedule="log_decreasing", tau_scale=0.2).schedule_obj()
    assert dec.tau_at(1) == pytest.approx(0.2 / math.log(2.0))
    assert tiny_config(noise_model="none").noise_obj() is None
    assert tiny_config(noise_model="bounded").noise_obj() is not None


# ----------------------------------------------------------------------
# running


def test_single_realization_matches_direct_run():
    cfg = tiny_config(realizations=1)
    point = run_experiment(cfg).points[0]
    game = cfg.game(cfg.topology(0), mode="deterministic")
    traj = run_blla(game, cfg.schedule_obj(), None, cfg.xi, cfg.horizon,
                    cfg.base_seed)
    assert np.array_equal(point.mean_trace, traj.sum_rate)
    assert point.final_window_mean == traj.final_window_mean_sum_rate()
    assert point.final_window_se == 0.0
    assert point.seed_range == (100, 100)


def test_experiment_is_reproducible_byte_for_byte(tmp_path):
    cfg = tiny_config(out_dir=str(tmp_path))
    run_experiment(cfg)
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert "manifest.txt" in first
    run_experiment(cfg)
    second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert first == second


def test_output_directory_stays_out_of_the_tables(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    results = [run_experiment(tiny_config(out_dir=str(d))) for d in dirs]
    assert results[0].config_hash == results[1].config_hash
    first, second = ({p.name: p.read_bytes() for p in d.iterdir()}
                     for d in dirs)
    assert first.keys() == second.keys()
    for name in first.keys() - {"config.txt"}:
        assert first[name] == second[name], name
    lines = [f["config.txt"].decode().splitlines() for f in (first, second)]
    assert len(lines[0]) == len(lines[1])
    differing = [x for x, y in zip(*lines) if x != y]
    assert [x.split(" = ")[0] for x in differing] == ["out_dir"]


def test_output_files_and_provenance(tmp_path):
    cfg = tiny_config(out_dir=str(tmp_path))
    result = run_experiment(cfg)
    names = {"config.txt", "summary.csv", "run_trace.csv",
             "run_final_profiles.csv", "manifest.txt"}
    assert names <= {p.name for p in tmp_path.iterdir()}
    manifest = (tmp_path / "manifest.txt").read_text().splitlines()
    assert manifest[0] == f"config_hash {result.config_hash}"
    trace = (tmp_path / "run_trace.csv").read_text().splitlines()
    assert trace[0].startswith("# config_hash=")
    assert any(line.startswith("# seeds=100..102") for line in trace[:4])
    profiles = (tmp_path / "run_final_profiles.csv").read_text().splitlines()
    assert len(profiles) > 3  # provenance, header, one row per realization
    loaded = ExperimentConfig.from_file(tmp_path / "config.txt")
    assert loaded == cfg


def test_tracked_optimum_statistics():
    cfg = tiny_config()
    point = run_experiment(cfg).points[0]
    assert point.phi_star is not None and point.optimum_keys
    assert 0.0 <= point.mean_occupancy <= 1.0
    assert point.window_slots == 10
    off = run_experiment(replace(cfg, track_optimum=False)).points[0]
    assert off.mean_occupancy is None and off.phi_star is None


def test_no_active_players_gives_constant_trace():
    cfg = tiny_config(num_uec=1, num_ued=0, num_channels=2)
    point = run_experiment(cfg).points[0]
    assert np.all(point.mean_trace == point.mean_trace[0])
    assert point.mean_occupancy == 1.0


def test_truncated_trajectory_is_an_error(monkeypatch):
    cfg = tiny_config()

    def short_run(game, schedule, noise, xi, horizon, seed):
        from d2dcap.learning import run_blla
        return run_blla(game, schedule, noise, xi, horizon - 1, seed)

    monkeypatch.setattr(expmod, "run_blla", short_run)
    with pytest.raises(RuntimeError, match="expected 40"):
        run_experiment(cfg)


def test_per_realization_topologies():
    cfg = tiny_config(shared_topology=False, realizations=3, num_ued=3,
                      num_channels=3)
    t0 = cfg.topology(0)
    t1 = cfg.topology(1)
    assert not np.array_equal(t0.mean_gain_matrix, t1.mean_gain_matrix)
    point = run_experiment(cfg).points[0]
    # each realization is scored against its own topology's optimum
    occ = []
    for k in range(3):
        game = cfg.game(cfg.topology(k), mode="deterministic")
        traj = run_blla(game, cfg.schedule_obj(), None, cfg.xi, cfg.horizon,
                        cfg.base_seed + k)
        occ.append(traj.occupancy(expmod.analysis.brute_force_optimum(
            game).keys()))
    assert point.mean_occupancy == float(np.mean(occ))
    assert point.phi_star is None and point.optimum_keys is None


# ----------------------------------------------------------------------
# sweeps


def test_sweep_channels_is_paired_and_labeled(tmp_path):
    cfg = tiny_config(num_ued=2, out_dir=str(tmp_path))
    result = sweep_channels(cfg, (2, 3))
    assert [p.value for p in result.points] == [2, 3]
    assert all(p.param == "channels" for p in result.points)
    assert all(p.seed_range == (100, 102) for p in result.points)
    files = {p.name for p in tmp_path.iterdir()}
    assert "channels_2_trace.csv" in files
    assert "channels_3_final_profiles.csv" in files


def test_sweep_channels_respects_uec_floor():
    cfg = tiny_config(num_uec=2, num_ued=1, num_channels=3)
    with pytest.raises(ValueError):
        sweep_channels(cfg, (1, 2))


def test_sweep_ues_runs():
    cfg = tiny_config(track_optimum=False, horizon=20)
    result = sweep_ues(cfg, (1, 2))
    assert [p.value for p in result.points] == [1, 2]
    assert all(p.param == "ueds" for p in result.points)
    assert result.points[0].config.num_ued == 1


# ----------------------------------------------------------------------
# exact-analysis report


def test_analyze_stationary_verdict_and_gap():
    cfg = tiny_config()
    report = analyze_stationary(cfg, (0.1, 0.05, 0.02))
    assert report.verdict is True
    assert report.max_direct_gibbs_gap <= 1e-9
    assert report.pi_tree is not None  # 4 states, under the tree cap
    # tree product dynamic range limits accuracy on the coldest row
    assert float(np.abs(report.pi_tree[0] - report.pi_gibbs[0]).max()) <= 1e-12
    assert np.all(np.isfinite(report.pi_tree))
    assert report.direct_failed_taus == ()
    assert set(report.stable_keys) <= set(report.states)


def test_analyze_stationary_survives_frozen_direct_solve():
    cfg = tiny_config()
    report = analyze_stationary(cfg, (0.05, 0.01))
    assert report.direct_failed_taus == (0.01,)
    assert np.all(np.isnan(report.pi_direct[1]))
    assert not np.any(np.isnan(report.pi_gibbs))
    assert report.verdict is True


def test_analyze_stationary_single_tau_has_no_verdict():
    report = analyze_stationary(tiny_config(), (0.1,))
    assert report.verdict is None and report.stable_keys is None


def test_analyze_stationary_size_guard():
    cfg = tiny_config(num_ued=13, num_channels=3)
    with pytest.raises(ValueError):
        analyze_stationary(cfg, (0.1, 0.05))


def test_analyze_stationary_writes_csv(tmp_path):
    cfg = tiny_config(out_dir=str(tmp_path))
    report = analyze_stationary(cfg, (0.1, 0.05))
    path = tmp_path / "stationary.csv"
    assert path.exists()
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "tau,state,pi_direct,pi_gibbs,pi_tree"
    assert len(lines) == 2 + 2 * len(report.states)
