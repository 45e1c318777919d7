import filecmp
import logging
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import d2dcap.experiments as expmod
import d2dcap.learning as learning
from d2dcap.experiments import (
    ExperimentConfig,
    StationaryReport,
    analyze_stationary,
    run_experiment,
    sweep_channels,
    sweep_ues,
)
from d2dcap.game import CapGame
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
    path.write_text(cfg.to_text())
    assert ExperimentConfig.from_file(path) == cfg


def test_config_round_trips_strings_with_comment_marks_and_quotes():
    for out_dir in ("runs/#3", "a = b", "it's", 'say "hi" # not a comment',
                    "#"):
        cfg = tiny_config(out_dir=out_dir)
        assert ExperimentConfig.from_text(cfg.to_text()) == cfg
    cfg = ExperimentConfig.from_text("out_dir = 'runs/#3'  # trailing\n"
                                     "horizon = 7 # slots\n")
    assert (cfg.out_dir, cfg.horizon) == ("runs/#3", 7)
    assert ExperimentConfig.from_text(
        "out_dir = runs # bare\n").out_dir == "runs"
    with pytest.raises(ValueError, match="line 2 has an unterminated"):
        ExperimentConfig.from_text("tau = 0.1\nout_dir = 'runs/#3\n")


def test_equal_configs_stamp_one_hash():
    want = ExperimentConfig(tau=1.0).config_hash()
    for cfg in (ExperimentConfig(tau=1), ExperimentConfig.from_text("tau = 1")):
        assert cfg == ExperimentConfig(tau=1.0)
        assert type(cfg.tau) is float and "tau = 1.0" in cfg.to_text()
        assert cfg.config_hash() == want
    # int fields stay int, and bools are never turned into floats
    cfg = ExperimentConfig(horizon=7, shared_topology=True)
    assert type(cfg.horizon) is int and cfg.shared_topology is True
    with pytest.raises(ValueError, match="'tau'"):
        ExperimentConfig(tau=True).validate()
    with pytest.raises(ValueError, match="'tau' is too large"):
        ExperimentConfig.from_text("tau = " + "9" * 400)


def test_config_accepts_bare_strings():
    cfg = ExperimentConfig.from_text("algorithm = blla\nschedule = fixed\n")
    assert cfg.algorithm == "blla"


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="line 2"):
        ExperimentConfig.from_text("tau = 0.1\nbogus_key = 3\n")
    with pytest.raises(ValueError):
        ExperimentConfig.from_text("just some words\n")


def test_config_rejects_repeated_keys(tmp_path, capsys):
    from d2dcap.cli import main

    text = "horizon = 50\ntau = 0.1\nhorizon = 70\n"
    with pytest.raises(ValueError, match="'horizon' is set twice, on lines "
                                         "1 and 3"):
        ExperimentConfig.from_text(text)
    path = tmp_path / "twice.cfg"
    path.write_text(text)
    assert main(["run-blla", "--config", str(path)]) == 2
    assert "'horizon' is set twice" in capsys.readouterr().err


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


def test_gaussian_sample_counts_are_computed_once_per_temperature(
        monkeypatch):
    # a sigma no other test uses, so the process-wide cache starts cold;
    # 500 slots, a decreasing schedule's usual horizon, fill it with 500 taus
    cfg = tiny_config(noise_model="gaussian", noise_sigma=0.37,
                      schedule="log_decreasing", tau_scale=2.0, horizon=500)
    assert cfg.noise_obj() == cfg.noise_obj()
    assert hash(cfg.noise_obj()) == hash(cfg.noise_obj())
    calls = []
    real = learning.unbounded_sample_calc
    monkeypatch.setattr(learning, "unbounded_sample_calc",
                        lambda *args: calls.append(args) or real(*args))
    game = cfg.game(cfg.topology())

    def run():
        return run_blla(game, cfg.schedule_obj(), cfg.noise_obj(), cfg.xi,
                        cfg.horizon, cfg.base_seed)

    first = run()
    assert len(calls) == cfg.horizon  # one per slot's distinct tau(t)
    calls.clear()
    second = run()
    assert calls == []
    assert np.array_equal(first.n_samples, second.n_samples)
    assert np.array_equal(first.profiles, second.profiles)


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


def _no_realization(monkeypatch):
    """Make any realization fail the test; returns the seeds tried."""
    calls = []

    def spy(config, topology, seed):
        calls.append(seed)
        raise AssertionError("a realization ran")

    monkeypatch.setattr(expmod, "_run_one", spy)
    return calls


def test_oversized_profile_space_is_refused_before_any_realization(
        monkeypatch):
    # 3^13 = 1,594,323 profiles; the size does not depend on the layout
    cfg = tiny_config(num_ued=13, num_channels=3, shared_topology=False,
                      track_optimum=True, realizations=2)
    calls = _no_realization(monkeypatch)
    with pytest.raises(ValueError, match="profile space of size 1594323"):
        run_experiment(cfg)
    assert calls == []


# ----------------------------------------------------------------------
# parallel realizations


def _use_cpus(monkeypatch, n):
    """Make ``n`` CPUs usable, so runs of ``n`` or more realizations get
    ``n`` workers."""
    monkeypatch.setattr(expmod.os, "sched_getaffinity",
                        lambda pid: set(range(n)), raising=False)


def _tables(run, out_dir):
    """Bytes of every file ``run(out_dir)`` emits, keyed by name."""
    shutil.rmtree(out_dir, ignore_errors=True)
    run(str(out_dir))
    return {p.name: p.read_bytes() for p in out_dir.iterdir()}


@pytest.mark.parametrize("overrides", [
    dict(),
    dict(shared_topology=False, num_ued=3, num_channels=3),
    dict(algorithm="br", br_samples=3),
], ids=["blla-shared", "blla-unshared", "br"])
def test_tables_do_not_depend_on_the_worker_count(tmp_path, monkeypatch,
                                                  overrides):
    cfg = tiny_config(noise_model="bounded", tau=0.1, realizations=5,
                      **overrides)
    tables = []
    for workers in (1, 2, 3):
        _use_cpus(monkeypatch, workers)
        tables.append(_tables(lambda d: run_experiment(replace(cfg, out_dir=d)),
                              tmp_path / "out"))
    assert len(tables[0]) == 5
    assert tables[1] == tables[0]
    assert tables[2] == tables[0]


def test_sweep_tables_do_not_depend_on_the_worker_count(tmp_path,
                                                        monkeypatch):
    cfg = tiny_config(noise_model="bounded", tau=0.1, realizations=3,
                      horizon=20)
    tables = []
    for workers in (1, 2, 3):
        _use_cpus(monkeypatch, workers)
        tables.append(_tables(lambda d: sweep_channels(
            replace(cfg, out_dir=d), (2, 3)), tmp_path / "out"))
    assert "channels_3_final_profiles.csv" in tables[0]
    assert tables[1] == tables[0]
    assert tables[2] == tables[0]


def test_sweep_forks_one_pool_for_all_points(monkeypatch):
    import concurrent.futures
    real_executor = concurrent.futures.ProcessPoolExecutor
    made = []

    def counting(*args, **kwargs):
        made.append(args)
        return real_executor(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting)
    _use_cpus(monkeypatch, 2)
    result = sweep_channels(tiny_config(horizon=20), (2, 3, 4))
    assert len(result.points) == 3
    assert made == [(2,)]


def test_late_first_realization_is_still_reduced_first(monkeypatch):
    cfg = tiny_config(noise_model="bounded", tau=0.1, realizations=4,
                      shared_topology=False, num_ued=3, num_channels=3)
    _use_cpus(monkeypatch, 1)
    serial = run_experiment(cfg).points[0]
    real_run_one = expmod._run_one

    def first_finishes_last(config, topology, seed):
        time.sleep(0.3 if seed == config.base_seed else 0.0)
        return real_run_one(config, topology, seed)

    monkeypatch.setattr(expmod, "_run_one", first_finishes_last)
    _use_cpus(monkeypatch, 3)
    pooled = run_experiment(cfg).points[0]
    assert np.array_equal(pooled.mean_trace, serial.mean_trace)
    assert np.array_equal(pooled.per_realization_final,
                          serial.per_realization_final)
    assert np.array_equal(pooled.final_profiles, serial.final_profiles)
    assert pooled.mean_occupancy == serial.mean_occupancy


def test_worker_count_is_the_usable_cpus_capped(monkeypatch):
    _use_cpus(monkeypatch, 3)
    assert expmod._pool_size(100) == 3
    assert expmod._pool_size(2) == 2
    monkeypatch.delattr(expmod.os, "sched_getaffinity")
    monkeypatch.setattr(expmod.os, "cpu_count", lambda: 4)
    assert expmod._pool_size(100) == 4
    monkeypatch.delattr(expmod.os, "fork")
    assert expmod._pool_size(100) == 1


def test_worker_error_reaches_the_caller(monkeypatch):
    cfg = tiny_config(realizations=3)
    real_run_one = expmod._run_one

    def failing(config, topology, seed):
        if seed == cfg.base_seed + 1:
            raise ValueError("realization 1 failed")
        return real_run_one(config, topology, seed)

    # forked workers inherit the patched module
    monkeypatch.setattr(expmod, "_run_one", failing)
    _use_cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match="realization 1 failed"):
        run_experiment(cfg)


_DYING_WORKER = """
import os
import d2dcap.experiments as expmod
from concurrent.futures.process import BrokenProcessPool

real_run_one = expmod._run_one

def dying(config, topology, seed):
    if seed == config.base_seed + 1:
        os._exit(1)
    return real_run_one(config, topology, seed)

expmod._run_one = dying
os.sched_getaffinity = lambda pid: {0, 1}
cfg = expmod.ExperimentConfig(num_uec=0, num_ued=2, num_channels=2,
                              noise_model="none", horizon=40, realizations=3)
try:
    expmod.run_experiment(cfg)
except BrokenProcessPool:
    print("broken pool reported")
"""


def test_dead_worker_is_an_error_not_a_hang():
    # in a subprocess, so that a hang fails the timeout, not the suite
    src = os.path.dirname(os.path.dirname(expmod.__file__))
    done = subprocess.run([sys.executable, "-c", _DYING_WORKER],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "broken pool reported", done.stderr


def test_progress_is_logged_in_realization_order(caplog, capsys,
                                                 monkeypatch):
    cfg = tiny_config(realizations=3)
    _use_cpus(monkeypatch, 2)
    with caplog.at_level(logging.INFO, logger="d2dcap.experiments"):
        run_experiment(cfg)
    messages = [r.getMessage() for r in caplog.records
                if r.name == "d2dcap.experiments"]
    assert [m.split(" done in ")[0] for m in messages] == [
        "realization 1/3 (seed 100)", "realization 2/3 (seed 101)",
        "realization 3/3 (seed 102)"]
    assert all(m.endswith(" s") for m in messages)
    assert capsys.readouterr().out == ""


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


def test_stationary_csv_lines_match_golden_bytes():
    nan = math.nan
    report = StationaryReport(
        states=[(0, 1), (1, 0), (2, 12)], taus=[0.1, 0.005],
        pi_direct=np.array([[0.1 + 0.2, 5e-324, 1.0 - (0.1 + 0.2)],
                            [nan, nan, nan]]),
        pi_gibbs=np.array([[1 / 3, 1e-300, 2 / 3], [0.0, 0.25, 0.75]]),
        pi_tree=np.array([[1 / 3, 1e-300, 2 / 3], [1e-17, 0.5, 0.5 - 1e-17]]),
        stable_keys=None, optimum_keys=((2, 12),), verdict=None,
        max_direct_gibbs_gap=nan)
    rows = ["0.1,0|1,0.30000000000000004,0.3333333333333333,",
            "0.1,1|0,5e-324,1e-300,",
            "0.1,2|12,0.7,0.6666666666666666,",
            "0.005,0|1,nan,0.0,",
            "0.005,1|0,nan,0.25,",
            "0.005,2|12,nan,0.75,"]
    tree = ["0.3333333333333333", "1e-300", "0.6666666666666666",
            "1e-17", "0.5", "0.5"]
    head = "tau,state,pi_direct,pi_gibbs,pi_tree"
    assert report.to_csv_lines() == [head] + [r + t
                                              for r, t in zip(rows, tree)]
    assert replace(report, pi_tree=None).to_csv_lines() == [head] + rows


def test_exact_analysis_evaluates_each_cochannel_set_once(monkeypatch):
    # the 729-profile instance of perfbench's exact-729 workload on the
    # CLI's default grid: 63 channel member sets of 6 pairs, plus the 192
    # (set, member) pairs behind the utilities
    cfg = ExperimentConfig(num_uec=0, num_ued=6, num_channels=3,
                           cell_radius_m=60.0, topology_seed=25)
    calls = []
    real = CapGame._rate_kernel

    def counted(self, members, f, player=None):
        calls.append((tuple(members.tolist()), player))
        return real(self, members, f, player)

    monkeypatch.setattr(CapGame, "_rate_kernel", counted)
    report = analyze_stationary(cfg, (0.1, 0.05, 0.02, 0.01, 0.005))
    assert len(report.states) == 729 and report.verdict is True
    assert len(calls) == len(set(calls)) == 63 + 192


# ----------------------------------------------------------------------
# fading-block guard


def test_oversized_fading_block_is_refused_before_any_realization(
        monkeypatch):
    calls = _no_realization(monkeypatch)
    # N = 242,745,533 at t = 500: a 4 x 4 x N float32 block is 14.5 GiB
    cfg = tiny_config(num_ued=4, noise_model="bounded",
                      schedule="log_decreasing", tau_scale=0.01, horizon=500)
    with pytest.raises(ValueError, match=r"4 x 4 x 242745533 float32 "
                       r"\(14\.5 GiB\).*tau_scale=0\.01, horizon=500"):
        run_experiment(cfg)
    br = tiny_config(num_uec=1, algorithm="br", br_samples=10 ** 9,
                     noise_model="bounded")
    with pytest.raises(ValueError, match=r"3 x 3 x 1000000000 .*"
                       r"num_uec=1, num_ued=2, br_samples=1000000000"):
        run_experiment(br)
    assert calls == []


def test_fading_block_guard_counts_one_cellular_link(monkeypatch):
    # 1 UEC + 2 UED pairs: co-channel sets of at most 3, so 3 x 3 x 10 x 4
    cfg = tiny_config(num_uec=1, algorithm="br", br_samples=10,
                      noise_model="bounded")
    monkeypatch.setattr(expmod, "_FADING_BLOCK_GUARD", 360)
    expmod._check_fading_block(cfg)
    expmod._check_fading_block(replace(cfg, noise_model="none",
                                       br_samples=10 ** 9))
    monkeypatch.setattr(expmod, "_FADING_BLOCK_GUARD", 359)
    with pytest.raises(ValueError, match="exceeds"):
        expmod._check_fading_block(cfg)


def test_sweep_checks_every_point_before_the_first_runs(monkeypatch):
    calls = _no_realization(monkeypatch)
    # fixed tau = 0.01 gives N = 1,064,518: 4 MB for one pair, 14.3 GiB for 60
    cfg = tiny_config(noise_model="bounded", tau=0.01, track_optimum=False)
    with pytest.raises(ValueError, match="60 x 60 x 1064518"):
        sweep_ues(cfg, [1, 60])
    assert calls == []


def test_cli_reports_an_oversized_fading_block(tmp_path, monkeypatch,
                                               capsys):
    from d2dcap.cli import main

    calls = _no_realization(monkeypatch)
    path = tmp_path / "cold.cfg"
    path.write_text("num_uec = 0\nnum_ued = 4\nschedule = 'log_decreasing'\n"
                    "tau_scale = 0.01\nhorizon = 500\n")
    assert main(["run-blla", "--config", str(path)]) == 2
    assert "tau_scale=0.01" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("key", ["base_seed", "topology_seed"])
def test_negative_seeds_are_refused_before_any_realization(monkeypatch, key):
    calls = _no_realization(monkeypatch)
    with pytest.raises(ValueError, match=f"{key!r} must be non-negative"):
        run_experiment(tiny_config(**{key: -3}, realizations=2))
    assert calls == []


def test_cli_names_a_negative_seed(monkeypatch, capsys):
    from d2dcap.cli import main

    calls = _no_realization(monkeypatch)
    assert main(["run-blla", "--seed", "-3", "--realizations", "2"]) == 2
    assert "'base_seed' must be non-negative" in capsys.readouterr().err
    assert calls == []
