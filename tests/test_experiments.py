import dataclasses
import filecmp
import logging
import math
import os
import shutil
import subprocess
import sys
import time
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import d2dcap.experiments as expmod
from d2dcap.experiments import (
    ExperimentConfig,
    StationaryReport,
    analyze_stationary,
    run_experiment,
    sweep_channels,
    sweep_ues,
)
from d2dcap.game import AssignmentProfile, CapGame
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


def test_gaussian_decreasing_runs_are_deterministic():
    cfg = tiny_config(noise_model="gaussian", noise_sigma=0.37,
                      schedule="log_decreasing", tau_scale=2.0, horizon=500)
    assert cfg.noise_obj() == cfg.noise_obj()
    assert hash(cfg.noise_obj()) == hash(cfg.noise_obj())
    game = cfg.game(cfg.topology())

    def run():
        return run_blla(game, cfg.schedule_obj(), cfg.noise_obj(), cfg.xi,
                        cfg.horizon, cfg.base_seed)

    first, second = run(), run()
    assert np.array_equal(first.n_samples, second.n_samples)
    assert np.array_equal(first.profiles, second.profiles)


# ----------------------------------------------------------------------
# running


def test_single_realization_matches_direct_run():
    cfg = tiny_config(realizations=1)
    point = run_experiment(cfg).points[0]
    game = cfg.game(cfg.topology(0))
    traj = run_blla(game, cfg.schedule_obj(), None, cfg.xi, cfg.horizon,
                    cfg.base_seed)
    assert np.array_equal(point.mean_trace, traj.sum_rate)
    assert point.final_window_mean \
        == traj.sum_rate[expmod._window_start(cfg.horizon):].mean()
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
    assert point.phi_star is not None
    assert 0.0 <= point.mean_occupancy <= 1.0
    assert point.window_slots == 10
    off = run_experiment(replace(cfg, track_optimum=False)).points[0]
    assert off.mean_occupancy is None and off.phi_star is None


def test_no_active_players_gives_constant_trace():
    cfg = tiny_config(num_uec=1, num_ued=0, num_channels=2)
    point = run_experiment(cfg).points[0]
    assert np.all(point.mean_trace == point.mean_trace[0])
    assert point.mean_occupancy == 1.0


@given(num_uec=st.integers(0, 3), extra_channels=st.integers(0, 2),
       algorithm=st.sampled_from(["blla", "br"]),
       noise_model=st.sampled_from(["bounded", "gaussian", "none"]),
       schedule=st.sampled_from(["fixed", "log_decreasing"]),
       track_optimum=st.booleans(), shared_topology=st.booleans(),
       horizon=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
def test_games_without_active_players_hold_their_start(
        num_uec, extra_channels, algorithm, noise_model, schedule,
        track_optimum, shared_topology, horizon, seed):
    # no D2D pair: every profile is the start, whose potential is the
    # trace, the optimum and, without links, 0.0
    config = tiny_config(num_uec=num_uec, num_ued=0,
                         num_channels=max(num_uec, 1) + extra_channels,
                         topology_seed=seed, algorithm=algorithm,
                         noise_model=noise_model, schedule=schedule,
                         track_optimum=track_optimum,
                         shared_topology=shared_topology, horizon=horizon,
                         realizations=1, base_seed=seed)
    topo = config.topology(0)
    assert topo.mean_gain_matrix.shape == (num_uec, num_uec)
    assert topo.uec_positions.shape == (num_uec, 2)
    assert topo.ued_tx_positions.shape == topo.ued_rx_positions.shape \
        == (0, 2)
    game = config.game(topo)
    start = game.initial_profile(np.random.default_rng(seed))
    phi = game.potential_exact(start)
    if num_uec == 0:
        assert phi == 0.0 and game.normalized_potential(start) == 0.0
    optimum = expmod.analysis.brute_force_optimum(game)
    assert optimum.keys == (tuple(start.channels.tolist()),)
    assert optimum.num_evaluated == 1
    assert optimum.normalized_phi_star == game.normalized_potential(start)
    assert optimum.phi_star == pytest.approx(phi, rel=1e-15, abs=0.0)
    trace = np.full(horizon, phi)
    assert expmod.analysis._optimal_share(
        game, trace, optimum.normalized_phi_star) == 1.0
    # the one profile is its own chain: it stays put, by all three laws
    assert expmod.analysis.exact_transition_matrix(game, 0.1).tolist() \
        == [[1.0]]
    assert expmod.analysis.game_resistance_kernel(game).tolist() \
        == [[math.inf]]
    report = analyze_stationary(config, (0.1, 0.05))
    assert report.pi_direct.tolist() == report.pi_gibbs.tolist() \
        == report.pi_tree.tolist() == [[1.0], [1.0]]
    assert report.verdict is True

    point = run_experiment(config).points[0]
    np.testing.assert_array_equal(point.mean_trace, trace)
    assert point.final_window_mean == pytest.approx(phi, rel=1e-15, abs=0.0)
    if track_optimum:
        assert point.mean_occupancy == 1.0
        # a layout per realization has no one optimum to report
        assert point.phi_star == (optimum.phi_star if shared_topology
                                  else None)
    else:
        assert point.mean_occupancy is None and point.phi_star is None


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
        game = cfg.game(cfg.topology(k))
        traj = run_blla(game, cfg.schedule_obj(), None, cfg.xi, cfg.horizon,
                        cfg.base_seed + k)
        keys = set(expmod.analysis.brute_force_optimum(game).keys)
        window = traj.profiles[-10:].tolist()  # the final 25% of 40 slots
        occ.append(sum(tuple(row) in keys for row in window) / len(window))
    assert point.mean_occupancy == float(np.mean(occ))
    assert point.phi_star is None


@st.composite
def tracked_configs(draw):
    """Small tracked configs, one or several layouts, exact or sampled
    utilities, including games with no active player or no link at all."""
    num_uec = draw(st.integers(0, 1))
    noise = draw(st.sampled_from(["none", "bounded"]))
    return tiny_config(
        num_uec=num_uec, num_ued=draw(st.integers(0, 5)),
        num_channels=draw(st.integers(max(1, num_uec), 3)),
        topology_seed=draw(st.integers(0, 2 ** 16)),
        shared_topology=draw(st.booleans()),
        algorithm=draw(st.sampled_from(["blla", "br"])), noise_model=noise,
        # sampled estimates stay small: N is 8 at tau 1 and 1,645 at 0.1
        tau=draw(st.sampled_from([1.0, 0.1] + [0.02] * (noise == "none"))),
        horizon=draw(st.integers(1, 60)))


# optimal relabelings whose potentials differ in the last bit
@example(config=tiny_config(num_ued=5, num_channels=3, topology_seed=3,
                            tau=0.02), k=0)
@given(config=tracked_configs(), k=st.integers(0, 3))
def test_occupancy_from_the_potential_equals_the_key_count(config, k):
    topo = config.topology(k)
    game = config.game(topo)
    optimum = expmod.analysis.brute_force_optimum(game)
    best = optimum.normalized_phi_star
    # profile by profile: a sum rate counts as optimal exactly when its
    # profile is one of brute force's, relabeling ties included
    for channels in expmod.analysis.enumerate_profiles(game):
        rate = game.potential_exact(AssignmentProfile(channels))
        assert expmod.analysis._optimal_share(game, np.array([rate]), best) \
            == (tuple(channels.tolist()) in optimum.keys)
    # the reference: final-window slots whose channel vector is one of
    # brute force's optimal profiles, counted by matching keys
    traj = expmod._run_one(config, game, config.base_seed + k)
    rows = traj.profiles[expmod._window_start(traj.horizon):].tolist()
    want = sum(tuple(row) in set(optimum.keys) for row in rows) / len(rows)
    assert expmod._realization(config, best, k).occupancy == want
    assert expmod._realization(config, None, k).occupancy == want


def _no_realization(monkeypatch):
    """Make any realization fail the test; returns the seeds tried."""
    calls = []

    def spy(config, game, seed):
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

    def first_finishes_last(config, game, seed):
        time.sleep(0.3 if seed == config.base_seed else 0.0)
        return real_run_one(config, game, seed)

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

    def failing(config, game, seed):
        if seed == cfg.base_seed + 1:
            raise ValueError("realization 1 failed")
        return real_run_one(config, game, seed)

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

def dying(config, game, seed):
    if seed == config.base_seed + 1:
        os._exit(1)
    return real_run_one(config, game, seed)

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


@pytest.mark.parametrize("sweep, value", [
    pytest.param(sweep_channels, 2.7, id="channels-float"),
    pytest.param(sweep_channels, True, id="channels-bool"),
    pytest.param(sweep_ues, 1.0, id="ueds-float"),
    pytest.param(sweep_ues, True, id="ueds-bool"),
])
def test_sweeps_refuse_non_integer_counts_before_any_run(monkeypatch, sweep,
                                                         value):
    # 2.7 would run 2 channels labelled channels_2.7, True one pair
    calls = _no_realization(monkeypatch)
    key = "num_channels" if sweep is sweep_channels else "num_ued"
    with pytest.raises(ValueError, match=f"config key '{key}' in the "
                                         ".* sweep expects int"):
        sweep(tiny_config(num_ued=2), [2, value])
    assert calls == []


@pytest.mark.parametrize("sweep, key, values", [
    pytest.param(sweep_channels, "num_channels", [2, 2], id="channels"),
    pytest.param(sweep_ues, "num_ued", [1, 3, 1], id="ueds"),
])
def test_sweeps_refuse_a_repeated_value_before_any_point_is_checked(
        monkeypatch, sweep, key, values):
    # a repeat runs one point twice: its tables overwrite each other and
    # the manifest lists each of them twice
    calls = _no_realization(monkeypatch)
    checked = []
    monkeypatch.setattr(expmod, "_check_point", checked.append)
    with pytest.raises(ValueError, match=f"the .* sweep lists {key}="
                                         f"{values[0]} more than once"):
        sweep(tiny_config(), values)
    assert calls == [] and checked == []


def test_cli_refuses_a_repeated_sweep_value(tmp_path, capsys):
    from d2dcap.cli import main

    out = tmp_path / "out"
    assert main(["sweep-channels", "--counts", "2,2", "--out", str(out)]) \
        == 2
    assert "lists num_channels=2 more than once" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_ues_runs():
    cfg = tiny_config(track_optimum=False, horizon=20)
    result = sweep_ues(cfg, (1, 2))
    assert [p.value for p in result.points] == [1, 2]
    assert all(p.param == "ueds" for p in result.points)
    assert result.points[0].config.num_ued == 1


@pytest.mark.parametrize("sweep, key, values", [
    pytest.param(sweep_channels, "num_channels", (2, 3), id="channels"),
    pytest.param(sweep_ues, "num_ued", (1, 2), id="ueds"),
])
def test_a_sweep_point_is_the_one_point_run_of_its_config(sweep, key, values):
    # criterion 9 runs the point its two sweeps share once, as a one-point
    # run: a sweep's point must be that run bit for bit, up to its label
    cfg = tiny_config(num_uec=1, num_channels=2, noise_model="bounded",
                      tau=0.1, horizon=12, realizations=2)
    for point, value in zip(sweep(cfg, values).points, values):
        alone = run_experiment(replace(cfg, **{key: value})).points[0]
        assert (point.value, alone.param, alone.value) == (value, "", None)
        for field in dataclasses.fields(expmod.PointResult):
            if field.name not in ("param", "value"):
                np.testing.assert_array_equal(getattr(point, field.name),
                                              getattr(alone, field.name))


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
    assert set(report.stable_keys) <= set(map(tuple, report.states.tolist()))


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


def test_analyze_stationary_frees_each_kernel_before_the_next(monkeypatch):
    # a grid kept the last temperature's dense kernel alive while it built
    # the next: two n x n matrices, 256 MiB at the 4096-state guard
    build = expmod.analysis.exact_transition_matrix
    kernels = []

    def spy(game, tau):
        assert [k for k in kernels if k() is not None] == []
        kernel = build(game, tau)
        kernels.append(weakref.ref(kernel))
        return kernel

    monkeypatch.setattr(expmod.analysis, "exact_transition_matrix", spy)
    analyze_stationary(tiny_config(), (0.1, 0.05, 0.02))
    assert len(kernels) == 3


def test_analyze_stationary_size_guard():
    cfg = tiny_config(num_ued=13, num_channels=3)
    with pytest.raises(ValueError):
        analyze_stationary(cfg, (0.1, 0.05))


@pytest.mark.parametrize("grid, message", [
    ((0.02, 0.05, 0.1), "strictly decreasing"),
    ((0.1, 0.1), "strictly decreasing"),
    ((0.1, 0.0), "tau must be positive"),
    ((-0.1,), "tau must be positive"),
    ((), "non-empty"),
], ids=["increasing", "repeated", "zero", "negative", "empty"])
def test_tau_grid_is_refused_before_any_kernel(monkeypatch, grid, message):
    def spy(game, tau):
        raise AssertionError("a kernel was built")

    monkeypatch.setattr(expmod.analysis, "exact_transition_matrix", spy)
    with pytest.raises(ValueError, match=message):
        analyze_stationary(tiny_config(), grid)


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
        states=np.array([[0, 1], [1, 0], [2, 12]]), taus=[0.1, 0.005],
        pi_direct=np.array([[0.1 + 0.2, 5e-324, 1.0 - (0.1 + 0.2)],
                            [nan, nan, nan]]),
        pi_gibbs=np.array([[1 / 3, 1e-300, 2 / 3], [0.0, 0.25, 0.75]]),
        pi_tree=np.array([[1 / 3, 1e-300, 2 / 3], [1e-17, 0.5, 0.5 - 1e-17]]),
        stable_keys=None, optimum_keys=((2, 12),), verdict=None,
        max_direct_gibbs_gap=nan, direct_failed_taus=(0.005,))
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
    # N = 242,745,533 at t = 500: 3.9e9 coefficients for a 4-link set
    cfg = tiny_config(num_ued=4, noise_model="bounded",
                      schedule="log_decreasing", tau_scale=0.01, horizon=500)
    with pytest.raises(ValueError, match=r"4 x 4 x 242745533 fading "
                       r"coefficients \(3\.88e\+09\), more than the guard "
                       r"of 2\.68e\+08.*tau_scale=0\.01, horizon=500"):
        run_experiment(cfg)
    br = tiny_config(num_uec=1, algorithm="br", br_samples=10 ** 9,
                     noise_model="bounded")
    with pytest.raises(ValueError, match=r"3 x 3 x 1000000000 .*"
                       r"num_uec=1, num_ued=2, br_samples=1000000000"):
        run_experiment(br)
    assert calls == []


def test_fading_block_guard_counts_one_cellular_link(monkeypatch):
    # 1 UEC + 2 UED pairs: co-channel sets of at most 3, so 3 x 3 x 10
    cfg = tiny_config(num_uec=1, algorithm="br", br_samples=10,
                      noise_model="bounded")
    monkeypatch.setattr(expmod, "_FADING_COEFF_GUARD", 90)
    expmod._check_point(cfg)
    expmod._check_point(replace(cfg, noise_model="none", br_samples=10 ** 9))
    monkeypatch.setattr(expmod, "_FADING_COEFF_GUARD", 89)
    with pytest.raises(ValueError, match="more than the guard"):
        expmod._check_point(cfg)


def test_sweep_checks_every_point_before_the_first_runs(monkeypatch):
    calls = _no_realization(monkeypatch)
    # fixed tau = 0.01 gives N = 1,064,518: 1.06e6 coefficients for one
    # pair, 3.8e9 for 60
    cfg = tiny_config(noise_model="bounded", tau=0.01, track_optimum=False)
    with pytest.raises(ValueError, match="60 x 60 x 1064518"):
        sweep_ues(cfg, [1, 60])
    # one shared layout: 3^13 = 1,594,323 profiles at the second point
    tracked = tiny_config(num_channels=3, track_optimum=True, horizon=20,
                          realizations=2)
    with pytest.raises(ValueError, match="profile space of size 1594323"):
        sweep_ues(tracked, [2, 13])
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


@pytest.mark.parametrize("text, message", [
    pytest.param("noise_width = 1e200",
                 "'noise_width' must be positive with a positive finite "
                 "square",
                 id="noise_width-overflow"),
    pytest.param("noise_width = 1e-200",
                 "'noise_width' must be positive with a positive finite "
                 "square",
                 id="noise_width-underflow"),
    pytest.param("noise_model = 'gaussian'\nnoise_sigma = 1e200",
                 "'noise_sigma' must be positive with a positive finite "
                 "square",
                 id="noise_sigma-overflow"),
    pytest.param("tau = 1e-300", "sample count at tau=1e-300 and xi=1e-05 "
                 "of BoundedNoise(interval_width=1.0) is not finite",
                 id="tau-count-not-finite"),
])
def test_cli_names_a_noise_scale_or_count_it_refuses(tmp_path, monkeypatch,
                                                     capsys, text, message):
    # a width of 1e-200 ran on exact utilities (N = 0) and the others
    # escaped main as OverflowError or ZeroDivisionError tracebacks
    from d2dcap.cli import main

    calls = _no_realization(monkeypatch)
    path = tmp_path / "noise.cfg"
    path.write_text(text + "\n")
    assert main(["run-blla", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert calls == []


def test_an_oversized_horizon_is_refused_before_anything_is_drawn(
        tmp_path, monkeypatch, capsys):
    # 10^11 slots of 2 pairs: 10^11 x 49 bytes of slot records and trace;
    # the point's trace alone was a 745 GiB allocation
    from d2dcap.cli import main

    calls = _no_realization(monkeypatch)
    layouts = []
    monkeypatch.setattr(expmod, "generate_topology",
                        lambda *args: layouts.append(args))
    message = (r"one run's slot records and the point's trace would take "
               r"5\.3e\+12 bytes, more than the guard of 1\.07e\+09; it is "
               r"set by horizon=100000000000, num_uec=0, num_ued=2")
    with pytest.raises(ValueError, match=message):
        run_experiment(tiny_config(horizon=10 ** 11, track_optimum=False))
    path = tmp_path / "long.cfg"
    path.write_text("noise_model = 'none'\nhorizon = 100000000000\n")
    assert main(["run-blla", "--config", str(path)]) == 2
    assert "set by horizon=100000000000" in capsys.readouterr().err
    assert calls == [] and layouts == []


def test_horizon_guard_counts_slot_records_and_the_trace(monkeypatch):
    cfg = tiny_config(num_uec=1, horizon=40)  # 40 x (2 x 3 + 41 + 8) bytes
    monkeypatch.setattr(expmod, "_RUN_BYTES_GUARD", 40 * 55)
    expmod._check_point(cfg)
    monkeypatch.setattr(expmod, "_RUN_BYTES_GUARD", 40 * 55 - 1)
    with pytest.raises(ValueError, match="more than the guard"):
        expmod._check_point(cfg)


def test_an_oversized_realization_count_is_refused_before_anything_is_drawn(
        tmp_path, monkeypatch, capsys):
    # 10^12 realizations of one pair: 10^13 bytes of per-realization
    # arrays; the final-window means alone were a 7.28 TiB allocation
    from d2dcap.cli import main

    calls = _no_realization(monkeypatch)
    layouts, pools = [], []
    monkeypatch.setattr(expmod, "generate_topology",
                        lambda *args: layouts.append(args))
    monkeypatch.setattr(expmod, "_realization_pool", pools.append)
    message = (r"the point's per-realization arrays would take 1e\+13 "
               r"bytes, more than the guard of 1\.07e\+09; it is set by "
               r"realizations=1000000000000, num_uec=0, num_ued=1")
    with pytest.raises(ValueError, match=message):
        run_experiment(tiny_config(num_ued=1, horizon=1,
                                   realizations=10 ** 12,
                                   track_optimum=False))
    path = tmp_path / "many.cfg"
    path.write_text("noise_model = 'none'\nnum_uec = 0\nnum_ued = 1\n"
                    "horizon = 1\ntrack_optimum = False\n")
    assert main(["run-blla", "--config", str(path),
                 "--realizations", "1000000000000"]) == 2
    assert "set by realizations=1000000000000" in capsys.readouterr().err
    assert calls == [] and layouts == [] and pools == []


@pytest.mark.parametrize("track, size", [
    pytest.param(True, 10 * (2 * 3 + 16), id="tracked"),
    pytest.param(False, 10 * (2 * 3 + 8), id="untracked"),
])
def test_realization_guard_counts_finals_profiles_and_occupancies(
        monkeypatch, track, size):
    # one slot's records and trace, 55 bytes, stay under either size
    cfg = tiny_config(num_uec=1, horizon=1, realizations=10,
                      track_optimum=track)
    monkeypatch.setattr(expmod, "_RUN_BYTES_GUARD", size)
    expmod._check_point(cfg)
    monkeypatch.setattr(expmod, "_RUN_BYTES_GUARD", size - 1)
    with pytest.raises(ValueError, match="per-realization arrays"):
        expmod._check_point(cfg)


def test_a_realization_keeps_only_its_final_channels():
    # a view of the last row would keep the run's whole (T, L) record alive
    cfg = tiny_config()
    rec = expmod._realization(cfg, None, 0)
    traj = expmod._run_one(cfg, cfg.game(cfg.topology(0)), cfg.base_seed)
    assert rec.final_channels.base is None
    assert rec.final_channels.tolist() == traj.profiles[-1].tolist()


def test_a_point_check_draws_no_layout(monkeypatch):
    # the profile count comes from the config: a command on one shared
    # layout draws it for the tracked optimum and for its realization only
    layouts = []
    draw = expmod.generate_topology
    monkeypatch.setattr(expmod, "generate_topology",
                        lambda *args: layouts.append(args) or draw(*args))
    cfg = tiny_config(realizations=1)
    expmod._check_point(cfg)
    assert layouts == []
    run_experiment(cfg)
    assert len(layouts) == 2


def _no_layout(monkeypatch):
    """Make any layout draw fail the test; returns the draws tried."""
    layouts = []

    def spy(*args):
        layouts.append(args)
        raise AssertionError("a layout was drawn")

    monkeypatch.setattr(expmod, "generate_topology", spy)
    return layouts


def test_an_oversized_layout_is_refused_before_anything_is_drawn(
        monkeypatch):
    # 100,000 pairs passed: a 74.5 GiB gain matrix behind a 149 GiB
    # (L, L, 2) distance temporary, with no profile count to refuse them
    calls, layouts = _no_realization(monkeypatch), _no_layout(monkeypatch)
    cfg = tiny_config(num_ued=100000, noise_model="none",
                      track_optimum=False)
    message = (r"the layout's L x L arrays would take 4\.8e\+11 bytes, more "
               r"than the guard of 1\.07e\+09; it is set by num_uec=0, "
               r"num_ued=100000")
    with pytest.raises(ValueError, match=message):
        expmod._check_point(cfg)
    with pytest.raises(ValueError, match=message):
        run_experiment(cfg)
    assert calls == [] and layouts == []


def test_layout_guard_counts_48_bytes_per_link_pair(monkeypatch):
    cfg = tiny_config(num_uec=1, num_ued=2)  # 3 links, 9 ordered pairs
    monkeypatch.setattr(expmod, "_LAYOUT_BYTES_GUARD", 48 * 9)
    expmod._check_point(cfg)
    monkeypatch.setattr(expmod, "_LAYOUT_BYTES_GUARD", 48 * 9 - 1)
    with pytest.raises(ValueError, match="the layout's L x L arrays"):
        expmod._check_point(cfg)


@pytest.mark.parametrize("num_ued, message", [
    pytest.param(30000, r"the layout's L x L arrays would take 4\.32e\+10 "
                 r"bytes.*num_ued=30000", id="layout"),
    pytest.param(13, r"dense kernel of size 3\^13 exceeds the 4096 guard",
                 id="dense-kernel"),
])
def test_analyze_stationary_refuses_before_it_draws(monkeypatch, num_ued,
                                                    message):
    # the layout of 30,000 pairs was drawn before any guard could refuse it
    layouts = _no_layout(monkeypatch)
    with pytest.raises(ValueError, match=message):
        analyze_stationary(tiny_config(num_ued=num_ued, num_channels=3),
                           (0.1, 0.05))
    assert layouts == []


def test_profile_count_refusals_stay_readable_at_any_size():
    # the whole power was built and formatted: past 4,300 digits Python
    # refused to format it, and 3^(3e6) took 0.35 s to build
    count = expmod.analysis._profile_count
    assert count(3, 12, 10 ** 6, "profile space") == 531441
    assert count(5, 0, 1, "profile space") == 1
    with pytest.raises(ValueError, match="^profile space of size 1594323 "
                       "exceeds the 1000000 guard$"):
        count(3, 13, 10 ** 6, "profile space")
    t0 = time.perf_counter()
    for players in (14, 10 ** 4, 3 * 10 ** 6):
        with pytest.raises(ValueError, match=f"^dense kernel of size "
                           f"3\\^{players} exceeds the 4096 guard$"):
            count(3, players, 4096, "dense kernel")
    assert time.perf_counter() - t0 < 0.1


def test_cli_refuses_ten_thousand_pairs_by_name(tmp_path, monkeypatch,
                                                capsys):
    from d2dcap.cli import main

    calls, layouts = _no_realization(monkeypatch), _no_layout(monkeypatch)
    path = tmp_path / "pairs.cfg"
    path.write_text("num_ued = 10000\nnoise_model = 'none'\nhorizon = 10\n")
    assert main(["run-blla", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the layout's L x L arrays would take ")
    assert "more than the guard of 1.07e+09" in err
    assert "num_ued=10000" in err and "digits" not in err
    assert calls == [] and layouts == []


@pytest.mark.parametrize("overrides, message", [
    pytest.param(dict(base_seed=-3), "'base_seed' must be non-negative",
                 id="base_seed"),
    pytest.param(dict(topology_seed=-3),
                 "'topology_seed' must be non-negative", id="topology_seed"),
    pytest.param(dict(tau=-1.0), "'tau' must be positive", id="tau"),
    pytest.param(dict(schedule="log_decreasing", tau_scale=0.0),
                 "'tau_scale' must be positive", id="tau_scale"),
    pytest.param(dict(noise_model="bounded", noise_width=0.0),
                 "'noise_width' must be positive", id="noise_width"),
    pytest.param(dict(noise_model="gaussian", noise_sigma=-0.5),
                 "'noise_sigma' must be positive", id="noise_sigma"),
    pytest.param(dict(xi=1.5), r"'xi' must lie strictly inside \(0, 1\)",
                 id="xi"),
    pytest.param(dict(xi=0.0), r"'xi' must lie strictly inside \(0, 1\)",
                 id="xi-zero"),
    pytest.param(dict(algorithm="br", br_samples=0),
                 "'br_samples' must be >= 1", id="br_samples"),
])
def test_negative_seeds_are_refused_before_any_realization(monkeypatch,
                                                           overrides,
                                                           message):
    calls = _no_realization(monkeypatch)
    with pytest.raises(ValueError, match=message):
        run_experiment(tiny_config(**overrides, realizations=2))
    assert calls == []


def test_cli_names_a_negative_seed(monkeypatch, capsys):
    from d2dcap.cli import main

    calls = _no_realization(monkeypatch)
    assert main(["run-blla", "--seed", "-3", "--realizations", "2"]) == 2
    assert "'base_seed' must be non-negative" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("key, value, message", [
    pytest.param("noise_dbm", math.nan, "'noise_dbm' must be finite",
                 id="noise_dbm-nan"),
    pytest.param("bandwidth_hz", -1.0, "'bandwidth_hz' must be positive",
                 id="bandwidth_hz-negative"),
    pytest.param("cell_radius_m", math.inf, "'cell_radius_m' must be finite",
                 id="cell_radius_m-inf"),
    pytest.param("sinr_max_db", math.nan, "'sinr_max_db' must be finite",
                 id="sinr_max_db-nan"),
    pytest.param("pathloss_exponent", -1.0,
                 "'pathloss_exponent' must be positive",
                 id="pathloss_exponent-negative"),
    pytest.param("shadowing_sigma_db", -3.0,
                 "'shadowing_sigma_db' must be non-negative",
                 id="shadowing_sigma_db-negative"),
])
def test_non_physical_radio_values_are_refused_before_any_work(
        monkeypatch, key, value, message):
    calls = _no_realization(monkeypatch)
    layouts = []
    monkeypatch.setattr(expmod, "generate_topology",
                        lambda *args: layouts.append(args))
    config = tiny_config(noise_model="bounded", realizations=2,
                         **{key: value})
    with pytest.raises(ValueError, match=message):
        config.validate()
    with pytest.raises(ValueError, match=message):
        run_experiment(config)
    assert calls == [] and layouts == []


@pytest.mark.parametrize("value", [4000.0, -4000.0],
                         ids=["overflow", "underflow"])
@pytest.mark.parametrize("key", ["ue_power_dbm", "bs_power_dbm", "noise_dbm"])
def test_dbm_values_past_float_range_are_refused_by_name(key, value):
    # 10^400 W overflows to inf and 10^-400 W underflows to 0: the refusal
    # names the dBm key the user set, and numpy warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"'{key}' must give a "
                                             "positive, finite power"):
            ExperimentConfig(**{key: value}).validate()
