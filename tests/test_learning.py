import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import d2dcap.experiments as experiments_module
import d2dcap.learning as learning_module
from d2dcap.experiments import ExperimentConfig
from d2dcap.game import AssignmentProfile, utility_mean
from d2dcap.learning import (
    BoundedNoise,
    FixedTemperature,
    LogDecreasingTemperature,
    Trajectory,
    UnboundedMgfNoise,
    acceptance_probability,
    required_samples_bounded,
    required_samples_unbounded,
    run_blla,
    run_br,
    unbounded_sample_calc,
)

from test_game import seeded_game


# ----------------------------------------------------------------------
# temperature schedules


def test_fixed_schedule():
    sch = FixedTemperature(tau=0.07)
    assert sch.tau_at(1) == 0.07 and sch.tau_at(10**6) == 0.07
    with pytest.raises(ValueError):
        FixedTemperature(tau=0.0)


def test_log_decreasing_schedule():
    sch = LogDecreasingTemperature(scale=0.1)
    assert sch.tau_at(1) == pytest.approx(0.1 / math.log(2.0), rel=1e-12)
    taus = [sch.tau_at(t) for t in range(1, 200)]
    assert all(a > b for a, b in zip(taus, taus[1:]))
    with pytest.raises(ValueError):
        sch.tau_at(0)


# ----------------------------------------------------------------------
# sample-count formulas


def test_bounded_sample_count_reference_value():
    # independently verified with 60-digit arithmetic before freezing:
    # (ln(4e5) + 20) / (2 * (1 - 1e-5)^2 * 0.01) = 1644.9938...
    assert required_samples_bounded(0.1, 1e-5, 1.0) == 1645


def test_bounded_sample_count_monotonicity():
    base = required_samples_bounded(0.1, 1e-5, 1.0)
    assert required_samples_bounded(0.2, 1e-5, 1.0) < base
    assert required_samples_bounded(0.1, 1e-7, 1.0) > base
    assert required_samples_bounded(0.1, 1e-5, 2.0) > 3 * base
    with pytest.raises(ValueError):
        required_samples_bounded(0.0, 1e-5, 1.0)
    with pytest.raises(ValueError):
        required_samples_bounded(0.1, 2.0, 1.0)
    with pytest.raises(ValueError):
        BoundedNoise(interval_width=0.0)


def test_gaussian_sample_count_closed_form():
    calc = unbounded_sample_calc(0.1, 0.5, UnboundedMgfNoise.gaussian(1.0))
    # analytic optimum: theta* = (1-xi) tau / sigma^2
    assert abs(calc.theta_star - 0.05) <= 1e-8
    assert calc.numerator == pytest.approx(math.log(8.0) + 20.0, abs=1e-12)
    assert calc.denominator == pytest.approx(0.00125, abs=1e-12)
    assert calc.n == 17664
    assert required_samples_unbounded(0.1, 0.5,
                                      UnboundedMgfNoise.gaussian(1.0)) == 17664


def test_degenerate_noise_hits_search_cap():
    # M(theta) = 1: the objective grows linearly, the cap binds
    noise = UnboundedMgfNoise(log_mgf=lambda theta: 0.0)
    calc = unbounded_sample_calc(0.1, 0.5, noise)
    assert calc.theta_star > 900.0  # pinned to the cap, up to solver slack
    assert calc.n == 1


def test_heavy_noise_rejected():
    # log M(theta) >= theta makes the denominator negative everywhere
    noise = UnboundedMgfNoise(log_mgf=lambda theta: float(theta))
    with pytest.raises(ValueError):
        unbounded_sample_calc(0.1, 0.5, noise)


# ----------------------------------------------------------------------
# acceptance rule


def test_acceptance_probability_values():
    assert acceptance_probability(0.0, 0.1) == 0.5
    assert acceptance_probability(-0.2, 0.1) == pytest.approx(
        1.0 / (1.0 + math.exp(-2.0)), rel=1e-14)
    # detailed-balance ratio across the whole working range
    for x in (0.5, 3.0, 10.0, 30.0):
        p = acceptance_probability(x * 0.1, 0.1)
        q = acceptance_probability(-x * 0.1, 0.1)
        assert p / q == pytest.approx(math.exp(-x), rel=1e-12)


def test_acceptance_probability_saturates_cleanly():
    hi = acceptance_probability(-1e3, 0.1)  # |delta/tau| = 1e4
    lo = acceptance_probability(1e3, 0.1)
    assert hi == 1.0 and lo == 0.0
    assert hi + lo == 1.0
    with pytest.raises(ValueError):
        acceptance_probability(0.0, 0.0)


# ----------------------------------------------------------------------
# single learning slots


def test_blla_step_acceptance_statistics():
    # one long run, tallied by (pre-slot profile, player, trial): accepted
    # moves must match the rule's probability within binomial error
    game = seeded_game(0, 2, 2, seed=25)
    tau = 0.3
    traj = run_blla(game, FixedTemperature(tau=tau), None, 1e-5,
                    horizon=20000, rng_seed=17)
    before = np.vstack([traj.initial_channels, traj.profiles[:-1]])
    counts = {}
    for k in range(traj.horizon):
        key = (tuple(before[k].tolist()), int(traj.player[k]),
               int(traj.trial[k]))
        n_prop, n_acc = counts.get(key, (0, 0))
        counts[key] = (n_prop + 1, n_acc + int(traj.accepted[k]))
    assert len(counts) == 16  # 4 profiles x 2 players x 2 trials
    for (channels, player, trial), (n_prop, n_acc) in counts.items():
        start = AssignmentProfile(channels=channels, passive=[False, False])
        if trial == channels[player]:
            assert n_acc == 0  # self-trials never move
            continue
        du = game.utility_exact(start, player) - game.utility_exact(
            start.with_channel(player, trial), player)
        p = acceptance_probability(du, tau)
        sigma = math.sqrt(p * (1.0 - p) / n_prop)
        assert abs(n_acc / n_prop - p) <= 3.5 * sigma


def test_self_trial_skips_the_slot(monkeypatch):
    game = seeded_game(0, 3, 1, seed=6)  # one channel: every trial is a no-op

    def never(*args, **kwargs):
        raise AssertionError("a self-trial estimated or drew a coin")

    monkeypatch.setattr(learning_module, "utility_mean", never)
    monkeypatch.setattr(learning_module, "acceptance_probability", never)
    traj = run_blla(game, FixedTemperature(0.1), None, 1e-5, horizon=20,
                    rng_seed=0)
    assert not traj.accepted.any() and np.all(traj.delta_hat == 0.0)
    assert np.all(traj.trial == 0) and traj.t[-1] == 20
    assert np.all(traj.profiles == traj.initial_channels)


def test_sample_count_recomputed_each_slot():
    game = seeded_game(0, 2, 2, seed=25)
    sch = LogDecreasingTemperature(scale=0.1)
    noise = BoundedNoise(interval_width=1.0)
    traj = run_blla(game, sch, noise, 1e-5, horizon=40, rng_seed=1)
    for k in range(40):
        t = k + 1
        assert traj.tau[k] == sch.tau_at(t)
        assert traj.n_samples[k] == required_samples_bounded(
            sch.tau_at(t), 1e-5, 1.0)


def test_gaussian_sample_count_is_computed_once_per_temperature(
        monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return minimize_scalar(*args, **kwargs)

    monkeypatch.setattr(learning_module, "minimize_scalar", counting)
    game = seeded_game(0, 2, 2, seed=25, mode="noisy")
    noise = UnboundedMgfNoise.gaussian(sigma=0.05)
    traj = run_blla(game, FixedTemperature(0.5), noise, 0.1, horizon=50,
                    rng_seed=4)
    assert len(calls) == 1
    assert np.all(traj.n_samples == required_samples_unbounded(0.5, 0.1,
                                                               noise))


def test_better_response_is_monotone_in_deterministic_mode():
    game = seeded_game(0, 4, 3, seed=25)
    traj = run_br(game, n_samples=1, horizon=200, rng_seed=3)
    diffs = np.diff(traj.sum_rate)
    assert np.all(diffs >= -1e-9)
    # and it parks at a profile no unilateral switch improves
    final = AssignmentProfile(channels=traj.profiles[-1],
                              passive=[False] * 4)
    for player in game.active_players:
        u = game.utility_exact(final, int(player))
        for c in range(3):
            if c == int(final.channels[player]):
                continue
            u_alt = game.utility_exact(final.with_channel(int(player), c),
                                       int(player))
            assert u_alt <= u + 1e-12


# ----------------------------------------------------------------------
# trajectory runners


def test_runs_are_seed_reproducible():
    game = seeded_game(0, 3, 3, seed=7, mode="noisy")
    noise = BoundedNoise(interval_width=1.0)
    a = run_blla(game, FixedTemperature(0.2), noise, 1e-3, 30, rng_seed=9)
    b = run_blla(game, FixedTemperature(0.2), noise, 1e-3, 30, rng_seed=9)
    assert np.array_equal(a.profiles, b.profiles)
    assert np.array_equal(a.delta_hat, b.delta_hat)
    c = run_blla(game, FixedTemperature(0.2), noise, 1e-3, 30, rng_seed=10)
    assert not np.array_equal(a.profiles, c.profiles)


def test_passive_players_never_move():
    game = seeded_game(1, 3, 3, seed=7, mode="noisy")
    noise = BoundedNoise(interval_width=1.0)
    traj = run_blla(game, FixedTemperature(0.2), noise, 1e-3, 60, rng_seed=2)
    assert np.all(traj.profiles[:, 0] == 0)
    assert np.all(traj.player != 0)


def test_trajectory_windows_and_occupancy():
    game = seeded_game(0, 2, 2, seed=25)
    traj = run_br(game, 1, horizon=8, rng_seed=1)
    final_key = tuple(traj.profiles[-1].tolist())
    # final 25% of 8 slots = the last 2
    occ = traj.occupancy([final_key])
    hits = sum(1 for row in traj.profiles[6:] if tuple(row.tolist()) == final_key)
    assert occ == hits / 2
    mean = traj.final_window_mean_sum_rate()
    assert mean == pytest.approx(traj.sum_rate[6:].mean(), rel=1e-15)


def test_runner_argument_guards():
    game = seeded_game(0, 2, 2, seed=25)
    with pytest.raises(ValueError):
        run_br(game, 0, horizon=5, rng_seed=1)
    with pytest.raises(ValueError):
        run_br(game, 1, horizon=-1, rng_seed=1)
    empty = run_br(game, 1, horizon=0, rng_seed=1)
    assert empty.horizon == 0
    assert tuple(empty.initial_channels.tolist()) == game.initial_profile(
        np.random.Generator(np.random.SFC64(1))).key()


def test_zero_active_players_keep_their_start():
    game = seeded_game(1, 0, 3, seed=5)
    start = game.initial_profile()
    for run in (lambda rng: run_blla(game, FixedTemperature(0.1), None, 1e-5,
                                     12, rng),
                lambda rng: run_br(game, 3, 12, rng)):
        rng = np.random.Generator(np.random.SFC64(0))
        traj = run(rng)
        # nothing was drawn: the stream is where a fresh one starts
        assert rng.random() == np.random.Generator(np.random.SFC64(0)).random()
        assert np.all(traj.player == -1) and np.all(traj.trial == -1)
        assert not traj.accepted.any()
        assert np.all(traj.profiles == start.channels)
        assert np.all(traj.sum_rate == game.potential_exact(start))


def test_better_response_step_tie_keeps_current():
    # a lone pair's utility is the same on every channel: every proposal
    # ties, and better response keeps its channel where BLLA would not
    game = seeded_game(0, 1, 3, seed=25)
    traj = run_br(game, 1, horizon=30, rng_seed=1)
    moved = traj.trial != traj.initial_channels[0]
    assert moved.any() and np.all(traj.delta_hat[moved] == 0.0)
    assert not traj.accepted.any()
    assert np.all(traj.profiles == traj.initial_channels)
    assert np.all(np.isnan(traj.tau))

# ----------------------------------------------------------------------
# reference slot loop: the per-slot step functions and the zero-active
# trajectory that the shared runner replaced, kept to pin it bit for bit


def reference_blla_step(profile, t, game, schedule, noise, xi, rng):
    """One BLLA slot; returns (profile, tau, n, player, trial, accepted,
    delta_hat).  Draw order: player, trial, phase I, phase II, coin."""
    tau = schedule.tau_at(t)
    n = 1 if noise is None else noise.required_samples(tau, xi)
    active = game.active_players
    player = int(active[rng.integers(len(active))])
    trial = int(rng.integers(game.num_channels))
    if trial == int(profile.channels[player]):
        return profile, tau, n, player, trial, False, 0.0
    trial_profile = profile.with_channel(player, trial)
    delta = (utility_mean(game, profile, player, n, rng).mean
             - utility_mean(game, trial_profile, player, n, rng).mean)
    accept = rng.random() < acceptance_probability(delta, tau)
    return (trial_profile if accept else profile, tau, n, player, trial,
            accept, delta)


def reference_br_step(profile, t, game, n, rng):
    active = game.active_players
    player = int(active[rng.integers(len(active))])
    trial = int(rng.integers(game.num_channels))
    if trial == int(profile.channels[player]):
        return profile, math.nan, n, player, trial, False, 0.0
    trial_profile = profile.with_channel(player, trial)
    delta = (utility_mean(game, profile, player, n, rng).mean
             - utility_mean(game, trial_profile, player, n, rng).mean)
    accept = delta < 0.0
    return (trial_profile if accept else profile, math.nan, n, player,
            trial, accept, delta)


def reference_run(game, horizon, rng_seed, initial_profile, step):
    rng = np.random.Generator(np.random.SFC64(rng_seed))
    profile = game.initial_profile(rng) if initial_profile is None \
        else initial_profile
    profiles = np.zeros((horizon, game.num_players), dtype=np.int16)
    tau = np.zeros(horizon)
    n_samples = np.zeros(horizon, dtype=np.int64)
    player = np.zeros(horizon, dtype=np.int32)
    trial = np.zeros(horizon, dtype=np.int32)
    accepted = np.zeros(horizon, dtype=bool)
    delta_hat = np.zeros(horizon)
    sum_rate = np.zeros(horizon)
    initial = profile.channels.copy()
    for k in range(horizon):
        (profile, tau[k], n_samples[k], player[k], trial[k], accepted[k],
         delta_hat[k]) = step(profile, k + 1, rng=rng)
        profiles[k] = profile.channels
        sum_rate[k] = game.potential_exact(profile)
    return Trajectory(initial_channels=initial, profiles=profiles,
                      t=np.arange(1, horizon + 1, dtype=np.int64), tau=tau,
                      n_samples=n_samples, player=player, trial=trial,
                      accepted=accepted, delta_hat=delta_hat,
                      sum_rate=sum_rate, seed=rng_seed)


def reference_constant_trajectory(game, horizon, seed):
    """What a run without active players recorded: the start, held."""
    profile = game.initial_profile()
    rate = game.potential_exact(profile)
    return Trajectory(initial_channels=profile.channels.copy(),
                      profiles=np.tile(profile.channels, (horizon, 1)),
                      t=np.arange(1, horizon + 1, dtype=np.int64),
                      tau=np.full(horizon, math.nan),
                      n_samples=np.zeros(horizon, dtype=np.int64),
                      player=np.full(horizon, -1, dtype=np.int32),
                      trial=np.full(horizon, -1, dtype=np.int32),
                      accepted=np.zeros(horizon, dtype=bool),
                      delta_hat=np.full(horizon, math.nan),
                      sum_rate=np.full(horizon, rate), seed=seed)


_TRAJECTORY_FIELDS = [f.name for f in dataclasses.fields(Trajectory)]


def assert_same_trajectory(got, want, fields=_TRAJECTORY_FIELDS):
    for name in fields:
        a, b = getattr(got, name), getattr(want, name)
        if name == "seed":
            assert a == b
            continue
        assert a.dtype == b.dtype and a.shape == b.shape, name
        # bit equality, NaN included
        assert a.tobytes() == b.tobytes(), name


@st.composite
def learning_runs(draw):
    """A game with at least one active player and one learner on it."""
    num_uec = draw(st.integers(0, 2))
    num_ued = draw(st.integers(1, 3))
    num_channels = draw(st.integers(max(1, num_uec), 3))
    mode = draw(st.sampled_from(["noisy", "deterministic"]))
    game = seeded_game(num_uec, num_ued, num_channels,
                       seed=draw(st.integers(0, 2 ** 16)), mode=mode)
    learner = draw(st.sampled_from(["fixed", "log", "gaussian", "none",
                                    "br"]))
    if learner == "br":
        n = draw(st.sampled_from([1, 2, 7, 40]))
        run = functools.partial(run_br, game, n)
        step = functools.partial(reference_br_step, game=game, n=n)
    else:
        schedule = LogDecreasingTemperature(scale=draw(st.sampled_from(
            [0.5, 2.0]))) if learner == "log" else FixedTemperature(
            tau=draw(st.sampled_from([0.3, 1.0, 5.0])))
        noise = {"gaussian": UnboundedMgfNoise.gaussian(sigma=0.05),
                 "none": None}.get(learner, BoundedNoise(interval_width=1.0))
        xi = draw(st.sampled_from([0.1, 0.5]))
        run = functools.partial(run_blla, game, schedule, noise, xi)
        step = functools.partial(reference_blla_step, game=game,
                                 schedule=schedule, noise=noise, xi=xi)
    initial = None
    if draw(st.booleans()):
        initial = game.initial_profile(
            np.random.default_rng(draw(st.integers(0, 99))))
    return game, run, step, initial


@settings(max_examples=200)
@given(case=learning_runs(), horizon=st.integers(0, 25),
       seed=st.integers(0, 2 ** 32 - 1))
def test_runner_matches_reference_slot_loop(case, horizon, seed):
    game, run, step, initial = case
    got = run(horizon, seed, initial)
    want = reference_run(game, horizon, seed, initial, step)
    assert_same_trajectory(got, want)


@settings(max_examples=100)
@given(num_uec=st.integers(0, 3), num_channels=st.integers(3, 4),
       algorithm=st.sampled_from(["blla", "br"]),
       noise_model=st.sampled_from(["bounded", "gaussian", "none"]),
       schedule=st.sampled_from(["fixed", "log_decreasing"]),
       horizon=st.integers(1, 20), seed=st.integers(0, 2 ** 16))
def test_zero_active_runs_match_reference(num_uec, num_channels, algorithm,
                                          noise_model, schedule, horizon,
                                          seed):
    config = ExperimentConfig(num_uec=num_uec, num_ued=0,
                              num_channels=num_channels, topology_seed=seed,
                              algorithm=algorithm, noise_model=noise_model,
                              schedule=schedule, horizon=horizon)
    topo = config.topology(0)
    mode = "deterministic" if noise_model == "none" else "noisy"
    want = reference_constant_trajectory(config.game(topo, mode=mode),
                                         horizon, seed)
    got = experiments_module._run_one(config, topo, seed)
    assert_same_trajectory(got, want, ("initial_channels", "profiles", "t",
                                       "sum_rate", "accepted"))
