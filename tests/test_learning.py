import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import d2dcap.learning as learning_module
from d2dcap.game import AssignmentProfile
from d2dcap.learning import (
    BoundedNoise,
    FixedTemperature,
    LearnerState,
    LogDecreasingTemperature,
    UnboundedMgfNoise,
    acceptance_probability,
    better_response_step,
    blla_step,
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
    noise = UnboundedMgfNoise(log_mgf=lambda theta: 0.0, theta_max=1e3)
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
    # drive the same state repeatedly; accepted moves must match the rule's
    # probability per (player, trial) pair within binomial error
    game = seeded_game(0, 2, 2, seed=25)
    start = AssignmentProfile(channels=[0, 0], passive=[False, False])
    tau = 0.3
    schedule = FixedTemperature(tau=tau)
    rng = np.random.default_rng(17)
    counts = {}
    for _ in range(20000):
        state = LearnerState(profile=start)
        out = blla_step(state, game, schedule, None, 1e-5, rng)
        key = (out.player, out.trial)
        n_prop, n_acc = counts.get(key, (0, 0))
        counts[key] = (n_prop + 1, n_acc + int(out.accepted))
    for (player, trial), (n_prop, n_acc) in counts.items():
        if trial == int(start.channels[player]):
            assert n_acc == 0  # self-trials never move
            continue
        du = game.utility_exact(start, player) - game.utility_exact(
            start.with_channel(player, trial), player)
        p = acceptance_probability(du, tau)
        sigma = math.sqrt(p * (1.0 - p) / n_prop)
        assert abs(n_acc / n_prop - p) <= 3.5 * sigma


def test_self_trial_skips_the_slot():
    game = seeded_game(0, 3, 1, seed=6)  # one channel: every trial is a no-op
    state = LearnerState(profile=game.initial_profile())
    rng = np.random.default_rng(0)
    for _ in range(20):
        state = blla_step(state, game, FixedTemperature(0.1), None, 1e-5, rng)
        assert not state.accepted and state.delta_hat == 0.0
    assert state.t == 20
    assert state.profile.key() == game.initial_profile().key()


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
    occ = traj.occupancy([final_key], window_frac=0.25)
    hits = sum(1 for row in traj.profiles[6:] if tuple(row.tolist()) == final_key)
    assert occ == hits / 2
    assert traj.occupancy([final_key], window_frac=1.0) <= 1.0
    with pytest.raises(ValueError):
        traj.occupancy([final_key], window_frac=0.0)
    mean = traj.final_window_mean_sum_rate()
    assert mean == pytest.approx(traj.sum_rate[6:].mean(), rel=1e-15)


def test_trajectory_csv_round_trip(tmp_path):
    game = seeded_game(0, 2, 2, seed=25)
    traj = run_br(game, 1, horizon=5, rng_seed=1)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,tau,n_samples,player,trial,accepted,delta_hat,sum_rate"
    assert len(lines) == 6
    row = lines[1].split(",")
    assert int(row[0]) == 1
    assert float(row[7]) == traj.sum_rate[0]  # repr round-trips exactly


def test_runner_argument_guards():
    game = seeded_game(0, 2, 2, seed=25)
    with pytest.raises(ValueError):
        run_br(game, 0, horizon=5, rng_seed=1)
    with pytest.raises(ValueError):
        run_br(game, 1, horizon=-1, rng_seed=1)
    empty = run_br(game, 1, horizon=0, rng_seed=1)
    assert empty.horizon == 0
    assert empty.final_profile_key() == game.initial_profile(
        np.random.Generator(np.random.SFC64(1))).key()


def test_zero_active_players_rejected():
    game = seeded_game(1, 0, 3, seed=5)
    state = LearnerState(profile=game.initial_profile())
    with pytest.raises(ValueError):
        blla_step(state, game, FixedTemperature(0.1), None, 1e-5,
                  np.random.default_rng(0))


def test_better_response_step_tie_keeps_current():
    game = seeded_game(0, 2, 2, seed=25)
    state = LearnerState(profile=game.initial_profile())
    rng = np.random.default_rng(1)
    out = better_response_step(state, game, 1, rng)
    assert out.t == 1
    if out.trial == int(state.profile.channels[out.player]):
        assert not out.accepted
    assert math.isnan(out.tau)
