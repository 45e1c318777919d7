import dataclasses
import functools
import hashlib
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import d2dcap.experiments as experiments_module
import d2dcap.learning as learning_module
from d2dcap.analysis import (_optimal_share, brute_force_optimum,
                             enumerate_profiles, exact_transition_matrix,
                             gibbs_distribution)
from d2dcap.experiments import ExperimentConfig, _window_start
from d2dcap.game import (AssignmentProfile, CapGame, cochannel_set,
                         utility_mean, verify_potential_identity)
from d2dcap.learning import (
    BoundedNoise,
    FixedTemperature,
    GaussianNoise,
    LogDecreasingTemperature,
    Trajectory,
    acceptance_probability,
    run_blla,
    run_br,
)

from reference import reference_potential
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
    assert BoundedNoise(1.0).required_samples(0.1, 1e-5) == 1645


def test_bounded_sample_count_monotonicity():
    unit = BoundedNoise(1.0)
    base = unit.required_samples(0.1, 1e-5)
    assert unit.required_samples(0.2, 1e-5) < base
    assert unit.required_samples(0.1, 1e-7) > base
    assert BoundedNoise(2.0).required_samples(0.1, 1e-5) > 3 * base
    with pytest.raises(ValueError):
        unit.required_samples(0.0, 1e-5)
    with pytest.raises(ValueError):
        unit.required_samples(0.1, 2.0)
    with pytest.raises(ValueError):
        BoundedNoise(interval_width=0.0)


def test_gaussian_sample_count_closed_form():
    calc = GaussianNoise(1.0).sample_calc(0.1, 0.5)
    # analytic optimum: theta* = (1-xi) tau / sigma^2
    assert abs(calc.theta_star - 0.05) <= 1e-8
    assert calc.numerator == pytest.approx(math.log(8.0) + 20.0, abs=1e-12)
    assert calc.denominator == pytest.approx(0.00125, abs=1e-12)
    assert calc.n == 17664
    assert GaussianNoise(1.0).required_samples(0.1, 0.5) == 17664


def _optimized_gaussian_count(tau, xi, sigma):
    """The numeric Chernoff search the closed form replaced: maximize
    theta*t - sigma^2 theta^2 / 2 over [0, 1e3]; returns (N, theta*)."""
    target = (1.0 - xi) * tau
    res = minimize_scalar(
        lambda th: 0.5 * th * th * sigma * sigma - th * target,
        bounds=(0.0, 1e3), method="bounded", options={"xatol": 1e-12})
    theta = float(res.x)
    exponent = theta * target - 0.5 * theta * theta * sigma * sigma
    n = int(math.ceil((math.log(4.0 / xi) + 2.0 / tau) / exponent))
    return n, theta


_FIXED_TAUS = (0.5, 0.2, 0.1, 0.05, 0.02)
_LOG_TAUS = tuple(0.1 / math.log(1.0 + t) for t in range(1, 1997, 7))


@pytest.mark.parametrize("sigma", [0.05, 0.1, 0.5, 1.0, 2.0])
def test_gaussian_closed_form_equals_the_optimized_chernoff_count(sigma):
    for xi in (1e-5, 0.1, 0.5):
        for tau in _FIXED_TAUS + _LOG_TAUS:
            n, theta = _optimized_gaussian_count(tau, xi, sigma)
            calc = GaussianNoise(sigma).sample_calc(tau, xi)
            assert calc.n == n, (sigma, xi, tau)
            assert calc.theta_star == pytest.approx(theta, rel=1e-7)


@pytest.mark.parametrize("make, name", [
    (BoundedNoise, "interval_width"), (GaussianNoise, "sigma")])
@pytest.mark.parametrize("scale", [1e-200, 1e200, math.inf, math.nan])
def test_noise_scales_without_a_positive_finite_square_are_refused(
        make, name, scale):
    # 1e-200 squares to 0.0, and a bounded width of 1e-200 sized every
    # estimate to 0 samples, a run on exact utilities; 1e200 squares to inf
    with pytest.raises(ValueError, match=name):
        make(scale)


def test_sample_counts_that_are_not_finite_are_refused():
    # tau^2 underflows to 0.0: the counts divided by zero
    with pytest.raises(ValueError, match=r"sample count at tau=1e-300 and "
                       r"xi=1e-05 of BoundedNoise\(interval_width=1\.0\) "
                       r"is not finite"):
        BoundedNoise(1.0).required_samples(1e-300, 1e-5)
    with pytest.raises(ValueError, match=r"sample count at tau=1e-200 and "
                       r"xi=1e-05 of GaussianNoise\(sigma=1\.0\) is not "
                       r"finite"):
        GaussianNoise(1.0).required_samples(1e-200, 1e-5)
    with pytest.raises(ValueError, match="not finite"):
        BoundedNoise(1e150).required_samples(1e-10, 1e-5)  # overflows


def test_a_sample_count_that_rounds_to_zero_is_one():
    # tau^2 overflows to inf, so both bounds computed N = 0: the run read
    # exact utilities
    assert BoundedNoise(1.0).required_samples(1e300, 1e-5) == 1
    assert GaussianNoise(1.0).required_samples(1e300, 1e-5) == 1
    traj = run_blla(seeded_game(0, 2, 2, seed=25), FixedTemperature(1e300),
                    BoundedNoise(1.0), 1e-5, horizon=5, rng_seed=1)
    assert traj.n_samples.tolist() == [1] * 5


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
        start = AssignmentProfile(channels)
        if trial == channels[player]:
            assert n_acc == 0  # self-trials never move
            continue
        du = game.utility_exact(start, player) - game.utility_exact(
            game.with_channel(start, player, trial), player)
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
    assert np.all(traj.trial == 0) and traj.horizon == 20
    assert np.all(traj.profiles == traj.initial_channels)


def test_schedules_and_noise_models_declare_no_defaults():
    # every value comes from the config, which holds the only defaults
    for cls in (FixedTemperature, LogDecreasingTemperature, BoundedNoise,
                GaussianNoise):
        for f in dataclasses.fields(cls):
            assert f.default is dataclasses.MISSING, (cls.__name__, f.name)


def test_sample_count_recomputed_each_slot():
    game = seeded_game(0, 2, 2, seed=25)
    sch = LogDecreasingTemperature(scale=0.1)
    noise = BoundedNoise(interval_width=1.0)
    traj = run_blla(game, sch, noise, 1e-5, horizon=40, rng_seed=1)
    for k in range(40):
        t = k + 1
        assert traj.tau[k] == sch.tau_at(t)
        assert traj.n_samples[k] == noise.required_samples(sch.tau_at(t),
                                                           1e-5)


def test_better_response_is_monotone_in_deterministic_mode():
    game = seeded_game(0, 4, 3, seed=25)
    traj = run_br(game, n_samples=None, horizon=200, rng_seed=3)
    diffs = np.diff(traj.sum_rate)
    assert np.all(diffs >= -1e-9)
    # and it parks at a profile no unilateral switch improves
    final = AssignmentProfile(traj.profiles[-1])
    for player in game.active_players:
        u = game.utility_exact(final, int(player))
        for c in range(3):
            if c == int(final.channels[player]):
                continue
            u_alt = game.utility_exact(
                game.with_channel(final, int(player), c), int(player))
            assert u_alt <= u + 1e-12


# ----------------------------------------------------------------------
# trajectory runners


def test_runs_are_seed_reproducible():
    game = seeded_game(0, 3, 3, seed=7)
    noise = BoundedNoise(interval_width=1.0)
    a = run_blla(game, FixedTemperature(0.2), noise, 1e-3, 30, rng_seed=9)
    b = run_blla(game, FixedTemperature(0.2), noise, 1e-3, 30, rng_seed=9)
    assert np.array_equal(a.profiles, b.profiles)
    assert np.array_equal(a.delta_hat, b.delta_hat)
    c = run_blla(game, FixedTemperature(0.2), noise, 1e-3, 30, rng_seed=10)
    assert not np.array_equal(a.profiles, c.profiles)


def test_passive_players_never_move():
    game = seeded_game(1, 3, 3, seed=7)
    noise = BoundedNoise(interval_width=1.0)
    traj = run_blla(game, FixedTemperature(0.2), noise, 1e-3, 60, rng_seed=2)
    assert np.all(traj.profiles[:, 0] == 0)
    assert np.all(traj.player != 0)


def test_trajectory_windows_and_occupancy():
    game = seeded_game(0, 2, 2, seed=25)
    traj = run_br(game, None, horizon=8, rng_seed=1)
    # final 25% of 8 slots = the last 2
    assert _window_start(traj.horizon) == 6
    optimum = brute_force_optimum(game)
    occ = _optimal_share(game, traj.sum_rate[6:], optimum.normalized_phi_star)
    hits = sum(1 for row in traj.profiles[6:].tolist()
               if tuple(row) in optimum.keys)
    assert occ == hits / 2


def test_runner_argument_guards():
    game = seeded_game(0, 2, 2, seed=25)
    with pytest.raises(ValueError):
        run_br(game, 0, horizon=5, rng_seed=1)
    with pytest.raises(ValueError):
        run_br(game, 1, horizon=-1, rng_seed=1)
    empty = run_br(game, 1, horizon=0, rng_seed=1)
    assert empty.horizon == 0
    assert np.array_equal(empty.initial_channels, game.initial_profile(
        np.random.Generator(np.random.SFC64(1))).channels)
    # a start profile must fit the game: its link count, its channel range
    # and distinct channels for the cellular links
    cells = seeded_game(2, 2, 3, seed=5)  # links 0 and 1 are cellular
    for start, why in ((AssignmentProfile([0, 0, 1, 2]), "distinct"),
                       (AssignmentProfile([0, 1, 2]), "3 links, the game 4"),
                       (AssignmentProfile([0, 1, 2, 3]), "player 3 holds")):
        with pytest.raises(ValueError, match=why):
            run_br(cells, 1, 5, 1, initial_profile=start)


def test_non_integer_count_or_channel_is_refused():
    # True ran as one sample, 0.5 as a channel no link holds, and a whole
    # float such as 2.0 died in Python's TypeError
    config = ExperimentConfig(num_uec=0, num_ued=3, num_channels=2)
    game = config.game(config.topology(0))
    prof = AssignmentProfile([0, 1, 0])
    blla = functools.partial(run_blla, game, FixedTemperature(0.1),
                             BoundedNoise(1.0), 0.1)
    for value in (True, np.True_, 2.0, 0.5, np.array(2), "2"):
        for name, refused in (
                ("n_samples", lambda: utility_mean(game, prof, 0, value, 0)),
                ("n_samples", lambda: run_br(game, value, 5, 0)),
                ("channel", lambda: cochannel_set(prof, value)),
                ("horizon", lambda: run_br(game, None, value, 0)),
                ("horizon", lambda: blla(value, 0))):
            with pytest.raises(ValueError, match=re.escape(
                    f"{name} {value!r} is not an integer")):
                refused()
    # Python's and numpy's integers still count
    assert cochannel_set(prof, np.int16(0)).tolist() == [0, 2]
    assert run_br(game, np.int64(2), np.uint8(3), 0).horizon == 3
    assert math.isfinite(utility_mean(game, prof, 1, np.int32(2), 0))


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
    traj = run_br(game, None, horizon=30, rng_seed=1)
    moved = traj.trial != traj.initial_channels[0]
    assert moved.any() and np.all(traj.delta_hat[moved] == 0.0)
    assert not traj.accepted.any()
    assert np.all(traj.profiles == traj.initial_channels)
    assert np.all(np.isnan(traj.tau))

def test_exact_runs_record_no_samples_and_draw_no_fading(monkeypatch):
    game = seeded_game(1, 3, 3, seed=7)

    def never(*args, **kwargs):
        raise AssertionError("an exact run sampled a utility")

    monkeypatch.setattr(learning_module, "utility_mean", never)
    for traj in (run_blla(game, FixedTemperature(0.2), None, 1e-5, 60, 4),
                 run_blla(game, LogDecreasingTemperature(0.5), None, 0.5, 60,
                          5),
                 run_br(game, None, 60, 6)):
        assert np.all(traj.n_samples == 0)
        assert (traj.delta_hat != 0.0).any() and traj.accepted.any()


def test_exact_runs_check_only_their_start(monkeypatch):
    # every later profile is a with_channel copy of the checked start, so
    # the exact phases do not check it again, as utility_mean's do not
    game = seeded_game(1, 3, 3, seed=7)
    want = [run_blla(game, FixedTemperature(0.2), None, 1e-5, 60, 4),
            run_br(game, None, 60, 6)]
    checks = []

    def counted(profile):
        checks.append(profile)
        return CapGame.check_profile(game, profile)

    monkeypatch.setattr(game, "check_profile", counted)
    got = [run_blla(game, FixedTemperature(0.2), None, 1e-5, 60, 4),
           run_br(game, None, 60, 6)]
    for a, b in zip(got, want):
        assert_same_trajectory(a, b)
        assert (a.delta_hat != 0.0).any()
    assert len(checks) == 2  # one start per run


def test_one_game_serves_learning_and_exact_analysis():
    # a sampled run fills the game's exact memos through its running
    # potential; analysis on that game reads the same floats as on a new one
    config = ExperimentConfig(num_uec=1, num_ued=3, num_channels=3,
                              cell_radius_m=60.0, topology_seed=7)
    game, fresh = (config.game(config.topology(0)) for _ in range(2))
    traj = run_blla(game, FixedTemperature(0.2), BoundedNoise(1.0), 0.5, 60,
                    rng_seed=8)
    assert traj.accepted.any() and np.all(traj.n_samples > 0)
    got, want = brute_force_optimum(game), brute_force_optimum(fresh)
    assert (got.keys, got.phi_star) == (want.keys, want.phi_star)
    assert gibbs_distribution(game, 0.05).tobytes() \
        == gibbs_distribution(fresh, 0.05).tobytes()
    assert exact_transition_matrix(game, 0.1).tobytes() \
        == exact_transition_matrix(fresh, 0.1).tobytes()
    for channels in enumerate_profiles(fresh):
        prof = AssignmentProfile(channels)
        for player in game.active_players:
            for a, b in ((0, 1), (1, 2), (2, 0)):
                assert verify_potential_identity(game, player, a, b, prof) \
                    == verify_potential_identity(fresh, player, a, b, prof)


# ----------------------------------------------------------------------
# reference slot loop: the per-slot step functions and the zero-active
# trajectory that the shared runner replaced, kept to pin it bit for bit


def reference_blla_step(profile, t, game, schedule, noise, xi, rng):
    """One BLLA slot; returns (profile, tau, n, player, trial, accepted,
    delta_hat).  Draw order: player, trial, phase I, phase II, coin."""
    tau = schedule.tau_at(t)
    n = 0 if noise is None else noise.required_samples(tau, xi)
    active = game.active_players
    player = int(active[rng.integers(len(active))])
    trial = int(rng.integers(game.num_channels))
    if trial == int(profile.channels[player]):
        return profile, tau, n, player, trial, False, 0.0
    trial_profile = game.with_channel(profile, player, trial)
    delta = reference_drop(game, profile, trial_profile, player, n, rng)
    accept = rng.random() < acceptance_probability(delta, tau)
    return (trial_profile if accept else profile, tau, n, player, trial,
            accept, delta)


def reference_drop(game, profile, trial_profile, player, n, rng):
    """Phase I minus phase II: exact utilities when n is 0."""
    if n == 0:
        return (game.utility_exact(profile, player)
                - game.utility_exact(trial_profile, player))
    return (utility_mean(game, profile, player, n, rng)
            - utility_mean(game, trial_profile, player, n, rng))


def reference_br_step(profile, t, game, n, rng):
    active = game.active_players
    player = int(active[rng.integers(len(active))])
    trial = int(rng.integers(game.num_channels))
    if trial == int(profile.channels[player]):
        return profile, math.nan, n, player, trial, False, 0.0
    trial_profile = game.with_channel(profile, player, trial)
    delta = reference_drop(game, profile, trial_profile, player, n, rng)
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
        sum_rate[k] = reference_potential(game, profile)
    return Trajectory(initial_channels=initial, profiles=profiles, tau=tau,
                      n_samples=n_samples, player=player, trial=trial,
                      accepted=accepted, delta_hat=delta_hat,
                      sum_rate=sum_rate)


def reference_constant_trajectory(game, horizon):
    """What a run without active players recorded: the start, held."""
    profile = game.initial_profile()
    rate = reference_potential(game, profile)
    return Trajectory(initial_channels=profile.channels.copy(),
                      profiles=np.tile(profile.channels, (horizon, 1)),
                      tau=np.full(horizon, math.nan),
                      n_samples=np.zeros(horizon, dtype=np.int64),
                      player=np.full(horizon, -1, dtype=np.int32),
                      trial=np.full(horizon, -1, dtype=np.int32),
                      accepted=np.zeros(horizon, dtype=bool),
                      delta_hat=np.full(horizon, math.nan),
                      sum_rate=np.full(horizon, rate))


_TRAJECTORY_FIELDS = [f.name for f in dataclasses.fields(Trajectory)]


def assert_same_trajectory(got, want, fields=_TRAJECTORY_FIELDS):
    for name in fields:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        # bit equality, NaN included
        assert a.tobytes() == b.tobytes(), name


@st.composite
def learning_runs(draw):
    """A game with at least one active player and one learner on it; up
    to five channels, so channels empty, refill and stay empty."""
    num_uec = draw(st.integers(0, 2))
    num_ued = draw(st.integers(1, 4))
    num_channels = draw(st.integers(max(1, num_uec), 5))
    game = seeded_game(num_uec, num_ued, num_channels,
                       seed=draw(st.integers(0, 2 ** 16)))
    learner = draw(st.sampled_from(["fixed", "log", "gaussian", "none",
                                    "br"]))
    if learner == "br":
        n = draw(st.sampled_from([None, 1, 2, 7, 40]))
        run = functools.partial(run_br, game, n)
        step = functools.partial(reference_br_step, game=game, n=n or 0)
    else:
        schedule = LogDecreasingTemperature(scale=draw(st.sampled_from(
            [0.5, 2.0]))) if learner == "log" else FixedTemperature(
            tau=draw(st.sampled_from([0.3, 1.0, 5.0])))
        noise = {"gaussian": GaussianNoise(sigma=0.05),
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
@given(case=learning_runs(), horizon=st.integers(0, 25),
       seed=st.integers(0, 2 ** 32 - 1))
def test_learner_hands_utility_mean_only_profiles_that_fit(case, horizon,
                                                           seed):
    # utility_mean checks its player, not its profile, on the grounds that
    # the learner only passes it profiles that fit the game: wrapped with
    # the check where the learner looks it up, every run completes with
    # the same bits
    game, run, _, initial = case
    want = run(horizon, seed, initial)
    calls = []

    def checked(game_, profile, player, n_samples, rng):
        game_.check_profile(profile)
        calls.append(player)
        return utility_mean(game_, profile, player, n_samples, rng)

    with mock.patch.object(learning_module, "utility_mean", checked):
        got = run(horizon, seed, initial)
    assert_same_trajectory(got, want)
    before = np.vstack([want.initial_channels, want.profiles])[:horizon]
    moved = before[np.arange(horizon), want.player] != want.trial
    assert len(calls) == 2 * int((moved & (want.n_samples > 0)).sum())


def _channel_counts(traj, num_channels):
    """Links per channel (columns) at the start and after each slot."""
    rows = np.vstack([traj.initial_channels, traj.profiles])
    return np.stack([(rows == c).sum(axis=1) for c in range(num_channels)],
                    axis=1)


def _refilled(counts):
    """Whether some channel empties and later holds a link again."""
    for col in counts.T:
        emptied = np.flatnonzero((col[:-1] > 0) & (col[1:] == 0))
        if len(emptied) and (col[emptied[0] + 1:] > 0).any():
            return True
    return False


@pytest.mark.parametrize("links, tau, horizon, seed, corner", [
    pytest.param((0, 2, 3), 1.0, 25, 0, "refilled", id="refilled"),
    pytest.param((1, 2, 5), 1.0, 12, 7, "never-filled", id="never-filled"),
    pytest.param((2, 3, 5), 0.3, 25, 0, "refilled",
                 id="five-channels-two-uecs"),
])
def test_running_potential_matches_reference_at_its_corners(
        links, tau, horizon, seed, corner):
    # a run's sum rates are its profiles' potentials, gathered in one
    # batch after the loop; these runs take the batch through channels
    # that empty and refill, and through one that never holds a link, and
    # the reference adds each profile's channels one by one
    game = seeded_game(*links, seed=seed)
    schedule, noise = FixedTemperature(tau), BoundedNoise(interval_width=1.0)
    got = run_blla(game, schedule, noise, 0.5, horizon, seed)
    step = functools.partial(reference_blla_step, game=game,
                             schedule=schedule, noise=noise, xi=0.5)
    assert_same_trajectory(got, reference_run(game, horizon, seed, None,
                                              step))
    counts = _channel_counts(got, game.num_channels)
    assert got.accepted.sum() >= 3
    if corner == "refilled":
        assert _refilled(counts)
    else:
        assert (counts.sum(axis=0) == 0).any() and _refilled(counts)


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
    game = config.game(config.topology(0))
    want = reference_constant_trajectory(game, horizon)
    got = experiments_module._run_one(config, game, seed)
    assert_same_trajectory(got, want, ("initial_channels", "profiles",
                                       "sum_rate", "accepted"))
    assert got.horizon == horizon


# ----------------------------------------------------------------------
# golden trajectory: the reference cell's shape at its working N


_GOLDEN_FIELDS = ("initial_channels", "profiles", "tau", "n_samples",
                  "player", "trial", "accepted", "delta_hat", "sum_rate")


def test_full_shaped_trajectory_matches_its_golden_digest():
    # 5 UEC + 15 UED on 5 channels, tau = 0.1 and N = 1645 per estimate:
    # 40 slots, 25 of them taken switches, hashed field by field, so any
    # bit drift in the fading draw, the rate kernel or the batch of the
    # profiles' potentials changes the digest
    config = ExperimentConfig(num_uec=5, num_ued=15, num_channels=5,
                              cell_radius_m=200.0, tau=0.1, horizon=40,
                              realizations=1, track_optimum=False)
    traj = experiments_module._run_one(config, config.game(config.topology(0)),
                                       1000)
    assert set(traj.n_samples.tolist()) == {1645}
    assert int(traj.accepted.sum()) == 25
    digest = hashlib.sha256()
    for name in _GOLDEN_FIELDS:
        digest.update(getattr(traj, name).tobytes())
    assert digest.hexdigest() == \
        "d1637c6cb6f4071c3ff715383323b9f579063987bb1fa709a41de4021f77090d"
