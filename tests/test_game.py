import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dcap.game import (
    AssignmentProfile,
    CapGame,
    cochannel_set,
    potential,
    utility_mean,
    utility_sample,
    verify_potential_identity,
)
from d2dcap.radio import (
    FadingRealization,
    RadioParams,
    generate_topology,
    rate,
    sample_fading_block,
    sinr,
)

from test_radio import manual_topology

DENSE_GAINS = [[1e-9, 2e-11, 3e-11],
               [4e-11, 8e-10, 1.5e-11],
               [2.5e-11, 3.5e-11, 1.2e-9]]


def dense_game(mode="deterministic", num_channels=3):
    params = RadioParams(num_channels=num_channels)
    return CapGame(manual_topology(DENSE_GAINS), params, mode=mode)


def seeded_game(num_uec, num_ued, num_channels, seed, mode="deterministic"):
    params = RadioParams(cell_radius_m=60.0, num_channels=num_channels)
    topo = generate_topology(params, num_uec, num_ued, seed)
    return CapGame(topo, params, mode=mode)


# ----------------------------------------------------------------------
# profiles


def test_profile_is_write_locked():
    prof = AssignmentProfile(channels=[0, 1, 2], passive=[False] * 3)
    with pytest.raises(ValueError):
        prof.channels[0] = 1
    moved = prof.with_channel(0, 1)
    assert moved.key() == (1, 1, 2)
    assert prof.key() == (0, 1, 2)


def test_profile_passive_rules():
    prof = AssignmentProfile(channels=[0, 1], passive=[True, False])
    with pytest.raises(ValueError):
        prof.with_channel(0, 1)
    with pytest.raises(ValueError):
        AssignmentProfile(channels=[0, 0], passive=[True, True]).validate(2)
    with pytest.raises(ValueError):
        AssignmentProfile(channels=[0, 5], passive=[False, False]).validate(3)
    with pytest.raises(ValueError):
        AssignmentProfile(channels=[0, 1, 2], passive=[False, False])


def test_cochannel_set():
    prof = AssignmentProfile(channels=[2, 0, 2, 1], passive=[False] * 4)
    assert list(cochannel_set(prof, 2)) == [0, 2]
    assert list(cochannel_set(prof, 3)) == []


def test_initial_profile():
    game = seeded_game(2, 3, 3, seed=4)
    prof = game.initial_profile()
    assert prof.key()[:2] == (0, 1)
    assert np.all(prof.channels[2:] == 0)
    randomized = game.initial_profile(np.random.default_rng(0))
    assert randomized.key()[:2] == (0, 1)
    randomized.validate(3)


# ----------------------------------------------------------------------
# exact utilities against the scalar reference path


def test_utility_matches_scalar_composition():
    game = dense_game()
    topo, params = game.topology, game.params
    prof = AssignmentProfile(channels=[0, 0, 1], passive=[False] * 3)
    unit = FadingRealization.unit(3)

    def link_rate(channels, ue):
        return float(rate(sinr(topo, params, channels, ue, unit),
                          params.bandwidth_hz))

    # removing player 0's transmission is, for the other members, the same
    # as moving player 0 to the unused channel 2
    with_i = link_rate([0, 0, 1], 0) + link_rate([0, 0, 1], 1)
    without_i = link_rate([2, 0, 1], 1)
    expect = (with_i - without_i) / game.phi_max
    assert game.utility_exact(prof, 0) == pytest.approx(expect, rel=1e-12)


def test_potential_is_sum_of_link_rates():
    game = dense_game()
    topo, params = game.topology, game.params
    prof = AssignmentProfile(channels=[1, 0, 1], passive=[False] * 3)
    unit = FadingRealization.unit(3)
    expect = sum(float(rate(sinr(topo, params, [1, 0, 1], ue, unit),
                            params.bandwidth_hz)) for ue in range(3))
    assert game.potential_exact(prof) == pytest.approx(expect, rel=1e-12)
    norm = game.normalized_potential(prof)
    assert 0.0 < norm <= 1.0
    assert norm == pytest.approx(expect / game.phi_max, rel=1e-12)


def test_utility_locality():
    # moves on other channels do not touch a player's utility
    game = seeded_game(0, 4, 3, seed=8)
    a = AssignmentProfile(channels=[0, 1, 1, 2], passive=[False] * 4)
    b = a.with_channel(3, 1)  # player 0 still alone on channel 0
    assert game.utility_exact(a, 0) == game.utility_exact(b, 0)


def test_potential_identity_exhaustive():
    from d2dcap.analysis import enumerate_profiles

    for seed, act, ch in [(11, 3, 2), (12, 4, 3)]:
        game = seeded_game(0, act, ch, seed=seed)
        worst = 0.0
        for prof in enumerate_profiles(game):
            for player in game.active_players:
                for target in range(ch):
                    worst = max(worst, verify_potential_identity(
                        game, int(player), int(prof.channels[player]),
                        target, prof))
        assert worst <= 1e-12


@st.composite
def exact_queries(draw):
    """A seeded game and a random sequence of exact evaluations on it:
    (profile, player) pairs, player None for the potential.  Small spaces
    make profiles, and channel member sets across profiles, recur."""
    num_uec = draw(st.integers(0, 1))
    num_ued = draw(st.integers(1, 5))
    num_channels = draw(st.integers(max(1, num_uec), 4))
    game = seeded_game(num_uec, num_ued, num_channels,
                       seed=draw(st.integers(0, 2 ** 16)),
                       mode=draw(st.sampled_from(["deterministic", "noisy"])))
    base = game.initial_profile()
    players = [None, *game.active_players.tolist()]
    queries = []
    for _ in range(draw(st.integers(1, 60))):
        ch = base.channels.copy()
        ch[game.active_players] = draw(st.lists(
            st.integers(0, num_channels - 1), min_size=num_ued,
            max_size=num_ued))
        queries.append((AssignmentProfile(channels=ch, passive=base.passive),
                        draw(st.sampled_from(players))))
    return game, queries


@given(case=exact_queries())
@settings(max_examples=150)
def test_exact_evaluations_match_a_fresh_game(case):
    # one warm game answers every query as a new game's first evaluation
    game, queries = case
    for profile, player in queries:
        fresh = CapGame(game.topology, game.params, mode=game.mode)
        if player is None:
            assert game.potential_exact(profile) \
                == fresh.potential_exact(profile)
        else:
            assert game.utility_exact(profile, player) \
                == fresh.utility_exact(profile, player)


def test_identity_check_requires_deterministic_mode():
    game = dense_game(mode="noisy")
    prof = AssignmentProfile(channels=[0, 0, 1], passive=[False] * 3)
    with pytest.raises(ValueError):
        verify_potential_identity(game, 0, 0, 1, prof)


# ----------------------------------------------------------------------
# sampled utilities


def test_unit_fading_sample_equals_exact():
    noisy = dense_game(mode="noisy")
    exact = dense_game(mode="deterministic")
    prof = AssignmentProfile(channels=[0, 0, 0], passive=[False] * 3)
    got = utility_sample(noisy, prof, 1, FadingRealization.unit(3))
    assert got == pytest.approx(exact.utility_exact(prof, 1), rel=1e-12)


def test_single_sample_mean_is_bitwise_reproducible():
    game = dense_game(mode="noisy", num_channels=1)
    prof = game.initial_profile()
    g1 = np.random.Generator(np.random.SFC64(7))
    mean = utility_mean(game, prof, 1, 1, g1).mean
    g2 = np.random.Generator(np.random.SFC64(7))
    block = sample_fading_block(g2, (3, 3, 1), np.float32)
    single = utility_sample(game, prof, 1, FadingRealization(block[:, :, 0]))
    assert mean == single


def test_utility_mean_consistency_and_variance_scaling():
    game = dense_game(mode="noisy")
    prof = AssignmentProfile(channels=[0, 0, 0], passive=[False] * 3)
    est1 = utility_mean(game, prof, 0, 4000, rng_seed=1, retain_samples=True)
    est2 = utility_mean(game, prof, 0, 4000, rng_seed=2, retain_samples=True)
    s1 = est1.samples.std(ddof=1)
    se = s1 / math.sqrt(4000)
    assert abs(est1.mean - est2.mean) <= 6.0 * se * math.sqrt(2.0)

    rng = np.random.default_rng(3)
    means16 = np.array([utility_mean(game, prof, 0, 16, rng).mean
                        for _ in range(250)])
    ratio = s1 / means16.std(ddof=1)
    assert 2.5 <= ratio <= 6.0  # ~4 expected for 16x the samples


def test_deterministic_mode_mean_ignores_sampling():
    game = dense_game()
    prof = AssignmentProfile(channels=[0, 0, 1], passive=[False] * 3)
    est = utility_mean(game, prof, 0, 50, rng_seed=0)
    assert est.mean == game.utility_exact(prof, 0)
    assert est.n_samples == 50


def test_utility_argument_guards():
    game = seeded_game(1, 2, 3, seed=5, mode="noisy")
    prof = game.initial_profile()
    with pytest.raises(ValueError):
        utility_mean(game, prof, 0, 4, rng_seed=0)  # passive player
    with pytest.raises(ValueError):
        utility_mean(game, prof, 1, 0, rng_seed=0)  # bad sample count
    with pytest.raises(ValueError):
        utility_sample(game, prof, 0, FadingRealization.unit(3))


def test_monte_carlo_potential_tracks_exact():
    noisy = dense_game(mode="noisy")
    exact = dense_game(mode="deterministic")
    prof = AssignmentProfile(channels=[0, 0, 1], passive=[False] * 3)
    det_value = potential(exact, prof)
    assert det_value == exact.potential_exact(prof)
    mc = potential(noisy, prof, num_mc=20000, rng_seed=11)
    # fading moves the mean; it must stay on the same scale and be finite
    assert 0.2 * det_value <= mc <= 3.0 * det_value
    mc2 = potential(noisy, prof, num_mc=20000, rng_seed=11)
    assert mc == mc2


def test_game_mode_guard():
    with pytest.raises(ValueError):
        dense_game(mode="half-noisy")


# ----------------------------------------------------------------------
# the rate kernel against the scalar sinr/rate reference


@st.composite
def kernel_cases(draw):
    """Random gains spanning both SINR clamps, a profile, an active player
    and float64 fading over all links."""
    num_links = draw(st.integers(1, 4))
    num_uec = draw(st.integers(0, min(1, num_links - 1)))
    num_channels = draw(st.integers(max(1, num_uec), 3))
    exps = draw(st.lists(st.floats(-17.0, -10.0), min_size=num_links ** 2,
                         max_size=num_links ** 2))
    gains = (10.0 ** np.array(exps)).reshape(num_links, num_links)
    channels = draw(st.lists(st.integers(0, num_channels - 1),
                             min_size=num_links, max_size=num_links))
    channels[:num_uec] = range(num_uec)
    player = draw(st.integers(num_uec, num_links - 1))
    fading = draw(st.lists(st.floats(0.01, 10.0), min_size=num_links ** 2,
                           max_size=num_links ** 2))
    game = CapGame(manual_topology(gains, num_uec=num_uec),
                   RadioParams(num_channels=num_channels), mode="noisy")
    prof = AssignmentProfile(channels=channels,
                             passive=[k < num_uec for k in range(num_links)])
    fad = FadingRealization(np.array(fading).reshape(num_links, num_links))
    return game, prof, player, fad


@given(case=kernel_cases())
def test_rate_kernel_matches_scalar_reference(case):
    game, prof, player, fad = case
    topo, params = game.topology, game.params
    channels = np.asarray(prof.channels, dtype=np.int64)
    members = cochannel_set(prof, int(channels[player]))

    def rate_sum(chans, links, fading):
        return sum(float(rate(sinr(topo, params, chans, ue, fading),
                              params.bandwidth_hz)) for ue in links)

    # silencing the player is, for the others, moving it to an empty channel
    moved = channels.copy()
    moved[player] = -1
    with_i = rate_sum(channels, members, fad)
    without_i = rate_sum(moved, [j for j in members if j != player], fad)
    got = utility_sample(game, prof, player, fad)
    assert got == pytest.approx((with_i - without_i) / game.phi_max,
                                rel=1e-12, abs=1e-15)

    unit = FadingRealization.unit(game.num_players)
    expect = rate_sum(channels, range(game.num_players), unit)
    assert game.potential_exact(prof) == pytest.approx(expect, rel=1e-12)


# float32 outputs captured from the sampling pipeline; any change to the
# random stream or to the float32 evaluation order shows here
GOLDEN_SAMPLES = {
    1: [0.25000001006353245, 0.25000001006353245,
        0.25000001006353245, 0.25000001006353245,
        0.25000001006353245],
    2: [0.25000001006353245, 0.23985321767516837,
        0.1430446240002202, 0.25000001006353245,
        0.15730511276124556],
    3: [0.19719372797893783, 0.14984795583593677,
        0.1738593303091801, 0.2317714142409148,
        0.16568246879369566],
    4: [0.16310898544551086, 0.18679009661594925,
        0.18313255309866697, 0.20308467539481562,
        0.16156275679843463],
}
GOLDEN_MEANS = {
    (1, 1): 0.25000001006353245,
    (1, 5): 0.25000001006353245,
    (1, 40000): 0.25000001006353245,
    (1, 65537): 0.25000001006353245,
    (2, 1): 0.25000001006353245,
    (2, 5): 0.2080405949127398,
    (2, 40000): 0.18590373162685275,
    (2, 65537): 0.18574258468097038,
    (3, 1): 0.24950846061012708,
    (3, 5): 0.18367097943173302,
    (3, 40000): 0.19120958744072897,
    (3, 65537): 0.191289253481363,
    (4, 1): 0.23745148878532302,
    (4, 5): 0.17953581347067543,
    (4, 40000): 0.19093379382383927,
    (4, 65537): 0.1906126155291029,
}
GOLDEN_POTENTIAL = {
    1: 3244788.418661369,
    7: 2429757.437432673,
    40000: 2819203.0235842443,
}
# single samples of a six-member channel: eleven rate terms in one sum
GOLDEN_SINGLE = [-0.08504208084640098, -0.08213127661450444,
                 -0.12441632097727191, -0.027455226584355077,
                 -0.02072089262803996, -0.0738670929960109,
                 -0.08747990347184502, -0.09851052387594338]
GOLDEN_RETAINED = {
    1: (0.2500000100635324, '0204110ea376a5f7'),
    2: (0.18590373162685278, '87e577781b66acb4'),
    3: (0.19120958744072897, 'cc89b7bbe35369df'),
    4: (0.19093379382383924, '43fb956a14af5b4a'),
}


def golden_game():
    return seeded_game(0, 4, 4, seed=21, mode="noisy")


def golden_profile(m):
    # player 1 shares its channel with m - 1 others
    return AssignmentProfile(channels=[[0, 1, 2, 3], [0, 0, 1, 2],
                                       [0, 0, 0, 1], [0, 0, 0, 0]][m - 1],
                             passive=[False] * 4)


def sfc(seed):
    return np.random.Generator(np.random.SFC64(seed))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_sampled_utilities_match_golden_values(m):
    game, prof = golden_game(), golden_profile(m)
    est = utility_mean(game, prof, 1, 5, sfc(100 + m), retain_samples=True)
    assert est.samples.tolist() == GOLDEN_SAMPLES[m]
    assert est.mean == GOLDEN_MEANS[m, 5]
    assert utility_mean(game, prof, 1, 1, sfc(400 + m)).mean \
        == GOLDEN_MEANS[m, 1]
    # past one evaluation chunk, with and without retained samples
    big = utility_mean(game, prof, 1, 40000, sfc(200 + m))
    assert big.mean == GOLDEN_MEANS[m, 40000]
    kept = utility_mean(game, prof, 1, 40000, sfc(200 + m),
                        retain_samples=True)
    digest = hashlib.sha256(kept.samples.tobytes()).hexdigest()[:16]
    assert (kept.mean, digest) == GOLDEN_RETAINED[m]
    # two kernel passes
    assert utility_mean(game, prof, 1, 65537, sfc(500 + m)).mean \
        == GOLDEN_MEANS[m, 65537]


def test_single_sample_utilities_match_golden_values():
    game = seeded_game(0, 6, 1, seed=21, mode="noisy")
    prof = game.initial_profile()
    got = [utility_mean(game, prof, 2, 1, sfc(600 + s)).mean
           for s in range(8)]
    assert got == GOLDEN_SINGLE


def test_noisy_potential_matches_golden_values():
    game = golden_game()
    prof = AssignmentProfile(channels=[0, 0, 0, 1], passive=[False] * 4)
    for num_mc in (1, 7, 40000):
        got = potential(game, prof, num_mc=num_mc, rng_seed=sfc(300 + num_mc))
        assert got == GOLDEN_POTENTIAL[num_mc]
