import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from d2dcap.game import (
    AssignmentProfile,
    CapGame,
    cochannel_set,
    utility_mean,
    verify_potential_identity,
)
from d2dcap.radio import generate_topology, sample_fading_block

from reference import (chunked_utility_mean, estimate_chunk,
                       gathered_rate_kernel, potential, rate,
                       reference_kernel_weights, reference_potential, sinr,
                       utility_sample)
from test_radio import _state, cell, manual_topology

DENSE_GAINS = [[1e-9, 2e-11, 3e-11],
               [4e-11, 8e-10, 1.5e-11],
               [2.5e-11, 3.5e-11, 1.2e-9]]


def dense_game(num_channels=3):
    params = cell(num_channels=num_channels)
    return CapGame(manual_topology(DENSE_GAINS), params)


def seeded_game(num_uec, num_ued, num_channels, seed):
    params = cell(cell_radius_m=60.0, num_channels=num_channels)
    topo = generate_topology(params, num_uec, num_ued, seed)
    return CapGame(topo, params)


# ----------------------------------------------------------------------
# profiles


def test_profile_is_write_locked():
    source = np.array([0, 1, 2])
    prof = AssignmentProfile(source)
    assert prof.channels.dtype == np.int16
    with pytest.raises(ValueError):
        prof.channels[0] = 1
    source[0] = 2  # the profile keeps its own copy
    moved = dense_game().with_channel(prof, 0, 1)
    assert tuple(moved.channels.tolist()) == (1, 1, 2)
    assert tuple(prof.channels.tolist()) == (0, 1, 2)


def test_profile_refuses_channels_it_would_wrap_or_truncate():
    # the int16 cast held each of these as [1 0 0 0] or [1 0], a profile
    # the exact values then read
    for channels, message in (
            (np.array([65537, 0, 0, 0]), "link 0 holds channel 65537, "
                                         "outside int16"),
            ([0, -32769, 0, 0], "link 1 holds channel -32769"),
            ([1.7, 0, 0, 0], "not float64: link 0 holds 1.7"),
            ([0, 1.7, 0], "not float64: link 1 holds 1.7"),
            ([0, 0.0, np.nan], "not float64: link 2 holds nan"),
            (np.array([1.0, 0.0]), "not float64: link 0 holds 1.0"),
            (np.array([0, 2.0], object), "not object: link 1 holds 2.0"),
            ([0, 2 ** 70], f"link 1 holds channel {2 ** 70}, outside int16"),
            (np.array([True, False]), "not bool: link 0 holds True"),
            # not vectors: the 2-D one passed check_profile and failed in
            # numpy's scalar conversion later, the 0-d one in len()
            (np.array([[0], [1], [0]], np.int16), r"shape \(3, 1\)"),
            (np.int16(1), r"must be 1-D, not of shape \(\)")):
        with pytest.raises(ValueError, match=message):
            AssignmentProfile(channels)
    for dtype in (np.int8, np.uint8, np.int16, np.int64, np.uint64):
        source = np.array([2, 0, 1], dtype)
        prof = AssignmentProfile(source)
        source[0] = 0  # the profile keeps its own copy
        assert prof.channels.dtype == np.int16
        assert prof.channels.tolist() == [2, 0, 1]
    # Python ints past int64 make an object vector; in int16 it is kept
    assert AssignmentProfile(np.array([2, 0, 1], object)).channels.tolist() \
        == [2, 0, 1]
    assert AssignmentProfile([]).channels.dtype == np.int16


def test_profile_passive_rules():
    # the passive (cellular) players are the game's, never the profile's
    game = seeded_game(2, 1, 3, seed=4)
    prof = AssignmentProfile([0, 1, 2])
    game.check_profile(prof)
    with pytest.raises(ValueError, match="player 0 is passive"):
        game.with_channel(prof, 0, 2)
    with pytest.raises(ValueError, match=r"players \[0 1\] hold \[1 1\]"):
        game.check_profile(AssignmentProfile([1, 1, 0]))
    with pytest.raises(ValueError, match="player 2 holds channel 5"):
        game.check_profile(AssignmentProfile([0, 1, 5]))
    with pytest.raises(ValueError, match="player 1 holds channel -1"):
        game.check_profile(AssignmentProfile([0, -1, 2]))
    with pytest.raises(ValueError, match="profile has 4 links, the game 3"):
        game.check_profile(AssignmentProfile([0, 1, 2, 0]))


def test_cochannel_set():
    prof = AssignmentProfile([2, 0, 2, 1])
    assert list(cochannel_set(prof, 2)) == [0, 2]
    assert list(cochannel_set(prof, 3)) == []


def test_initial_profile():
    game = seeded_game(2, 3, 3, seed=4)
    prof = game.initial_profile()
    assert tuple(prof.channels[:2].tolist()) == (0, 1)
    assert np.all(prof.channels[2:] == 0)
    randomized = game.initial_profile(np.random.default_rng(0))
    assert tuple(randomized.channels[:2].tolist()) == (0, 1)
    game.check_profile(randomized)


# ----------------------------------------------------------------------
# exact utilities against the scalar reference path


def test_utility_matches_scalar_composition():
    game = dense_game()
    topo, params = game.topology, game.params
    prof = AssignmentProfile([0, 0, 1])
    unit = np.ones((3, 3))

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
    prof = AssignmentProfile([1, 0, 1])
    unit = np.ones((3, 3))
    expect = sum(float(rate(sinr(topo, params, [1, 0, 1], ue, unit),
                            params.bandwidth_hz)) for ue in range(3))
    assert game.potential_exact(prof) == pytest.approx(expect, rel=1e-12)
    norm = game.normalized_potential(prof)
    assert 0.0 < norm <= 1.0
    assert norm == pytest.approx(expect / game.phi_max, rel=1e-12)


def test_utility_locality():
    # moves on other channels do not touch a player's utility
    game = seeded_game(0, 4, 3, seed=8)
    a = AssignmentProfile([0, 1, 1, 2])
    b = game.with_channel(a, 3, 1)  # player 0 still alone on channel 0
    assert game.utility_exact(a, 0) == game.utility_exact(b, 0)


def test_potential_identity_exhaustive():
    from d2dcap.analysis import enumerate_profiles

    for seed, act, ch in [(11, 3, 2), (12, 4, 3)]:
        game = seeded_game(0, act, ch, seed=seed)
        worst = 0.0
        for channels in enumerate_profiles(game):
            prof = AssignmentProfile(channels)
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
                       seed=draw(st.integers(0, 2 ** 16)))
    base = game.initial_profile()
    players = [None, *game.active_players.tolist()]
    queries = []
    for _ in range(draw(st.integers(1, 60))):
        ch = base.channels.copy()
        ch[game.active_players] = draw(st.lists(
            st.integers(0, num_channels - 1), min_size=num_ued,
            max_size=num_ued))
        queries.append((AssignmentProfile(ch), draw(st.sampled_from(players))))
    return game, queries


@given(case=exact_queries())
@settings(max_examples=150)
def test_exact_evaluations_match_a_fresh_game(case):
    # one warm game answers every query as a new game's first evaluation
    game, queries = case
    for profile, player in queries:
        fresh = CapGame(game.topology, game.params)
        if player is None:
            assert game.potential_exact(profile) \
                == fresh.potential_exact(profile)
        else:
            assert game.utility_exact(profile, player) \
                == fresh.utility_exact(profile, player)


@st.composite
def channel_batches(draw):
    """A seeded game, with or without links, and up to 30 rows that fit
    it: cellular links on distinct channels, pairs anywhere, so that with
    up to five channels some channels hold no link in any row."""
    num_uec = draw(st.integers(0, 2))
    num_ued = draw(st.integers(0, 4))
    num_channels = draw(st.integers(max(1, num_uec), 5))
    game = seeded_game(num_uec, num_ued, num_channels,
                       seed=draw(st.integers(0, 2 ** 16)))
    rows = []
    for _ in range(draw(st.integers(0, 30))):
        cellular = draw(st.permutations(range(num_channels)))[:num_uec]
        pairs = draw(st.lists(st.integers(0, num_channels - 1),
                              min_size=num_ued, max_size=num_ued))
        rows.append(cellular + pairs)
    return game, np.array(rows, dtype=np.int16).reshape(len(rows),
                                                         num_uec + num_ued)


@given(case=channel_batches())
@example(case=(seeded_game(0, 0, 3, seed=4),
               np.zeros((5, 0), dtype=np.int16)))
@example(case=(seeded_game(2, 2, 5, seed=9),
               np.array([[0, 1, 1, 1], [2, 0, 0, 2]], dtype=np.int16)))
@settings(max_examples=150)
def test_batch_exact_values_equal_the_per_profile_loops(case):
    # the batch gathers one value per distinct member set; the oracles,
    # on a game of their own, loop over profiles and channels
    game, channels = case
    oracle = CapGame(game.topology, game.params)
    profiles = [AssignmentProfile(row) for row in channels]
    got = game.potentials_exact(channels)
    want = np.array([reference_potential(oracle, p) for p in profiles],
                    dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == (len(channels),)
    assert got.tobytes() == want.tobytes()
    assert [game.potential_exact(p) for p in profiles] == want.tolist()
    for i in game.active_players:
        got = game.utilities_exact(channels, i)
        want = np.array([oracle.set_utility_exact(
            cochannel_set(p, int(p.channels[i])), i) for p in profiles],
            dtype=np.float64)
        assert got.dtype == np.float64 and got.shape == (len(channels),)
        assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# sampled utilities


def test_unit_fading_sample_equals_exact():
    game = dense_game()
    prof = AssignmentProfile([0, 0, 0])
    got = utility_sample(game, prof, 1, np.ones((3, 3)))
    assert got == pytest.approx(game.utility_exact(prof, 1), rel=1e-12)


def test_single_sample_mean_is_bitwise_reproducible():
    game = dense_game(num_channels=1)
    prof = game.initial_profile()
    g1 = np.random.Generator(np.random.SFC64(7))
    mean = utility_mean(game, prof, 1, 1, g1)
    g2 = np.random.Generator(np.random.SFC64(7))
    block = sample_fading_block(g2, (3, 3, 1))
    single = utility_sample(game, prof, 1, block[:, :, 0])
    assert mean == single


def sampled_kernel(game, profile, player, n_samples, rng_seed):
    """The float32 kernel values of one whole fading block of
    ``n_samples``, drawn at once."""
    rng = np.random.default_rng(rng_seed)
    members = cochannel_set(profile, int(profile.channels[player]))
    block = sample_fading_block(rng, (len(members), len(members), n_samples))
    return game._rate_kernel(members, block, player)


def sampled_utilities(game, profile, player, n_samples, rng_seed):
    """The per-sample utilities ``utility_mean`` averages, from the same
    draw and kernel, as float64; one chunk's worth when ``n_samples`` is
    at most 1.5 chunks."""
    acc = sampled_kernel(game, profile, player, n_samples, rng_seed)
    return acc.astype(np.float64) * game._util_scale


def whole_block_mean(game, profile, player, n_samples, rng_seed):
    """The estimate as one whole block and one float64 sum."""
    acc = sampled_kernel(game, profile, player, n_samples, rng_seed)
    return float(acc.sum(dtype=np.float64)) / n_samples * game._util_scale


def test_utility_mean_consistency_and_variance_scaling():
    game = dense_game()
    prof = AssignmentProfile([0, 0, 0])
    mean1 = utility_mean(game, prof, 0, 4000, rng_seed=1)
    mean2 = utility_mean(game, prof, 0, 4000, rng_seed=2)
    s1 = sampled_utilities(game, prof, 0, 4000, rng_seed=1).std(ddof=1)
    se = s1 / math.sqrt(4000)
    assert abs(mean1 - mean2) <= 6.0 * se * math.sqrt(2.0)

    rng = np.random.default_rng(3)
    means16 = np.array([utility_mean(game, prof, 0, 16, rng)
                        for _ in range(250)])
    ratio = s1 / means16.std(ddof=1)
    assert 2.5 <= ratio <= 6.0  # ~4 expected for 16x the samples


def test_utility_argument_guards():
    game = seeded_game(1, 2, 3, seed=5)
    prof = game.initial_profile()
    with pytest.raises(ValueError, match="player 0 is passive"):
        utility_mean(game, prof, 0, 4, rng_seed=0)
    with pytest.raises(ValueError):
        utility_mean(game, prof, 1, 0, rng_seed=0)  # bad sample count
    with pytest.raises(ValueError, match="player 0 is passive"):
        utility_sample(game, prof, 0, np.ones((3, 3)))
    with pytest.raises(ValueError, match="player 0 is passive"):
        verify_potential_identity(seeded_game(1, 2, 3, seed=5), 0, 0, 1,
                                  prof)


def test_monte_carlo_potential_tracks_exact():
    game = dense_game()
    prof = AssignmentProfile([0, 0, 1])
    det_value = game.potential_exact(prof)
    mc = potential(game, prof, num_mc=20000, rng_seed=11)
    # fading moves the mean; it must stay on the same scale and be finite
    assert 0.2 * det_value <= mc <= 3.0 * det_value
    mc2 = potential(game, prof, num_mc=20000, rng_seed=11)
    assert mc == mc2
    with pytest.raises(ValueError, match="player 2 holds channel 3"):
        potential(game, AssignmentProfile([0, 0, 3]), num_mc=4)


def test_player_index_outside_the_game_is_refused():
    # 4 pairs on 2 channels, all on channel 0: a negative index would read
    # the last player's passive flag and silence the first in the kernel
    game = seeded_game(0, 4, 2, seed=25)
    prof = game.initial_profile()
    assert game.utility_exact(prof, 3) != game.utility_exact(prof, 0)
    for player in (-1, 4):
        with pytest.raises(ValueError, match=f"player {player} is outside "
                                             r"0\.\.3"):
            game.utility_exact(prof, player)
        with pytest.raises(ValueError, match="outside"):
            utility_mean(game, prof, player, 4, rng_seed=0)
        with pytest.raises(ValueError, match="outside"):
            utility_sample(game, prof, player, np.ones((4, 4)))
        with pytest.raises(ValueError, match="outside"):
            game.with_channel(prof, player, 1)


def test_non_integer_player_or_channel_is_refused():
    # cast to int16, channel 1.9 became 1 and 0.7 became 0, a move that
    # changed nothing, so the identity checked another switch than asked;
    # a bool player failed inside numpy
    game = seeded_game(0, 3, 2, seed=35)
    prof = AssignmentProfile([0, 1, 0])
    for value in (1.9, 0.7, 1.0, True, np.True_, np.array(1), "1"):
        with pytest.raises(ValueError, match=re.escape(
                f"channel {value!r} is not an integer")):
            game.with_channel(prof, 0, value)
        for refused in (lambda: game.with_channel(prof, value, 1),
                        lambda: verify_potential_identity(game, 0, value, 1,
                                                          prof),
                        lambda: game.utility_exact(prof, value),
                        lambda: utility_mean(game, prof, value, 4, 0)):
            with pytest.raises(ValueError, match="is not an integer"):
                refused()
    for index in (1, np.int64(1), np.uint8(1)):
        assert game.with_channel(prof, index, index).channels.tolist() \
            == [0, 1, 0]


def test_exact_values_refuse_a_profile_that_does_not_fit_the_game():
    # unchecked, a channel outside the game left link 0 out of the sum
    # rate, and a profile one link short summed the links it had
    game = seeded_game(0, 4, 3, seed=25)
    wide = AssignmentProfile([7, 0, 0, 0])
    short = AssignmentProfile([0, 0, 0])
    for prof, message in ((wide, r"player 0 holds channel 7, outside 0\.\.2"),
                          (short, "profile has 3 links, the game 4")):
        for value in (game.potential_exact, game.normalized_potential,
                      lambda p: game.utility_exact(p, 0),
                      lambda p: verify_potential_identity(game, 1, 0, 1, p)):
            with pytest.raises(ValueError, match=message):
                value(prof)
    cellular = seeded_game(2, 2, 3, seed=25)
    shared = AssignmentProfile([1, 1, 0, 2])
    for value in (cellular.potential_exact,
                  lambda p: cellular.utility_exact(p, 2)):
        with pytest.raises(ValueError, match="must hold distinct channels"):
            value(shared)


def test_channel_outside_the_game_is_refused():
    game = seeded_game(0, 4, 3, seed=25)
    prof = game.initial_profile()
    for channel in (7, 3, -1):
        with pytest.raises(ValueError, match=f"channel {channel} is outside "
                                             r"0\.\.2"):
            game.with_channel(prof, 1, channel)
        with pytest.raises(ValueError, match="outside"):
            verify_potential_identity(game, 1, 0, channel, prof)
        with pytest.raises(ValueError, match="outside"):
            verify_potential_identity(game, 1, channel, 0, prof)
    assert game.with_channel(prof, 1, 2).channels.tolist() == [0, 2, 0, 0]


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
                   cell(num_channels=num_channels))
    prof = AssignmentProfile(channels)
    fad = np.array(fading).reshape(num_links, num_links)
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

    unit = np.ones((game.num_players, game.num_players))
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
    (3, 5): 0.18367097943173305,
    (3, 40000): 0.19120958744072897,
    (3, 65537): 0.191289253481363,
    (4, 1): 0.23745148878532302,
    (4, 5): 0.17953581347067546,
    (4, 40000): 0.19093379382383927,
    # two chunks of 32,768 and 32,769 samples, drawn one after the other
    (4, 65537): 0.19082842886508627,
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
# sha256 prefixes of the 40,000 per-sample utilities behind GOLDEN_MEANS
GOLDEN_DIGESTS = {
    1: '0204110ea376a5f7',
    2: '87e577781b66acb4',
    3: 'cc89b7bbe35369df',
    4: '43fb956a14af5b4a',
}


def golden_game():
    return seeded_game(0, 4, 4, seed=21)


def golden_profile(m):
    # player 1 shares its channel with m - 1 others
    return AssignmentProfile([[0, 1, 2, 3], [0, 0, 1, 2],
                              [0, 0, 0, 1], [0, 0, 0, 0]][m - 1])


def sfc(seed):
    return np.random.Generator(np.random.SFC64(seed))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_sampled_utilities_match_golden_values(m):
    game, prof = golden_game(), golden_profile(m)
    samples = sampled_utilities(game, prof, 1, 5, sfc(100 + m))
    assert samples.tolist() == GOLDEN_SAMPLES[m]
    assert utility_mean(game, prof, 1, 5, sfc(100 + m)) == GOLDEN_MEANS[m, 5]
    assert utility_mean(game, prof, 1, 1, sfc(400 + m)) == GOLDEN_MEANS[m, 1]
    # past one evaluation chunk
    assert utility_mean(game, prof, 1, 40000, sfc(200 + m)) \
        == GOLDEN_MEANS[m, 40000]
    samples = sampled_utilities(game, prof, 1, 40000, sfc(200 + m))
    digest = hashlib.sha256(samples.tobytes()).hexdigest()[:16]
    assert digest == GOLDEN_DIGESTS[m]
    # two kernel passes; at m = 4, two estimate chunks
    assert utility_mean(game, prof, 1, 65537, sfc(500 + m)) \
        == GOLDEN_MEANS[m, 65537]


def test_single_sample_utilities_match_golden_values():
    game = seeded_game(0, 6, 1, seed=21)
    prof = game.initial_profile()
    got = [utility_mean(game, prof, 2, 1, sfc(600 + s)) for s in range(8)]
    assert got == GOLDEN_SINGLE


def test_noisy_potential_matches_golden_values():
    game = golden_game()
    prof = AssignmentProfile([0, 0, 0, 1])
    for num_mc in (1, 7, 40000):
        got = potential(game, prof, num_mc=num_mc, rng_seed=sfc(300 + num_mc))
        assert got == GOLDEN_POTENTIAL[num_mc]


# ----------------------------------------------------------------------
# estimates streamed in chunks, each drawn and evaluated before the next


def streaming_game():
    return seeded_game(0, 6, 2, seed=21)


def streaming_profile(m):
    # links 0..m-1 share channel 0, the rest channel 1
    return AssignmentProfile([0] * m + [1] * (6 - m))


def chunk_counts(m):
    """Sample counts on both sides of one estimate chunk L and past it."""
    chunk = estimate_chunk(m)
    return [1, chunk - 1, chunk, chunk + chunk // 2, chunk + chunk // 2 + 1,
            2 * chunk, 3 * chunk + 1]


def generator_factory(bit_generator, seed, spare):
    """Fresh equal generators, holding a spare uint32 half if ``spare``,
    as a learning slot leaves one after its integer draws."""
    def fresh():
        rng = np.random.Generator(bit_generator(seed))
        if spare:
            rng.integers(0, 3)
        return rng
    return fresh


GENERATOR_CASES = given(
    bit_generator=st.sampled_from([np.random.SFC64, np.random.PCG64]),
    spare=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))


def generator_examples(test):
    for i, (bit_generator, spare) in enumerate(
            [(np.random.SFC64, False), (np.random.SFC64, True),
             (np.random.PCG64, False), (np.random.PCG64, True)]):
        test = example(bit_generator=bit_generator, spare=spare,
                       seed=i)(test)
    return test


@settings(max_examples=4)
@GENERATOR_CASES
@generator_examples
def test_utility_mean_streams_chunks_as_the_oracle_does(bit_generator, spare,
                                                         seed):
    game = streaming_game()
    fresh = generator_factory(bit_generator, seed, spare)
    for m in range(1, 7):
        prof = streaming_profile(m)
        for n in chunk_counts(m):
            got_rng, want_rng = fresh(), fresh()
            got = utility_mean(game, prof, m - 1, n, got_rng)
            want = chunked_utility_mean(game, prof, m - 1, n, want_rng)
            assert got == want, (m, n)
            assert _state(got_rng) == _state(want_rng)


@settings(max_examples=4)
@GENERATOR_CASES
@generator_examples
def test_one_chunk_estimate_is_the_whole_block_mean(bit_generator, spare,
                                                    seed):
    # up to 1.5 chunks an estimate draws and sums as one whole block; one
    # sample more and the stream is chunk-major, which shows unless a lone
    # link's rate sits at the SINR clamp
    game = streaming_game()
    fresh = generator_factory(bit_generator, seed, spare)
    for m in range(1, 7):
        prof = streaming_profile(m)
        counts = chunk_counts(m)
        for n in counts[:4]:
            assert utility_mean(game, prof, 0, n, fresh()) \
                == whole_block_mean(game, prof, 0, n, fresh()), (m, n)
        if m > 1:
            assert utility_mean(game, prof, 0, counts[4], fresh()) \
                != whole_block_mean(game, prof, 0, counts[4], fresh())


@pytest.mark.parametrize("m", [3, 4])
def test_warm_estimate_memory_does_not_grow_with_n(m):
    # drawing the whole m x m x N block at once peaks at 19.7 MiB at
    # m = 4, N = 265,179, and at 132 MiB at N = 2,000,000
    game = streaming_game()
    prof = streaming_profile(m)
    for n in (49152, 265179, 2000000):
        utility_mean(game, prof, 0, n, sfc(n))  # builds the weight tables
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            utility_mean(game, prof, 0, n, sfc(n))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2 ** 20, (n, peak)


# ----------------------------------------------------------------------
# the kernel's set-up from per-game tables against the per-call set-up it
# replaced, and the kernel against the gathered-row kernel it replaced,
# both kept in reference.py to pin them bit for bit


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.strides == want.strides  # the layout BLAS sums in
    assert got.tobytes() == want.tobytes()


@st.composite
def kernel_set_ups(draw):
    """A game with or without cellular links, one channel's member set of
    1..6 links (at most one of them cellular), a dtype, and no player or
    an active member."""
    num_uec = draw(st.integers(0, 2))
    game = seeded_game(num_uec, 6, max(num_uec, 1),
                       seed=draw(st.integers(0, 2 ** 16)))
    cells = draw(st.lists(st.integers(0, num_uec - 1), max_size=1)) \
        if num_uec else []
    pairs = draw(st.lists(st.integers(num_uec, num_uec + 5), unique=True,
                          min_size=1 - len(cells), max_size=6 - len(cells)))
    members = np.array(sorted(cells + pairs))
    player = draw(st.one_of(st.none(), st.sampled_from(pairs))) \
        if pairs else None
    dtype = np.dtype(draw(st.sampled_from([np.float32, np.float64])))
    return game, members, dtype, player


@settings(max_examples=150)
@given(case=kernel_set_ups())
def test_kernel_set_up_equals_the_per_call_set_up(case):
    game, members, dtype, player = case
    stack, signal, pos = game._kernel_weights(members, dtype, player)
    want = reference_kernel_weights(game, members, dtype, player)
    assert_same_array(stack, want[0])
    assert_same_array(signal, want[1])
    assert stack.flags.c_contiguous
    if player is None or len(members) == 1:  # a plain rate sum
        assert pos is None and len(stack) == 1
    else:
        assert members[pos] == player and len(stack) == 2


# one sample, one pass, one pass joining a last half chunk, and two passes
# whose second holds just over half a chunk and just over a chunk
@pytest.mark.parametrize("n", [1, 2, 1645, 49152, 49153, 65537])
@settings(max_examples=25)
@given(case=kernel_set_ups(), seed=st.integers(0, 2 ** 16))
def test_rate_kernel_equals_the_gathered_row_kernel(n, case, seed):
    game, members, dtype, player = case
    m = len(members)
    block = sample_fading_block(np.random.Generator(np.random.SFC64(seed)),
                                (m, m, n)).astype(dtype)
    assert_same_array(game._rate_kernel(members, block, player),
                      gathered_rate_kernel(game, members, block, player))
