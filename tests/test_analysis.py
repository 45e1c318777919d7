import gc
import math
import os
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import d2dcap
import d2dcap.analysis as analysis_module
from d2dcap.analysis import (
    ResistanceExpr,
    _in_trees,
    brute_force_optimum,
    empirical_resistance,
    enumerate_profiles,
    exact_transition_matrix,
    game_resistance_kernel,
    gibbs_distribution,
    min_resistance_tree_check,
    res_add,
    res_inv,
    res_mul,
    res_of_const,
    res_of_exp,
    res_sub,
    stationary_direct,
    stationary_tree,
    stochastically_stable_states,
)
from d2dcap.experiments import ExperimentConfig, analyze_stationary
from d2dcap.game import AssignmentProfile, CapGame
from d2dcap.learning import acceptance_probability

from test_game import seeded_game


@st.composite
def small_games(draw):
    """Seeded deterministic games: at most 3 active players on at most 3
    channels, with or without one UEC."""
    num_uec = draw(st.integers(0, 1))
    num_ued = draw(st.integers(1, 3))
    num_channels = draw(st.integers(max(1, num_uec), 3))
    seed = draw(st.integers(0, 2 ** 16))
    return seeded_game(num_uec, num_ued, num_channels, seed=seed)


def key(profile):
    """A profile's state label: its channel vector as a tuple."""
    return tuple(profile.channels.tolist())


def state_index(states):
    """Position of each state row, keyed by its channel tuple."""
    return {k: i for i, k in enumerate(map(tuple, states.tolist()))}


def profile_objects(game):
    """The enumerated profiles as AssignmentProfiles, in enumeration
    order."""
    return [AssignmentProfile(ch) for ch in enumerate_profiles(game)]


def single_switches(game):
    """(from, to, player) for every single-active-player channel switch,
    by direct profile manipulation."""
    for a in profile_objects(game):
        for player in game.active_players:
            for c in range(game.num_channels):
                if c != a.channels[player]:
                    yield a, game.with_channel(a, player, c), player


def random_chain(n, seed):
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(n) * 2.0, size=n)


def sparse_chain(n, seed, density):
    """An irreducible sparse chain: a ring through all states plus random
    edges, every edge probability log-uniform in [1e-14, 1 / (degree + 1)],
    the diagonal taking the rest of the row."""
    rng = np.random.default_rng(seed)
    edges = rng.random((n, n)) < density
    edges[np.arange(n), (np.arange(n) + 1) % n] = True
    np.fill_diagonal(edges, False)
    top = np.log10(1.0 / (edges.sum(axis=1, keepdims=True) + 1.0))
    m = np.where(edges, 10.0 ** rng.uniform(-14.0, top, (n, n)), 0.0)
    np.fill_diagonal(m, 1.0 - m.sum(axis=1))
    return m


@st.composite
def sparse_chains(draw):
    n = draw(st.sampled_from([2, 7, 32, 33, 34, 65, 97, 140, 300])
             | st.integers(2, 300))
    return sparse_chain(n, draw(st.integers(0, 2 ** 32 - 1)),
                        draw(st.sampled_from([0.02, 0.1, 0.5])))


def state_by_state_gth(matrix):
    """The unblocked Grassmann-Taksar-Heyman elimination: one rank-1
    update of the whole leading block per eliminated state."""
    n = len(matrix)
    a = matrix.astype(np.float64, copy=True)
    for k in range(n - 1, 0, -1):
        s = float(a[k, :k].sum())
        assert s > 0.0
        a[:k, k] /= s
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ a[:k, k]
    return pi / pi.sum()


# ----------------------------------------------------------------------
# enumeration and brute force


def test_enumerate_profiles_order():
    game = seeded_game(1, 2, 3, seed=5)
    profiles = enumerate_profiles(game)
    assert profiles.shape == (9, 3) and profiles.dtype == np.int16
    assert not profiles.flags.writeable
    keys = list(map(tuple, profiles.tolist()))
    assert keys[0] == (0, 0, 0)
    assert keys[1] == (0, 1, 0)  # lowest active index varies fastest
    assert keys[3] == (0, 0, 1)
    assert len(set(keys)) == 9


def test_enumerate_size_guard():
    game = seeded_game(0, 13, 3, seed=5)  # 3^13 > 1e6
    with pytest.raises(ValueError):
        enumerate_profiles(game)


def test_profile_table_is_built_once_per_game():
    game = seeded_game(1, 3, 3, seed=7)  # 27 profiles, 3 active players
    names = ("set_utility_exact", "set_rate_exact", "utility_exact",
             "potential_exact")
    calls = dict.fromkeys(names, 0)
    for name in calls:
        def counted(*args, _real=getattr(game, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        setattr(game, name, counted)
    # one rate sum per distinct nonempty (channel, member set), one utility
    # per distinct (active player, co-channel set)
    profiles = enumerate_profiles(game)
    sets = {(c, tuple(np.nonzero(row == c)[0]))
            for row in profiles for c in range(3)} \
        - {(c, ()) for c in range(3)}
    memberships = len({(i, tuple(np.nonzero(row == row[i])[0]))
                       for row in profiles for i in game.active_players})
    brute_force_optimum(game)
    gibbs_distribution(game, 0.1)
    assert calls == dict(zip(names, (0, len(sets), 0, 0)))
    stochastically_stable_states(game, (0.1, 0.05))
    for tau in (0.1, 0.05):
        exact_transition_matrix(game, tau)
    game_resistance_kernel(game)
    assert calls == dict(zip(names, (memberships, len(sets), 0, 0)))


def test_every_state_space_is_the_profile_channel_array(monkeypatch):
    config = ExperimentConfig(num_uec=1, num_ued=2, num_channels=2,
                              topology_seed=25)
    game = config.game(config.topology(0))
    channels = analysis_module._table(game).channels
    assert not channels.flags.writeable
    monkeypatch.setattr(ExperimentConfig, "game", lambda self, topo: game)
    assert analyze_stationary(config, (0.1,)).states is channels
    # a chain is its matrix, rows and columns in enumeration order
    kernel = exact_transition_matrix(game, 0.1)
    for matrix in (kernel, game_resistance_kernel(game)):
        assert type(matrix) is np.ndarray and matrix.dtype == np.float64
        assert matrix.shape == (len(channels), len(channels))
    # a stationary law is its probability vector, indexed like the states
    for pi in (stationary_direct(kernel), stationary_tree(kernel),
               gibbs_distribution(game, 0.1)):
        assert type(pi) is np.ndarray and pi.dtype == np.float64
        assert pi.shape == (len(channels),)


def test_profile_table_goes_with_its_game():
    game = seeded_game(0, 2, 2, seed=25)
    exact_transition_matrix(game, 0.1)
    ref = weakref.ref(game)
    del game
    gc.collect()
    assert ref() is None


def test_dense_paths_refuse_before_enumerating(monkeypatch):
    game = seeded_game(0, 9, 3, seed=5)  # 3^9 profiles: a 3.1 GB kernel

    def no_enumeration(game):
        raise AssertionError("enumerated despite the dense guard")

    monkeypatch.setattr(analysis_module, "enumerate_profiles", no_enumeration)
    with pytest.raises(ValueError, match="dense kernel"):
        exact_transition_matrix(game, 0.1)
    with pytest.raises(ValueError, match="dense kernel"):
        game_resistance_kernel(game)


def test_brute_force_matches_manual_scan():
    game = seeded_game(0, 3, 2, seed=11)
    result = brute_force_optimum(game)
    values = {key(p): game.potential_exact(p) for p in profile_objects(game)}
    best = max(values.values())
    manual = {k for k, v in values.items() if best - v <= 1e-12 * game.phi_max}
    assert result.keys == tuple(sorted(manual))
    assert result.phi_star == pytest.approx(best, rel=1e-15)
    assert result.num_evaluated == 8
    assert 0.0 < result.normalized_phi_star <= 1.0


def test_brute_force_reports_relabeling_ties():
    # free channels make the optimal set a full relabeling orbit
    game = seeded_game(0, 4, 3, seed=25)
    result = brute_force_optimum(game)
    assert len(result.keys) == 6
    base = result.keys[0]
    perms = {tuple(p[c] for c in base)
             for p in ((0, 1, 2), (0, 2, 1), (1, 0, 2),
                       (1, 2, 0), (2, 0, 1), (2, 1, 0))}
    assert result.keys == tuple(sorted(perms))


# ----------------------------------------------------------------------
# transition kernel


@pytest.mark.parametrize("solver", [stationary_direct, stationary_tree],
                         ids=["direct", "tree"])
@pytest.mark.parametrize("matrix, message", [
    ([[0.5, 0.5]], "non-empty square"),
    ([0.5, 0.5], "non-empty square"),
    (np.zeros((0, 0)), "non-empty square"),
    ([[1.2, -0.2], [0.0, 1.0]], "non-negative"),
    ([[math.nan, math.nan], [0.5, 0.5]], "finite"),
    ([[0.5, 0.5], [math.nan, 0.5]], "finite"),
    ([[math.inf, 0.5], [0.5, 0.5]], "finite"),
    ([[0.5, 0.4], [0.5, 0.5]], "rows must sum to 1"),
], ids=["not-square", "vector", "empty", "negative", "nan-row", "nan-entry",
        "inf", "rows"])
def test_solvers_refuse_what_is_not_a_chain(solver, matrix, message):
    # a NaN once passed every comparison: the direct solve returned NaNs
    # and the tree theorem the finite, wrong law [1, 0]
    with pytest.raises(ValueError, match=message):
        solver(matrix)


def test_exact_kernel_matches_hand_values():
    game = seeded_game(0, 2, 2, seed=25)
    tau = 0.1
    kernel = exact_transition_matrix(game, tau)
    profiles = profile_objects(game)
    idx = {key(p): i for i, p in enumerate(profiles)}
    for a in profiles:
        for player in (0, 1):
            b = game.with_channel(a, player, 1 - int(a.channels[player]))
            du = game.utility_exact(a, player) - game.utility_exact(b, player)
            want = 0.5 * 0.5 * acceptance_probability(du, tau)
            got = kernel[idx[key(a)], idx[key(b)]]
            assert got == pytest.approx(want, rel=1e-12)
    assert np.allclose(kernel.sum(axis=1), 1.0, atol=1e-14)
    # high temperature: every move accepted with probability ~1/2
    hot = exact_transition_matrix(game, 1e9)
    off = hot[~np.eye(4, dtype=bool)]
    assert np.all(np.abs(off[off > 0] - 0.125) < 1e-9)


def test_kernel_satisfies_detailed_balance():
    game = seeded_game(0, 3, 2, seed=11)
    tau = 0.1
    m = exact_transition_matrix(game, tau)
    pi = gibbs_distribution(game, tau)
    for i in range(len(pi)):
        for j in range(len(pi)):
            if i != j and m[i, j] > 0:
                assert pi[i] * m[i, j] == pytest.approx(pi[j] * m[j, i],
                                                        rel=1e-12)


@given(game=small_games(),
       tau=st.sampled_from([1e9, 0.5, 0.1, 0.02, 0.005]))
def test_kernel_entries_are_the_acceptance_rule(game, tau):
    kernel = exact_transition_matrix(game, tau)
    index = state_index(enumerate_profiles(game))
    pick = 1.0 / (len(game.active_players) * game.num_channels)
    expected = np.zeros_like(kernel)
    for a, b, player in single_switches(game):
        du = game.utility_exact(a, player) - game.utility_exact(b, player)
        expected[index[key(a)], index[key(b)]] = \
            pick * acceptance_probability(du, tau)
    m = kernel.copy()
    diag = np.diag(m).copy()
    np.fill_diagonal(m, 0.0)
    assert np.array_equal(m, expected)  # bit for bit, zeros off the moves
    for i in range(len(diag)):
        assert diag[i] == 1.0 - m[i].sum()


@given(game=small_games())
def test_resistances_are_positive_parts_of_drops(game):
    res = game_resistance_kernel(game)
    index = state_index(enumerate_profiles(game))
    adj = np.isfinite(res)
    want_adj = np.zeros_like(adj)
    for a, b, player in single_switches(game):
        du = game.utility_exact(a, player) - game.utility_exact(b, player)
        assert res[index[key(a)], index[key(b)]] == max(0.0, du)
        want_adj[index[key(a)], index[key(b)]] = True
    assert np.array_equal(adj, want_adj)
    assert np.all(res[~adj] == np.inf)


def assert_gathered_tables_are_per_profile_values(game):
    """The table's potentials and utility matrix, gathered per member set,
    equal a fresh game's per-profile evaluations bit for bit."""
    table = analysis_module._table(game)
    analysis_module._moves(game)
    fresh = CapGame(game.topology, game.params)
    profiles = profile_objects(fresh)
    phi = [fresh.normalized_potential(p) for p in profiles]
    utility = [[fresh.utility_exact(p, i) for i in fresh.active_players]
               for p in profiles]
    assert table.phi.tolist() == phi
    assert table.utility.tolist() == utility


@st.composite
def gather_games(draw):
    """Seeded deterministic games of up to 5 active players on up to 4
    channels, with or without one UEC: co-channel sets of 0 to 6 links."""
    num_uec = draw(st.integers(0, 1))
    num_channels = draw(st.integers(max(1, num_uec), 4))
    num_ued = draw(st.integers(0, 5 if num_channels <= 3 else 4))
    return seeded_game(num_uec, num_ued, num_channels,
                       seed=draw(st.integers(0, 2 ** 16)))


@given(game=gather_games())
def test_gathered_tables_equal_per_profile_evaluation(game):
    assert_gathered_tables_are_per_profile_values(game)


@pytest.mark.parametrize("num_uec", [0, 1])
def test_gathered_tables_hold_sets_of_more_than_64_links(num_uec):
    # one channel: the single profile's set has every link, so a member
    # set encoded in a fixed-width word would overflow
    game = seeded_game(num_uec, 70 - num_uec, 1, seed=3)
    assert_gathered_tables_are_per_profile_values(game)
    assert analysis_module._table(game).utility.shape == (1, 70 - num_uec)


@given(game=small_games(), tau=st.sampled_from([0.5, 0.05, 0.005]))
def test_brute_force_and_gibbs_are_potential_scans(game, tau):
    profiles = profile_objects(game)
    phi = np.array([game.normalized_potential(p) for p in profiles])
    best = float(phi.max())
    result = brute_force_optimum(game)
    assert result.normalized_phi_star == best
    assert result.phi_star == best * game.phi_max
    assert result.num_evaluated == len(profiles)
    assert result.keys == tuple(sorted(key(p) for p, v in zip(profiles, phi)
                                       if best - v <= 1e-12))
    x = phi / tau
    x -= x.max()
    w = np.exp(x)
    assert np.array_equal(gibbs_distribution(game, tau), w / w.sum())


# ----------------------------------------------------------------------
# stationary distributions


def test_direct_solve_symmetric_two_state():
    pi = stationary_direct(np.array([[0.7, 0.3], [0.3, 0.7]]))
    assert np.allclose(pi, [0.5, 0.5], atol=1e-15)


def test_direct_solve_matches_gibbs():
    game = seeded_game(0, 3, 3, seed=12)
    for tau in (0.5, 0.1, 0.02):
        kernel = exact_transition_matrix(game, tau)
        pd = stationary_direct(kernel)
        pg = gibbs_distribution(game, tau)
        assert float(np.abs(pd - pg).max()) <= 1e-9
        assert float(np.abs(pd @ kernel - pd).max()) <= 1e-10


def test_direct_solve_refuses_frozen_chains():
    game = seeded_game(0, 2, 2, seed=25)
    with pytest.raises(ValueError):
        stationary_direct(exact_transition_matrix(game, 0.01))
    # the Gibbs form still answers there
    pg = gibbs_distribution(game, 0.01)
    assert pg.sum() == pytest.approx(1.0, abs=1e-12)


@given(kernel=sparse_chains())
def test_blocked_direct_solve_matches_state_by_state(kernel):
    got = stationary_direct(kernel)
    want = state_by_state_gth(kernel)
    if len(kernel) <= 33:  # one block: same arithmetic, same bits
        assert np.array_equal(got, want)
    assert float(np.max(np.abs(got - want) / want)) <= 1e-12


@pytest.mark.parametrize("kernel", [random_chain(601, 11),
                                    sparse_chain(700, 12, 0.1)],
                         ids=["dense-601", "sparse-700"])
def test_blocked_direct_solve_splits_panel_products(kernel):
    # panel products of at most 256 columns (rows): the first blocks' panels
    # of 569 and 668 states split into two full pieces and a short last one
    got = stationary_direct(kernel)
    want = state_by_state_gth(kernel)
    assert float(np.max(np.abs(got - want) / want)) <= 1e-12


def closed_class(first, last):
    """A 100-state chain in which states first..last form a closed class."""
    m = random_chain(100, 4)
    m[first:last + 1, :first] = 0.0
    m[first:last + 1, last + 1:] = 0.0
    m /= m.sum(axis=1, keepdims=True)
    return m


def test_direct_solve_refuses_reducible_chain_in_a_later_block():
    # states 40..99 are closed: eliminating state 40, in the second block of
    # 32, finds no path back to 0..39
    with pytest.raises(ValueError, match="reducible"):
        stationary_direct(closed_class(40, 99))


def test_direct_solve_refuses_reducible_chain_at_a_block_edge():
    # states 36..99 are closed and 36 is the second block's lowest state, so
    # left of its diagonal only the aggregate column (its mass to 0..35) is
    with pytest.raises(ValueError, match="reducible"):
        stationary_direct(closed_class(36, 99))


def test_direct_solve_refuses_reducible_chain_in_the_leading_block():
    # 100 states leave a leading block of 0..3; 1..3 are closed
    with pytest.raises(ValueError, match="reducible"):
        stationary_direct(closed_class(1, 3))


def test_direct_solve_refuses_sub_roundoff_chain():
    m = random_chain(100, 5)
    m[70, 70] += m[70, 3] - 1e-16
    m[70, 3] = 1e-16
    with pytest.raises(ValueError, match="below unit roundoff"):
        stationary_direct(m)


_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from d2dcap.analysis import exact_transition_matrix, stationary_direct
from d2dcap.experiments import ExperimentConfig
def digest(kernel):
    pi = stationary_direct(kernel)
    print(hashlib.sha256(pi.tobytes()).hexdigest())
for n in (601, 2187):
    m = np.random.default_rng(7).random((n, n))
    m /= m.sum(axis=1, keepdims=True)
    digest(m)
# the exact-729 benchmark game: 6 pairs on 3 channels
cfg = ExperimentConfig(num_uec=0, num_ued=6, num_channels=3,
                       cell_radius_m=60.0, topology_seed=25)
game = cfg.game(cfg.topology(0))
for tau in (0.1, 0.05):
    digest(exact_transition_matrix(game, tau))
"""


def test_direct_solve_bits_do_not_depend_on_blas_threads():
    # dense random chains of 601 and 2187 states and the 729-state game
    # kernel at two temperatures: the larger deferred products are split
    # into panels, one of them down to a single row.  At 2 threads an
    # unsplit panel product changes the 2187-state digest, and an unsplit
    # trailing product the 729-state one at tau 0.1
    src = os.path.dirname(os.path.dirname(d2dcap.__file__))
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=120,
                             check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_gibbs_two_point_ratio():
    game = seeded_game(0, 2, 2, seed=25)
    tau = 0.07
    pi = gibbs_distribution(game, tau)
    profiles = profile_objects(game)
    a, b = profiles[0], profiles[3]
    want = math.exp((game.normalized_potential(a)
                     - game.normalized_potential(b)) / tau)
    assert pi[0] / pi[3] == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        gibbs_distribution(game, 0.0)


def test_tree_theorem_two_state_closed_form():
    pi = stationary_tree(np.array([[0.9, 0.1], [0.4, 0.6]]))
    assert np.allclose(pi, [0.8, 0.2], atol=1e-15)


def test_tree_matches_direct_on_random_chains():
    for n, seed in ((3, 1), (4, 2), (5, 3)):
        k = random_chain(n, seed)
        gap = np.abs(stationary_tree(k) - stationary_direct(k))
        assert float(gap.max()) <= 1e-12


def test_tree_star_chain():
    # hub-and-spoke: only the hub connects the spokes
    m = np.array([[0.4, 0.2, 0.2, 0.2],
                  [0.5, 0.5, 0.0, 0.0],
                  [0.3, 0.0, 0.7, 0.0],
                  [0.1, 0.0, 0.0, 0.9]])
    gap = np.abs(stationary_tree(m) - stationary_direct(m))
    assert float(gap.max()) <= 1e-12


def test_tree_state_cap():
    with pytest.raises(ValueError):
        stationary_tree(random_chain(9, 0))


def test_in_tree_enumeration_count():
    # rooted spanning in-trees of the complete digraph: n^(n-2) per root
    assert sum(1 for _ in _in_trees(np.ones((4, 4), bool), 0)) == 16
    assert sum(1 for _ in _in_trees(np.ones((3, 3), bool), 2)) == 3
    # only real edges are followed: the 3-cube has 384 spanning trees
    cube = np.array([[bin(a ^ b).count("1") == 1 for b in range(8)]
                     for a in range(8)])
    for root in range(8):
        assert sum(1 for _ in _in_trees(cube, root)) == 384


# ----------------------------------------------------------------------
# stochastic stability


def test_stable_states_equal_brute_force():
    game = seeded_game(1, 4, 3, seed=35)
    stable = stochastically_stable_states(game, (0.1, 0.05, 0.02, 0.01))
    assert stable == brute_force_optimum(game).keys
    assert len(stable) == 2  # symmetric pair of relabelings


def test_stable_states_grid_guards():
    game = seeded_game(0, 2, 2, seed=25)
    with pytest.raises(ValueError):
        stochastically_stable_states(game, (0.05, 0.1))
    with pytest.raises(ValueError):
        stochastically_stable_states(game, ())


# ----------------------------------------------------------------------
# resistances


def test_edge_resistances_complementarity():
    game = seeded_game(0, 2, 2, seed=25)
    res = game_resistance_kernel(game)
    adj = np.isfinite(res)
    for i, j in zip(*np.nonzero(adj)):
        assert adj[j, i] and min(res[i, j], res[j, i]) == 0.0
        assert res[i, j] >= 0.0
    # spot value
    a = AssignmentProfile([0, 0])
    b = game.with_channel(a, 0, 1)
    du = game.utility_exact(a, 0) - game.utility_exact(b, 0)
    index = state_index(enumerate_profiles(game))
    assert res[index[key(a)], index[key(b)]] == max(0.0, du)


def test_min_resistance_tree_check_on_game():
    game = seeded_game(0, 2, 2, seed=25)
    res = game_resistance_kernel(game)
    assert res.shape == (4, 4)
    assert res[0, 3] == np.inf  # two-coordinate moves are not adjacent
    report = min_resistance_tree_check(res)
    assert report.passes
    assert report.min_resistance >= 0.0
    assert report.num_min_trees >= 1
    assert any(r <= 1e-12 for _, _, r in report.witness_edges)


def test_min_resistance_tree_check_synthetic_failure():
    res = np.array([[np.inf, 0.5], [0.5, np.inf]])
    report = min_resistance_tree_check(res)
    assert not report.passes
    assert report.min_resistance == pytest.approx(0.5)


def test_min_resistance_tree_check_guards():
    with pytest.raises(ValueError):
        min_resistance_tree_check(np.full((9, 9), 1.0))
    with pytest.raises(ValueError):
        min_resistance_tree_check(np.full((3, 3), np.inf))


@pytest.mark.parametrize("matrix, message", [
    ([[math.inf, math.nan], [0.0, math.inf]], "non-negative or \\+inf"),
    ([[math.inf, -1.0], [0.0, math.inf]], "non-negative or \\+inf"),
    ([[math.inf, -math.inf], [0.0, math.inf]], "non-negative or \\+inf"),
    (np.zeros((0, 0)), "non-empty square"),
    ([[0.0, 1.0]], "non-empty square"),
], ids=["nan", "negative", "minus-inf", "empty", "not-square"])
def test_min_resistance_tree_check_refuses_what_is_not_a_decay_rate(
        matrix, message):
    # a NaN read as a missing edge and -1 as a zero-resistance one: both
    # once passed with a minimum tree of resistance 0 or -1
    with pytest.raises(ValueError, match=message):
        min_resistance_tree_check(matrix)


# ----------------------------------------------------------------------
# resistance algebra


def test_algebra_basic_rules():
    c = res_of_const()
    e2 = res_of_exp(2.0)
    e5 = res_of_exp(5.0)
    assert c.resistance == 0.0
    assert e2.resistance == 2.0
    assert res_add(e2, e5).resistance == 2.0
    assert res_add(c, e2).resistance == 0.0
    assert res_mul(e2, e5).resistance == 7.0
    assert res_mul(c, e2).resistance == 2.0
    assert res_sub(e2, e5).resistance == 2.0
    assert res_inv(e2).resistance == -2.0
    assert res_mul(e5, res_inv(e2)).resistance == 3.0


def test_algebra_error_rules():
    e2 = res_of_exp(2.0)
    e5 = res_of_exp(5.0)
    with pytest.raises(ValueError):
        res_sub(e5, e2)  # minuend decays faster
    with pytest.raises(ValueError):
        res_sub(e2, res_of_exp(2.0))  # equal rates are indeterminate
    with pytest.raises(ValueError):
        res_inv(res_of_const())  # zero resistance
    with pytest.raises(ValueError):
        res_inv(res_add(e2, e5))  # multi-term
    with pytest.raises(ValueError):
        ResistanceExpr(terms=())
    with pytest.raises(ValueError):
        ResistanceExpr((math.inf,))


def test_empirical_resistance_recovers_rates():
    grid = np.linspace(0.02, 0.1, 6)
    assert empirical_resistance(lambda t: math.exp(-0.7 / t), grid) \
        == pytest.approx(0.7, abs=1e-10)
    assert empirical_resistance(lambda t: 3.0, grid) \
        == pytest.approx(0.0, abs=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = empirical_resistance(lambda t: t * t * math.exp(-0.4 / t), grid)
    # the t^2 factor biases the intercept by O(t ln t) on this grid
    assert got == pytest.approx(0.4, abs=0.15)


def test_empirical_resistance_guards_and_warning():
    grid = np.linspace(0.05, 0.2, 5)
    with pytest.raises(ValueError):
        empirical_resistance(lambda t: -1.0, grid)
    with pytest.raises(ValueError):
        empirical_resistance(lambda t: 1.0, [0.1])
    with pytest.warns(UserWarning):
        empirical_resistance(lambda t: t ** 5 * math.exp(-0.3 / t), grid)


@pytest.mark.parametrize("f", [
    lambda t: math.nan,
    lambda t: math.nan if t == 0.2 else math.exp(-0.5 / t),
    lambda t: math.inf,
], ids=["all-nan", "one-nan", "inf"])
def test_empirical_resistance_refuses_non_finite_samples(f):
    # NaN samples once gave a NaN resistance without an error
    with pytest.raises(ValueError, match="finite and positive"):
        empirical_resistance(f, [0.1, 0.2, 0.3])
