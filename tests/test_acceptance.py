"""End-to-end acceptance checks.

Each test exercises one numbered criterion and records a PASS/FAIL line
that conftest prints after the run.  Expected values were computed with
independent oracles (closed forms, exhaustive scans, high-precision
arithmetic) before being frozen here.
"""

import math

import numpy as np
import pytest

from conftest import (accept_config, br_point, decreasing_point, fixed_point,
                      sweep_point)
from d2dcap import analysis
from d2dcap.analysis import (empirical_resistance, game_resistance_kernel,
                             min_resistance_tree_check, res_add, res_inv,
                             res_mul, res_of_exp, res_sub)
from d2dcap.experiments import ExperimentConfig
from d2dcap.game import AssignmentProfile, verify_potential_identity
from d2dcap.learning import (BoundedNoise, GaussianNoise,
                             acceptance_probability)


def small_game(num_uec, num_ued, num_channels, seed):
    cfg = ExperimentConfig(num_uec=num_uec, num_ued=num_ued,
                           num_channels=num_channels, topology_seed=seed,
                           cell_radius_m=60.0)
    return cfg.game(cfg.topology(0))


def test_criterion_1_potential_identity(criterion):
    with criterion(1, "exact potential identity") as info:
        worst = 0.0
        checks = 0
        for seed, ued, ch in ((101, 4, 3), (102, 3, 3), (103, 4, 2)):
            game = small_game(0, ued, ch, seed)
            for channels in analysis.enumerate_profiles(game):
                profile = AssignmentProfile(channels)
                for player in game.active_players:
                    cur = int(profile.channels[player])
                    for alt in range(ch):
                        if alt == cur:
                            continue
                        r = verify_potential_identity(game, player, cur,
                                                      alt, profile)
                        worst = max(worst, r)
                        checks += 1
        info["ok"] = worst <= 1e-12
        info["detail"] = (f"max residual {worst:.3e} over {checks} "
                          "unilateral switches on 3 instances")


def test_criterion_2_direct_solve_vs_gibbs(criterion):
    with criterion(2, "stationary solve matches Gibbs form") as info:
        games = [small_game(0, 4, 3, 25), small_game(0, 3, 3, 12),
                 small_game(1, 2, 3, 35)]
        worst_gap = 0.0
        worst_res = 0.0
        for game in games:
            for tau in (0.5, 0.1, 0.02):
                kernel = analysis.exact_transition_matrix(game, tau)
                direct = analysis.stationary_direct(kernel)
                gibbs = analysis.gibbs_distribution(game, tau)
                worst_gap = max(worst_gap,
                                float(np.abs(direct - gibbs).max()))
                resid = float(np.abs(direct @ kernel - direct).max())
                worst_res = max(worst_res, resid)
        info["ok"] = worst_gap <= 1e-9 and worst_res <= 1e-10
        info["detail"] = (f"max |pi_direct - pi_gibbs| {worst_gap:.3e} "
                          f"(tol 1e-9), max residual {worst_res:.3e} "
                          "(tol 1e-10), 3 instances x 3 temperatures")


def test_criterion_3_tree_theorem_cross_check(criterion):
    with criterion(3, "tree theorem matches direct solve") as info:
        worst = 0.0
        cases = 0
        game = small_game(0, 2, 2, 25)  # 4-state profile chain
        for tau in (0.5, 0.1):
            kernel = analysis.exact_transition_matrix(game, tau)
            tree = analysis.stationary_tree(kernel)
            direct = analysis.stationary_direct(kernel)
            worst = max(worst, float(np.abs(tree - direct).max()))
            cases += 1
        rng = np.random.default_rng(9)
        for n in (3, 4, 5):
            kernel = rng.dirichlet(2.0 * np.ones(n), size=n)
            tree = analysis.stationary_tree(kernel)
            direct = analysis.stationary_direct(kernel)
            worst = max(worst, float(np.abs(tree - direct).max()))
            cases += 1
        info["ok"] = worst <= 1e-10
        info["detail"] = (f"max |pi_tree - pi_direct| {worst:.3e} over "
                          f"{cases} chains of 3..5 states (tol 1e-10)")


def test_criterion_4_stable_set_is_the_optimum(criterion):
    with criterion(4, "stochastically stable set = brute-force optimum") \
            as info:
        grid = (0.1, 0.05, 0.02)
        sizes = []
        ok = True
        for game in (small_game(1, 4, 3, 35), small_game(0, 4, 3, 25)):
            stable = set(analysis.stochastically_stable_states(game, grid))
            optimum = set(analysis.brute_force_optimum(game).keys)
            ok = ok and stable == optimum
            sizes.append(len(optimum))
        info["ok"] = ok and 2 in sizes
        info["detail"] = (f"stable set == optimum set on 2 instances, "
                          f"optimal-set sizes {sizes} (one symmetric pair)")


def test_criterion_5_sample_count_formulas(criterion):
    with criterion(5, "per-estimate sample counts") as info:
        n_bounded = BoundedNoise(1.0).required_samples(0.1, 1e-5)
        calc = GaussianNoise(sigma=1.0).sample_calc(0.1, 0.5)
        theta_err = abs(calc.theta_star - 0.05)
        info["ok"] = (n_bounded == 1645 and theta_err <= 1e-8
                      and calc.n == 17664)
        info["detail"] = (f"bounded N={n_bounded} (expect 1645), gaussian "
                          f"theta*={calc.theta_star:.12f} (err {theta_err:.1e},"
                          f" tol 1e-8), N={calc.n} (expect 17664)")


def test_criterion_6_acceptance_rule(criterion):
    with criterion(6, "acceptance probability rule") as info:
        rng = np.random.default_rng(6)
        draws = 100_000
        worst_sigmas = 0.0
        for ratio in (-2.0, 0.0, 2.0):
            p = acceptance_probability(ratio * 0.3, 0.3)
            freq = float(np.mean(rng.random(draws) < p))
            sigma = math.sqrt(p * (1.0 - p) / draws)
            worst_sigmas = max(worst_sigmas, abs(freq - p) / sigma)
        exact = all(acceptance_probability(d, 1.0)
                    + acceptance_probability(-d, 1.0) == 1.0
                    for d in (50.0, 200.0, 1e6))
        info["ok"] = worst_sigmas <= 3.0 and exact
        info["detail"] = (f"worst MC deviation {worst_sigmas:.2f} sigma "
                          "(limit 3) at delta/tau in {-2,0,2}; saturated "
                          "complement sums exactly 1")


def test_criterion_7_fixed_temperature_convergence(criterion):
    with criterion(7, "fixed-temperature convergence") as info:
        point = fixed_point(0.05)
        occ = point.mean_occupancy
        info["ok"] = occ >= 0.8
        info["detail"] = (f"optimal-set occupancy {occ:.4f} (threshold 0.8) "
                          f"over {point.config.realizations} realizations, "
                          f"final window {point.window_slots} slots")


@pytest.mark.slow
def test_criterion_8_decreasing_schedule_helps(criterion):
    with criterion(8, "decreasing schedule beats fixed tau") as info:
        dec = decreasing_point()
        fix = fixed_point(0.1)
        assert dec.seed_range == fix.seed_range  # paired seeds
        info["ok"] = dec.mean_occupancy >= fix.mean_occupancy
        info["detail"] = (f"occupancy {dec.mean_occupancy:.4f} (tau = "
                          f"0.1/ln(1+t)) vs {fix.mean_occupancy:.4f} "
                          "(fixed tau = 0.1), paired seeds")


@pytest.mark.slow
def test_criterion_9_capacity_trends(criterion):
    with criterion(9, "capacity trends under sweeps") as info:
        # channels 2, 3, 4 with 4 pairs; pairs 2, 4, 8 on 4 channels
        chan_means = [sweep_point(c, 4).final_window_mean for c in (2, 3, 4)]
        chan_ok = all(b >= a for a, b in zip(chan_means, chan_means[1:]))

        ued_means = [sweep_point(4, n).final_window_mean for n in (2, 4, 8)]
        ued_up = all(b > a for a, b in zip(ued_means, ued_means[1:]))
        # growth rate per added pair, over the unequal count gaps
        g1 = (ued_means[1] - ued_means[0]) / 2.0
        g2 = (ued_means[2] - ued_means[1]) / 4.0
        info["ok"] = chan_ok and ued_up and g2 <= g1
        info["detail"] = (f"channels {[f'{m:.4g}' for m in chan_means]} "
                          f"non-decreasing; pairs {[f'{m:.4g}' for m in ued_means]} "
                          f"rising with growth rate {g1:.4g} -> {g2:.4g} "
                          "bits/s per pair")


@pytest.mark.slow
def test_criterion_10_single_sample_beats_better_response(criterion):
    with criterion(10, "noisy learning beats better response") as info:
        blla = decreasing_point().final_window_mean
        br1 = br_point(1).final_window_mean
        br_big = br_point(2000).final_window_mean
        gap1 = blla - br1
        gap_big = abs(blla - br_big)
        info["ok"] = br1 < blla and gap_big < gap1
        info["detail"] = (f"single-sample better response trails by "
                          f"{gap1:.4g} bits/s; at 2000 samples the gap "
                          f"shrinks to {gap_big:.4g}")


def _random_resistance_expr(rng, depth):
    """Random expression tree plus its hand-tracked decay rate."""
    if depth == 0 or rng.random() < 0.3:
        r = float(rng.integers(0, 7)) / 2.0
        # a leaf makes two draws; the stream fixes the 100 expressions checked
        rng.integers(10**6)
        return res_of_exp(r), r
    a, ra = _random_resistance_expr(rng, depth - 1)
    b, rb = _random_resistance_expr(rng, depth - 1)
    op = int(rng.integers(0, 4))
    if op == 1:
        return res_mul(a, b), ra + rb
    if op == 2 and ra < rb:
        return res_sub(a, b), ra
    if op == 3 and len(a.terms) == 1 and ra != 0.0:
        return res_inv(a), -ra
    return res_add(a, b), min(ra, rb)


def test_criterion_11_resistance_calculus(criterion):
    with criterion(11, "resistance calculus") as info:
        rng = np.random.default_rng(110)
        for _ in range(100):
            expr, expected = _random_resistance_expr(rng, 3)
            assert expr.resistance == expected  # exact rational arithmetic

        grid = np.linspace(0.02, 0.1, 6)
        worst = 0.0
        for delta in (-0.5, 0.0, 0.5):
            est = empirical_resistance(
                lambda t: acceptance_probability(delta, t), grid)
            worst = max(worst, abs(est - max(delta, 0.0)))

        trees_ok = True
        for game in (small_game(0, 2, 2, 25), small_game(1, 1, 2, 35)):
            res = game_resistance_kernel(game)
            report = min_resistance_tree_check(res)
            trees_ok = trees_ok and report.passes
        info["ok"] = worst <= 1e-2 and trees_ok
        info["detail"] = ("100 random compositions exact; empirical rate "
                          f"error {worst:.2e} (tol 1e-2) at deltas "
                          "{-0.5,0,0.5}; minimum-resistance trees all "
                          "contain a zero-resistance edge")
