"""Distributed channel assignment for D2D cellular networks.

A simulation library for learning channel assignments through noisy
utility samples, with exact small-instance analysis tools: brute-force
optima, stationary distributions of the induced Markov chain, and a
resistance calculus for the low-temperature limit.
"""

from .analysis import (BruteForceResult, MinTreeReport, ResistanceExpr,
                       ResistanceTerm, StationaryDistribution,
                       TransitionKernel, brute_force_optimum,
                       empirical_resistance, enumerate_profiles,
                       exact_transition_matrix, game_resistance_kernel,
                       gibbs_distribution, min_resistance_tree_check,
                       res_add, res_inv, res_mul, res_of_const, res_of_exp,
                       res_sub, stationary_direct, stationary_tree,
                       stochastically_stable_states)
from .experiments import (ExperimentConfig, PointResult, StationaryReport,
                          SweepResult, analyze_stationary, run_experiment,
                          sweep_channels, sweep_ues)
from .game import (AssignmentProfile, CapGame, UtilityEstimate, cochannel_set,
                   potential, utility_mean, utility_sample,
                   verify_potential_identity)
from .learning import (BoundedNoise, FixedTemperature,
                       LogDecreasingTemperature, Trajectory,
                       UnboundedMgfNoise, UnboundedSampleCalc,
                       acceptance_probability, required_samples_bounded,
                       required_samples_unbounded, run_blla, run_br,
                       unbounded_sample_calc)
from .radio import (FadingRealization, RadioParams, Topology, db_to_linear,
                    dbm_to_watts, generate_topology, link_tx_powers, rate,
                    sample_fading_block, sinr, thermal_noise_watts,
                    watts_to_dbm)

__version__ = "0.1.0"
