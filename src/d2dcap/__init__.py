"""Distributed channel assignment for D2D cellular networks.

A simulation library for learning channel assignments through noisy
utility samples, with exact small-instance analysis tools: brute-force
optima, stationary distributions of the induced Markov chain, and a
resistance calculus for the low-temperature limit.
"""

from .analysis import (BruteForceResult, MinTreeReport, ResistanceExpr,
                       ResistanceTerm, TransitionKernel, brute_force_optimum,
                       empirical_resistance, enumerate_profiles,
                       exact_transition_matrix, game_resistance_kernel,
                       gibbs_distribution, min_resistance_tree_check,
                       res_add, res_inv, res_mul, res_of_const, res_of_exp,
                       res_sub, stationary_direct, stationary_tree,
                       stochastically_stable_states)
from .experiments import (ExperimentConfig, PointResult, StationaryReport,
                          SweepResult, analyze_stationary, run_experiment,
                          sweep_channels, sweep_ues)
from .game import (AssignmentProfile, CapGame, cochannel_set, utility_mean,
                   verify_potential_identity)
from .learning import (BoundedNoise, FixedTemperature, GaussianNoise,
                       LogDecreasingTemperature, Trajectory,
                       UnboundedSampleCalc, acceptance_probability, run_blla,
                       run_br)
from .radio import (RadioParams, Topology, db_to_linear, dbm_to_watts,
                    generate_topology, link_tx_powers, sample_fading_block,
                    thermal_noise_watts, watts_to_dbm)

__version__ = "0.1.0"
