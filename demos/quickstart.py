"""Minimal end-to-end run: build a dense desk-scale cell, let the noisy
learning rule assign channels, and compare the result to the brute-force
optimum.

Takes a few seconds.  Try --realizations 50 for tighter error bars.
"""

import argparse

from d2dcap.analysis import brute_force_optimum
from d2dcap.experiments import ExperimentConfig, run_experiment


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=3000, help="base RNG seed")
    ap.add_argument("--realizations", type=int, default=10)
    args = ap.parse_args()

    config = ExperimentConfig(num_uec=0, num_ued=4, num_channels=3,
                              cell_radius_m=60.0, topology_seed=25,
                              tau=0.05, horizon=500,
                              realizations=args.realizations,
                              base_seed=args.seed)
    print(f"instance: {config.num_ued} D2D pairs, {config.num_channels} "
          f"channels, {config.cell_radius_m:.0f} m cell")

    game = config.game(config.topology(0))
    optimum = brute_force_optimum(game)
    print(f"brute-force optimum over {optimum.num_evaluated} profiles: "
          f"{optimum.phi_star:.6g} bits/s, "
          f"{len(optimum.keys)} equivalent assignments")

    point = run_experiment(config).points[0]
    print(f"learned sum rate (final {point.window_slots} slots, "
          f"{args.realizations} runs): {point.final_window_mean:.6g} "
          f"+/- {point.final_window_se:.3g} bits/s")
    print(f"fraction of late slots spent in an optimal assignment: "
          f"{point.mean_occupancy:.3f}")
    print(f"ratio to optimum: {point.final_window_mean / point.phi_star:.4f}")


if __name__ == "__main__":
    main()
