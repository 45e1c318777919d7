"""Exact analysis of a 4-state assignment chain.

Two D2D pairs and two channels give four assignments, small enough to
write out everything: the one-slot transition kernel, its stationary law
by three independent methods, the zero-temperature limit, and the
resistance structure that explains it.
"""

import numpy as np

from d2dcap import analysis
from d2dcap.experiments import ExperimentConfig
from d2dcap.game import AssignmentProfile


def main() -> None:
    config = ExperimentConfig(num_uec=0, num_ued=2, num_channels=2,
                              cell_radius_m=60.0, topology_seed=25)
    game = config.game(config.topology(0))

    profiles = analysis.enumerate_profiles(game)  # one channel row each
    labels = ["|".join(str(c) for c in row) for row in profiles.tolist()]
    print("states (channel of pair 0 | pair 1):", ", ".join(labels))
    values = [game.potential_exact(AssignmentProfile(row))
              for row in profiles]
    print("sum rates:", " ".join(f"{v:.5g}" for v in values))

    tau = 0.1
    kernel = analysis.exact_transition_matrix(game, tau)
    print(f"\none-slot kernel at tau={tau}:")
    for row in kernel:
        print("  " + "  ".join(f"{x:8.5f}" for x in row))

    direct = analysis.stationary_direct(kernel)
    gibbs = analysis.gibbs_distribution(game, tau)
    tree = analysis.stationary_tree(kernel)
    print("\nstationary law, three ways:")
    print("  elimination :", " ".join(f"{p:.6f}" for p in direct))
    print("  Gibbs form  :", " ".join(f"{p:.6f}" for p in gibbs))
    print("  tree theorem:", " ".join(f"{p:.6f}" for p in tree))

    stable = analysis.stochastically_stable_states(game, (0.1, 0.05, 0.02))
    optimum = analysis.brute_force_optimum(game)
    print("\nzero-temperature limit (stochastically stable):",
          ", ".join("|".join(str(c) for c in k) for k in stable))
    print("brute-force optimum:",
          ", ".join("|".join(str(c) for c in k) for k in optimum.keys))

    res = analysis.game_resistance_kernel(game)
    print("\nedge resistances (inf where no single switch connects):")
    for row in res:
        print("  " + "  ".join(f"{x:8.4f}" if np.isfinite(x) else
                               "     inf" for x in row))
    report = analysis.min_resistance_tree_check(res)
    print(f"minimum in-tree resistance {report.min_resistance:.4f}, rooted "
          f"at {labels[report.witness_root]}; every minimizing tree has a "
          f"zero-resistance edge: {report.passes}")


if __name__ == "__main__":
    main()
