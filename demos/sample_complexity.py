"""How many fading samples one utility estimate needs, as a function of
temperature and the estimation-noise model.

Colder play demands exponentially sharper estimates.  For noise bounded
in a unit interval the count follows a Hoeffding-style bound; for
Gaussian noise a Chernoff bound whose optimal parameter, theta* =
(1 - xi) tau / sigma^2, has a closed form.
"""

from d2dcap.learning import BoundedNoise, GaussianNoise


def main() -> None:
    xi = 1e-5
    bounded, gauss = BoundedNoise(1.0), GaussianNoise(sigma=1.0)
    print(f"failure budget xi = {xi}")
    print(f"{'tau':>6} {'N bounded(1)':>13} {'N gaussian(1)':>14} "
          f"{'theta*':>10}")
    for tau in (0.5, 0.2, 0.1, 0.05, 0.02):
        nb = bounded.required_samples(tau, xi)
        calc = gauss.sample_calc(tau, xi)
        print(f"{tau:>6} {nb:>13} {calc.n:>14} {calc.theta_star:>10.5f}")
    print("\nthe 1/tau^3 blow-up is why decreasing-temperature runs spend "
          "almost all their samples in the last slots")


if __name__ == "__main__":
    main()
