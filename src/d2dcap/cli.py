"""Command line front end for running experiments and exact analysis."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .experiments import (ExperimentConfig, analyze_stationary,
                          run_experiment, sweep_channels, sweep_ues)
from .learning import BoundedNoise, GaussianNoise

_PRESETS = {
    # defaults: small instance, minutes of compute
    "desk": dict(),
    # reference cell: 5 UEC + 15 UED on 5 channels in a 200 m cell; the
    # profile space is not enumerable, so optimum tracking is off
    "full": dict(num_uec=5, num_ued=15, num_channels=5, cell_radius_m=200.0,
                 tau=0.1, realizations=1000, track_optimum=False),
}


def _resolve_config(args) -> ExperimentConfig:
    config = ExperimentConfig(**_PRESETS[args.preset])
    if args.config is not None:
        config = ExperimentConfig.from_file(args.config)
    overrides = {"base_seed": args.seed, "realizations": args.realizations,
                 "out_dir": args.out}
    return replace(config, **{key: value for key, value in overrides.items()
                              if value is not None})


def _add_common(sp) -> None:
    sp.add_argument("--config", metavar="PATH",
                    help="config file of key = value lines; overrides the preset")
    sp.add_argument("--preset", default="desk", choices=sorted(_PRESETS),
                    help="base parameter set (default: desk)")
    sp.add_argument("--seed", type=int, help="override base_seed")
    sp.add_argument("--out", metavar="DIR", help="write tables to this directory")
    sp.add_argument("--realizations", type=int,
                    help="override the realization count")


def _parse_counts(text: str) -> list:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") \
            from None


def _report(result, out_dir: str) -> int:
    """Print one summary line per point, the config hash and, when tables
    were written, where."""
    for p in result.points:
        tag = p.label()
        occ = "n/a" if p.mean_occupancy is None else f"{p.mean_occupancy:.4f}"
        line = (f"{tag}: final-window sum rate {p.final_window_mean:.6g} "
                f"+/- {p.final_window_se:.3g} bits/s over "
                f"{p.config.realizations} realizations "
                f"(window {p.window_slots} slots, optimum occupancy {occ})")
        print(line)
    print(f"config hash {result.config_hash}")
    if out_dir:
        print(f"tables written to {out_dir}")
    return 0


def _cmd_run(args, algorithm: str) -> int:
    config = replace(_resolve_config(args), algorithm=algorithm)
    if algorithm == "br" and args.br_samples is not None:
        config = replace(config, br_samples=args.br_samples)
    return _report(run_experiment(config), config.out_dir)


def _cmd_sweep(args, sweep) -> int:
    config = _resolve_config(args)
    return _report(sweep(config, _parse_counts(args.counts)), config.out_dir)


def _cmd_samples_calc(args) -> int:
    if args.noise == "bounded":
        n = BoundedNoise(args.width).required_samples(args.tau, args.xi)
        print(f"noise model: bounded, interval width {args.width}")
        print(f"tau={args.tau} xi={args.xi}")
        print(f"samples per estimate N = {n}")
    else:
        calc = GaussianNoise(args.sigma).sample_calc(args.tau, args.xi)
        print(f"noise model: gaussian, sigma {args.sigma}")
        print(f"tau={args.tau} xi={args.xi}")
        print(f"theta_star = {calc.theta_star!r}")
        print(f"numerator = {calc.numerator!r}")
        print(f"denominator = {calc.denominator!r}")
        print(f"samples per estimate N = {calc.n}")
    return 0


def _cmd_analyze_stationary(args) -> int:
    config = _resolve_config(args)
    grid = [float(tok) for tok in args.tau_grid.split(",") if tok.strip()]
    report = analyze_stationary(config, grid)
    print(f"states: {len(report.states)}  temperatures: {report.taus}")
    print(f"max |pi_direct - pi_gibbs| = {report.max_direct_gibbs_gap:.3e}")
    if report.direct_failed_taus:
        print("direct solve not certified at tau = "
              + ", ".join(str(t) for t in report.direct_failed_taus)
              + " (Gibbs form used)")
    opt = ", ".join("|".join(str(x) for x in k) for k in report.optimum_keys)
    print(f"brute-force optimum: {opt}")
    if report.verdict is None:
        print("single temperature: distributions only, no stability verdict")
    else:
        stable = ", ".join("|".join(str(x) for x in k)
                           for k in report.stable_keys)
        print(f"stochastically stable: {stable}")
        print(f"verdict: {'PASS' if report.verdict else 'FAIL'} "
              "(stable set vs brute-force optimum)")
    if config.out_dir:
        print(f"tables written to {config.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d2dcap",
        description="Distributed channel assignment for D2D cells: "
                    "learning runs, sweeps, and exact small-instance analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("run-blla", help="run BLLA trajectories and aggregate")
    _add_common(sp)
    sp.set_defaults(func=lambda a: _cmd_run(a, "blla"))

    sp = sub.add_parser("run-br", help="run the better-response baseline")
    _add_common(sp)
    sp.add_argument("--br-samples", type=int,
                    help="samples per utility estimate (default from config)")
    sp.set_defaults(func=lambda a: _cmd_run(a, "br"))

    sp = sub.add_parser("sweep-channels", help="sweep the channel count")
    _add_common(sp)
    sp.add_argument("--counts", default="2,3,4",
                    help="comma-separated channel counts (default 2,3,4)")
    sp.set_defaults(func=lambda a: _cmd_sweep(a, sweep_channels))

    sp = sub.add_parser("sweep-ues", help="sweep the number of D2D pairs")
    _add_common(sp)
    sp.add_argument("--counts", default="2,4,8",
                    help="comma-separated UED counts (default 2,4,8)")
    sp.set_defaults(func=lambda a: _cmd_sweep(a, sweep_ues))

    config = ExperimentConfig()  # the defaults below are the config's
    sp = sub.add_parser("samples-calc",
                        help="per-estimate sample count for a temperature")
    sp.add_argument("--tau", type=float, required=True)
    sp.add_argument("--xi", type=float, default=config.xi)
    sp.add_argument("--noise", choices=("bounded", "gaussian"),
                    default="bounded")
    sp.add_argument("--width", type=float, default=config.noise_width,
                    help="bounded noise interval width")
    sp.add_argument("--sigma", type=float, default=config.noise_sigma,
                    help="gaussian noise standard deviation")
    sp.set_defaults(func=_cmd_samples_calc)

    sp = sub.add_parser("analyze-stationary",
                        help="exact stationary distributions and stability")
    _add_common(sp)
    sp.add_argument("--tau-grid", default="0.1,0.05,0.02,0.01,0.005",
                    help="comma-separated decreasing temperatures")
    sp.set_defaults(func=_cmd_analyze_stationary)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
