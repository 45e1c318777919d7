"""Experiment driver: flat-text configs, seeded multi-realization runs,
parameter sweeps with paired seeds, and deterministic table emitters.

Configs carry radio quantities in dBm/dB and convert to linear units when
the radio layer is built, so files stay human-auditable.  Every emitted
table is reproducible byte for byte from (config, seeds): no timestamps, no
environment-dependent content.
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import functools
import hashlib
import logging
import math
import os
import time
import typing
from dataclasses import dataclass, replace

import numpy as np

from . import analysis
from .game import CapGame
from .learning import (BoundedNoise, FixedTemperature,
                       LogDecreasingTemperature, Trajectory,
                       UnboundedMgfNoise, _window_start, run_blla, run_br)
from .radio import (RadioParams, Topology, dbm_to_watts, generate_topology,
                    thermal_noise_watts, watts_to_dbm)

__all__ = [
    "ExperimentConfig",
    "PointResult",
    "SweepResult",
    "run_experiment",
    "sweep_channels",
    "sweep_ues",
    "StationaryReport",
    "analyze_stationary",
]

_ALGORITHMS = ("blla", "br")
_SCHEDULES = ("fixed", "log_decreasing")
_NOISE_MODELS = ("bounded", "gaussian", "none")

_DEFAULT_NOISE_DBM = float(watts_to_dbm(thermal_noise_watts(180e3)))
# largest fading block, in bytes, that one utility estimate may draw
_FADING_BLOCK_GUARD = 1 << 30

_log = logging.getLogger(__name__)


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce a run, in one flat record."""

    # instance; the default cell is desk-scale dense so that co-channel
    # interference is material with few UEs (200 m cells with 4 links are
    # interference-free and make every assignment equivalent)
    num_uec: int = 1
    num_ued: int = 4
    num_channels: int = 3
    topology_seed: int = 35
    shared_topology: bool = True   # one layout for all realizations
    # radio, config-layer units: dBm / dB
    cell_radius_m: float = 60.0
    d2d_radius_m: float = 20.0
    bandwidth_hz: float = 180e3
    ue_power_dbm: float = 25.0
    bs_power_dbm: float = 46.0
    noise_dbm: float = _DEFAULT_NOISE_DBM  # thermal floor for 180 kHz
    pathloss_exponent: float = 3.5
    shadowing_sigma_db: float = 6.0
    sinr_min_db: float = -10.0
    sinr_max_db: float = 23.0
    # algorithm
    algorithm: str = "blla"        # blla | br
    schedule: str = "fixed"        # fixed | log_decreasing
    tau: float = 0.05              # fixed-schedule temperature
    tau_scale: float = 0.1         # log_decreasing: tau(t) = scale/ln(1+t)
    noise_model: str = "bounded"   # bounded | gaussian | none
    noise_width: float = 1.0       # bounded: estimation-noise interval width
    noise_sigma: float = 1.0       # gaussian: noise std dev
    xi: float = 1e-5               # estimation failure budget
    br_samples: int = 1            # better-response per-phase sample budget
    # run
    horizon: int = 500
    realizations: int = 100
    base_seed: int = 1000
    track_optimum: bool = True     # brute-force optimum and occupancy
    out_dir: str = ""              # empty: compute only, write nothing

    def __post_init__(self):
        # 1 and 1.0 are equal configs, so they must write the same text
        # and stamp the same hash
        for name, want in _FIELD_TYPES.items():
            value = getattr(self, name)
            if want is float and type(value) is int:
                try:
                    setattr(self, name, float(value))
                except OverflowError:
                    raise ValueError(f"config key {name!r} is too large "
                                     "for a float") from None

    # -- validation ----------------------------------------------------

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            _check_type(f.name, getattr(self, f.name))
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(f"algorithm must be one of {_ALGORITHMS}")
        if self.schedule not in _SCHEDULES:
            raise ValueError(f"schedule must be one of {_SCHEDULES}")
        if self.noise_model not in _NOISE_MODELS:
            raise ValueError(f"noise_model must be one of {_NOISE_MODELS}")
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.num_uec > self.num_channels:
            raise ValueError("num_uec must not exceed num_channels")
        if self.num_uec < 0 or self.num_ued < 0:
            raise ValueError("counts must be non-negative")
        for key in ("base_seed", "topology_seed"):
            value = getattr(self, key)
            if value < 0:
                raise ValueError(f"config key {key!r} must be non-negative, "
                                 f"got {value!r}")
        self.radio_params()  # nested invariants

    # -- construction of the underlying objects -------------------------

    def radio_params(self) -> RadioParams:
        return RadioParams(
            cell_radius_m=self.cell_radius_m,
            d2d_radius_m=self.d2d_radius_m,
            num_channels=self.num_channels,
            bandwidth_hz=self.bandwidth_hz,
            tx_power_ue_w=float(dbm_to_watts(self.ue_power_dbm)),
            tx_power_bs_w=float(dbm_to_watts(self.bs_power_dbm)),
            noise_power_w=float(dbm_to_watts(self.noise_dbm)),
            pathloss_exponent=self.pathloss_exponent,
            shadowing_sigma_db=self.shadowing_sigma_db,
            sinr_min_db=self.sinr_min_db,
            sinr_max_db=self.sinr_max_db,
        )

    def topology(self, realization: int = 0) -> Topology:
        seed = self.topology_seed if self.shared_topology \
            else self.topology_seed + realization
        return generate_topology(self.radio_params(), self.num_uec,
                                 self.num_ued, seed)

    def game(self, topology: Topology, mode: str = "noisy") -> CapGame:
        return CapGame(topology, self.radio_params(), mode=mode)

    def schedule_obj(self):
        if self.schedule == "fixed":
            return FixedTemperature(tau=self.tau)
        return LogDecreasingTemperature(scale=self.tau_scale)

    def noise_obj(self):
        if self.noise_model == "bounded":
            return BoundedNoise(interval_width=self.noise_width)
        if self.noise_model == "gaussian":
            return UnboundedMgfNoise.gaussian(sigma=self.noise_sigma)
        return None

    # -- flat text form --------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            lines.append(f"{f.name} = {getattr(self, f.name)!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        kwargs = {}
        seen = {}  # key -> line number
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = (s.strip() for s in line.partition("="))
            if not eq or "#" in key:
                raise ValueError(f"config line {lineno} is not key = value: "
                                 f"{raw!r}")
            if key not in _FIELD_TYPES:
                raise ValueError(f"unknown config key {key!r} on line {lineno}")
            if key in seen:
                raise ValueError(f"config key {key!r} is set twice, on lines "
                                 f"{seen[key]} and {lineno}")
            seen[key] = lineno
            try:
                # drops a trailing comment, keeps a '#' inside quotes
                parsed = ast.literal_eval(value)
            except (ValueError, SyntaxError):
                parsed = value.split("#", 1)[0].strip()  # bare string
                if parsed.startswith(("'", '"')):
                    raise ValueError(f"config line {lineno} has an "
                                     f"unterminated quoted string: "
                                     f"{raw!r}") from None
            _check_type(key, parsed, f" on line {lineno}")
            kwargs[key] = parsed
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_text(fh.read())

    def config_hash(self) -> str:
        """Stable short digest of the configuration.  ``out_dir`` is left
        out: one config written to two directories stamps one hash."""
        canon = "\n".join(sorted(line for line in self.to_text().splitlines()
                                  if not line.startswith("out_dir ")))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)
# value types a config field of each declared type accepts
_ACCEPTED_TYPES = {int: (int,), float: (int, float), bool: (bool,),
                   str: (str,)}


def _check_type(key: str, value, where: str = "") -> None:
    """Raise ValueError unless ``value`` suits config field ``key``."""
    want = _FIELD_TYPES[key]
    # bool is an int subclass, but only bool fields take True/False
    if not isinstance(value, _ACCEPTED_TYPES[want]) \
            or (isinstance(value, bool) and want is not bool):
        raise ValueError(f"config key {key!r}{where} expects "
                         f"{want.__name__}, got {value!r}")


# ----------------------------------------------------------------------
# results


@dataclass
class PointResult:
    """Aggregated outcome of one experiment point."""

    param: str                 # swept parameter name, "" for single runs
    value: object              # swept value, None for single runs
    config: ExperimentConfig
    config_hash: str
    seed_range: tuple          # (first, last) learning seeds
    window_slots: int          # final-window length used for statistics
    mean_trace: np.ndarray     # (T,) per-slot sum rate, mean over realizations
    per_realization_final: np.ndarray  # (R,) final-window mean sum rates
    final_profiles: np.ndarray         # (R, L) final channel vectors
    final_window_mean: float
    final_window_se: float     # sample std over realizations / sqrt(R)
    mean_occupancy: float | None = None  # of the optimal set, if tracked
    phi_star: float | None = None        # brute-force optimum, bits/s
    optimum_keys: tuple | None = None

    def label(self) -> str:
        return "run" if not self.param else f"{self.param}_{self.value}"


@dataclass
class SweepResult:
    """One or more experiment points sharing a base config and seeds."""

    points: list
    base_config: ExperimentConfig
    config_hash: str

    def write(self, out_dir: str) -> list:
        return _write_sweep(self, out_dir)


# ----------------------------------------------------------------------
# running


def _run_one(config: ExperimentConfig, topology: Topology,
             seed: int) -> Trajectory:
    mode = "deterministic" if config.noise_model == "none" else "noisy"
    game = config.game(topology, mode=mode)
    if config.algorithm == "blla":
        return run_blla(game, config.schedule_obj(), config.noise_obj(),
                        config.xi, config.horizon, seed)
    return run_br(game, config.br_samples, config.horizon, seed)


def _check_fading_block(config: ExperimentConfig) -> None:
    """Refuse a config whose largest per-phase fading block exceeds
    ``_FADING_BLOCK_GUARD``, before anything is drawn.  An estimate draws
    an m x m x N float32 block for its co-channel set of m links.  m is at
    most every D2D pair plus one cellular link, since cellular links hold
    distinct channels; N peaks in the coldest slot, the last one."""
    config.validate()
    if config.noise_model == "none":
        return  # exact utilities draw no fading
    m_max = config.num_ued + (1 if config.num_uec else 0)
    keys = ["num_uec", "num_ued"]
    if config.algorithm == "br":
        n_max = config.br_samples
        keys.append("br_samples")
    else:
        tau = config.schedule_obj().tau_at(config.horizon)
        n_max = config.noise_obj().required_samples(tau, config.xi)
        keys += ["tau"] if config.schedule == "fixed" \
            else ["tau_scale", "horizon"]
        keys += ["noise_model", "noise_width" if config.noise_model
                 == "bounded" else "noise_sigma", "xi"]
    size = m_max * m_max * n_max * 4
    if size > _FADING_BLOCK_GUARD:
        named = ", ".join(f"{k}={getattr(config, k)!r}" for k in keys)
        raise ValueError(
            f"the largest fading block, {m_max} x {m_max} x {n_max} float32 "
            f"({size / 2 ** 30:.1f} GiB), exceeds the "
            f"{_FADING_BLOCK_GUARD / 2 ** 30:g} GiB guard; it is set by "
            f"{named}")


class _Record(typing.NamedTuple):
    """What the aggregate keeps of one realization."""

    sum_rate: np.ndarray       # (T,) per-slot sum rate
    final_window_mean: float
    final_channels: np.ndarray  # (L,) channel vector after the last slot
    occupancy: float | None    # of the optimal set, if tracked
    wall_s: float


def _realization(config: ExperimentConfig, topology: Topology | None,
                 optimum_keys, k: int) -> _Record:
    """Run realization ``k``.  ``topology`` None draws the realization's
    own layout, and with ``optimum_keys`` None a tracked optimum is that
    layout's brute-force optimum."""
    t0 = time.perf_counter()
    topo = topology if topology is not None else config.topology(k)
    seed = config.base_seed + k
    traj = _run_one(config, topo, seed)
    if traj.horizon != config.horizon:
        raise RuntimeError(f"realization {k} (seed {seed}) returned "
                           f"{traj.horizon} slots, expected {config.horizon}")
    occupancy = None
    if config.track_optimum:
        keys = optimum_keys if optimum_keys is not None else \
            analysis.brute_force_optimum(
                config.game(topo, mode="deterministic")).keys()
        occupancy = traj.occupancy(keys)
    return _Record(traj.sum_rate, traj.final_window_mean_sum_rate(),
                   traj.profiles[-1], occupancy, time.perf_counter() - t0)


def _pool_size(realizations: int) -> int:
    """Worker count: the usable CPUs, capped at the realization count; 1
    where the platform cannot fork."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, realizations) if hasattr(os, "fork") else 1


@contextlib.contextmanager
def _realization_pool(realizations: int):
    """Yield a pool of forked workers for ``realizations`` runs, or None
    where one process is enough.  The workers are forked at the first
    submission and see this process's modules as they are then.  A worker
    that dies raises BrokenProcessPool, where a ``multiprocessing.Pool``
    would wait for it forever."""
    jobs = _pool_size(realizations)
    if jobs <= 1:
        yield None
        return
    # not imported at module level: they slow every import of the package
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
            jobs, mp_context=multiprocessing.get_context("fork")) as pool:
        yield pool


def _point_result(config: ExperimentConfig, param: str = "", value=None,
                  pool=None) -> PointResult:
    """Aggregate ``config.realizations`` runs, in ``pool`` if one is given;
    the records are reduced in realization order either way."""
    config.validate()
    horizon = config.horizon
    reals = config.realizations
    window = horizon - _window_start(horizon)

    shared_topo = config.topology(0) if config.shared_topology else None
    shared_opt = None
    if config.track_optimum:
        if shared_topo is not None:
            shared_opt = analysis.brute_force_optimum(
                config.game(shared_topo, mode="deterministic"))
        else:
            # the profile-space size does not depend on the layout, so an
            # oversized one is refused before any realization runs
            analysis._profile_count(
                config.game(config.topology(0), mode="deterministic"),
                analysis._SPACE_GUARD, "profile space")

    trace_sum = np.zeros(horizon)
    finals = np.zeros(reals)
    occupancies = np.zeros(reals) if config.track_optimum else None
    final_profiles = []

    run = functools.partial(_realization, config, shared_topo,
                            None if shared_opt is None else shared_opt.keys())
    records = map(run, range(reals)) if pool is None \
        else pool.map(run, range(reals))
    for k, rec in enumerate(records):
        trace_sum += rec.sum_rate
        finals[k] = rec.final_window_mean
        final_profiles.append(rec.final_channels)
        if occupancies is not None:
            occupancies[k] = rec.occupancy
        _log.info("realization %d/%d (seed %d) done in %.3f s", k + 1, reals,
                  config.base_seed + k, rec.wall_s)

    se = float(finals.std(ddof=1) / math.sqrt(reals)) if reals > 1 else 0.0
    return PointResult(
        param=param, value=value, config=replace(config),
        config_hash=config.config_hash(),
        seed_range=(config.base_seed, config.base_seed + reals - 1),
        window_slots=window, mean_trace=trace_sum / reals,
        per_realization_final=finals,
        final_profiles=np.array(final_profiles, dtype=np.int16),
        final_window_mean=float(finals.mean()), final_window_se=se,
        mean_occupancy=float(occupancies.mean())
        if occupancies is not None else None,
        phi_star=None if shared_opt is None else shared_opt.phi_star,
        optimum_keys=None if shared_opt is None
        else tuple(sorted(shared_opt.keys())))


def run_experiment(config: ExperimentConfig) -> SweepResult:
    """Run ``config.realizations`` seeded trajectories and aggregate them.

    Writes the standard tables under ``config.out_dir`` when that is set.
    The realizations run in forked workers, one per usable CPU; the tables
    are byte-identical for every worker count.
    """
    _check_fading_block(config)
    with _realization_pool(config.realizations) as pool:
        point = _point_result(config, pool=pool)
    result = SweepResult(points=[point], base_config=replace(config),
                         config_hash=config.config_hash())
    if config.out_dir:
        result.write(config.out_dir)
    return result


def _sweep(config: ExperimentConfig, param: str, values,
           make_config) -> SweepResult:
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    configs = [make_config(v) for v in values]
    for cfg in configs:  # an oversized point is refused before any runs
        _check_fading_block(cfg)
        cfg.out_dir = ""  # points share the sweep's output directory
    points = []
    with _realization_pool(config.realizations) as pool:  # one for all points
        for v, cfg in zip(values, configs):
            points.append(_point_result(cfg, param=param, value=v, pool=pool))
    result = SweepResult(points=points, base_config=replace(config),
                         config_hash=config.config_hash())
    if config.out_dir:
        result.write(config.out_dir)
    return result


def sweep_channels(config: ExperimentConfig, channel_counts) -> SweepResult:
    """One point per channel count; realization k reuses seed base+k at
    every point, so point differences are attributable to the count."""
    for c in channel_counts:
        if c < config.num_uec:
            raise ValueError(f"channel count {c} is below num_uec="
                             f"{config.num_uec}")
    return _sweep(config, "channels", channel_counts,
                  lambda c: replace(config, num_channels=int(c)))


def sweep_ues(config: ExperimentConfig, ued_counts) -> SweepResult:
    """One point per D2D pair count, paired seeds as in sweep_channels."""
    for c in ued_counts:
        if c < 0:
            raise ValueError("UED counts must be non-negative")
    return _sweep(config, "ueds", ued_counts,
                  lambda c: replace(config, num_ued=int(c)))


# ----------------------------------------------------------------------
# emitters (all output deterministic byte for byte)


def _write_lines(path: str, lines) -> None:
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc


def _provenance(result: SweepResult, point: PointResult) -> list:
    lo, hi = point.seed_range
    return [f"# config_hash={result.config_hash}",
            f"# seeds={lo}..{hi}",
            f"# window_slots={point.window_slots}"]


def _write_sweep(result: SweepResult, out_dir: str) -> list:
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def emit(name: str, lines) -> None:
        _write_lines(os.path.join(out_dir, name), lines)
        written.append(name)

    emit("config.txt", result.base_config.to_text().splitlines())

    summary = _provenance(result, result.points[0]) + [
        "param,value,realizations,horizon,window_slots,final_window_mean,"
        "final_window_se,mean_occupancy,phi_star"]
    for p in result.points:
        occ = "" if p.mean_occupancy is None else repr(p.mean_occupancy)
        phi = "" if p.phi_star is None else repr(p.phi_star)
        summary.append(f"{p.param},{p.value},{p.config.realizations},"
                       f"{p.config.horizon},{p.window_slots},"
                       f"{p.final_window_mean!r},{p.final_window_se!r},"
                       f"{occ},{phi}")
    emit("summary.csv", summary)

    for p in result.points:
        head = _provenance(result, p)
        trace = head + ["t,mean_sum_rate"]
        trace += [f"{t + 1},{float(v)!r}" for t, v in enumerate(p.mean_trace)]
        emit(f"{p.label()}_trace.csv", trace)

        rows = head + ["realization,seed,final_window_mean,channels"]
        lo = p.seed_range[0]
        for k in range(len(p.per_realization_final)):
            ch = "|".join(str(int(c)) for c in p.final_profiles[k])
            rows.append(f"{k},{lo + k},"
                        f"{float(p.per_realization_final[k])!r},{ch}")
        emit(f"{p.label()}_final_profiles.csv", rows)

    manifest = [f"config_hash {result.config_hash}"]
    manifest += [f"file {name}" for name in sorted(written)]
    _write_lines(os.path.join(out_dir, "manifest.txt"), manifest)
    written.append("manifest.txt")
    return written


# ----------------------------------------------------------------------
# exact-analysis report


@dataclass
class StationaryReport:
    """Distributions per temperature plus the stability verdict."""

    states: list               # channel-vector tuples, enumeration order
    taus: list
    pi_direct: np.ndarray      # (num_taus, num_states); NaN rows: solve failed
    pi_gibbs: np.ndarray
    pi_tree: np.ndarray | None  # None when the state space exceeds the cap
    stable_keys: tuple | None  # None for single-tau grids
    optimum_keys: tuple
    verdict: bool | None       # stable set == brute-force optimum set
    max_direct_gibbs_gap: float
    direct_failed_taus: tuple = ()  # too cold for a certified direct solve

    def to_csv_lines(self) -> list:
        lines = ["tau,state,pi_direct,pi_gibbs,pi_tree"]
        labels = ["|".join(str(x) for x in s) for s in self.states]
        for i, tau in enumerate(self.taus):
            # builtin floats: their repr round-trips
            direct = self.pi_direct[i].tolist()
            gibbs = self.pi_gibbs[i].tolist()
            tree = [""] * len(labels) if self.pi_tree is None \
                else [repr(v) for v in self.pi_tree[i].tolist()]
            lines += [f"{tau!r},{label},{d!r},{g!r},{t}" for label, d, g, t
                      in zip(labels, direct, gibbs, tree)]
        return lines


def analyze_stationary(config: ExperimentConfig, tau_grid) -> StationaryReport:
    """Exact stationary analysis of the configured instance.

    Computes the one-slot kernel's stationary law per grid temperature by
    direct solve and Gibbs form (and the tree theorem when the state space
    is small enough), plus the stochastic-stability verdict for grids of
    length >= 2.
    """
    config.validate()
    taus = [float(t) for t in tau_grid]
    if not taus:
        raise ValueError("tau_grid must be non-empty")
    game = config.game(config.topology(0), mode="deterministic")
    direct, gibbs, tree = [], [], []
    direct_failed = []
    for tau in taus:
        kernel = analysis.exact_transition_matrix(game, tau)  # size guards
        try:
            direct.append(analysis.stationary_direct(kernel).probs)
        except ValueError:
            # very cold chains defeat the dense solve's residual contract;
            # the Gibbs form stays exact
            direct.append(np.full(kernel.num_states, math.nan))
            direct_failed.append(tau)
        gibbs.append(analysis.gibbs_distribution(game, tau).probs)
        if kernel.num_states <= analysis._TREE_STATE_CAP:
            tree.append(analysis.stationary_tree(kernel).probs)
    states = kernel.states
    pi_direct = np.array(direct)
    pi_gibbs = np.array(gibbs)
    pi_tree = np.array(tree) if tree else None

    optimum = analysis.brute_force_optimum(game)
    opt_keys = tuple(sorted(optimum.keys()))
    stable_keys = None
    verdict = None
    if len(taus) >= 2:
        stable = analysis.stochastically_stable_states(game, taus)
        stable_keys = tuple(sorted(p.key() for p in stable))
        verdict = stable_keys == opt_keys

    solved = ~np.isnan(pi_direct).any(axis=1)
    gap = float(np.max(np.abs(pi_direct[solved] - pi_gibbs[solved]))) \
        if solved.any() else math.nan
    report = StationaryReport(
        states=states, taus=taus, pi_direct=pi_direct, pi_gibbs=pi_gibbs,
        pi_tree=pi_tree, stable_keys=stable_keys, optimum_keys=opt_keys,
        verdict=verdict, max_direct_gibbs_gap=gap,
        direct_failed_taus=tuple(direct_failed))
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        lines = [f"# config_hash={config.config_hash()}"]
        lines += report.to_csv_lines()
        _write_lines(os.path.join(config.out_dir, "stationary.csv"), lines)
    return report
