"""Experiment driver: flat-text configs, seeded multi-realization runs,
parameter sweeps with paired seeds, and deterministic table emitters.

Configs carry radio quantities in dBm/dB, so files stay human-auditable;
``RadioParams`` takes them by the same names and units and converts them to
linear units itself.  The config's defaults are the only ones.  A point's
statistic is the final-window mean sum rate: each realization's mean over
its last quarter of slots, averaged over realizations.  Every emitted
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
from .learning import (BoundedNoise, FixedTemperature, GaussianNoise,
                       LogDecreasingTemperature, Trajectory, _check_scale,
                       run_blla, run_br)
from .radio import (RadioParams, Topology, generate_topology,
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
# most fading coefficients that one utility estimate may draw, in chunks
# of bounded memory: a cap on its work
_FADING_COEFF_GUARD = 1 << 28
# most bytes that one realization's records and a point's trace may take,
# and apart from those, a point's per-realization arrays
_RUN_BYTES_GUARD = 1 << 30
# most bytes that one layout's L x L arrays may take, counted at their
# peak of 48 per ordered link pair in generate_topology: the (L, L, 2)
# float64 offsets, their conjugate copy and their squares; a game then
# holds 28, its gains, received powers and weight tables
_LAYOUT_BYTES_GUARD = 1 << 30
_FINAL_WINDOW_FRAC = 0.25  # trailing share of a run that its statistics read

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
            value = getattr(self, f.name)
            _check_type(f.name, value)
            if _FIELD_TYPES[f.name] is float and not math.isfinite(value):
                raise ValueError(f"config key {f.name!r} must be finite, "
                                 f"got {value!r}")
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
            raise ValueError(f"num_uec={self.num_uec} exceeds num_channels="
                             f"{self.num_channels}; each UEC needs a "
                             "dedicated channel")
        for key in ("num_uec", "num_ued", "base_seed", "topology_seed"):
            value = getattr(self, key)
            if value < 0:
                raise ValueError(f"config key {key!r} must be non-negative, "
                                 f"got {value!r}")
        for key in ("tau", "tau_scale"):
            value = getattr(self, key)
            if not value > 0:
                raise ValueError(f"config key {key!r} must be positive, "
                                 f"got {value!r}")
        for key in ("noise_width", "noise_sigma"):
            _check_scale(f"config key {key!r}", getattr(self, key))
        if not 0.0 < self.xi < 1.0:
            raise ValueError("config key 'xi' must lie strictly inside "
                             f"(0, 1), got {self.xi!r}")
        if self.br_samples < 1:
            raise ValueError("config key 'br_samples' must be >= 1, "
                             f"got {self.br_samples!r}")
        self.radio_params()  # nested invariants

    # -- construction of the underlying objects -------------------------

    def radio_params(self) -> RadioParams:
        return RadioParams(**{f.name: getattr(self, f.name)
                              for f in dataclasses.fields(RadioParams)})

    def topology(self, realization: int = 0) -> Topology:
        seed = self.topology_seed if self.shared_topology \
            else self.topology_seed + realization
        return generate_topology(self.radio_params(), self.num_uec,
                                 self.num_ued, seed)

    def game(self, topology: Topology) -> CapGame:
        return CapGame(topology, self.radio_params())

    def schedule_obj(self):
        if self.schedule == "fixed":
            return FixedTemperature(tau=self.tau)
        return LogDecreasingTemperature(scale=self.tau_scale)

    def noise_obj(self):
        if self.noise_model == "bounded":
            return BoundedNoise(interval_width=self.noise_width)
        if self.noise_model == "gaussian":
            return GaussianNoise(sigma=self.noise_sigma)
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
    seed_range: tuple          # (first, last) learning seeds
    window_slots: int          # final-window length used for statistics
    mean_trace: np.ndarray     # (T,) per-slot sum rate, mean over realizations
    per_realization_final: np.ndarray  # (R,) final-window mean sum rates
    final_profiles: np.ndarray         # (R, L) final channel vectors
    final_window_mean: float
    final_window_se: float     # sample std over realizations / sqrt(R)
    mean_occupancy: float | None  # of the optimal set, if tracked
    phi_star: float | None        # brute-force optimum, bits/s

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


def _run_one(config: ExperimentConfig, game: CapGame,
             seed: int) -> Trajectory:
    if config.algorithm == "blla":
        return run_blla(game, config.schedule_obj(), config.noise_obj(),
                        config.xi, config.horizon, seed)
    n = None if config.noise_model == "none" else config.br_samples
    return run_br(game, n, config.horizon, seed)


def _window_start(horizon: int) -> int:
    """Index of the first slot in the final ``_FINAL_WINDOW_FRAC`` of a run."""
    return int(math.floor(horizon * (1.0 - _FINAL_WINDOW_FRAC)))


def _set_by(config: ExperimentConfig, names) -> str:
    """A refusal's tail: the config keys that set the refused size."""
    return "; it is set by " + ", ".join(f"{k}={getattr(config, k)!r}"
                                         for k in names)


def _check_layout(config: ExperimentConfig) -> None:
    """Refuse L links whose L x L arrays exceed ``_LAYOUT_BYTES_GUARD``."""
    layout_bytes = 48 * (config.num_uec + config.num_ued) ** 2
    if layout_bytes > _LAYOUT_BYTES_GUARD:
        raise ValueError(f"the layout's L x L arrays would take "
                         f"{layout_bytes:.3g} bytes, more than the guard of "
                         f"{_LAYOUT_BYTES_GUARD:.3g}"
                         + _set_by(config, ["num_uec", "num_ued"]))


def _check_point(config: ExperimentConfig) -> None:
    """Refuse a point before anything is drawn: an invalid config, then T
    slots on L links whose records, T x (2 L + 41) bytes, and the point's
    float64 trace exceed ``_RUN_BYTES_GUARD`` bytes, then R realizations
    whose own arrays exceed it (final-window means, final profiles and,
    when tracked, occupancies: R x (2 L + 16) bytes, or 8 fewer each),
    then a layout too large for ``_check_layout``, then an estimate of
    m x m x N fading coefficients over ``_FADING_COEFF_GUARD`` (m at most
    every D2D pair plus one cellular link, N that of the last, coldest
    slot), then a tracked optimum over more profiles, channels to the
    power of D2D pairs, than brute force enumerates."""
    config.validate()
    run_bytes = config.horizon * (2 * (config.num_uec + config.num_ued) + 49)
    if run_bytes > _RUN_BYTES_GUARD:
        raise ValueError(f"one run's slot records and the point's trace "
                         f"would take {run_bytes:.3g} bytes, more than the "
                         f"guard of {_RUN_BYTES_GUARD:.3g}"
                         + _set_by(config, ["horizon", "num_uec", "num_ued"]))
    point_bytes = config.realizations * (
        2 * (config.num_uec + config.num_ued)
        + (16 if config.track_optimum else 8))
    if point_bytes > _RUN_BYTES_GUARD:
        raise ValueError(f"the point's per-realization arrays would take "
                         f"{point_bytes:.3g} bytes, more than the guard of "
                         f"{_RUN_BYTES_GUARD:.3g}" + _set_by(
                             config, ["realizations", "num_uec", "num_ued"]))
    _check_layout(config)
    m_max = config.num_ued + (1 if config.num_uec else 0)
    keys = ["num_uec", "num_ued"]
    if config.noise_model == "none":
        n_max = 0  # exact utilities draw no fading
    elif config.algorithm == "br":
        n_max = config.br_samples
        keys.append("br_samples")
    else:
        tau = config.schedule_obj().tau_at(config.horizon)
        n_max = config.noise_obj().required_samples(tau, config.xi)
        keys += ["tau"] if config.schedule == "fixed" \
            else ["tau_scale", "horizon"]
        keys += ["noise_model", "noise_width" if config.noise_model
                 == "bounded" else "noise_sigma", "xi"]
    coeffs = m_max * m_max * n_max
    if coeffs > _FADING_COEFF_GUARD:
        raise ValueError(
            f"one estimate would draw {m_max} x {m_max} x {n_max} fading "
            f"coefficients ({coeffs:.3g}), more than the guard of "
            f"{_FADING_COEFF_GUARD:.3g}{_set_by(config, keys)}")
    if config.track_optimum:
        analysis._profile_count(config.num_channels, config.num_ued,
                                analysis._SPACE_GUARD, "profile space")


class _Record(typing.NamedTuple):
    """What the aggregate keeps of one realization."""

    sum_rate: np.ndarray       # (T,) per-slot sum rate
    final_channels: np.ndarray  # (L,) channel vector after the last slot
    occupancy: float | None    # of the optimal set, if tracked
    wall_s: float


def _realization(config: ExperimentConfig, best: float | None,
                 k: int) -> _Record:
    """Run realization ``k`` on ``config.topology(k)``.  With ``best``
    None the tracked optimum is that layout's brute-force best normalized
    potential.  One game serves the learner and the optimum."""
    t0 = time.perf_counter()
    game = config.game(config.topology(k))
    seed = config.base_seed + k
    traj = _run_one(config, game, seed)
    if traj.horizon != config.horizon:
        raise RuntimeError(f"realization {k} (seed {seed}) returned "
                           f"{traj.horizon} slots, expected {config.horizon}")
    occupancy = None
    if config.track_optimum:
        if best is None:
            best = analysis.brute_force_optimum(game).normalized_phi_star
        occupancy = analysis._optimal_share(
            game, traj.sum_rate[_window_start(traj.horizon):], best)
    # a copy: a view would keep the whole (T, L) record alive
    return _Record(traj.sum_rate, traj.profiles[-1].copy(), occupancy,
                   time.perf_counter() - t0)


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


def _point_result(config: ExperimentConfig, param: str, value,
                  pool) -> PointResult:
    """Aggregate ``config.realizations`` runs, in ``pool`` unless it is
    None; the records are reduced in realization order either way.
    ``_run_points`` has checked ``config`` (``_check_point``)."""
    horizon = config.horizon
    reals = config.realizations
    start = _window_start(horizon)

    shared_opt = None
    if config.track_optimum and config.shared_topology:
        shared_opt = analysis.brute_force_optimum(
            config.game(config.topology(0)))

    trace_sum = np.zeros(horizon)
    finals = np.zeros(reals)
    occupancies = np.zeros(reals) if config.track_optimum else None
    final_profiles = np.zeros((reals, config.num_uec + config.num_ued),
                              dtype=np.int16)

    best = None if shared_opt is None else shared_opt.normalized_phi_star
    run = functools.partial(_realization, config, best)
    records = map(run, range(reals)) if pool is None \
        else pool.map(run, range(reals))
    for k, rec in enumerate(records):
        trace_sum += rec.sum_rate
        finals[k] = rec.sum_rate[start:].mean()
        final_profiles[k] = rec.final_channels
        if occupancies is not None:
            occupancies[k] = rec.occupancy
        _log.info("realization %d/%d (seed %d) done in %.3f s", k + 1, reals,
                  config.base_seed + k, rec.wall_s)

    se = float(finals.std(ddof=1) / math.sqrt(reals)) if reals > 1 else 0.0
    return PointResult(
        param=param, value=value, config=replace(config),
        seed_range=(config.base_seed, config.base_seed + reals - 1),
        window_slots=horizon - start, mean_trace=trace_sum / reals,
        per_realization_final=finals,
        final_profiles=final_profiles,
        final_window_mean=float(finals.mean()), final_window_se=se,
        mean_occupancy=float(occupancies.mean())
        if occupancies is not None else None,
        phi_star=None if shared_opt is None else shared_opt.phi_star)


def _run_points(config: ExperimentConfig, param: str, values,
                configs) -> SweepResult:
    """Point k runs ``configs[k]``, labelled ``param`` = ``values[k]``.
    Every point is checked before any runs, all share one realization pool,
    and the tables go under ``config.out_dir`` when that is set."""
    for cfg in configs:
        _check_point(cfg)
    with _realization_pool(config.realizations) as pool:
        points = [_point_result(cfg, param, v, pool)
                  for v, cfg in zip(values, configs)]
    result = SweepResult(points=points, base_config=replace(config),
                         config_hash=config.config_hash())
    if config.out_dir:
        result.write(config.out_dir)
    return result


def run_experiment(config: ExperimentConfig) -> SweepResult:
    """Run ``config.realizations`` seeded trajectories and aggregate them.

    Writes the standard tables under ``config.out_dir`` when that is set.
    The realizations run in forked workers, one per usable CPU; the tables
    are byte-identical for every worker count.
    """
    return _run_points(config, "", [None], [config])


def _sweep(config: ExperimentConfig, param: str, key: str,
           values) -> SweepResult:
    """One point per value of config key ``key``, labelled ``param``."""
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    for v in values:  # a float or bool count would run as another int
        _check_type(key, v, f" in the {param} sweep")
    for v in values:  # its points would write one set of tables twice
        if values.count(v) > 1:
            raise ValueError(f"the {param} sweep lists {key}={v!r} more "
                             "than once")
    # points share the sweep's output directory
    return _run_points(config, param, values,
                       [replace(config, **{key: v, "out_dir": ""})
                        for v in values])


def sweep_channels(config: ExperimentConfig, channel_counts) -> SweepResult:
    """One point per channel count; realization k reuses seed base+k at
    every point, so point differences are attributable to the count."""
    return _sweep(config, "channels", "num_channels", channel_counts)


def sweep_ues(config: ExperimentConfig, ued_counts) -> SweepResult:
    """One point per D2D pair count, paired seeds as in sweep_channels."""
    return _sweep(config, "ueds", "num_ued", ued_counts)


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

    states: np.ndarray         # (states, links) channels, enumeration order
    taus: list
    pi_direct: np.ndarray      # (num_taus, num_states); NaN rows: solve failed
    pi_gibbs: np.ndarray
    pi_tree: np.ndarray | None  # None when the state space exceeds the cap
    stable_keys: tuple | None  # None for single-tau grids
    optimum_keys: tuple
    verdict: bool | None       # stable set == brute-force optimum set
    max_direct_gibbs_gap: float
    direct_failed_taus: tuple  # too cold for a certified direct solve

    def to_csv_lines(self) -> list:
        lines = ["tau,state,pi_direct,pi_gibbs,pi_tree"]
        labels = ["|".join(str(x) for x in s) for s in self.states.tolist()]
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
    length >= 2.  The grid, the layout's size and the dense kernel's
    profile count are checked before the layout is drawn.
    """
    config.validate()
    taus = analysis._tau_grid(tau_grid)  # before any kernel is built
    _check_layout(config)
    analysis._profile_count(config.num_channels, config.num_ued,
                            analysis._DENSE_GUARD, "dense kernel")
    game = config.game(config.topology(0))
    direct, gibbs, tree = [], [], []
    direct_failed = []
    for tau in taus:
        kernel = None  # free the last tau's n x n kernel before the next
        kernel = analysis.exact_transition_matrix(game, tau)  # size guards
        try:
            direct.append(analysis.stationary_direct(kernel))
        except ValueError:
            # very cold chains defeat the dense solve's residual contract;
            # the Gibbs form stays exact
            direct.append(np.full(len(kernel), math.nan))
            direct_failed.append(tau)
        gibbs.append(analysis.gibbs_distribution(game, tau))
        if len(kernel) <= analysis._TREE_STATE_CAP:
            tree.append(analysis.stationary_tree(kernel))
    pi_direct = np.array(direct)
    pi_gibbs = np.array(gibbs)
    pi_tree = np.array(tree) if tree else None

    opt_keys = analysis.brute_force_optimum(game).keys
    stable_keys = None
    verdict = None
    if len(taus) >= 2:
        stable_keys = analysis.stochastically_stable_states(game, taus)
        verdict = stable_keys == opt_keys

    solved = ~np.isnan(pi_direct).any(axis=1)
    gap = float(np.max(np.abs(pi_direct[solved] - pi_gibbs[solved]))) \
        if solved.any() else math.nan
    report = StationaryReport(
        states=analysis._table(game).channels, taus=taus, pi_direct=pi_direct,
        pi_gibbs=pi_gibbs, pi_tree=pi_tree, stable_keys=stable_keys,
        optimum_keys=opt_keys, verdict=verdict, max_direct_gibbs_gap=gap,
        direct_failed_taus=tuple(direct_failed))
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        lines = [f"# config_hash={config.config_hash()}"]
        lines += report.to_csv_lines()
        _write_lines(os.path.join(config.out_dir, "stationary.csv"), lines)
    return report
