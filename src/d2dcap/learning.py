"""Binary log-linear learning over the assignment game, plus the
better-response baseline and the sample-count calculators that size each
slot's utility estimates.

One learning slot: the coordinator picks an active player and a trial
channel uniformly at random, the player estimates its utility on the current
channel (phase I) and on the trial channel (phase II) from N fresh fading
samples each, and switches with probability 1/(1 + exp(delta/tau)) where
delta is the estimated utility drop.  Small tau exploits, large tau
explores.  The sample count N is chosen so that estimation noise does not
disturb the chain's long-run behavior; it is recomputed from tau(t) every
slot, so decreasing schedules pay a growing per-slot cost that the
trajectory records make visible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize_scalar

from .game import AssignmentProfile, CapGame, utility_mean

__all__ = [
    "FixedTemperature",
    "LogDecreasingTemperature",
    "BoundedNoise",
    "UnboundedMgfNoise",
    "required_samples_bounded",
    "required_samples_unbounded",
    "UnboundedSampleCalc",
    "unbounded_sample_calc",
    "acceptance_probability",
    "LearnerState",
    "Trajectory",
    "blla_step",
    "run_blla",
    "better_response_step",
    "run_br",
]


# ----------------------------------------------------------------------
# temperature schedules


@dataclass(frozen=True)
class FixedTemperature:
    tau: float  # exploration temperature, > 0

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("tau must be positive")

    def tau_at(self, t: int) -> float:
        return self.tau


@dataclass(frozen=True)
class LogDecreasingTemperature:
    """tau(t) = scale / log(1 + t), natural log, slots t >= 1."""

    scale: float = 0.1

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    def tau_at(self, t: int) -> float:
        if t < 1:
            raise ValueError("slots are counted from 1")
        return self.scale / math.log(1.0 + t)


# ----------------------------------------------------------------------
# noise specifications and sample counts


@dataclass(frozen=True)
class BoundedNoise:
    """Estimation noise confined to an interval of width interval_width."""

    interval_width: float = 1.0

    def __post_init__(self):
        if not self.interval_width > 0:
            raise ValueError("interval_width must be positive")

    def required_samples(self, tau: float, xi: float) -> int:
        return required_samples_bounded(tau, xi, self.interval_width)


@dataclass(frozen=True)
class UnboundedMgfNoise:
    """Noise known only through its log moment generating function.

    ``log_mgf`` maps theta to log E[exp(theta * noise)] and must be finite
    and convex on [0, theta_max].  The search for the optimal Chernoff
    parameter is capped at theta_max; degenerate noise pushes the optimum to
    the cap, which only makes the returned sample count conservative.
    """

    log_mgf: Callable[[float], float]
    theta_max: float = 1e3

    def __post_init__(self):
        if not self.theta_max > 0:
            raise ValueError("theta_max must be positive")

    @classmethod
    def gaussian(cls, sigma: float, theta_max: float = 1e3) -> "UnboundedMgfNoise":
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        return cls(log_mgf=lambda th: 0.5 * th * th * sigma * sigma,
                   theta_max=theta_max)

    def required_samples(self, tau: float, xi: float) -> int:
        return required_samples_unbounded(tau, xi, self)


def _check_tau_xi(tau: float, xi: float) -> None:
    if not tau > 0:
        raise ValueError("tau must be positive")
    if not 0.0 < xi < 1.0:
        raise ValueError("xi must lie strictly inside (0, 1)")


def required_samples_bounded(tau: float, xi: float, width: float) -> int:
    """Samples per utility estimate for noise bounded in an interval.

    N = ceil[(ln(4/xi) + 2/tau) * width^2 / (2 (1-xi)^2 tau^2)].
    """
    _check_tau_xi(tau, xi)
    if not width > 0:
        raise ValueError("width must be positive")
    raw = (math.log(4.0 / xi) + 2.0 / tau) * width * width \
        / (2.0 * (1.0 - xi) ** 2 * tau * tau)
    return int(math.ceil(raw))


@dataclass
class UnboundedSampleCalc:
    """Sample count plus the Chernoff intermediates behind it."""

    n: int
    theta_star: float
    numerator: float    # ln(4/xi) + 2/tau
    denominator: float  # theta*(1-xi)tau - log_mgf(theta*)


def unbounded_sample_calc(tau: float, xi: float,
                          noise: UnboundedMgfNoise) -> UnboundedSampleCalc:
    """Optimize theta and size the estimate for MGF-specified noise.

    The objective theta*(1-xi)*tau - log_mgf(theta) is concave (log MGFs are
    convex), so a bounded 1-D maximization on [0, theta_max] finds the global
    optimum.
    """
    _check_tau_xi(tau, xi)
    target = (1.0 - xi) * tau

    res = minimize_scalar(lambda th: noise.log_mgf(th) - th * target,
                          bounds=(0.0, noise.theta_max), method="bounded",
                          options={"xatol": 1e-12})
    theta_star = float(res.x)
    denominator = theta_star * target - noise.log_mgf(theta_star)
    if denominator <= 0.0:
        raise ValueError("noise MGF grows too fast: optimized exponent "
                         f"{denominator!r} is not positive")
    numerator = math.log(4.0 / xi) + 2.0 / tau
    n = int(math.ceil(numerator / denominator))
    return UnboundedSampleCalc(n=n, theta_star=theta_star,
                               numerator=numerator, denominator=denominator)


@functools.lru_cache(maxsize=256)
def required_samples_unbounded(tau: float, xi: float,
                               noise: UnboundedMgfNoise) -> int:
    """Sample count for MGF-specified noise, memoized: a fixed schedule asks
    for it every slot, and each computation runs a scalar minimization."""
    return unbounded_sample_calc(tau, xi, noise).n


# ----------------------------------------------------------------------
# acceptance rule


def acceptance_probability(delta: float, tau: float) -> float:
    """Probability of switching given estimated utility drop ``delta``.

    1/(1 + exp(delta/tau)), evaluated as exp(-logaddexp(0, delta/tau)) so
    arbitrarily large |delta/tau| saturates to 0 or 1 without overflow.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    return float(np.exp(-np.logaddexp(0.0, delta / tau)))


# ----------------------------------------------------------------------
# learner state and trajectories


@dataclass
class LearnerState:
    """Chain position after ``t`` completed slots, plus the last slot's
    bookkeeping."""

    profile: AssignmentProfile
    t: int = 0
    tau: float = math.nan
    n_samples: int = 0
    player: int = -1
    trial: int = -1
    accepted: bool = False
    delta_hat: float = math.nan


@dataclass
class Trajectory:
    """Per-slot record of one learning run.

    ``profiles[k]`` is the channel vector after slot k+1; the starting
    assignment is kept separately.  ``sum_rate`` is the frozen-fading
    network sum rate of the post-slot profile, bits/s.
    """

    initial_channels: np.ndarray       # (L,)
    profiles: np.ndarray               # (T, L) post-slot channel vectors
    t: np.ndarray                      # (T,) slot index, 1-based
    tau: np.ndarray                    # (T,)
    n_samples: np.ndarray              # (T,)
    player: np.ndarray                 # (T,)
    trial: np.ndarray                  # (T,) proposed channel
    accepted: np.ndarray               # (T,) bool
    delta_hat: np.ndarray              # (T,)
    sum_rate: np.ndarray               # (T,) bits/s
    seed: object = None

    @property
    def horizon(self) -> int:
        return len(self.t)

    def final_profile_key(self) -> tuple:
        if self.horizon == 0:
            return tuple(self.initial_channels.tolist())
        return tuple(self.profiles[-1].tolist())

    def _window_start(self, window_frac: float) -> int:
        if not 0.0 < window_frac <= 1.0:
            raise ValueError("window_frac must lie in (0, 1]")
        return int(math.floor(self.horizon * (1.0 - window_frac)))

    def occupancy(self, target_keys, window_frac: float = 0.25) -> float:
        """Fraction of final-window slots spent in any of ``target_keys``
        (an iterable of channel-vector tuples)."""
        targets = {tuple(k) for k in target_keys}
        start = self._window_start(window_frac)
        rows = self.profiles[start:]
        if len(rows) == 0:
            return 0.0
        hits = sum(1 for row in rows if tuple(row.tolist()) in targets)
        return hits / len(rows)

    def final_window_mean_sum_rate(self, window_frac: float = 0.25) -> float:
        start = self._window_start(window_frac)
        tail = self.sum_rate[start:]
        return float(tail.mean()) if len(tail) else math.nan

    def to_csv(self, path) -> None:
        """One record per slot with a header row, comma-delimited."""
        with open(path, "w") as fh:
            fh.write("t,tau,n_samples,player,trial,accepted,delta_hat,sum_rate\n")
            for k in range(self.horizon):
                # repr of builtin floats round-trips; numpy scalar repr
                # does not parse as a number
                fh.write(f"{self.t[k]},{float(self.tau[k])!r},"
                         f"{self.n_samples[k]},"
                         f"{self.player[k]},{self.trial[k]},"
                         f"{int(self.accepted[k])},"
                         f"{float(self.delta_hat[k])!r},"
                         f"{float(self.sum_rate[k])!r}\n")


class _TrajectoryRecorder:
    """Preallocated per-slot arrays filled as the run advances."""

    def __init__(self, horizon: int, num_links: int,
                 initial: AssignmentProfile, seed):
        self.initial_channels = initial.channels.copy()
        self.profiles = np.zeros((horizon, num_links), dtype=np.int16)
        self.t = np.arange(1, horizon + 1, dtype=np.int64)
        self.tau = np.zeros(horizon)
        self.n_samples = np.zeros(horizon, dtype=np.int64)
        self.player = np.zeros(horizon, dtype=np.int32)
        self.trial = np.zeros(horizon, dtype=np.int32)
        self.accepted = np.zeros(horizon, dtype=bool)
        self.delta_hat = np.zeros(horizon)
        self.sum_rate = np.zeros(horizon)
        self.seed = seed

    def record(self, k: int, state: LearnerState, sum_rate: float) -> None:
        self.profiles[k] = state.profile.channels
        self.tau[k] = state.tau
        self.n_samples[k] = state.n_samples
        self.player[k] = state.player
        self.trial[k] = state.trial
        self.accepted[k] = state.accepted
        self.delta_hat[k] = state.delta_hat
        self.sum_rate[k] = sum_rate

    def build(self) -> Trajectory:
        return Trajectory(initial_channels=self.initial_channels,
                          profiles=self.profiles, t=self.t, tau=self.tau,
                          n_samples=self.n_samples, player=self.player,
                          trial=self.trial, accepted=self.accepted,
                          delta_hat=self.delta_hat, sum_rate=self.sum_rate,
                          seed=self.seed)


# ----------------------------------------------------------------------
# one learning slot


def _propose(state: LearnerState, game: CapGame, rng: np.random.Generator):
    active = game.active_players
    if len(active) == 0:
        raise ValueError("at least one active player is required")
    player = int(active[rng.integers(len(active))])
    trial = int(rng.integers(game.num_channels))
    return player, trial


def blla_step(state: LearnerState, game: CapGame, schedule, noise,
              xi: float, rng: np.random.Generator) -> LearnerState:
    """Advance the chain by one slot.

    Draw order per slot: player, trial channel, phase I fading, phase II
    fading, acceptance coin.  A self-trial cannot change the profile, so its
    estimation phases and coin are skipped; the record still carries the
    slot's tau and sample count.
    """
    t = state.t + 1
    tau = schedule.tau_at(t)
    if noise is None:
        n = 1  # exact utilities, nothing to average
    else:
        n = noise.required_samples(tau, xi)

    player, trial = _propose(state, game, rng)
    current = int(state.profile.channels[player])
    if trial == current:
        return LearnerState(profile=state.profile, t=t, tau=tau, n_samples=n,
                            player=player, trial=trial, accepted=False,
                            delta_hat=0.0)

    trial_profile = state.profile.with_channel(player, trial)
    est_current = utility_mean(game, state.profile, player, n, rng).mean
    est_trial = utility_mean(game, trial_profile, player, n, rng).mean
    delta = est_current - est_trial
    accept = rng.random() < acceptance_probability(delta, tau)
    return LearnerState(profile=trial_profile if accept else state.profile,
                        t=t, tau=tau, n_samples=n, player=player, trial=trial,
                        accepted=accept, delta_hat=delta)


def better_response_step(state: LearnerState, game: CapGame, n_samples: int,
                         rng: np.random.Generator) -> LearnerState:
    """Same proposal and estimation protocol, but the trial is adopted only
    when its estimated utility strictly exceeds the current one."""
    t = state.t + 1
    player, trial = _propose(state, game, rng)
    current = int(state.profile.channels[player])
    if trial == current:
        return LearnerState(profile=state.profile, t=t, tau=math.nan,
                            n_samples=n_samples, player=player, trial=trial,
                            accepted=False, delta_hat=0.0)
    trial_profile = state.profile.with_channel(player, trial)
    est_current = utility_mean(game, state.profile, player, n_samples, rng).mean
    est_trial = utility_mean(game, trial_profile, player, n_samples, rng).mean
    delta = est_current - est_trial
    accept = delta < 0.0  # ties keep the current action
    return LearnerState(profile=trial_profile if accept else state.profile,
                        t=t, tau=math.nan, n_samples=n_samples, player=player,
                        trial=trial, accepted=accept, delta_hat=delta)


# ----------------------------------------------------------------------
# trajectory runners


def _run(game: CapGame, horizon: int, rng_seed, initial_profile,
         advance) -> Trajectory:
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    # SFC64: fastest bulk float32 uniform stream in numpy, dominates runtime.
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) \
        else np.random.Generator(np.random.SFC64(rng_seed))
    profile = game.initial_profile(rng) if initial_profile is None \
        else initial_profile
    profile.validate(game.num_channels)
    state = LearnerState(profile=profile)
    rec = _TrajectoryRecorder(horizon, game.num_players, profile, rng_seed)
    rate_cache: dict = {}
    for k in range(horizon):
        state = advance(state, rng)
        key = state.profile.key()
        rate = rate_cache.get(key)
        if rate is None:
            rate = game.potential_exact(state.profile)
            rate_cache[key] = rate
        rec.record(k, state, rate)
    return rec.build()


def run_blla(game: CapGame, schedule, noise, xi: float, horizon: int,
             rng_seed, initial_profile: AssignmentProfile | None = None
             ) -> Trajectory:
    """Run BLLA for ``horizon`` slots; deterministic for a fixed seed.

    ``noise=None`` pairs with deterministic-mode games (single exact
    evaluation per phase).  Without an explicit initial profile, active
    players start on uniformly random channels drawn from the same stream.
    """
    return _run(game, horizon, rng_seed, initial_profile,
                lambda st, rng: blla_step(st, game, schedule, noise, xi, rng))


def run_br(game: CapGame, n_samples: int, horizon: int, rng_seed,
           initial_profile: AssignmentProfile | None = None) -> Trajectory:
    """Better-response baseline with a fixed per-phase sample budget."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    return _run(game, horizon, rng_seed, initial_profile,
                lambda st, rng: better_response_step(st, game, n_samples, rng))
