"""Binary log-linear learning over the assignment game, plus the
better-response baseline and the sample-count calculators that size each
slot's utility estimates.

One learning slot: the coordinator picks an active player and a trial
channel uniformly at random, the player estimates its utility on the current
channel (phase I) and on the trial channel (phase II) from N fresh fading
samples each, and a rule turns the estimated utility drop delta into a
switch.  BLLA switches with probability 1/(1 + exp(delta/tau)): small tau
exploits, large tau explores.  Better response switches only when
delta < 0.  Both learners run the one slot loop ``_run`` and differ only in
that rule and in N.  BLLA chooses N so that estimation noise does not
disturb the chain's long-run behavior; it is recomputed from tau(t) every
slot, so decreasing schedules pay a growing per-slot cost that the
trajectory records make visible.  A game with no active player keeps its
starting assignment for the whole run.
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
    "Trajectory",
    "run_blla",
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
class _GaussianLogMgf:
    """log E[exp(theta * X)] of X ~ Normal(0, sigma^2); a value, not a
    closure, so equal-sigma noise objects compare and hash equal."""

    sigma: float

    def __call__(self, th: float) -> float:
        return 0.5 * th * th * self.sigma * self.sigma


# cap of the search for the optimal Chernoff parameter theta
_THETA_MAX = 1e3


@dataclass(frozen=True)
class UnboundedMgfNoise:
    """Noise known only through its log moment generating function.

    ``log_mgf`` maps theta to log E[exp(theta * noise)] and must be finite
    and convex on [0, _THETA_MAX].  The search for the optimal Chernoff
    parameter is capped at _THETA_MAX (1e3); degenerate noise pushes the
    optimum to the cap, which only makes the returned sample count
    conservative.
    """

    log_mgf: Callable[[float], float]

    @classmethod
    def gaussian(cls, sigma: float) -> "UnboundedMgfNoise":
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        return cls(log_mgf=_GaussianLogMgf(sigma))

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
    convex), so a bounded 1-D maximization on [0, _THETA_MAX] finds the
    global optimum.
    """
    _check_tau_xi(tau, xi)
    target = (1.0 - xi) * tau

    res = minimize_scalar(lambda th: noise.log_mgf(th) - th * target,
                          bounds=(0.0, _THETA_MAX), method="bounded",
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


@functools.lru_cache(maxsize=4096)
def required_samples_unbounded(tau: float, xi: float,
                               noise: UnboundedMgfNoise) -> int:
    """Sample count for MGF-specified noise, memoized: every slot asks for
    it, and each computation runs a scalar minimization.  The cache holds a
    decreasing schedule's whole horizon, so later realizations hit it."""
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
# trajectories


_FINAL_WINDOW_FRAC = 0.25  # trailing share of a run that its statistics read


def _window_start(horizon: int) -> int:
    """Index of the first slot in the final ``_FINAL_WINDOW_FRAC`` of a run."""
    return int(math.floor(horizon * (1.0 - _FINAL_WINDOW_FRAC)))


@dataclass
class Trajectory:
    """Per-slot record of one learning run.

    ``profiles[k]`` is the channel vector after slot k+1; the starting
    assignment is kept separately.  ``sum_rate`` is the frozen-fading
    network sum rate of the post-slot profile, bits/s.  A slot that
    estimates nothing (a self-trial, or no active player to propose)
    records ``delta_hat`` 0; with no active player, ``player`` and
    ``trial`` are -1.
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

    def occupancy(self, target_keys) -> float:
        """Fraction of final-window slots spent in any of ``target_keys``
        (an iterable of channel-vector tuples)."""
        targets = {tuple(k) for k in target_keys}
        rows = self.profiles[_window_start(self.horizon):]
        if len(rows) == 0:
            return 0.0
        hits = sum(1 for row in rows if tuple(row.tolist()) in targets)
        return hits / len(rows)

    def final_window_mean_sum_rate(self) -> float:
        tail = self.sum_rate[_window_start(self.horizon):]
        return float(tail.mean()) if len(tail) else math.nan


# ----------------------------------------------------------------------
# the slot loop


def _run(game: CapGame, horizon: int, rng_seed, initial_profile,
         slot) -> Trajectory:
    """Run ``horizon`` slots of the proposal and estimation protocol.

    ``slot(t)`` gives slot t's (tau, N, accept): the temperature to record,
    the fading samples per estimate, and the rule ``accept(delta, rng)``
    that decides a switch from the estimated utility drop delta.  Draw
    order per slot: player, trial channel, phase I fading, phase II fading,
    then whatever ``accept`` draws.  A self-trial cannot change the profile,
    so its estimation phases and ``accept`` are skipped.  A game with no
    active player proposes nothing and draws nothing: it keeps its start.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    # SFC64: numpy's fastest raw 64-bit stream, which sample_fading_block
    # reads directly for float32 fading, the bulk of a run's time
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) \
        else np.random.Generator(np.random.SFC64(rng_seed))
    profile = game.initial_profile(rng) if initial_profile is None \
        else initial_profile
    profile.validate(game.num_channels)
    active = game.active_players
    traj = Trajectory(
        initial_channels=profile.channels.copy(),
        profiles=np.empty((horizon, game.num_players), dtype=np.int16),
        t=np.arange(1, horizon + 1, dtype=np.int64), tau=np.empty(horizon),
        n_samples=np.empty(horizon, dtype=np.int64),
        player=np.full(horizon, -1, dtype=np.int32),
        trial=np.full(horizon, -1, dtype=np.int32),
        accepted=np.zeros(horizon, dtype=bool), delta_hat=np.zeros(horizon),
        sum_rate=np.empty(horizon), seed=rng_seed)
    rate_cache: dict = {}
    for k in range(horizon):
        traj.tau[k], n, accept = slot(k + 1)
        traj.n_samples[k] = n
        if len(active):
            player = int(active[rng.integers(len(active))])
            trial = int(rng.integers(game.num_channels))
            traj.player[k], traj.trial[k] = player, trial
            if trial != profile.channels[player]:
                proposal = profile.with_channel(player, trial)
                delta = utility_mean(game, profile, player, n, rng).mean \
                    - utility_mean(game, proposal, player, n, rng).mean
                traj.delta_hat[k] = delta
                if accept(delta, rng):
                    profile = proposal
                    traj.accepted[k] = True
        traj.profiles[k] = profile.channels
        key = profile.key()
        rate = rate_cache.get(key)
        if rate is None:
            rate = game.potential_exact(profile)
            rate_cache[key] = rate
        traj.sum_rate[k] = rate
    return traj


def run_blla(game: CapGame, schedule, noise, xi: float, horizon: int,
             rng_seed, initial_profile: AssignmentProfile | None = None
             ) -> Trajectory:
    """Run BLLA for ``horizon`` slots; deterministic for a fixed seed.

    Each slot's sample count is recomputed from tau(t) and ``xi``;
    ``noise=None`` pairs with deterministic-mode games (single exact
    evaluation per phase).  A proposal is adopted with probability
    1/(1 + exp(delta/tau)).  Without an explicit initial profile, active
    players start on uniformly random channels drawn from the same stream.
    """
    def slot(t: int):
        tau = schedule.tau_at(t)
        n = 1 if noise is None else noise.required_samples(tau, xi)
        return tau, n, lambda delta, rng: \
            rng.random() < acceptance_probability(delta, tau)

    return _run(game, horizon, rng_seed, initial_profile, slot)


def _improves(delta: float, rng) -> bool:
    return delta < 0.0  # ties keep the current action


def run_br(game: CapGame, n_samples: int, horizon: int, rng_seed,
           initial_profile: AssignmentProfile | None = None) -> Trajectory:
    """Better-response baseline with a fixed per-phase sample budget: the
    same protocol as BLLA, but a proposal is adopted only when its
    estimated utility strictly exceeds the current one.  tau is NaN."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    return _run(game, horizon, rng_seed, initial_profile,
                lambda t: (math.nan, n_samples, _improves))
