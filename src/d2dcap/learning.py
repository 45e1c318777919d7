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
trajectory records make visible.  A learner without a noise model has
N = 0: it reads exact utilities and draws no fading.  A game with no
active player keeps its starting assignment for the whole run.  The loop
carries no potential from slot to slot: a run's sum rates are its recorded
profiles' potentials, gathered by the game in one batch after the last
slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import (AssignmentProfile, CapGame, _check_integer, cochannel_set,
                   utility_mean)

__all__ = [
    "FixedTemperature",
    "LogDecreasingTemperature",
    "BoundedNoise",
    "GaussianNoise",
    "UnboundedSampleCalc",
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

    scale: float

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    def tau_at(self, t: int) -> float:
        if t < 1:
            raise ValueError("slots are counted from 1")
        return self.scale / math.log(1.0 + t)


# ----------------------------------------------------------------------
# noise specifications and sample counts


def _check_tau_xi(tau: float, xi: float) -> None:
    if not tau > 0:
        raise ValueError("tau must be positive")
    if not 0.0 < xi < 1.0:
        raise ValueError("xi must lie strictly inside (0, 1)")


def _check_scale(name: str, value: float) -> None:
    """Refuse a noise scale unless it is positive and its square, which a
    sample count scales with, is a positive finite float."""
    if not (value > 0 and 0.0 < value * value < math.inf):
        raise ValueError(f"{name} must be positive with a positive finite "
                         f"square, got {value!r}")


def _sample_count(numerator: float, denominator: float, tau: float,
                  xi: float, noise) -> int:
    """ceil(numerator / denominator), at least 1 since a count of 0 has
    underflowed; refused when not finite (an overflow, or 0 below)."""
    raw = numerator / denominator if denominator else math.inf
    if not math.isfinite(raw):
        raise ValueError(f"the sample count at tau={tau!r} and xi={xi!r} "
                         f"of {noise!r} is not finite")
    return max(1, int(math.ceil(raw)))


@dataclass(frozen=True)
class BoundedNoise:
    """Estimation noise confined to an interval of width interval_width."""

    interval_width: float

    def __post_init__(self):
        _check_scale("interval_width", self.interval_width)

    def required_samples(self, tau: float, xi: float) -> int:
        """Samples per utility estimate, by Hoeffding's bound:
        N = ceil[(ln(4/xi) + 2/tau) * width^2 / (2 (1-xi)^2 tau^2)].
        """
        _check_tau_xi(tau, xi)
        width = self.interval_width
        return _sample_count((math.log(4.0 / xi) + 2.0 / tau) * width * width,
                             2.0 * (1.0 - xi) ** 2 * tau * tau, tau, xi, self)


@dataclass
class UnboundedSampleCalc:
    """Sample count plus the Chernoff intermediates behind it."""

    n: int
    theta_star: float
    numerator: float    # ln(4/xi) + 2/tau
    denominator: float  # theta*(1-xi)tau - sigma^2 theta*^2 / 2


@dataclass(frozen=True)
class GaussianNoise:
    """Zero-mean Gaussian estimation noise of standard deviation sigma."""

    sigma: float

    def __post_init__(self):
        _check_scale("sigma", self.sigma)

    def sample_calc(self, tau: float, xi: float) -> UnboundedSampleCalc:
        """Size the estimate by the optimized Chernoff bound.

        With t = (1-xi) tau, the exponent theta t - sigma^2 theta^2 / 2
        peaks at theta* = t / sigma^2 with value D = t^2 / (2 sigma^2), so
        N = ceil[(ln(4/xi) + 2/tau) / D].
        """
        _check_tau_xi(tau, xi)
        target = (1.0 - xi) * tau
        variance = self.sigma * self.sigma
        numerator = math.log(4.0 / xi) + 2.0 / tau
        denominator = target * target / (2.0 * variance)
        return UnboundedSampleCalc(
            n=_sample_count(numerator, denominator, tau, xi, self),
            theta_star=target / variance, numerator=numerator,
            denominator=denominator)

    def required_samples(self, tau: float, xi: float) -> int:
        return self.sample_calc(tau, xi).n


# ----------------------------------------------------------------------
# acceptance rule


def acceptance_probability(delta: float, tau: float) -> float:
    """Probability of switching given estimated utility drop ``delta``.

    1/(1 + exp(delta/tau)), evaluated as exp(-logaddexp(0, delta/tau)) so
    arbitrarily large |delta/tau| saturates to 0 or 1 without overflow.
    Elementwise over an array of drops, as the exact kernel applies it.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    return np.exp(-np.logaddexp(0.0, delta / tau))


# ----------------------------------------------------------------------
# trajectories


@dataclass
class Trajectory:
    """Per-slot record of one learning run.

    ``profiles[k]`` is the channel vector after slot k+1; the starting
    assignment is kept separately.  ``sum_rate`` is the frozen-fading
    network sum rate of the post-slot profile, bits/s, from which its
    optimal slots are counted by the potential: ``CapGame.potentials_exact``
    of ``profiles``, so a pure function of them.  ``n_samples`` 0 means
    exact utilities.  A slot that estimates nothing (a self-trial, or no
    active player to propose) records ``delta_hat`` 0; with no active
    player, ``player`` and ``trial`` are -1.
    """

    initial_channels: np.ndarray       # (L,)
    profiles: np.ndarray               # (T, L) post-slot channel vectors
    tau: np.ndarray                    # (T,)
    n_samples: np.ndarray              # (T,)
    player: np.ndarray                 # (T,)
    trial: np.ndarray                  # (T,) proposed channel
    accepted: np.ndarray               # (T,) bool
    delta_hat: np.ndarray              # (T,)
    sum_rate: np.ndarray               # (T,) bits/s

    @property
    def horizon(self) -> int:
        return len(self.sum_rate)


# ----------------------------------------------------------------------
# the slot loop


def _run(game: CapGame, horizon: int, rng_seed, initial_profile,
         slot) -> Trajectory:
    """Run ``horizon`` slots of the proposal and estimation protocol.

    ``slot(t)`` gives slot t's (tau, N, accept): the temperature to record,
    the fading samples per estimate (0: exact utilities, no draw), and the
    rule ``accept(delta, rng)`` that decides a switch from the estimated
    utility drop delta.  Draw order per slot: player, trial channel, phase
    I fading, phase II fading, then whatever ``accept`` draws.  A
    self-trial cannot change the profile, so its estimation phases and
    ``accept`` are skipped.  A game with no
    active player proposes nothing and draws nothing: it keeps its start.
    A start profile that ``CapGame.check_profile`` refuses is refused
    before the first slot.  Every later profile is a ``with_channel`` copy
    of a checked one, so no phase checks it again: a sampled phase calls
    ``utility_mean``, an exact one ``CapGame.set_utility_exact`` on the
    player's co-channel set.
    """
    _check_integer("horizon", horizon, 0, math.inf)
    # SFC64: numpy's fastest raw 64-bit stream, which sample_fading_block
    # reads directly for float32 fading, the bulk of a run's time
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) \
        else np.random.Generator(np.random.SFC64(rng_seed))
    profile = game.initial_profile(rng) if initial_profile is None \
        else initial_profile
    game.check_profile(profile)
    active = game.active_players
    traj = Trajectory(
        initial_channels=profile.channels.copy(),
        profiles=np.empty((horizon, game.num_players), dtype=np.int16),
        tau=np.empty(horizon),
        n_samples=np.empty(horizon, dtype=np.int64),
        player=np.full(horizon, -1, dtype=np.int32),
        trial=np.full(horizon, -1, dtype=np.int32),
        accepted=np.zeros(horizon, dtype=bool), delta_hat=np.zeros(horizon),
        sum_rate=None)  # the profiles' potentials, gathered after the loop
    for k in range(horizon):
        traj.tau[k], n, accept = slot(k + 1)
        traj.n_samples[k] = n
        if len(active):
            player = int(active[rng.integers(len(active))])
            trial = int(rng.integers(game.num_channels))
            traj.player[k], traj.trial[k] = player, trial
            left = int(profile.channels[player])
            if trial != left:
                proposal = game.with_channel(profile, player, trial)
                if n:
                    delta = utility_mean(game, profile, player, n, rng) \
                        - utility_mean(game, proposal, player, n, rng)
                else:
                    delta = game.set_utility_exact(
                        cochannel_set(profile, left), player) \
                        - game.set_utility_exact(
                            cochannel_set(proposal, trial), player)
                traj.delta_hat[k] = delta
                if accept(delta, rng):
                    profile = proposal
                    traj.accepted[k] = True
        traj.profiles[k] = profile.channels
    traj.sum_rate = game.potentials_exact(traj.profiles)
    return traj


def run_blla(game: CapGame, schedule, noise, xi: float, horizon: int,
             rng_seed, initial_profile: AssignmentProfile | None = None
             ) -> Trajectory:
    """Run BLLA for ``horizon`` slots; deterministic for a fixed seed.

    Each slot's sample count is recomputed from tau(t) and ``xi``;
    ``noise=None`` reads exact utilities and records 0 samples.  A proposal
    is adopted with probability 1/(1 + exp(delta/tau)).  Without an
    explicit initial profile, active players start on uniformly random
    channels drawn from the same stream.
    """
    def slot(t: int):
        tau = schedule.tau_at(t)
        n = 0 if noise is None else noise.required_samples(tau, xi)
        return tau, n, lambda delta, rng: \
            rng.random() < acceptance_probability(delta, tau)

    return _run(game, horizon, rng_seed, initial_profile, slot)


def _improves(delta: float, rng) -> bool:
    return delta < 0.0  # ties keep the current action


def run_br(game: CapGame, n_samples: int | None, horizon: int, rng_seed,
           initial_profile: AssignmentProfile | None = None) -> Trajectory:
    """Better-response baseline with a fixed per-phase sample budget: the
    same protocol as BLLA, but a proposal is adopted only when its
    estimated utility strictly exceeds the current one.  tau is NaN.
    ``n_samples=None`` reads exact utilities and records 0 samples."""
    if n_samples is not None:
        _check_integer("n_samples", n_samples, 1, math.inf)
    return _run(game, horizon, rng_seed, initial_profile,
                lambda t: (math.nan, n_samples or 0, _improves))
