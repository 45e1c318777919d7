"""The channel assignment game: profiles, marginal-contribution utilities,
and the sum-rate potential.

Each link (UE) is a player whose action is a channel index.  A player's
utility is the sum rate of its co-channel set with the player transmitting
minus the same sum with the player's transmitter silenced, normalized by an
analytic upper bound on the network sum rate.  With that definition the
expected sum rate is an exact potential of the game.

Utility evaluation has two modes.  In ``deterministic`` mode all fading
coefficients are frozen to 1 and utilities are exact (float64); this is the
regime the exact analysis tools operate in.  In ``noisy`` mode utilities are
sample means over freshly drawn Rayleigh fading; the sampling pipeline runs
in float32 for throughput, which is far below the estimation noise floor.
Both modes, utilities and potentials alike, go through one clamped
SINR -> rate kernel over a fading block: a unit float64 block in
deterministic mode, float32 draws in noisy mode.

The exact values depend only on channel member sets: a utility on the
player's co-channel set, the potential on each channel's set.  A game
therefore memoizes them per instance, one rate sum per member set and one
utility per (member set, player), each computed by the kernel on first use.
Every later call returns the same float, so the memo is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .radio import (FadingRealization, RadioParams, Topology, link_tx_powers,
                    sample_fading_block)

__all__ = [
    "AssignmentProfile",
    "CapGame",
    "UtilityEstimate",
    "cochannel_set",
    "utility_sample",
    "utility_mean",
    "potential",
    "verify_potential_identity",
]

# samples per kernel pass, which keeps the kernel's temporaries small; the
# whole block is still drawn at once, so the random stream does not depend
# on it.  OpenBLAS (0.3.31) sums a matrix-vector product over more than
# 16,384 samples in another float32 order than over fewer, so a last pass of
# half a chunk or less joins the one before: every pass then sums in the
# order one pass over the whole block would.
_CHUNK = 32768


@dataclass(frozen=True)
class AssignmentProfile:
    """A channel assignment vector plus passive-player flags.

    Passive players (UECs) keep fixed dedicated channels; active players
    (UEDs) may change theirs.
    """

    channels: np.ndarray   # (L,) channel index per link
    passive: np.ndarray    # (L,) True for passive links

    def __post_init__(self):
        ch = np.asarray(self.channels, dtype=np.int16).copy()
        pv = np.asarray(self.passive, dtype=bool).copy()
        if ch.shape != pv.shape:
            raise ValueError("channels and passive must have equal length")
        ch.setflags(write=False)
        pv.setflags(write=False)
        object.__setattr__(self, "channels", ch)
        object.__setattr__(self, "passive", pv)

    @property
    def num_players(self) -> int:
        return len(self.channels)

    def validate(self, num_channels: int) -> None:
        if self.num_players and (self.channels.min() < 0
                                 or self.channels.max() >= num_channels):
            raise ValueError("channel index out of range")
        passive_ch = self.channels[self.passive]
        if len(passive_ch) != len(set(passive_ch.tolist())):
            raise ValueError("passive players must hold distinct channels")

    def with_channel(self, player: int, channel: int) -> "AssignmentProfile":
        """Copy of the profile with one active player's channel replaced."""
        if self.passive[player]:
            raise ValueError(f"player {player} is passive; its channel is fixed")
        ch = self.channels.copy()
        ch[player] = channel
        return AssignmentProfile(channels=ch, passive=self.passive)

    def key(self) -> tuple:
        """Hashable identity of the assignment."""
        return tuple(self.channels.tolist())


@dataclass
class UtilityEstimate:
    """Sample-mean utility with its sample count."""

    mean: float
    n_samples: int
    samples: np.ndarray | None = None  # retained per-sample values, optional


class CapGame:
    """Binds a topology and radio parameters into the assignment game.

    Its parameters are fixed after construction; utility evaluation is a
    pure function of (profile, fading or seed).  The instance memoizes its
    exact evaluations by channel member set, so ``utility_exact`` and
    ``potential_exact`` run the rate kernel once per set (and player) and
    return bit-identical floats on every call.
    """

    def __init__(self, topology: Topology, params: RadioParams,
                 mode: str = "noisy"):
        if mode not in ("noisy", "deterministic"):
            raise ValueError("mode must be 'noisy' or 'deterministic'")
        self.topology = topology
        self.params = params
        self.mode = mode
        self.num_channels = params.num_channels
        self.num_players = topology.num_links
        self.passive_mask = topology.is_uec_link()
        self.active_players = np.nonzero(~self.passive_mask)[0]

        # Received-power matrix: recv_power[j, i] = P_j * G[j, i].
        powers = link_tx_powers(topology, params)
        self._recv_power = powers[:, None] * topology.mean_gain_matrix \
            if self.num_players else np.zeros((0, 0))
        self._noise_w = float(params.noise_power_w)
        self._lo = params.sinr_min
        self._hi = params.sinr_max
        # Certified upper bound on any profile's sum rate, bits/s.
        self.phi_max = self.num_players * params.max_rate_per_ue
        # bits/s per unit of natural-log rate sum.
        self._bits_scale = params.bandwidth_hz / math.log(2.0)
        self._util_scale = self._bits_scale / self.phi_max \
            if self.num_players else 0.0
        # exact values by channel member set (ascending link indices as
        # bytes), filled on first use: a channel's rate sum, and a member's
        # utility keyed with the member
        self._set_rate: dict = {}
        self._set_utility: dict = {}

    # ------------------------------------------------------------------
    # profiles

    def initial_profile(self, rng: np.random.Generator | None = None
                        ) -> AssignmentProfile:
        """Starting assignment: UEC k holds channel k; active players random
        (uniform) when an rng is given, channel 0 otherwise."""
        ch = np.zeros(self.num_players, dtype=np.int16)
        n_uec = int(self.passive_mask.sum())
        ch[:n_uec] = np.arange(n_uec)
        if rng is not None and len(self.active_players):
            ch[self.active_players] = rng.integers(
                0, self.num_channels, size=len(self.active_players))
        return AssignmentProfile(channels=ch, passive=self.passive_mask)

    # ------------------------------------------------------------------
    # the SINR -> rate kernel

    def _rate_kernel(self, members: np.ndarray, f: np.ndarray,
                     player: int | None = None) -> np.ndarray:
        """Per-sample natural-log rate sum of one channel's members.

        ``f`` is an (m, m, n) fading block: entry [k, j, :] multiplies the
        mean gain from member k's transmitter to member j's receiver.  With
        ``player``, returns that member's marginal contribution instead:
        the rate sum with it transmitting minus the sum over the others with
        it silenced, the two terms of each receiver adjacent in the running
        sum.  Arithmetic follows the block's dtype; a unit float64 block
        gives the exact frozen-fading values.
        """
        m = len(members)
        dtype = f.dtype
        w = self._recv_power[members[:, None], members].astype(dtype)
        signal = w.diagonal().copy()[:, None]
        np.fill_diagonal(w, 0.0)  # w[k, j]: interference weight, k -> j
        if player is None or m == 1:  # a lone member contributes just its rate
            stack, rows, rx, sign = w[None], slice(None), np.arange(m), None
        else:
            pos = int(np.searchsorted(members, player))
            silenced = w.copy()
            silenced[pos, :] = 0.0
            stack = np.array((w, silenced))
            # per receiver: its rate with the player, then (except for the
            # player itself) minus its rate with the player silenced
            rows = sorted([*range(m), *(m + j for j in range(m) if j != pos)],
                          key=lambda r: r % m)
            rx = np.array([r % m for r in rows])
            sign = np.where(np.array(rows) < m, 1, -1).astype(dtype)[:, None]
        # receiver-major view; BLAS gets each receiver's weights as a strided
        # column, whose float32 sums differ from those of a contiguous copy
        weights = stack.transpose(0, 2, 1)[:, :, None, :]

        n = f.shape[2]
        out = np.empty(n, dtype=dtype)
        starts = range(0, max(n - _CHUNK // 2, 1), _CHUNK)
        for start, stop in zip(starts, [*starts[1:], n]):
            fc = f[:, :, start:stop]
            q = np.matmul(weights, fc.transpose(1, 0, 2))
            q = q.reshape(-1, stop - start)[rows]
            q += self._noise_w  # python scalars act in the block's dtype
            own = fc.diagonal(axis1=0, axis2=1).T  # (m, n): fading k -> k
            np.divide((signal * own)[rx], q, out=q)
            np.clip(q, self._lo, self._hi, out=q)
            np.log1p(q, out=q)
            if sign is not None:
                q *= sign
            # rows add up in order: row by row across samples; a single
            # sample needs accumulate, since sum pairs up long columns
            if stop - start == 1:
                out[start:stop] = np.add.accumulate(q)[-1]
            else:
                q.sum(axis=0, out=out[start:stop])
        return out

    # ------------------------------------------------------------------
    # exact (frozen-fading) evaluation, float64

    def potential_exact(self, profile: AssignmentProfile) -> float:
        """Frozen-fading sum rate over all links, bits/s."""
        total = 0.0
        for c in np.unique(profile.channels):  # ascending: one sum order
            members = np.nonzero(profile.channels == c)[0]
            key = members.tobytes()
            rate = self._set_rate.get(key)
            if rate is None:
                unit = np.ones((len(members), len(members), 1))
                rate = float(self._rate_kernel(members, unit)[0])
                self._set_rate[key] = rate
            total += rate
        return total * self._bits_scale

    def normalized_potential(self, profile: AssignmentProfile) -> float:
        """Frozen-fading sum rate divided by the phi_max bound, in [0, 1]."""
        if self.num_players == 0:
            return 0.0
        return self.potential_exact(profile) / self.phi_max

    def utility_exact(self, profile: AssignmentProfile, player: int) -> float:
        """Exact normalized marginal-contribution utility (deterministic)."""
        members = cochannel_set(profile, int(profile.channels[player]))
        key = (members.tobytes(), int(player))
        value = self._set_utility.get(key)
        if value is None:
            unit = np.ones((len(members), len(members), 1))
            value = float(self._rate_kernel(members, unit, player)[0]) \
                * self._util_scale
            self._set_utility[key] = value
        return value


# ----------------------------------------------------------------------
# module-level operations


def cochannel_set(profile: AssignmentProfile, channel: int) -> np.ndarray:
    """Indices of the UEs assigned to ``channel``, ascending."""
    return np.nonzero(np.asarray(profile.channels) == channel)[0]


def utility_sample(game: CapGame, profile: AssignmentProfile, player: int,
                   fading: FadingRealization) -> float:
    """One sampled utility of an active player under explicit fading.

    The value depends only on the fading coefficients among the player's
    co-channel set.  Arithmetic follows the coefficient dtype, so float64
    fading gives a full-precision reference evaluation.
    """
    if profile.passive[player]:
        raise ValueError("utility is defined for active players only")
    members = cochannel_set(profile, int(profile.channels[player]))
    block = np.asarray(fading.coefficients)[np.ix_(members, members)]
    acc = game._rate_kernel(members, block[:, :, None], player)
    return float(acc.astype(np.float64)[0] * game._util_scale)


def utility_mean(game: CapGame, profile: AssignmentProfile, player: int,
                 n_samples: int, rng_seed,
                 retain_samples: bool = False) -> UtilityEstimate:
    """Mean of ``n_samples`` independent utility samples (fresh fading each).

    In deterministic mode the exact utility is returned unchanged for any
    sample count.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if profile.passive[player]:
        raise ValueError("utility is defined for active players only")
    if game.mode == "deterministic":
        value = game.utility_exact(profile, player)
        samples = np.full(n_samples, value) if retain_samples else None
        return UtilityEstimate(mean=value, n_samples=n_samples, samples=samples)
    rng = np.random.default_rng(rng_seed)  # a Generator passes through
    members = cochannel_set(profile, int(profile.channels[player]))
    m = len(members)
    block = sample_fading_block(rng, (m, m, n_samples), np.float32)
    acc = game._rate_kernel(members, block, player)
    if retain_samples:
        samples = acc.astype(np.float64) * game._util_scale
        return UtilityEstimate(mean=float(samples.mean()),
                               n_samples=n_samples, samples=samples)
    mean = float(acc.sum(dtype=np.float64)) / n_samples * game._util_scale
    return UtilityEstimate(mean=mean, n_samples=n_samples)


def potential(game: CapGame, profile: AssignmentProfile, num_mc: int = 1,
              rng_seed=None) -> float:
    """Network sum rate phi(profile) in bits/s.

    Deterministic mode returns the exact frozen-fading value; noisy mode
    returns a Monte Carlo mean over ``num_mc`` full fading draws.
    """
    if game.mode == "deterministic":
        return game.potential_exact(profile)
    if num_mc < 1:
        raise ValueError("num_mc must be >= 1")
    rng = np.random.default_rng(rng_seed)  # a Generator passes through
    total = np.zeros(num_mc, dtype=np.float64)
    for c in np.unique(profile.channels):
        members = np.nonzero(profile.channels == c)[0]
        block = sample_fading_block(rng, (len(members), len(members), num_mc),
                                    np.float32)
        total += game._rate_kernel(members, block)
    return float(total.mean() * game._bits_scale)


def verify_potential_identity(game: CapGame, player: int, chan_a: int,
                              chan_b: int, profile: AssignmentProfile) -> float:
    """Residual |dU - dphi| for one unilateral channel switch, both sides
    normalized by phi_max.  Exact-potential games give ~0.

    Only valid in deterministic mode, where utilities are exact.
    """
    if game.mode != "deterministic":
        raise ValueError("potential identity requires deterministic mode; "
                         "in noisy mode it holds only in expectation")
    prof_a = profile.with_channel(player, chan_a) \
        if profile.channels[player] != chan_a else profile
    prof_b = profile.with_channel(player, chan_b)
    du = game.utility_exact(prof_a, player) - game.utility_exact(prof_b, player)
    dphi = game.normalized_potential(prof_a) - game.normalized_potential(prof_b)
    return abs(du - dphi)
