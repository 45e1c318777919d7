"""The channel assignment game: profiles, marginal-contribution utilities,
and the sum-rate potential.

Each link (UE) is a player whose action is a channel index.  A player's
utility is the sum rate of its co-channel set with the player transmitting
minus the same sum with the player's transmitter silenced, normalized by an
analytic upper bound on the network sum rate, ``phi_max``: L links' top
rate, or one link's for a game with no links, whose potential is 0.  With
that definition the expected sum rate is an exact potential of the game.

A profile is only its read-only int16 channel vector.  Which players are
passive, cellular links on fixed channels, is the game's ``passive_mask``
alone, and the game checks profiles, moves and utilities against it: the
exact values refuse a profile that does not fit the game.

A game holds no noise model: every game has exact and sampled values.
Exact values freeze every fading coefficient to 1 and are float64, the
regime the exact analysis tools operate in.  Sampled utilities,
``utility_mean``, average fresh Rayleigh fading in float32 for throughput,
far below the estimation noise floor; a learner without a noise model
reads the exact utilities instead.  Both go through one clamped SINR ->
rate kernel over a fading block, a unit float64 block or float32 draws,
the program's only SINR -> rate path.  An estimate is a plain float, the
sample mean.  It streams its samples in chunks of about 2 MiB of fading
coefficients, each drawn and evaluated before the next is drawn, so its
memory depends on the co-channel set's size and not on the sample count.

The exact values depend only on channel member sets: a utility on the
player's co-channel set, the potential on each channel's set.  A game's two
per-set methods therefore memoize them, one rate sum per member set and one
utility per (member set, player), each computed by the kernel on first use.
Every later call returns the same float, so the memo is exact.  The
potential is a sum of per-channel terms (``channel_rate_exact``, 0.0 for an
empty channel) added in ascending channel order by ``rate_sum_bits``;
``potential_exact`` and the learning loop, which re-reads only the two
channels a switch moves, both sum through it.

The kernel's set-up comes from per-game tables.  Once per dtype a game
casts its received-power matrix, keeps the diagonal as the signal powers
and zeroes it into an interference table with a row of zeros below, the
row a silenced player's transmitter reads; a call then takes its (m, m)
weights, or the (2, m, m) pair with and without the player, by one
gather.  The kernel keeps the matrix product's (weights, receiver,
sample) layout and adds each sample's rates receiver by receiver: its
rate and then, for a marginal, minus its rate with the player silenced,
except at the player itself.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .radio import RadioParams, Topology, link_tx_powers, sample_fading_block

__all__ = [
    "AssignmentProfile",
    "CapGame",
    "cochannel_set",
    "utility_mean",
    "verify_potential_identity",
]

# samples per kernel pass, which keeps the kernel's temporaries small.
# OpenBLAS (0.3.31) sums a matrix-vector product over more than 16,384
# samples in another float32 order than over fewer, so a last pass of half
# a chunk or less joins the one before (``_passes``): every pass then sums
# in the order one pass over the whole block would.
_CHUNK = 32768
# fading coefficients per estimate chunk, 2 MiB of float32 (utility_mean)
_DRAW_COEFFS = 1 << 19


def _passes(n: int, size: int):
    """(start, stop) of each pass over ``n`` samples, ``size`` at a time;
    a last pass of half a size or less joins the one before."""
    starts = range(0, max(n - size // 2, 1), size)
    return zip(starts, [*starts[1:], n])


def _is_integer(x) -> bool:
    """Python's and numpy's integers, not bools."""
    return isinstance(x, numbers.Integral) \
        and not isinstance(x, (bool, np.bool_))


def _check_integer(what: str, value, low: int, high: float) -> None:
    """Refuse a value that is not an integer or lies outside low..high."""
    if not _is_integer(value):
        raise ValueError(f"{what} {value!r} is not an integer")
    if not low <= value <= high:
        raise ValueError(f"{what} {value} is outside {low}..{high}")


def _bad_channels(raw: np.ndarray) -> str | None:
    """Why channels held in a dtype other than a numpy integer are refused,
    naming a link: the first entry that is not a whole number, else the
    first outside int16, else the first that is a float, not an integer.
    None for an object vector of int16 integers, which the cast keeps."""
    values = raw.tolist()
    integer = [_is_integer(v) for v in values]
    for i, v in enumerate(values):
        if not (integer[i] or isinstance(v, float) and v.is_integer()):
            return f"channels must be integers, not {raw.dtype}: " \
                f"link {i} holds {v}"
    for i, v in enumerate(values):
        if not -2 ** 15 <= v < 2 ** 15:
            return f"link {i} holds channel {v}, outside int16"
    if not all(integer):
        i = integer.index(False)
        return f"channels must be integers, not {raw.dtype}: " \
            f"link {i} holds {values[i]}"
    return None


@dataclass(frozen=True)
class AssignmentProfile:
    """A channel assignment: one channel index per link, as a read-only
    int16 vector.  Which links are cellular (passive, on fixed dedicated
    channels) is the game's ``passive_mask``; ``CapGame.check_profile``
    tests a profile against it.

    Channels must be a vector of integers that int16 holds: another shape,
    a float or bool entry, or one the cast would wrap, is refused rather
    than truncated or wrapped into another channel."""

    channels: np.ndarray   # (L,) channel index per link

    def __post_init__(self):
        raw = np.asarray(self.channels)
        if raw.ndim != 1:
            raise ValueError(f"channels must be 1-D, not of shape {raw.shape}")
        if raw.dtype.kind not in "iu":
            bad = _bad_channels(raw)
            if bad:
                raise ValueError(bad)
        ch = raw.astype(np.int16)  # always a copy
        if raw.dtype.kind in "iu" and raw.dtype != np.int16:
            bad = np.flatnonzero(ch != raw)
            if len(bad):
                raise ValueError(f"link {bad[0]} holds channel "
                                 f"{raw[bad[0]]}, outside int16")
        ch.setflags(write=False)
        object.__setattr__(self, "channels", ch)


class CapGame:
    """Binds a topology and radio parameters into the assignment game.

    Its parameters are fixed after construction; utility evaluation is a
    pure function of (profile, fading or seed).  Exact values are memoized
    per channel member set, as the module docstring describes.
    """

    def __init__(self, topology: Topology, params: RadioParams):
        self.topology = topology
        self.params = params
        self.num_channels = params.num_channels
        self.num_players = topology.num_links
        self.passive_mask = np.arange(self.num_players) < topology.num_uec
        self.active_players = np.nonzero(~self.passive_mask)[0]

        # Received-power matrix: recv_power[j, i] = P_j * G[j, i].
        powers = link_tx_powers(topology, params)
        self._recv_power = powers[:, None] * topology.mean_gain_matrix
        self._noise_w = float(params.noise_power_w)
        self._lo = params.sinr_min
        self._hi = params.sinr_max
        # Certified upper bound on any profile's sum rate, bits/s; a
        # linkless game's potentials are all 0, so one link's rate bounds it
        self.phi_max = max(self.num_players, 1) * params.max_rate_per_ue
        # bits/s per unit of natural-log rate sum.
        self._bits_scale = params.bandwidth_hz / math.log(2.0)
        self._util_scale = self._bits_scale / self.phi_max
        # the per-set memos, keyed by the ascending link indices as bytes
        self._set_rate: dict = {}
        self._set_utility: dict = {}
        # the kernel's set-up: weight tables per dtype
        self._weights: dict = {}

    # ------------------------------------------------------------------
    # profiles

    def _check_active(self, player: int) -> None:
        _check_integer("player", player, 0, self.num_players - 1)
        if self.passive_mask[player]:
            raise ValueError(f"player {player} is passive, a cellular link "
                             "on a fixed channel with no utility")

    def check_profile(self, profile: AssignmentProfile) -> None:
        """Refuse a profile that does not fit the game: one channel per
        link, each in range, and distinct channels for the cellular links."""
        ch = profile.channels
        if len(ch) != self.num_players:
            raise ValueError(f"profile has {len(ch)} links, the game "
                             f"{self.num_players}")
        bad = np.flatnonzero((ch < 0) | (ch >= self.num_channels))
        if len(bad):
            raise ValueError(f"player {bad[0]} holds channel {ch[bad[0]]}, "
                             f"outside 0..{self.num_channels - 1}")
        cellular = ch[self.passive_mask]
        if len(set(cellular.tolist())) < len(cellular):
            raise ValueError("cellular players must hold distinct channels: "
                             f"players {np.flatnonzero(self.passive_mask)}"
                             f" hold {cellular}")

    def with_channel(self, profile: AssignmentProfile, player: int,
                     channel: int) -> AssignmentProfile:
        """Copy of ``profile`` with one active player's channel replaced."""
        self._check_active(player)
        _check_integer("channel", channel, 0, self.num_channels - 1)
        ch = profile.channels.copy()
        ch[player] = channel
        return AssignmentProfile(ch)

    def initial_profile(self, rng: np.random.Generator | None = None
                        ) -> AssignmentProfile:
        """Starting assignment: UEC k holds channel k; active players random
        (uniform) when an rng is given, channel 0 otherwise."""
        ch = np.zeros(self.num_players, dtype=np.int16)
        ch[self.passive_mask] = np.arange(self.topology.num_uec)
        if rng is not None:
            ch[self.active_players] = rng.integers(
                0, self.num_channels, size=len(self.active_players))
        return AssignmentProfile(ch)

    # ------------------------------------------------------------------
    # the SINR -> rate kernel

    def _weight_tables(self, dtype) -> tuple:
        """The kernel's weights over all links in ``dtype``: an (L + 1, L)
        interference table, entry [k, j] the received power from link k's
        transmitter at link j's receiver with the diagonal zeroed and a row
        of zeros below, and the (L,) signal powers, the diagonal."""
        tables = self._weights.get(dtype)
        if tables is None:
            power = self._recv_power.astype(dtype)
            signal = power.diagonal().copy()
            np.fill_diagonal(power, 0.0)
            table = np.vstack([power, np.zeros((1, self.num_players), dtype)])
            table.setflags(write=False)
            signal.setflags(write=False)
            tables = self._weights[dtype] = (table, signal)
        return tables

    def _kernel_weights(self, members: np.ndarray, dtype,
                        player: int | None) -> tuple:
        """(stack, signal, pos): the kernel's set-up for one member set.

        ``stack`` is a C-contiguous (1, m, m) array of interference
        weights, or (2, m, m) with the player's row zeroed in the second;
        ``signal`` the (m, 1) signal powers; ``pos`` the player's position
        in ``members``, None for a plain rate sum.
        """
        m = len(members)
        table, power = self._weight_tables(dtype)
        signal = power[members][:, None]
        if player is None or m == 1:  # a lone member contributes its rate
            return table[members[:, None], members][None], signal, None
        pos = int(np.searchsorted(members, player))
        senders = np.array((members, members))
        senders[1, pos] = self.num_players  # the zero row: silenced
        return table[senders[:, :, None], members], signal, pos

    def _rate_kernel(self, members: np.ndarray, f: np.ndarray,
                     player: int | None = None) -> np.ndarray:
        """Per-sample natural-log rate sum of one channel's members.

        ``f`` is an (m, m, n) fading block: entry [k, j, :] multiplies the
        mean gain from member k's transmitter to member j's receiver.  With
        ``player``, returns that member's marginal contribution instead:
        the rate sum with it transmitting minus the sum over the others with
        it silenced.  Arithmetic follows the block's dtype; a unit float64
        block gives the exact frozen-fading values.
        """
        stack, signal, pos = self._kernel_weights(members, f.dtype, player)
        # receiver-major view; BLAS gets each receiver's weights as a strided
        # column, whose float32 sums differ from those of a contiguous copy
        weights = stack.transpose(0, 2, 1)[:, :, None, :]

        m, n = len(members), f.shape[2]
        out = np.empty(n, dtype=f.dtype)
        for start, stop in _passes(n, _CHUNK):
            fc = f[:, :, start:stop]
            # SINRs as (stack, receiver, sample), rates in place
            q = np.matmul(weights, fc.transpose(1, 0, 2))[:, :, 0]
            q += self._noise_w  # python scalars act in the block's dtype
            own = fc.diagonal(axis1=0, axis2=1).T  # (m, n): fading k -> k
            np.divide(signal * own, q, out=q)
            np.clip(q, self._lo, self._hi, out=q)
            np.log1p(q, out=q)
            acc = out[start:stop]  # summed in the module docstring's order
            acc[:] = q[0, 0]
            for j in range(m):
                if j:
                    acc += q[0, j]
                if pos is not None and j != pos:
                    acc -= q[1, j]
        return out

    # ------------------------------------------------------------------
    # exact (frozen-fading) evaluation, float64

    def set_rate_exact(self, members: np.ndarray) -> float:
        """Memoized frozen-fading natural-log rate sum of a member set."""
        key = members.tobytes()
        if key not in self._set_rate:
            unit = np.ones((len(members), len(members), 1))
            self._set_rate[key] = float(self._rate_kernel(members, unit)[0])
        return self._set_rate[key]

    def set_utility_exact(self, members: np.ndarray, player: int) -> float:
        """Memoized exact utility of ``player`` in its member set."""
        key = (members.tobytes(), int(player))
        if key not in self._set_utility:
            unit = np.ones((len(members), len(members), 1))
            self._set_utility[key] = self._util_scale * float(
                self._rate_kernel(members, unit, player)[0])
        return self._set_utility[key]

    def channel_rate_exact(self, channels: np.ndarray, channel: int) -> float:
        """Memoized frozen-fading natural-log rate sum of the links that
        ``channels`` puts on ``channel``; exactly 0.0 for an empty one."""
        members = np.flatnonzero(channels == channel)
        return self.set_rate_exact(members) if len(members) else 0.0

    def rate_sum_bits(self, rates) -> float:
        """Sum rate in bits/s of per-channel natural-log rate sums, listed
        by ascending channel: floats for one profile, or equal-length
        arrays, one per channel, for many at once.  The one summation order
        of the frozen-fading potential: ``potential_exact``, the learning
        loop's running potential and the analysis profile table all add
        their channel values here."""
        total = 0.0
        for r in rates:
            total += r
        return total * self._bits_scale

    def potential_exact(self, profile: AssignmentProfile) -> float:
        """Frozen-fading sum rate over all links, bits/s, of a profile
        that ``check_profile`` accepts."""
        self.check_profile(profile)
        return self.rate_sum_bits([
            self.channel_rate_exact(profile.channels, c)
            for c in range(self.num_channels)])

    def normalized_potential(self, profile: AssignmentProfile) -> float:
        """Frozen-fading sum rate divided by the phi_max bound, in [0, 1]."""
        return self.potential_exact(profile) / self.phi_max

    def utility_exact(self, profile: AssignmentProfile, player: int) -> float:
        """Exact (frozen-fading) normalized marginal-contribution utility
        of an active player in a profile that ``check_profile`` accepts."""
        self.check_profile(profile)
        self._check_active(player)
        return self.set_utility_exact(
            cochannel_set(profile, int(profile.channels[player])), player)


# ----------------------------------------------------------------------
# module-level operations


def cochannel_set(profile: AssignmentProfile, channel: int) -> np.ndarray:
    """Indices of the UEs assigned to ``channel``, ascending."""
    if not _is_integer(channel):
        raise ValueError(f"channel {channel!r} is not an integer")
    return np.nonzero(np.asarray(profile.channels) == channel)[0]


def utility_mean(game: CapGame, profile: AssignmentProfile, player: int,
                 n_samples: int, rng_seed) -> float:
    """Mean of ``n_samples`` independent utility samples (fresh fading
    each); ``CapGame.utility_exact`` gives the frozen-fading value.

    The samples stream in chunks of L = max(``_CHUNK``, ``_DRAW_COEFFS``
    // m^2) for a co-channel set of m links, a last piece of half a chunk
    or less joining the chunk before.  Each chunk's m x m x L float32
    fading is drawn as a new block and passed through the rate kernel, and
    its float64 sum is added to the estimate in chunk order.  So an
    estimate's memory is set by m, not by ``n_samples``, and an estimate
    of at most 1.5 chunks draws and sums as one block.

    The player is checked, the profile is not: the learner calls this
    twice per sampled slot, always on profiles that ``CapGame.with_channel``
    built from a start ``check_profile`` accepted, so a whole-profile check
    here would repeat that one on the hot path.  A caller holding a
    profile of other origin checks it first.
    """
    _check_integer("n_samples", n_samples, 1, math.inf)
    game._check_active(player)
    rng = np.random.default_rng(rng_seed)  # a Generator passes through
    members = cochannel_set(profile, int(profile.channels[player]))
    m = len(members)
    total = 0.0
    for start, stop in _passes(n_samples, max(_CHUNK, _DRAW_COEFFS // m ** 2)):
        block = sample_fading_block(rng, (m, m, stop - start))
        acc = game._rate_kernel(members, block, player)
        total += float(acc.sum(dtype=np.float64))
    return total / n_samples * game._util_scale


def verify_potential_identity(game: CapGame, player: int, chan_a: int,
                              chan_b: int, profile: AssignmentProfile) -> float:
    """Residual |dU - dphi| for one unilateral channel switch, both sides
    normalized by phi_max, on the exact (frozen-fading) values.  An exact
    potential game gives ~0; with fading it holds in expectation.
    """
    prof_a = game.with_channel(profile, player, chan_a)
    prof_b = game.with_channel(profile, player, chan_b)
    du = game.utility_exact(prof_a, player) - game.utility_exact(prof_b, player)
    dphi = game.normalized_potential(prof_a) - game.normalized_potential(prof_b)
    return abs(du - dphi)
