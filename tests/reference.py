"""Reference paths the tests pin the program against.

The program computes every SINR -> rate value in one place,
``CapGame._rate_kernel``, for learning and exact analysis alike.  The
functions here are the test oracles for that kernel: a scalar float64
SINR and Shannon rate per link (``sinr``, ``rate``), one sampled utility
under an explicit (L, L) fading draw (``utility_sample``), and the Monte
Carlo sum rate over full fading draws (``potential``), with
``reference_potential`` the frozen-fading sum rate of one profile as the
learner once summed it, channel by channel.  No command,
learner or analysis function calls them.  ``chunked_utility_mean`` spells
out the chunk-by-chunk estimate that ``utility_mean`` streams.
``gathered_rate_kernel`` is the rate kernel as it once ran, gathering each
receiver's rows into a signed stack before summing them, with the weights
built per call from the received-power matrix
(``reference_kernel_weights``); the kernel must equal it bit for bit.
pytest does not collect this module, since its name does not start with
``test_``.
"""

from __future__ import annotations

import numpy as np

from d2dcap.game import (_CHUNK, _DRAW_COEFFS, AssignmentProfile, CapGame,
                         _passes, cochannel_set)
from d2dcap.radio import (RadioParams, Topology, link_tx_powers,
                          sample_fading_block)


def sinr(topology: Topology, params: RadioParams, profile, ue: int,
         fading: np.ndarray) -> float:
    """Linear SINR at the receiver of link ``ue`` under the given fading.

    ``fading`` is one (L, L) draw of power coefficients: ``fading[j, i]``
    multiplies the mean gain from the transmitter of link j to the receiver
    of link i, and ``np.ones((L, L))`` freezes the fading.  Signal power
    over co-channel interference plus noise, clamped into the configured
    [sinr_min, sinr_max] interval (linear scale).  With ``rate`` this is the
    scalar float64 reference for the game's vectorized rate kernel.
    """
    channels = np.asarray(getattr(profile, "channels", profile), dtype=np.int64)
    g = topology.mean_gain_matrix * np.asarray(fading, dtype=float)
    p = link_tx_powers(topology, params)
    members = np.nonzero(channels == channels[ue])[0]
    signal = p[ue] * g[ue, ue]
    interference = sum(p[j] * g[j, ue] for j in members if j != ue)
    value = signal / (interference + params.noise_power_w)
    return float(min(max(value, params.sinr_min), params.sinr_max))


def rate(sinr_linear, bandwidth_hz):
    """Shannon rate W * log2(1 + SINR), bits/s."""
    return bandwidth_hz * np.log2(1.0 + np.asarray(sinr_linear, dtype=float))


def utility_sample(game: CapGame, profile: AssignmentProfile, player: int,
                   fading: np.ndarray) -> float:
    """One sampled utility of an active player under explicit fading.

    ``fading`` is one (L, L) draw, as ``sinr`` reads it;
    ``np.ones((L, L))`` gives the frozen-fading utility.  The value depends
    only on the coefficients among the player's co-channel set.  Arithmetic
    follows the coefficient dtype, so float64 fading gives a full-precision
    reference evaluation.
    """
    game._check_active(player)
    members = cochannel_set(profile, int(profile.channels[player]))
    block = np.asarray(fading)[np.ix_(members, members)]
    acc = game._rate_kernel(members, block[:, :, None], player)
    return float(acc.astype(np.float64)[0] * game._util_scale)


def potential(game: CapGame, profile: AssignmentProfile, num_mc: int = 1,
              rng_seed=None) -> float:
    """Network sum rate phi(profile) in bits/s, a Monte Carlo mean over
    ``num_mc`` full fading draws, one block per occupied channel in
    ascending order; ``CapGame.potential_exact`` gives the frozen-fading
    value."""
    if num_mc < 1:
        raise ValueError("num_mc must be >= 1")
    game.check_profile(profile)
    rng = np.random.default_rng(rng_seed)  # a Generator passes through
    total = np.zeros(num_mc, dtype=np.float64)
    for c in range(game.num_channels):
        members = np.flatnonzero(profile.channels == c)
        if not len(members):
            continue
        block = sample_fading_block(rng, (len(members), len(members), num_mc))
        total += game._rate_kernel(members, block)
    return float(total.mean() * game._bits_scale)


def reference_potential(game: CapGame, profile: AssignmentProfile) -> float:
    """Frozen-fading sum rate of one profile, bits/s, as the learner's
    running potential once summed it: per channel in ascending order, the
    memoized rate sum of its members or 0.0 for an empty one, added as
    Python floats and scaled to bits/s; ``CapGame.potentials_exact`` must
    equal it bit for bit."""
    total = 0.0
    for c in range(game.num_channels):
        members = np.flatnonzero(profile.channels == c)
        total += game.set_rate_exact(members) if len(members) else 0.0
    return total * game._bits_scale


def estimate_chunk(m: int) -> int:
    """Samples per chunk of an estimate on a co-channel set of m links."""
    return max(_CHUNK, _DRAW_COEFFS // (m * m))


def chunked_utility_mean(game: CapGame, profile: AssignmentProfile,
                         player: int, n_samples: int, rng_seed) -> float:
    """``utility_mean`` as fresh chunks: whole chunks while more than one
    and a half remain, then the rest as one; each chunk drawn as a new
    block, passed through the rate kernel, and its float64 sum added to
    the estimate in chunk order."""
    rng = np.random.default_rng(rng_seed)
    members = cochannel_set(profile, int(profile.channels[player]))
    m = len(members)
    chunk = estimate_chunk(m)
    sizes, left = [], n_samples
    while left > chunk + chunk // 2:
        sizes.append(chunk)
        left -= chunk
    total = 0.0
    for size in [*sizes, left]:
        block = sample_fading_block(rng, (m, m, size))
        acc = game._rate_kernel(members, block, player)
        total += float(acc.sum(dtype=np.float64))
    return total / n_samples * game._util_scale


def reference_kernel_weights(game: CapGame, members: np.ndarray, dtype,
                             player=None) -> tuple:
    """(stack, signal) of the rate kernel as each call once built them from
    the received-power matrix: the (1, m, m) interference weights, or
    (2, m, m) with the player's row zeroed in the second, and the (m, 1)
    signal powers."""
    m = len(members)
    w = game._recv_power[members[:, None], members].astype(dtype)
    signal = w.diagonal().copy()[:, None]
    np.fill_diagonal(w, 0.0)
    if player is None or m == 1:
        return w[None], signal
    silenced = w.copy()
    silenced[int(np.searchsorted(members, player)), :] = 0.0
    return np.array((w, silenced)), signal


def _receiver_rows(m: int, pos: int, dtype) -> tuple:
    """(rows, rx, sign) of a marginal's SINR rows, m members, the player
    at position ``pos``: each receiver's rate with the player first and
    then, except for the player itself, minus its rate with the player
    silenced.  ``rows`` picks those rows from the stacked (2 m, n) result,
    ``rx`` names each row's receiver and ``sign`` its (rows, 1) sign."""
    rows = np.array(sorted([*range(m), *(m + j for j in range(m) if j != pos)],
                           key=lambda r: r % m))
    rx = rows % m
    sign = np.where(rows < m, 1, -1).astype(dtype)[:, None]
    return rows, rx, sign


def gathered_rate_kernel(game: CapGame, members: np.ndarray, f: np.ndarray,
                         player=None) -> np.ndarray:
    """``CapGame._rate_kernel`` by gathered receiver rows: the stacked
    SINRs' rows are picked in receiver order, signed, and summed down the
    stack, a single sample by ``np.add.accumulate``."""
    dtype = f.dtype
    m = len(members)
    stack, signal = reference_kernel_weights(game, members, dtype, player)
    if player is None or m == 1:
        rows = rx = slice(None)
        sign = None
    else:
        rows, rx, sign = _receiver_rows(
            m, int(np.searchsorted(members, player)), dtype)
    weights = stack.transpose(0, 2, 1)[:, :, None, :]

    n = f.shape[2]
    out = np.empty(n, dtype=dtype)
    for start, stop in _passes(n, _CHUNK):
        fc = f[:, :, start:stop]
        q = np.matmul(weights, fc.transpose(1, 0, 2))
        q = q.reshape(-1, stop - start)[rows]
        q += game._noise_w
        own = fc.diagonal(axis1=0, axis2=1).T
        np.divide((signal * own)[rx], q, out=q)
        np.clip(q, game._lo, game._hi, out=q)
        np.log1p(q, out=q)
        if sign is not None:
            q *= sign
        if stop - start == 1:
            out[start:stop] = np.add.accumulate(q)[-1]
        else:
            q.sum(axis=0, out=out[start:stop])
    return out
