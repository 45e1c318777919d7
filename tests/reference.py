"""Reference paths the tests pin the program against.

The program computes every SINR -> rate value in one place,
``CapGame._rate_kernel``, for learning and exact analysis alike.  The
functions here are the test oracles for that kernel: a scalar float64
SINR and Shannon rate per link (``sinr``, ``rate``), one sampled utility
under an explicit (L, L) fading draw (``utility_sample``), and the Monte
Carlo sum rate over full fading draws (``potential``).  No command,
learner or analysis function calls them.  ``chunked_utility_mean`` spells
out the chunk-by-chunk estimate that ``utility_mean`` streams.  pytest does
not collect this module, since its name does not start with ``test_``.
"""

from __future__ import annotations

import numpy as np

from d2dcap.game import (_CHUNK, _DRAW_COEFFS, AssignmentProfile, CapGame,
                         cochannel_set)
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
