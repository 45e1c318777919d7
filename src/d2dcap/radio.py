"""Radio layer: network topologies, link gains, transmit powers and fading.

Models a single downlink cell with a base station at the origin, cellular
users (UECs) served directly by the BS on dedicated channels, and D2D pairs
(UEDs) reusing the same channels.  Mean link gains combine distance path
loss with log-normal shadowing and are frozen per topology; Rayleigh fading
is drawn per sample as unit-mean exponential power coefficients.  SINRs and
Shannon rates are computed only by the game's rate kernel
(``CapGame._rate_kernel``), from the powers, gains and clamps defined here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "RadioParams",
    "Topology",
    "db_to_linear",
    "dbm_to_watts",
    "watts_to_dbm",
    "thermal_noise_watts",
    "generate_topology",
    "link_tx_powers",
    "sample_fading_block",
]

# Reference distance floor for the path-loss law, meters.
PATHLOSS_FLOOR_M = 1.0


def db_to_linear(x_db):
    """Convert a dB value to linear scale."""
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def dbm_to_watts(p_dbm):
    """Convert dBm to watts."""
    return 10.0 ** (np.asarray(p_dbm, dtype=float) / 10.0) / 1e3


def watts_to_dbm(p_w):
    """Convert watts to dBm."""
    return 10.0 * np.log10(np.asarray(p_w, dtype=float) * 1e3)


def thermal_noise_watts(bandwidth_hz: float) -> float:
    """Thermal noise power over a channel, -174 dBm/Hz noise density."""
    return float(dbm_to_watts(-174.0 + 10.0 * math.log10(bandwidth_hz)))


@dataclass(frozen=True)
class RadioParams:
    """Physical and system parameters of the cell, by the names and in the
    units of the matching ``ExperimentConfig`` keys, which hold the
    defaults.  The linear quantities the radio layer computes with are
    properties: watts from dBm, the SINR clamps from dB."""

    cell_radius_m: float       # cell region radius
    d2d_radius_m: float        # max D2D receiver distance from its transmitter
    num_channels: int          # number of orthogonal channels
    bandwidth_hz: float        # per-channel bandwidth W_c
    ue_power_dbm: float        # D2D transmit power
    bs_power_dbm: float        # total BS transmit power
    noise_dbm: float           # per-channel noise power
    pathloss_exponent: float
    shadowing_sigma_db: float  # log-normal shadowing std dev
    sinr_min_db: float         # lower SINR clamp
    sinr_max_db: float         # upper SINR clamp

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name!r} must be finite, got {value!r}")
        for name in ("bandwidth_hz", "pathloss_exponent"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name!r} must be positive, got "
                                 f"{getattr(self, name)!r}")
        if self.shadowing_sigma_db < 0:
            raise ValueError("'shadowing_sigma_db' must be non-negative, got "
                             f"{self.shadowing_sigma_db!r}")
        if self.cell_radius_m <= self.d2d_radius_m or self.d2d_radius_m <= 0:
            raise ValueError("require cell_radius_m > d2d_radius_m > 0")
        if self.num_channels < 1:
            raise ValueError("num_channels must be >= 1")
        for name in ("ue_power_dbm", "bs_power_dbm", "noise_dbm"):
            with np.errstate(over="ignore", under="ignore"):  # refused here
                power = float(dbm_to_watts(getattr(self, name)))
            if not 0 < power < math.inf:
                raise ValueError(f"{name!r} must give a positive, finite "
                                 f"power, got {power!r} W")
        if self.sinr_min_db >= self.sinr_max_db:
            raise ValueError("require sinr_min_db < sinr_max_db")

    @property
    def tx_power_ue_w(self) -> float:
        """D2D transmit power, watts."""
        return float(dbm_to_watts(self.ue_power_dbm))

    @property
    def tx_power_bs_w(self) -> float:
        """Total BS transmit power, watts."""
        return float(dbm_to_watts(self.bs_power_dbm))

    @property
    def noise_power_w(self) -> float:
        """Per-channel noise power, watts."""
        return float(dbm_to_watts(self.noise_dbm))

    @property
    def sinr_min(self) -> float:
        """Lower SINR clamp, linear."""
        return float(db_to_linear(self.sinr_min_db))

    @property
    def sinr_max(self) -> float:
        """Upper SINR clamp, linear."""
        return float(db_to_linear(self.sinr_max_db))

    @property
    def max_rate_per_ue(self) -> float:
        """Largest per-UE rate permitted by the upper SINR clamp, bits/s."""
        return self.bandwidth_hz * math.log2(1.0 + self.sinr_max)


@dataclass(frozen=True)
class Topology:
    """Frozen network layout and mean link gains.

    Links are indexed 0..num_links-1 with UEC links first.  A UEC link is
    BS -> UEC device (downlink); a UED link is D2D transmitter -> receiver.
    ``mean_gain_matrix[j, i]`` is the mean linear power gain from the
    transmitter of link j to the receiver of link i (path loss times
    shadowing, fading excluded).
    """

    bs_position: np.ndarray             # (2,) meters
    uec_positions: np.ndarray           # (num_uec, 2) UEC device positions
    ued_tx_positions: np.ndarray        # (num_ued, 2)
    ued_rx_positions: np.ndarray        # (num_ued, 2)
    mean_gain_matrix: np.ndarray        # (L, L) linear gains, tx index -> rx index

    def __post_init__(self):
        for name in ("bs_position", "uec_positions", "ued_tx_positions",
                     "ued_rx_positions", "mean_gain_matrix"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_uec(self) -> int:
        return len(self.uec_positions)

    @property
    def num_ued(self) -> int:
        return len(self.ued_tx_positions)

    @property
    def num_links(self) -> int:
        return self.num_uec + self.num_ued

    def validate(self, params: RadioParams) -> None:
        """Check layout invariants against the given parameters."""
        if self.mean_gain_matrix.shape != (self.num_links, self.num_links):
            raise ValueError("gain matrix shape mismatch")
        if self.num_links and not np.all(self.mean_gain_matrix > 0):
            raise ValueError("all mean gains must be positive")
        if self.num_ued:
            d2d = np.linalg.norm(self.ued_rx_positions - self.ued_tx_positions,
                                 axis=1)
            if np.any(d2d > params.d2d_radius_m + 1e-9):
                raise ValueError("D2D receiver outside d2d radius")
        for pts in (self.uec_positions, self.ued_tx_positions,
                    self.ued_rx_positions):
            if len(pts) and np.any(np.linalg.norm(pts - self.bs_position, axis=1)
                                   > params.cell_radius_m + 1e-9):
                raise ValueError("UE outside cell radius")


# uint32 slots of the raw stream turned into coefficients at a time: the
# 256 KiB of raw words and the 256 KiB of output they fill stay in L2
_PIECE = 1 << 16
# blocks of more coefficients than this take the raw stream; below it the
# raw path's fixed cost per block (the generator's state read and written
# back, a second buffer) outweighs its per-coefficient saving, about 2.8
# ns against 5 ns
_RAW_MIN = 1 << 14
# bit generators whose next_uint32 hands out each 64-bit word as its low
# half, then its high half, holding the high half in state["uinteger"];
# a little-endian uint32 view of the raw words lists the halves in order
_SPLIT_WORD = (np.random.SFC64, np.random.PCG64) \
    if sys.byteorder == "little" else ()


def sample_fading_block(rng: np.random.Generator, shape) -> np.ndarray:
    """Draw a block of i.i.d. unit-mean exponential float32 coefficients.

    Uses the inverse CDF on uniforms, -log(1 - U), which never produces
    infinities.  The result is ``u = rng.random(shape, np.float32);
    -log(1 - u)`` bit for bit, and ``rng`` ends in the same state.

    Blocks of more than ``_RAW_MIN`` coefficients on SFC64 and PCG64 skip
    ``Generator.random``'s per-element uint32 calls and read the raw
    64-bit words ``_PIECE`` slots at a time, each piece turned into
    coefficients in cache and written straight into the output.  numpy
    makes a float32 uniform from the next uint32 x as (x >> 8) * 2^-24,
    so 1 - U is float32(2^24 - (x >> 8)) * 2^-24: the integer
    subtraction, the conversion (at most 2^24) and the power-of-two scale
    are all exact, and the same ``np.log`` follows.  A spare high half the
    generator already holds is taken first through ``rng.random``; at the
    end the last word's high half is written back as the spare, held when
    the block used only its low half, as ``next_uint32`` leaves it.
    Smaller blocks and other bit generators draw through ``rng.random``.
    """
    bitgen = rng.bit_generator
    size = int(np.prod(shape))
    if size <= _RAW_MIN or type(bitgen) not in _SPLIT_WORD:
        u = rng.random(shape, dtype=np.float32)
        np.subtract(1.0, u, out=u)
        np.log(u, out=u)
        np.negative(u, out=u)
        return u
    out = np.empty(shape, dtype=np.float32)
    flat = out.reshape(-1)
    start = 0
    if bitgen.state["has_uint32"]:  # 2^24 - (x >> 8) of the held half
        flat[0] = 2 ** 24 - rng.random(dtype=np.float32) * 2 ** 24
        start = 1
    for lo in range(start, size, _PIECE):
        hi = min(lo + _PIECE, size)
        words = bitgen.random_raw((hi - lo + 1) // 2)
        high = int(words[-1] >> 32)
        x = words.view(np.uint32)  # little-endian: low half, then high half
        np.right_shift(x, 8, out=x)
        np.subtract(1 << 24, x, out=x)
        np.copyto(flat[lo:hi], x.view(np.int32)[: hi - lo], casting="unsafe")
        piece = flat[0 if lo == start else lo:hi]
        np.multiply(piece, np.float32(2.0 ** -24), out=piece)
        np.log(piece, out=piece)
        np.negative(piece, out=piece)
        del words, x  # one piece of raw words alive at a time
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = (size - start) % 2, high
    bitgen.state = state
    return out


def _disk_point(rng: np.random.Generator, center, radius: float) -> np.ndarray:
    r = radius * math.sqrt(rng.random())
    ang = 2.0 * math.pi * rng.random()
    return np.asarray(center, dtype=float) + r * np.array(
        [math.cos(ang), math.sin(ang)])


def generate_topology(params: RadioParams, num_uec: int, num_ued: int,
                      rng_seed: int) -> Topology:
    """Place UEs uniformly and draw frozen mean gains.

    UEC devices and D2D transmitters are uniform in the cell disk.  Each D2D
    receiver is uniform in the disk of radius ``d2d_radius_m`` around its
    transmitter, redrawn until it falls inside the cell.  Mean gains are
    ``max(d, 1 m)^(-eta) * 10^(S/10)`` with S ~ Normal(0, sigma_sh^2) dB,
    drawn once per ordered transmitter/receiver pair.

    Deterministic for a fixed seed.
    """
    if num_uec < 0 or num_ued < 0:
        raise ValueError("counts must be non-negative")
    if num_uec > params.num_channels:
        raise ValueError(
            f"num_uec={num_uec} exceeds num_channels={params.num_channels}; "
            "each UEC needs a dedicated channel")
    rng = np.random.default_rng(rng_seed)
    bs = np.zeros(2)

    uec = np.array([_disk_point(rng, bs, params.cell_radius_m)
                    for _ in range(num_uec)]).reshape(num_uec, 2)
    ued_tx = np.zeros((num_ued, 2))
    ued_rx = np.zeros((num_ued, 2))
    for k in range(num_ued):
        tx = _disk_point(rng, bs, params.cell_radius_m)
        while True:
            rx = _disk_point(rng, tx, params.d2d_radius_m)
            if np.linalg.norm(rx - bs) <= params.cell_radius_m:
                break
        ued_tx[k] = tx
        ued_rx[k] = rx

    n = num_uec + num_ued
    tx_pos = np.concatenate([np.broadcast_to(bs, (num_uec, 2)), ued_tx]) \
        if n else np.zeros((0, 2))
    rx_pos = np.concatenate([uec, ued_rx]) if n else np.zeros((0, 2))
    dist = np.linalg.norm(tx_pos[:, None, :] - rx_pos[None, :, :], axis=2)
    np.maximum(dist, PATHLOSS_FLOOR_M, out=dist)
    shadow_db = rng.normal(0.0, params.shadowing_sigma_db, size=(n, n))
    gains = dist ** (-params.pathloss_exponent) * 10.0 ** (shadow_db / 10.0)

    topo = Topology(bs_position=bs, uec_positions=uec,
                    ued_tx_positions=ued_tx, ued_rx_positions=ued_rx,
                    mean_gain_matrix=gains)
    topo.validate(params)
    return topo


def link_tx_powers(topology: Topology, params: RadioParams) -> np.ndarray:
    """Per-link transmit powers in watts, (L,).

    UEC links transmit from the BS, whose power is split evenly across the
    UEC channels.  UED links use the UE power.
    """
    p = np.full(topology.num_links, params.tx_power_ue_w)
    if topology.num_uec:
        p[: topology.num_uec] = params.tx_power_bs_w / topology.num_uec
    return p
