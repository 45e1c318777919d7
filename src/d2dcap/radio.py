"""Radio layer: network topologies, link gains, SINR and Shannon rates.

Models a single downlink cell with a base station at the origin, cellular
users (UECs) served directly by the BS on dedicated channels, and D2D pairs
(UEDs) reusing the same channels.  Mean link gains combine distance path
loss with log-normal shadowing and are frozen per topology; Rayleigh fading
is drawn per sample as unit-mean exponential power coefficients.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RadioParams",
    "Topology",
    "FadingRealization",
    "db_to_linear",
    "linear_to_db",
    "dbm_to_watts",
    "watts_to_dbm",
    "thermal_noise_watts",
    "fullscale_params",
    "desk_params",
    "generate_topology",
    "link_tx_powers",
    "sinr",
    "rate",
]

# Reference distance floor for the path-loss law, meters.
PATHLOSS_FLOOR_M = 1.0


def db_to_linear(x_db):
    """Convert a dB value to linear scale."""
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def linear_to_db(x):
    """Convert a linear value to dB."""
    return 10.0 * np.log10(np.asarray(x, dtype=float))


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
    """Physical and system parameters of the cell."""

    cell_radius_m: float = 200.0        # cell region radius
    d2d_radius_m: float = 20.0          # max D2D receiver distance from its transmitter
    num_channels: int = 5               # number of orthogonal channels
    bandwidth_hz: float = 180e3         # per-channel bandwidth W_c
    tx_power_ue_w: float = dbm_to_watts(25.0).item()   # D2D transmit power
    tx_power_bs_w: float = dbm_to_watts(46.0).item()   # total BS transmit power
    noise_power_w: float = thermal_noise_watts(180e3)  # per-channel noise power
    pathloss_exponent: float = 3.5
    shadowing_sigma_db: float = 6.0     # log-normal shadowing std dev
    sinr_min_db: float = -10.0          # lower SINR clamp
    sinr_max_db: float = 23.0           # upper SINR clamp
    bs_power_split: bool = True         # split tx_power_bs_w across UEC channels

    def __post_init__(self):
        if self.cell_radius_m <= self.d2d_radius_m or self.d2d_radius_m <= 0:
            raise ValueError("require cell_radius_m > d2d_radius_m > 0")
        if self.num_channels < 1:
            raise ValueError("num_channels must be >= 1")
        if min(self.tx_power_ue_w, self.tx_power_bs_w, self.noise_power_w) <= 0:
            raise ValueError("powers must be positive")
        if self.sinr_min_db >= self.sinr_max_db:
            raise ValueError("require sinr_min_db < sinr_max_db")

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


def fullscale_params() -> RadioParams:
    """Reference full-scale parameter set (20-UE cell, 5 channels)."""
    return RadioParams()


def desk_params(num_channels: int = 3) -> RadioParams:
    """Small parameter set for fast desk-scale experiments."""
    return RadioParams(num_channels=num_channels)


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
    seed: int | None = None
    uec_pairs: np.ndarray = field(init=False, repr=False)
    ued_pairs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("bs_position", "uec_positions", "ued_tx_positions",
                     "ued_rx_positions", "mean_gain_matrix"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        bs = np.broadcast_to(self.bs_position, self.uec_positions.shape)
        object.__setattr__(
            self, "uec_pairs",
            np.stack([bs, self.uec_positions], axis=1) if self.num_uec
            else np.zeros((0, 2, 2)))
        object.__setattr__(
            self, "ued_pairs",
            np.stack([self.ued_tx_positions, self.ued_rx_positions], axis=1)
            if self.num_ued else np.zeros((0, 2, 2)))

    @property
    def num_uec(self) -> int:
        return len(self.uec_positions)

    @property
    def num_ued(self) -> int:
        return len(self.ued_tx_positions)

    @property
    def num_links(self) -> int:
        return self.num_uec + self.num_ued

    def tx_positions(self) -> np.ndarray:
        """Per-link transmitter positions, (L, 2). BS transmits for UEC links."""
        bs = np.broadcast_to(self.bs_position, (self.num_uec, 2))
        return np.concatenate([bs, self.ued_tx_positions]) if self.num_links \
            else np.zeros((0, 2))

    def rx_positions(self) -> np.ndarray:
        """Per-link receiver positions, (L, 2)."""
        return np.concatenate([self.uec_positions, self.ued_rx_positions]) \
            if self.num_links else np.zeros((0, 2))

    def is_uec_link(self) -> np.ndarray:
        """Boolean mask of UEC links, (L,)."""
        mask = np.zeros(self.num_links, dtype=bool)
        mask[: self.num_uec] = True
        return mask

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

    def to_text(self) -> str:
        """Serialize to a JSON document, replayable bit-exactly."""
        doc = {
            "seed": self.seed,
            "bs_position_m": self.bs_position.tolist(),
            "uec_positions_m": self.uec_positions.tolist(),
            "ued_tx_positions_m": self.ued_tx_positions.tolist(),
            "ued_rx_positions_m": self.ued_rx_positions.tolist(),
            "mean_gain_matrix_linear": self.mean_gain_matrix.tolist(),
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_text(cls, text: str) -> "Topology":
        doc = json.loads(text)
        n_uec = len(doc["uec_positions_m"])
        n_ued = len(doc["ued_tx_positions_m"])
        return cls(
            bs_position=np.asarray(doc["bs_position_m"], dtype=float),
            uec_positions=np.asarray(doc["uec_positions_m"],
                                     dtype=float).reshape(n_uec, 2),
            ued_tx_positions=np.asarray(doc["ued_tx_positions_m"],
                                        dtype=float).reshape(n_ued, 2),
            ued_rx_positions=np.asarray(doc["ued_rx_positions_m"],
                                        dtype=float).reshape(n_ued, 2),
            mean_gain_matrix=np.asarray(doc["mean_gain_matrix_linear"],
                                        dtype=float).reshape(n_uec + n_ued,
                                                             n_uec + n_ued),
            seed=doc["seed"],
        )


@dataclass(frozen=True)
class FadingRealization:
    """One Rayleigh fading draw: unit-mean exponential power coefficients.

    ``coefficients[j, i]`` multiplies the mean gain from the transmitter of
    link j to the receiver of link i.
    """

    coefficients: np.ndarray  # (L, L)

    def __post_init__(self):
        arr = np.asarray(self.coefficients)
        arr.setflags(write=False)
        object.__setattr__(self, "coefficients", arr)

    @classmethod
    def unit(cls, num_links: int) -> "FadingRealization":
        return cls(np.ones((num_links, num_links)))


def sample_fading_block(rng: np.random.Generator, shape,
                        dtype=np.float64) -> np.ndarray:
    """Draw i.i.d. unit-mean exponential coefficients of the given shape.

    Uses the inverse CDF on uniforms, -log(1 - U), which is fast for
    float32 batches and never produces infinities.
    """
    u = rng.random(shape, dtype=dtype)
    np.subtract(1.0, u, out=u)
    np.log(u, out=u)
    np.negative(u, out=u)
    return u


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
                    mean_gain_matrix=gains, seed=int(rng_seed))
    topo.validate(params)
    return topo


def link_tx_powers(topology: Topology, params: RadioParams) -> np.ndarray:
    """Per-link transmit powers in watts, (L,).

    UEC links transmit from the BS; the BS power is split evenly across the
    UEC channels when ``bs_power_split`` is set.  UED links use the UE power.
    """
    p = np.full(topology.num_links, params.tx_power_ue_w)
    if topology.num_uec:
        per_uec = params.tx_power_bs_w / topology.num_uec \
            if params.bs_power_split else params.tx_power_bs_w
        p[: topology.num_uec] = per_uec
    return p


def sinr(topology: Topology, params: RadioParams, profile, ue: int,
         fading: FadingRealization) -> float:
    """Linear SINR at the receiver of link ``ue`` under the given fading.

    Signal power over co-channel interference plus noise, with gains equal
    to mean gain times the fading coefficient, clamped into the configured
    [sinr_min, sinr_max] interval (linear scale).  With ``rate`` this is the
    scalar float64 reference for the game's vectorized rate kernel.
    """
    channels = np.asarray(getattr(profile, "channels", profile), dtype=np.int64)
    g = topology.mean_gain_matrix * np.asarray(fading.coefficients, dtype=float)
    p = link_tx_powers(topology, params)
    members = np.nonzero(channels == channels[ue])[0]
    signal = p[ue] * g[ue, ue]
    interference = sum(p[j] * g[j, ue] for j in members if j != ue)
    value = signal / (interference + params.noise_power_w)
    return float(min(max(value, params.sinr_min), params.sinr_max))


def rate(sinr_linear, bandwidth_hz):
    """Shannon rate W * log2(1 + SINR), bits/s."""
    return bandwidth_hz * np.log2(1.0 + np.asarray(sinr_linear, dtype=float))
