import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from d2dcap.analysis import enumerate_profiles
from d2dcap.experiments import ExperimentConfig
from d2dcap.game import CapGame, utility_mean
from d2dcap.radio import (
    RadioParams,
    Topology,
    db_to_linear,
    dbm_to_watts,
    generate_topology,
    link_tx_powers,
    sample_fading_block,
    thermal_noise_watts,
    watts_to_dbm,
)
from d2dcap.radio import _PIECE, _RAW_MIN

from reference import rate, sinr


# the thermal noise floor of a 180 kHz channel, -174 dBm/Hz
THERMAL_180K_DBM = -174.0 + 10.0 * math.log10(180e3)


def cell(**overrides) -> RadioParams:
    """The cell the unit tests are written for: the config's radio values
    in a 200 m cell with 5 channels and the thermal noise floor, with
    ``overrides`` on top."""
    config = ExperimentConfig(cell_radius_m=200.0, num_channels=5,
                              noise_dbm=THERMAL_180K_DBM)
    return dataclasses.replace(config.radio_params(), **overrides)


def manual_topology(gains, num_uec=0):
    """Topology with hand-set mean gains; positions are placeholders."""
    g = np.asarray(gains, dtype=float)
    n = g.shape[0]
    n_ued = n - num_uec
    return Topology(bs_position=np.zeros(2),
                    uec_positions=np.zeros((num_uec, 2)),
                    ued_tx_positions=np.zeros((n_ued, 2)),
                    ued_rx_positions=np.tile([5.0, 0.0], (n_ued, 1)),
                    mean_gain_matrix=g)


# ----------------------------------------------------------------------
# unit conversions


def test_unit_conversions():
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert watts_to_dbm(1.0) == pytest.approx(30.0, abs=1e-12)
    assert db_to_linear(0.0) == 1.0


def test_thermal_noise_level():
    # -174 dBm/Hz over 180 kHz
    expect = dbm_to_watts(-174.0 + 10.0 * math.log10(180e3))
    assert thermal_noise_watts(180e3) == pytest.approx(float(expect), rel=1e-12)


def test_params_properties_and_guards():
    p = cell()
    assert p.noise_power_w == thermal_noise_watts(180e3)
    assert p.sinr_min == pytest.approx(10.0 ** -1.0, rel=1e-12)
    assert p.sinr_max == pytest.approx(10.0 ** 2.3, rel=1e-12)
    assert p.max_rate_per_ue == pytest.approx(
        180e3 * math.log2(1.0 + 10.0 ** 2.3), rel=1e-12)
    with pytest.raises(ValueError):
        cell(cell_radius_m=10.0, d2d_radius_m=20.0)
    with pytest.raises(ValueError):
        cell(num_channels=0)
    with pytest.raises(ValueError):
        cell(sinr_min_db=10.0, sinr_max_db=-10.0)
    # the radio layer refuses what a config could not have passed either
    for bad in (dict(noise_dbm=math.nan), dict(cell_radius_m=math.inf),
                dict(bs_power_dbm=math.inf), dict(sinr_min_db=-math.inf),
                dict(bandwidth_hz=0.0), dict(pathloss_exponent=-1.0),
                dict(shadowing_sigma_db=-3.0)):
        with pytest.raises(ValueError, match=repr(next(iter(bad)))):
            cell(**bad)
    cell(shadowing_sigma_db=0.0)  # no shadowing is a valid cell


def test_channel_counts_int16_cannot_hold_are_refused():
    # 40,000 channels validated, and brute force on a lone link then found
    # 32,768 optimal profiles of 40,000: channels of 2^15 and above wrapped
    # to negative values in the int16 profile vectors
    with pytest.raises(ValueError, match=r"'num_channels' must lie in "
                       r"1\.\.32768, the channels int16 holds, got 32769"):
        cell(num_channels=2 ** 15 + 1)
    with pytest.raises(ValueError, match="'num_channels'"):
        ExperimentConfig(num_uec=0, num_ued=1, num_channels=40000).validate()
    # at the bound every channel still fits
    config = ExperimentConfig(num_uec=0, num_ued=1, num_channels=2 ** 15)
    game = config.game(config.topology(0))
    channels = enumerate_profiles(game)
    assert (channels.min(), channels.max()) == (0, 2 ** 15 - 1)
    start = game.initial_profile(np.random.default_rng(0))
    assert 0 <= start.channels[0] < 2 ** 15


def test_radio_params_are_config_keys_without_defaults():
    # the config holds the only defaults; radio_params copies by name
    keys = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for f in dataclasses.fields(RadioParams):
        assert f.default is dataclasses.MISSING, f.name
        assert f.default_factory is dataclasses.MISSING, f.name
        assert f.name in keys, f.name


def config_watts(dbm):
    """A config's dBm value in watts, as configs converted it before
    ``RadioParams`` took dBm itself."""
    return float(10.0 ** (np.asarray(dbm, dtype=float) / 10.0) / 1e3)


@given(ue=st.floats(-3000.0, 3000.0), bs=st.floats(-3000.0, 3000.0),
       noise=st.floats(-3000.0, 3000.0))
@example(ue=25.0, bs=46.0, noise=ExperimentConfig().noise_dbm)
@example(ue=-0.0, bs=0.1, noise=THERMAL_180K_DBM)
def test_watts_are_the_config_conversion_bit_for_bit(ue, bs, noise):
    params = ExperimentConfig(ue_power_dbm=ue, bs_power_dbm=bs,
                              noise_dbm=noise).radio_params()
    for got, dbm in ((params.tx_power_ue_w, ue), (params.tx_power_bs_w, bs),
                     (params.noise_power_w, noise)):
        assert type(got) is float
        assert got.hex() == config_watts(dbm).hex()


# ----------------------------------------------------------------------
# fading


def test_fading_draw_statistics():
    rng = np.random.default_rng(3)
    block = sample_fading_block(rng, (200, 200))
    assert block.dtype == np.float32
    assert np.all(block > 0) and np.all(np.isfinite(block))
    assert float(block.mean()) == pytest.approx(1.0, abs=0.02)


def _plain_fading(rng, shape):
    """The float32 draw as a plain Generator.random recipe."""
    u = rng.random(shape, np.float32)
    return -np.log(1 - u)


def _state(rng):
    state = rng.bit_generator.state
    inner = {k: np.asarray(v).tolist() for k, v in state["state"].items()}
    return state["bit_generator"], inner, state.get("has_uint32"), \
        state.get("uinteger")


_OTHER_DRAWS = {
    "integers": lambda rng: rng.integers(0, 5),  # takes a uint32 half
    "random": lambda rng: rng.random(),  # takes a whole 64-bit word
    "random32": lambda rng: rng.random(dtype=np.float32),
}


@settings(max_examples=80)
@given(bit_generator=st.sampled_from(
           [np.random.SFC64, np.random.PCG64, np.random.MT19937]),
       seed=st.integers(0, 2 ** 32 - 1),
       lead=st.sampled_from([(), (1,), (3,), (2, 2), (4, 4)]),
       counts=st.lists(st.one_of(st.integers(0, 40),
                                 st.integers(_RAW_MIN - 2, _RAW_MIN + 2),
                                 st.integers(_RAW_MIN + 3, _PIECE - 3),
                                 st.integers(_PIECE - 2, _PIECE + 2),
                                 st.integers(_PIECE + 3, 2 * _PIECE + 3)),
                       min_size=1, max_size=2),
       others=st.lists(st.lists(st.sampled_from(sorted(_OTHER_DRAWS)),
                                max_size=3), min_size=3, max_size=3))
# each side of the raw-stream cut, from a fresh word and from a held half
@example(bit_generator=np.random.SFC64, seed=1, lead=(),
         counts=[_RAW_MIN, _RAW_MIN + 1], others=[[], [], []])
@example(bit_generator=np.random.SFC64, seed=2, lead=(),
         counts=[_RAW_MIN - 1, _RAW_MIN + 2],
         others=[["integers"], ["integers"], ["random32"]])
@example(bit_generator=np.random.PCG64, seed=3, lead=(1,),
         counts=[_RAW_MIN + 1, _RAW_MIN + 3],
         others=[["integers"], [], ["integers"]])
def test_fading_block_equals_the_plain_recipe(bit_generator, seed, lead,
                                              counts, others):
    # SFC64 and PCG64 take the raw-stream path on blocks past _RAW_MIN
    # coefficients; MT19937 always draws through Generator.random
    got = np.random.Generator(bit_generator(seed))
    want = np.random.Generator(bit_generator(seed))
    for count, before in zip(counts, others):
        for name in before:
            assert _OTHER_DRAWS[name](got) == _OTHER_DRAWS[name](want)
        shape = lead + (count,)
        block = sample_fading_block(got, shape)
        expect = _plain_fading(want, shape)
        assert block.dtype == np.float32 and block.shape == expect.shape
        assert block.tobytes() == expect.tobytes()
        assert _state(got) == _state(want)
    for name in others[-1]:
        assert _OTHER_DRAWS[name](got) == _OTHER_DRAWS[name](want)
    assert _state(got) == _state(want)


def test_large_fading_draw_allocates_one_block_and_one_piece():
    shape = (4, 4, 265179)
    rng = np.random.Generator(np.random.SFC64(5))
    rng.integers(0, 3)  # leave a spare half, as a learning slot does
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        block = sample_fading_block(rng, shape)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    piece_bytes = _PIECE * 4  # raw words of one piece
    # 16 KiB covers the interpreter's own objects; a second block-sized
    # array would add 17 MB
    assert block.nbytes <= peak <= block.nbytes + piece_bytes + 16384


# ----------------------------------------------------------------------
# topology generation


def test_generate_topology_geometry_and_determinism():
    params = cell(num_channels=3)
    topo = generate_topology(params, 2, 5, rng_seed=42)
    assert topo.num_uec == 2 and topo.num_ued == 5 and topo.num_links == 7
    # all positions inside the cell disk
    for pos in (topo.uec_positions, topo.ued_tx_positions, topo.ued_rx_positions):
        assert np.all(np.linalg.norm(pos, axis=1) <= params.cell_radius_m + 1e-9)
    # receivers near their transmitters
    d = np.linalg.norm(topo.ued_tx_positions - topo.ued_rx_positions, axis=1)
    assert np.all(d <= params.d2d_radius_m + 1e-9)
    assert np.all(topo.mean_gain_matrix > 0)
    again = generate_topology(params, 2, 5, rng_seed=42)
    assert np.array_equal(topo.mean_gain_matrix, again.mean_gain_matrix)
    other = generate_topology(params, 2, 5, rng_seed=43)
    assert not np.array_equal(topo.mean_gain_matrix, other.mean_gain_matrix)


def test_generate_topology_rejects_excess_uecs():
    with pytest.raises(ValueError):
        generate_topology(cell(num_channels=3), 4, 1, rng_seed=0)


def test_link_tx_powers_split():
    params = cell(num_channels=3)
    topo = generate_topology(params, 2, 3, rng_seed=1)
    p = link_tx_powers(topo, params)
    assert p[0] == pytest.approx(params.tx_power_bs_w / 2, rel=1e-12)
    assert p[1] == p[0]
    assert np.all(p[2:] == params.tx_power_ue_w)


# ----------------------------------------------------------------------
# SINR and rates, scalar reference path


def test_sinr_matches_hand_formula():
    params = cell(num_channels=2)
    gains = [[1e-9, 2e-11, 3e-11],
             [4e-11, 8e-10, 1.5e-11],
             [2.5e-11, 3.5e-11, 1.2e-9]]
    topo = manual_topology(gains)
    fad = np.array([[1.0, 0.7, 1.3],
                    [0.4, 1.1, 0.9],
                    [1.6, 0.5, 0.8]])
    profile = np.array([0, 0, 1])
    p = params.tx_power_ue_w
    # link 0 shares channel 0 with link 1 only
    expect = (p * gains[0][0] * 1.0) / (p * gains[1][0] * 0.4
                                        + params.noise_power_w)
    expect = min(max(expect, params.sinr_min), params.sinr_max)
    got = sinr(topo, params, profile, 0, fad)
    assert got == pytest.approx(expect, rel=1e-12)
    # link 2 is alone on channel 1
    alone = (p * gains[2][2] * 0.8) / params.noise_power_w
    alone = min(max(alone, params.sinr_min), params.sinr_max)
    assert sinr(topo, params, profile, 2, fad) == pytest.approx(alone, rel=1e-12)


def test_sinr_clamps_both_sides():
    params = cell(num_channels=2)
    strong = manual_topology([[1e-3]])
    unit = np.ones((1, 1))
    assert sinr(strong, params, [0], 0, unit) == params.sinr_max
    weak = manual_topology([[1e-22]])
    assert sinr(weak, params, [0], 0, unit) == params.sinr_min


def test_rate_formula():
    assert rate(1.0, 180e3) == pytest.approx(180e3, rel=1e-12)
    vals = rate(np.array([0.5, 3.0]), 1e6)
    assert vals[1] == pytest.approx(2e6, rel=1e-12)


def test_expected_rate_matches_quadrature():
    # single link, mid-range SINR so both clamps are in play
    params = cell(num_channels=1)
    s = 30.0 * params.noise_power_w / params.tx_power_ue_w
    game = CapGame(manual_topology([[s]]), params)
    lo, hi = params.sinr_min, params.sinr_max
    w = params.bandwidth_hz

    def integrand(x):
        v = min(max(30.0 * x, lo), hi)
        return w * math.log2(1.0 + v) * math.exp(-x)

    # above hi/30 the clamp makes the integrand W log2(1+hi) e^-x: the
    # tail is analytic, and quad gets finite bounds for the break points
    body, err = quad(integrand, 0.0, hi / 30.0,
                     points=[lo / 30.0], limit=200)
    tail = w * math.log2(1.0 + hi) * math.exp(-hi / 30.0)
    oracle = body + tail
    assert err < 1e-6 * oracle
    # a lone link's utility is its own rate over phi_max; its per-sample
    # values come from the draw and kernel utility_mean runs
    mean = utility_mean(game, game.initial_profile(), 0, 20000,
                        rng_seed=5) * game.phi_max
    block = sample_fading_block(np.random.default_rng(5), (1, 1, 20000))
    samples = game._rate_kernel(np.array([0]), block, 0).astype(np.float64) \
        * game._util_scale
    se = samples.std(ddof=1) * game.phi_max / math.sqrt(20000)
    assert se > 0
    assert abs(mean - oracle) <= 4.0 * se + 1e-9 * oracle


def test_expected_rate_deterministic_path():
    params = cell(num_channels=1)
    game = CapGame(manual_topology([[1e-3]]), params)
    value = game.potential_exact(game.initial_profile())
    assert value == pytest.approx(params.max_rate_per_ue, rel=1e-12)
