"""Channel, timing, energy, and bandwidth allocation."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_device
from feelsim import seeding
from feelsim.domain import ChannelState
from feelsim.errors import NoParticipantsError, UnreachableDeviceError, ValidationError
from feelsim.network import (
    NetworkConfig,
    allocate_bandwidth,
    channel_rate,
    compute_time,
    energy_compute,
    energy_transmit,
    expected_completion_time,
    resample_channel,
)


def test_channel_rate_anchors():
    dev = make_device(snr_db=0.0)  # linear SNR 1 -> log2(2) = 1 bit/s/Hz
    assert channel_rate(dev.channel, 1e6) == pytest.approx(1e6, rel=1e-12)
    dev = make_device(snr_db=10.0 * math.log10(3))  # linear SNR 3 -> 2 bits/s/Hz
    assert channel_rate(dev.channel, 5e5) == pytest.approx(1e6, rel=1e-12)


def test_channel_rate_zero_band_and_negative():
    dev = make_device()
    assert channel_rate(dev.channel, 0.0) == 0.0
    with pytest.raises(ValueError):
        channel_rate(dev.channel, -1.0)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=-30, max_value=40),
    st.floats(min_value=1.0, max_value=1e7),
)
def test_channel_rate_monotone_in_snr_and_band(snr, bw):
    dev_lo = make_device(snr_db=snr)
    dev_hi = make_device(snr_db=snr + 1.0)
    assert channel_rate(dev_hi.channel, bw) > channel_rate(dev_lo.channel, bw)
    assert channel_rate(dev_lo.channel, 2 * bw) == pytest.approx(
        2 * channel_rate(dev_lo.channel, bw), rel=1e-12
    )


def test_channel_rate_beyond_float_range_of_linear_snr():
    # 10 ** 310 overflows a float; the rate must stay finite and monotone
    rate_3000 = channel_rate(make_device(snr_db=3000.0).channel, 1e6)
    rate_3100 = channel_rate(make_device(snr_db=3100.0).channel, 1e6)
    assert math.isfinite(rate_3100)
    assert rate_3100 > rate_3000
    assert rate_3100 == pytest.approx(1e6 * 310.0 * math.log2(10.0), rel=1e-12)


def test_channel_rate_below_overflow_keeps_the_plain_expression_bitwise():
    for snr, bw in ((30.0, 1e6), (-7.5, 3.3e5), (3000.0, 2e6)):
        want = bw * math.log1p(10.0 ** (snr / 10.0)) / math.log(2.0)
        assert channel_rate(make_device(snr_db=snr).channel, bw) == want


def test_equalize_with_a_device_beyond_float_range_of_linear_snr():
    devs = [make_device(device_id=0, snr_db=3100.0), make_device(device_id=1, snr_db=5.0)]
    shares = allocate_bandwidth(devs, _equalize_cfg(), epochs=1)
    assert all(s > 0 for s in shares.values())
    assert shares[1] > shares[0]
    assert sum(shares.values()) == pytest.approx(1e6, rel=1e-12)


def test_compute_time_anchor():
    dev = make_device(cpu_freq=1e9, cycles=1e6)
    # 100 samples * 1e6 cycles / 1e9 Hz = 0.1 s per epoch
    assert compute_time(dev, 100, 1) == pytest.approx(0.1, abs=1e-15)
    assert compute_time(dev, 100, 3) == pytest.approx(0.3, abs=1e-15)
    with pytest.raises(ValueError):
        compute_time(dev, -1, 1)
    with pytest.raises(ValueError):
        compute_time(dev, 10, 0)


def test_completion_time_is_compute_plus_upload():
    dev = make_device(snr_db=0.0, n_samples=100, cpu_freq=1e9, cycles=1e6)
    cfg = NetworkConfig(total_bandwidth=1e6, model_size_bits=1e6)
    t = expected_completion_time(dev, cfg, 1e6, epochs=1)
    assert t == pytest.approx(0.1 + 1.0, rel=1e-12)  # 1e6 bits at 1e6 bit/s


def test_completion_time_unreachable_device():
    dev = make_device(snr_db=-4000.0)  # linear SNR underflows to exactly 0
    cfg = NetworkConfig()
    with pytest.raises(UnreachableDeviceError):
        expected_completion_time(dev, cfg, 1e6, epochs=1)


def test_network_config_validation():
    with pytest.raises(ValidationError):
        NetworkConfig(total_bandwidth=0)
    with pytest.raises(ValidationError):
        NetworkConfig(model_size_bits=-1)
    with pytest.raises(ValidationError):
        NetworkConfig(allocation_strategy="waterfill")


# --------------------------------------------------------------- allocation


def test_equal_split_anchor():
    devs = [make_device(device_id=i) for i in range(4)]
    cfg = NetworkConfig(total_bandwidth=1e6, allocation_strategy="equal")
    shares = allocate_bandwidth(devs, cfg, epochs=1)
    assert shares == {0: 2.5e5, 1: 2.5e5, 2: 2.5e5, 3: 2.5e5}


def test_allocation_empty_selection():
    with pytest.raises(NoParticipantsError):
        allocate_bandwidth([], NetworkConfig(), epochs=1)


@pytest.mark.parametrize("strategy", ["equal", "equalize_completion"])
def test_allocation_refuses_a_repeated_device(strategy):
    # one id twice would get two shares but keep one, so the shares could not sum to the band
    d0, d1 = make_device(device_id=0), make_device(device_id=1, snr_db=4.0)
    cfg = NetworkConfig(total_bandwidth=1e6, allocation_strategy=strategy)
    with pytest.raises(ValidationError) as info:
        allocate_bandwidth([d0, d1, d0], cfg, epochs=1)
    assert info.value.code == "duplicate_device"
    with pytest.raises(ValidationError, match="1 repeated ids"):
        allocate_bandwidth([d0, d1, make_device(device_id=1, snr_db=9.0)], cfg, epochs=1)  # another profile, same id
    assert sum(allocate_bandwidth([d0, d1], cfg, epochs=1).values()) == pytest.approx(1e6, rel=1e-12)


def _equalize_cfg(bw=1e6):
    return NetworkConfig(total_bandwidth=bw, model_size_bits=1e6, allocation_strategy="equalize_completion")


def test_equalize_identical_devices_reduces_to_equal_split():
    devs = [make_device(device_id=i, snr_db=5.0, n_samples=80) for i in range(5)]
    shares = allocate_bandwidth(devs, _equalize_cfg(), epochs=1)
    for share in shares.values():
        assert share == pytest.approx(2e5, rel=1e-9)
    assert sum(shares.values()) == pytest.approx(1e6, rel=1e-12)


def test_equalize_gives_weak_channel_more_band():
    strong = make_device(device_id=0, snr_db=20.0, n_samples=50)
    weak = make_device(device_id=1, snr_db=-5.0, n_samples=50)
    shares = allocate_bandwidth([strong, weak], _equalize_cfg(), epochs=1)
    assert shares[1] > shares[0]
    assert sum(shares.values()) == pytest.approx(1e6, rel=1e-12)


def test_equalize_completion_times_agree():
    devs = [
        make_device(device_id=0, snr_db=15.0, n_samples=40, cpu_freq=2e9),
        make_device(device_id=1, snr_db=3.0, n_samples=120, cpu_freq=8e8),
        make_device(device_id=2, snr_db=8.0, n_samples=200, cpu_freq=1.5e9),
    ]
    cfg = _equalize_cfg()
    shares = allocate_bandwidth(devs, cfg, epochs=1)
    times = [expected_completion_time(d, cfg, shares[d.id], 1) for d in devs]
    spread = (max(times) - min(times)) / max(times)
    assert spread < 1e-3


def test_equalize_never_slower_than_equal_split():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        devs = [
            make_device(
                device_id=i,
                snr_db=float(rng.uniform(-5, 25)),
                n_samples=int(rng.integers(20, 400)),
                cpu_freq=float(rng.uniform(5e8, 2e9)),
                cycles=float(rng.uniform(5e5, 2e6)),
            )
            for i in range(8)
        ]
        cfg = _equalize_cfg()
        eq_shares = allocate_bandwidth(devs, cfg, epochs=1)
        flat = cfg.total_bandwidth / len(devs)
        t_eq = max(expected_completion_time(d, cfg, eq_shares[d.id], 1) for d in devs)
        t_flat = max(expected_completion_time(d, cfg, flat, 1) for d in devs)
        assert t_eq <= t_flat * (1 + 1e-9)


def test_equalize_refuses_unreachable_device_as_the_filter_does():
    # no finite finish time exists for a zero-rate device; the equal split reads no channel
    ok = make_device(device_id=0, snr_db=10.0, n_samples=50)
    dead = make_device(device_id=1, snr_db=-4000.0, n_samples=50)
    with pytest.raises(UnreachableDeviceError) as refused:
        allocate_bandwidth([ok, dead], _equalize_cfg(), epochs=1)
    with pytest.raises(UnreachableDeviceError) as filtered:
        expected_completion_time(dead, _equalize_cfg(), 5e5, epochs=1)
    assert str(refused.value) == str(filtered.value)
    assert allocate_bandwidth([ok, dead], NetworkConfig(total_bandwidth=1e6), epochs=1) == {0: 5e5, 1: 5e5}


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_equalize_shares_positive_and_sum_exact(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    devs = [
        make_device(
            device_id=i,
            snr_db=float(rng.uniform(-10, 30)),
            n_samples=int(rng.integers(1, 500)),
            cpu_freq=float(rng.uniform(5e8, 2e9)),
        )
        for i in range(n)
    ]
    shares = allocate_bandwidth(devs, _equalize_cfg(), epochs=1)
    assert all(s > 0 for s in shares.values())
    assert sum(shares.values()) == pytest.approx(1e6, rel=1e-9)


# SNRs past the overflow of 10 ** (snr / 10), and far below 0 dB
_EXTREME_SNRS = [-300.0, -40.0, 0.0, 60.0, 3085.0, 5000.0]


@pytest.mark.parametrize("k", [1, 6, 100])
def test_equalize_stops_at_its_fixed_point_with_the_bits_of_all_60_steps(k):
    rng = np.random.default_rng(k)
    for _ in range(20 if k < 100 else 4):
        snrs = np.where(rng.random(k) < 0.3, rng.choice(_EXTREME_SNRS, k), rng.uniform(-20.0, 40.0, k))
        devs = [
            SimpleNamespace(
                id=i,
                channel=ChannelState(float(snr), float(snr), 2.0),
                dataset=SimpleNamespace(n_samples=int(rng.integers(1, 500))),
                cpu_cycles_per_sample=float(rng.uniform(1e5, 2e6)),
                cpu_freq=float(rng.uniform(5e8, 2e9)),
            )
            for i, snr in enumerate(snrs)
        ]
        cfg = _equalize_cfg(bw=float(rng.choice([2e4, 1e6, 1e9])))
        epochs = int(rng.integers(1, 4))
        want = {i: share.hex() for i, share in oracles.reference_equalize_completion(devs, cfg, epochs).items()}
        assert {i: share.hex() for i, share in allocate_bandwidth(devs, cfg, epochs).items()} == want


# -------------------------------------------------------------------- energy


def test_energy_anchors():
    dev = make_device(cycles=1e6, tx_power=0.5)
    # 100 samples * 1e6 cycles * 1e-9 J/cycle = 0.1 J
    assert energy_compute(dev, 100, 1) == pytest.approx(0.1, abs=1e-15)
    assert energy_compute(dev, 100, 2) == pytest.approx(0.2, abs=1e-15)
    assert energy_transmit(dev, 4.0) == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(ValueError):
        energy_transmit(dev, -1.0)


# ------------------------------------------------------------------- channel


def test_resample_channel_deterministic_and_keyed():
    dev = make_device(snr_db=10.0, std_snr_db=2.0)
    a = resample_channel(dev.channel, 7, device_id=3, round_index=5)
    b = resample_channel(dev.channel, 7, device_id=3, round_index=5)
    c = resample_channel(dev.channel, 7, device_id=3, round_index=6)
    d = resample_channel(dev.channel, 8, device_id=3, round_index=5)
    assert a.snr_db == b.snr_db
    assert a.snr_db != c.snr_db
    assert a.snr_db != d.snr_db
    assert a.mean_snr_db == dev.channel.mean_snr_db  # mean untouched


def test_resample_channel_statistics():
    dev = make_device(snr_db=10.0, std_snr_db=2.0)
    draws = np.array([resample_channel(dev.channel, 0, 0, r).snr_db for r in range(4000)])
    assert abs(draws.mean() - dev.channel.mean_snr_db) < 0.15
    assert abs(draws.std() - dev.channel.std_snr_db) < 0.15


def _block_snr(channel, master_seed, device_id, round_index) -> str:
    """The SNR the block keying promises, drawn afresh and written exactly."""
    block = seeding.substream(master_seed, seeding.CHANNEL, round_index, device_id // 256).standard_normal(256)
    return float(channel.mean_snr_db + channel.std_snr_db * block[device_id % 256]).hex()


@pytest.mark.parametrize("device_id", [0, 255, 256, 511, 1999])
def test_resample_channel_reads_its_device_off_a_block_of_256(device_id):
    dev = make_device(snr_db=10.0, std_snr_db=2.0)
    assert resample_channel(dev.channel, 5, device_id, 3).snr_db.hex() == _block_snr(dev.channel, 5, device_id, 3)


def test_resample_channel_cache_is_invisible():
    # 12 distinct (seed, round, block) keys overflow the 8-block cache
    dev = make_device(snr_db=10.0, std_snr_db=2.0)
    keys = [(seed, did, rnd) for seed in (1, 2) for rnd in (0, 1) for did in (7, 300, 600)]
    forward = {key: resample_channel(dev.channel, *key).snr_db.hex() for key in keys}
    shuffled = [keys[i] for i in np.random.default_rng(0).permutation(len(keys))]
    assert {key: resample_channel(dev.channel, *key).snr_db.hex() for key in shuffled} == forward
    assert forward == {key: _block_snr(dev.channel, *key) for key in keys}


def test_devices_in_one_block_draw_apart():
    dev = make_device(snr_db=10.0, std_snr_db=2.0)
    assert resample_channel(dev.channel, 7, 3, 5).snr_db != resample_channel(dev.channel, 7, 4, 5).snr_db


def test_resample_channel_keeps_the_distribution_and_its_input():
    channel = ChannelState(snr_db=3.25, mean_snr_db=9.5, std_snr_db=2.75)
    out = resample_channel(channel, 7, 300, 2)
    z = seeding.substream(7, seeding.CHANNEL, 2, 1).standard_normal(256)[300 % 256]
    assert out.snr_db.hex() == replace(channel, snr_db=float(channel.mean_snr_db + channel.std_snr_db * z)).snr_db.hex()
    assert (out.mean_snr_db, out.std_snr_db) == (9.5, 2.75)
    assert channel == ChannelState(snr_db=3.25, mean_snr_db=9.5, std_snr_db=2.75)


def test_resample_channel_builds_a_channel_like_the_constructor():
    channel = ChannelState(snr_db=3.25, mean_snr_db=9.5, std_snr_db=2.75)
    out = resample_channel(channel, 7, 300, 2)
    built = ChannelState(out.snr_db, 9.5, 2.75)
    assert type(out) is ChannelState
    assert (out, hash(out), repr(out)) == (built, hash(built), repr(built))
    assert not hasattr(out, "__dict__")  # its three slots are all it carries
    with pytest.raises(dataclasses.FrozenInstanceError):
        out.snr_db = 0.0
    for copied in (pickle.loads(pickle.dumps(out)), copy.deepcopy(out), replace(out)):
        assert copied == out and repr(copied) == repr(out)
    assert replace(out, snr_db=1.0) == ChannelState(1.0, 9.5, 2.75)


def test_resample_channel_refuses_a_nan_std():
    channel = ChannelState(snr_db=10.0, mean_snr_db=10.0, std_snr_db=1.0)
    object.__setattr__(channel, "std_snr_db", math.nan)
    with pytest.raises(ValidationError, match="negative_snr_std"):
        resample_channel(channel, 0, 0, 0)


def test_resample_channel_refuses_a_negative_std():
    channel = ChannelState(snr_db=10.0, mean_snr_db=10.0, std_snr_db=1.0)
    object.__setattr__(channel, "std_snr_db", -1.0)  # past the check a constructed ChannelState passes
    with pytest.raises(ValidationError, match="negative_snr_std"):
        resample_channel(channel, 0, 0, 0)
