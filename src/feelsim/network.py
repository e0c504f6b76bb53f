"""Channel, timing, energy, and bandwidth-allocation models.

Uplink rate follows the Shannon capacity of the allocated band; local compute
time is cycle-accurate in expectation (epochs * samples * cycles / frequency).
A round lasts as long as its slowest participant, which is why bandwidth
allocation offers, besides an equal split, a completion-equalizing mode that
solves for the common finish time by bisection and hands wide sub-bands to
the devices that would otherwise straggle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import seeding
from .domain import ChannelState, DeviceProfile, _set_mean_snr, _set_snr, _set_std_snr, left_sum, require_finite
from .errors import NoParticipantsError, UnreachableDeviceError, ValidationError

ALLOCATION_STRATEGIES = ("equal", "equalize_completion")

_BISECTION_ITERS = 60

_CHANNEL_BLOCK = 256  # device ids per CHANNEL substream

_bare = object.__new__  # one global read per fade, not a lookup of object's attribute


@dataclass(frozen=True)
class NetworkConfig:
    total_bandwidth: float = 1e6  # hertz shared by one round's uplink
    model_size_bits: float = 1e6  # uplink payload per update
    allocation_strategy: str = "equal"

    def __post_init__(self):
        if self.total_bandwidth <= 0:
            raise ValidationError("nonpositive_bandwidth")
        if self.model_size_bits <= 0:
            raise ValidationError("nonpositive_model_size")
        if self.allocation_strategy not in ALLOCATION_STRATEGIES:
            raise ValidationError("unknown_allocation_strategy", self.allocation_strategy)
        require_finite(self)


def channel_rate(channel: ChannelState, bandwidth: float) -> float:
    """Shannon rate in bits/s: bandwidth * log2(1 + linear SNR)."""
    if bandwidth < 0:
        raise ValueError("bandwidth must be nonnegative")
    if bandwidth == 0:
        return 0.0
    return bandwidth * _log1p_snr(channel.snr_db) / math.log(2.0)


def _log1p_snr(snr_db: float) -> float:
    """ln(1 + linear SNR), finite for any finite SNR in dB.

    The linear SNR 10^(snr_db/10) overflows a float above about 3080 dB;
    only there is ln(1 + s) taken as ln s + ln(1 + 1/s).
    """
    tenth = snr_db / 10.0
    try:
        return math.log1p(10.0**tenth)
    except OverflowError:
        return tenth * math.log(10.0) + math.log1p(10.0**-tenth)


def _cycles(device: DeviceProfile, n_samples: int, epochs: int) -> float:
    """CPU cycles of local training: epochs * samples * cycles-per-sample."""
    if n_samples < 0 or epochs < 1:
        raise ValueError("need n_samples >= 0 and epochs >= 1")
    return epochs * n_samples * device.cpu_cycles_per_sample


def compute_time(device: DeviceProfile, n_samples: int, epochs: int) -> float:
    """Seconds of local training: epochs * samples * cycles-per-sample / f."""
    return _cycles(device, n_samples, epochs) / device.cpu_freq


def expected_completion_time(
    device: DeviceProfile, cfg: NetworkConfig, bandwidth: float, epochs: int
) -> float:
    """Compute time plus upload time at the given bandwidth."""
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    rate = channel_rate(device.channel, bandwidth)
    if rate <= 0.0:
        raise UnreachableDeviceError(f"device {device.id} rate underflowed at snr {device.channel.snr_db} dB")
    return compute_time(device, device.dataset.n_samples, epochs) + cfg.model_size_bits / rate


def allocate_bandwidth(selected: list, cfg: NetworkConfig, epochs: int) -> dict:
    """Split the band across the selected devices.

    ``equal`` gives every device total_bandwidth / n.  ``equalize_completion``
    solves, by bisection on the common finish time T, for the shares that let
    every device end together: b_k = bits / (s_k * (T - compute_k)) with
    bits the model size and s_k the spectral efficiency, the rate of one
    hertz (``channel_rate(channel, 1.0)``).  A device whose
    spectral efficiency underflows to zero cannot finish under any finite T,
    so it raises ``UnreachableDeviceError``, as ``expected_completion_time``
    does (``filter_eligible`` drops such a device).

    Shares always sum to the total bandwidth, so an id may appear only once:
    a repeated one raises ``ValidationError("duplicate_device")``.
    """
    if not selected:
        raise NoParticipantsError("no devices to allocate bandwidth to")
    band = cfg.total_bandwidth
    equal_share = band / len(selected)
    shares = {d.id: equal_share for d in selected}
    if len(shares) != len(selected):
        raise ValidationError("duplicate_device", f"{len(selected) - len(shares)} repeated ids")
    if cfg.allocation_strategy == "equal":
        return shares

    bits = cfg.model_size_bits
    eff = [channel_rate(d.channel, 1.0) for d in selected]
    for d, e in zip(selected, eff):
        if e <= 0.0:
            raise UnreachableDeviceError(f"device {d.id} rate underflowed at snr {d.channel.snr_db} dB")
    comp = [compute_time(d, d.dataset.n_samples, epochs) for d in selected]
    terms = list(zip(eff, comp))

    def demand(t: float) -> float:
        total = 0.0  # left to right, as left_sum adds, without a generator per call
        for e, c in terms:
            total += bits / (e * (t - c))
        return total

    lo = max(comp)
    hi = max(c + bits / (e * equal_share) for e, c in terms)
    for _ in range(_BISECTION_ITERS):
        mid = 0.5 * (lo + hi)
        # a step that leaves (lo, hi) as it was is a fixed point: every later step repeats it
        if demand(mid) > band:
            if mid == lo:
                break
            lo = mid
        else:
            if mid == hi:
                break
            hi = mid
    raw = [bits / (e * (hi - c)) for e, c in terms]
    scale = band / left_sum(raw)
    return {d.id: share * scale for d, share in zip(selected, raw)}


def energy_compute(device: DeviceProfile, n_samples: int, epochs: int) -> float:
    """Joules burned by local training: cycles times energy per cycle."""
    return _cycles(device, n_samples, epochs) * device.energy_per_cycle


def energy_transmit(device: DeviceProfile, comm_time: float) -> float:
    """Joules burned by the uplink: transmit power times airtime."""
    if comm_time < 0:
        raise ValueError("comm_time must be nonnegative")
    return device.tx_power * comm_time


@functools.lru_cache(maxsize=8)
def _channel_normals(master_seed: int, round_index: int, block: int) -> tuple:
    """The standard normals of one block of device ids in one round, as Python floats."""
    rng = seeding.substream(master_seed, seeding.CHANNEL, round_index, block)
    return tuple(rng.standard_normal(_CHANNEL_BLOCK).tolist())


def resample_channel(
    channel: ChannelState, master_seed: int, device_id: int, round_index: int
) -> ChannelState:
    """New SNR draw for (device, round); a pure function of its arguments.

    SNR in dB is normal around the device's mean, i.e. lognormal in linear
    SNR.  The standard normal is element ``device_id % 256`` of one draw of
    256 from the ``(CHANNEL, round_index, device_id // 256)`` substream.  A
    cache of the last 8 blocks lets a round that walks its devices in id
    order draw each block once; no draw depends on the cache or on the fleet
    size.

    The new channel is built as ``domain._trusted_channel`` builds one,
    written out: a call per device per round costs more than its three slot
    writes.
    """
    mean, std = channel.mean_snr_db, channel.std_snr_db
    if not std >= 0:  # a constructed ChannelState passed this; one set past its check has not
        raise ValidationError("negative_snr_std", f"{std}")
    z = _channel_normals(master_seed, round_index, device_id // _CHANNEL_BLOCK)[device_id % _CHANNEL_BLOCK]
    faded = _bare(ChannelState)
    _set_snr(faded, float(mean + std * z))
    _set_mean_snr(faded, mean)
    _set_std_snr(faded, std)
    return faded
