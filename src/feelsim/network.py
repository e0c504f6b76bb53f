"""Channel, timing, energy, and bandwidth-allocation models.

Uplink rate follows the Shannon capacity of the allocated band; local compute
time is cycle-accurate in expectation (epochs * samples * cycles / frequency).
A round lasts as long as its slowest participant, which is why bandwidth
allocation offers, besides an equal split, a completion-equalizing mode that
solves for the common finish time by bisection and hands wide sub-bands to
the devices that would otherwise straggle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import seeding
from .domain import ChannelState, DeviceProfile, require_finite
from .errors import NoParticipantsError, UnreachableDeviceError, ValidationError

ALLOCATION_STRATEGIES = ("equal", "equalize_completion")

_BISECTION_ITERS = 60


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
    # not bandwidth * _spectral_efficiency(channel): that rounds differently
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


def _spectral_efficiency(channel: ChannelState) -> float:
    return _log1p_snr(channel.snr_db) / math.log(2.0)


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
    bits the model size and s_k the spectral efficiency.  A device whose
    spectral efficiency underflows to zero cannot finish under any finite T;
    it falls back to the equal share and the remaining band is equalized
    among the rest.

    Shares always sum to the total bandwidth.
    """
    if not selected:
        raise NoParticipantsError("no devices to allocate bandwidth to")
    n = len(selected)
    band = cfg.total_bandwidth
    equal_share = band / n
    if cfg.allocation_strategy == "equal":
        return {d.id: equal_share for d in selected}

    bits = cfg.model_size_bits
    eff = {d.id: _spectral_efficiency(d.channel) for d in selected}
    solvable = [d for d in selected if eff[d.id] > 0.0]
    fallback = [d for d in selected if eff[d.id] <= 0.0]
    shares = {d.id: equal_share for d in fallback}
    remaining = band - equal_share * len(fallback)
    if not solvable:
        return shares

    comp = {d.id: compute_time(d, d.dataset.n_samples, epochs) for d in solvable}

    def demand(t: float) -> float:
        return sum(bits / (eff[d.id] * (t - comp[d.id])) for d in solvable)

    lo = max(comp.values())
    per_dev = remaining / len(solvable)
    hi = max(comp[d.id] + bits / (eff[d.id] * per_dev) for d in solvable)
    for _ in range(_BISECTION_ITERS):
        mid = 0.5 * (lo + hi)
        if demand(mid) > remaining:
            lo = mid
        else:
            hi = mid
    raw = {d.id: bits / (eff[d.id] * (hi - comp[d.id])) for d in solvable}
    scale = remaining / sum(raw.values())
    shares.update({did: share * scale for did, share in raw.items()})
    return shares


def energy_compute(device: DeviceProfile, n_samples: int, epochs: int) -> float:
    """Joules burned by local training: cycles times energy per cycle."""
    return _cycles(device, n_samples, epochs) * device.energy_per_cycle


def energy_transmit(device: DeviceProfile, comm_time: float) -> float:
    """Joules burned by the uplink: transmit power times airtime."""
    if comm_time < 0:
        raise ValueError("comm_time must be nonnegative")
    return device.tx_power * comm_time


def resample_channel(
    channel: ChannelState, master_seed: int, device_id: int, round_index: int
) -> ChannelState:
    """New SNR draw for (device, round); a pure function of its arguments.

    SNR in dB is normal around the device's mean, i.e. lognormal in linear
    SNR.
    """
    rng = seeding.substream(master_seed, seeding.CHANNEL, device_id, round_index)
    snr = channel.mean_snr_db + channel.std_snr_db * rng.standard_normal()
    return replace(channel, snr_db=float(snr))
