from __future__ import annotations

import numpy as np
import pytest

from feelsim.domain import ChannelState, DeviceProfile, LocalDataset

pytest_plugins = ["pytester"]


def make_device(
    device_id: int = 0,
    snr_db: float = 10.0,
    n_samples: int = 50,
    battery: float = 0.9,
    cpu_freq: float = 1e9,
    cycles: float = 1e6,
    tx_power: float = 0.5,
    capacity: float = 200.0,
    std_snr_db: float = 2.0,
    participation_count: int = 0,
    last_round=None,
    n_classes: int = 4,
    seed: int = 0,
) -> DeviceProfile:
    rng = np.random.default_rng(seed + device_id)
    features = rng.standard_normal((n_samples, 4))
    labels = rng.integers(0, n_classes, size=n_samples)
    dataset = LocalDataset("classification", features, labels)
    return DeviceProfile(
        id=device_id,
        cpu_cycles_per_sample=cycles,
        cpu_freq=cpu_freq,
        battery_level=battery,
        tx_power=tx_power,
        energy_per_cycle=1e-9,
        capacity_joules=capacity,
        channel=ChannelState(snr_db=snr_db, mean_snr_db=snr_db, std_snr_db=std_snr_db),
        dataset=dataset,
        participation_count=participation_count,
        last_participation_round=last_round,
    )


@pytest.fixture
def toy_classification() -> LocalDataset:
    rng = np.random.default_rng(7)
    features = rng.standard_normal((30, 3))
    labels = rng.integers(0, 3, size=30)
    return LocalDataset("classification", features, labels)


# One human-readable verdict line per acceptance criterion, echoed at the end
# of the pytest run so they are visible without -s.
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
