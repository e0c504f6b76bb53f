"""Value-object construction and invariant validation."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from feelsim.domain import (
    ChannelState,
    DatasetProfile,
    DeviceReport,
    LocalDataset,
    ModelParams,
    RoundRecord,
    ScheduleDecision,
    validate_profile,
)
from feelsim.errors import ValidationError

from conftest import make_device


def test_validate_profile_ok():
    assert validate_profile(make_device(battery=0.5, cpu_freq=1e9)) is None


def test_validate_profile_battery_out_of_range():
    with pytest.raises(ValidationError) as err:
        validate_profile(make_device(battery=1.2))
    assert err.value.code == "battery_out_of_range"


def test_validate_profile_nonpositive_frequency():
    with pytest.raises(ValidationError) as err:
        validate_profile(make_device(cpu_freq=0.0))
    assert err.value.code == "nonpositive_frequency"


def test_validate_profile_reports_first_violation():
    # battery is checked before frequency
    with pytest.raises(ValidationError) as err:
        validate_profile(make_device(battery=-0.1, cpu_freq=-1.0))
    assert err.value.code == "battery_out_of_range"


def test_value_types_are_immutable():
    # DeviceProfile is the one mutable type: the engine evolves it in place
    dev = make_device()
    with pytest.raises(ValueError):
        dev.dataset.features[0, 0] = 99.0  # arrays are read-only
    values = [
        (dev.channel, "snr_db"),
        (DatasetProfile(richness=2, uncertainty=0.5, diversity_index=0.3), "diversity_index"),
        (DeviceReport(device_id=0, diversity_index=0.3, battery_level=0.5), "battery_level"),
        (ScheduleDecision((0,), {0: 1.0}, round_valid=True), "selected"),
        (RoundRecord(0, 1.0, 2.0, (0,), 0.5, 1.0, 1.0), "total_energy_j"),
    ]
    for value, name in values:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)


def test_local_dataset_counts_rows():
    ds = LocalDataset("classification", np.zeros((4, 2)), np.array([0, 1, 0, 1]))
    assert ds.n_samples == 4
    assert list(ds.class_counts(3)) == [2, 2, 0]


def test_local_dataset_rejects_label_mismatch():
    with pytest.raises(ValidationError) as err:
        LocalDataset("classification", np.zeros((4, 2)), np.array([0, 1]))
    assert err.value.code == "label_length_mismatch"


def test_local_dataset_requires_labels_only_for_classification():
    with pytest.raises(ValidationError):
        LocalDataset("classification", np.zeros((4, 2)))
    with pytest.raises(ValidationError):
        LocalDataset("timeseries", np.zeros((40, 1)), np.zeros(40, dtype=int))
    LocalDataset("timeseries", np.zeros((40, 1)))  # fine without labels


def test_model_params_flat_vector_only():
    ModelParams(np.zeros(6))
    with pytest.raises(ValidationError):
        ModelParams(np.zeros((2, 3)))


def test_channel_state_rejects_negative_std():
    with pytest.raises(ValidationError):
        ChannelState(snr_db=0.0, mean_snr_db=0.0, std_snr_db=-1.0)


def test_device_report_carries_exactly_one_scalar_and_battery():
    names = [f.name for f in dataclasses.fields(DeviceReport)]
    assert names == ["device_id", "diversity_index", "battery_level"]
