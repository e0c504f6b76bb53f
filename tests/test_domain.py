"""Value-object construction and invariant validation."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from feelsim.diversity import DissimilarityMetric, DiversityConfig
from feelsim.domain import (
    ChannelState,
    DatasetProfile,
    DeviceReport,
    LocalDataset,
    ModelParams,
    RoundRecord,
    ScheduleDecision,
)
from feelsim.engine import SimulationResult, SimulationState
from feelsim.errors import ValidationError
from feelsim.scheduler import ConstraintConfig

from conftest import make_device


def test_value_types_are_immutable():
    # DeviceProfile is the one mutable type: the engine evolves it in place
    dev = make_device()
    with pytest.raises(ValueError):
        dev.dataset.features[0, 0] = 99.0  # arrays are read-only
    values = [
        (dev.channel, "snr_db"),
        (DatasetProfile(uncertainty=0.5, diversity_index=0.3), "diversity_index"),
        (DeviceReport(device_id=0, diversity_index=0.3, battery_level=0.5), "battery_level"),
        (ScheduleDecision((0,), {0: 1.0}, round_valid=True), "selected"),
        (RoundRecord(0, 1.0, 2.0, (0,), 0.5, 1.0, 1.0), "total_energy_j"),
    ]
    for value, name in values:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)


def test_abort_is_read_off_the_participants():
    aborted = RoundRecord(0, 0.0, 0.0, (), 0.5, 1.0, 1.0)
    completed = RoundRecord(1, 1.0, 2.0, (0,), 0.5, 1.0, 1.0)
    assert aborted.aborted is True and completed.aborted is False
    result = SimulationResult(rounds=(aborted, completed), final_model=ModelParams(np.zeros(2)), rounds_to_target=None)
    assert result.aborted_rounds == 1


def test_derived_facts_cannot_be_set():
    features, labels = np.zeros((4, 2)), np.array([0, 1, 0, 1])
    constructors = [
        lambda: RoundRecord(0, 0.0, 0.0, (), 0.5, 1.0, 1.0, aborted=False),
        lambda: SimulationResult(rounds=(), final_model=ModelParams(np.zeros(2)), rounds_to_target=None, aborted_rounds=0),
        lambda: LocalDataset("classification", features, labels, n_samples=4),
        lambda: DatasetProfile(richness=4, uncertainty=0.5, diversity_index=0.3),
        lambda: ModelParams(np.zeros(2), round=1, source="server"),
    ]
    for construct in constructors:
        with pytest.raises(TypeError):
            construct()
    state = SimulationState(None, {}, ModelParams(np.zeros(2)), None, None, {})
    assert state.round == 0
    with pytest.raises(AttributeError):
        state.round = 3


@pytest.mark.parametrize(
    "build",
    [
        lambda: DiversityConfig(uncertainty_cap=math.inf),
        lambda: DiversityConfig(tolerance_scale=math.inf),
        lambda: DissimilarityMetric("heat_kernel", sigma=math.inf),
        lambda: ConstraintConfig(completion_threshold=math.nan),
        lambda: ConstraintConfig(min_snr_db=math.nan),
    ],
    ids=["uncertainty_cap", "tolerance_scale", "sigma", "nan_completion_threshold", "nan_min_snr_db"],
)
def test_config_floats_must_be_finite(build):
    # inf and nan pass a <= 0 check; only the two unbounded constraints may be infinite, and never nan
    with pytest.raises(ValidationError) as err:
        build()
    assert err.value.code == "not_finite"


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
