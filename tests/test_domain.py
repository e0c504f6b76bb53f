"""Value-object construction and invariant validation."""

from __future__ import annotations

import copy
import dataclasses
import functools
import math
import operator
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from feelsim.diversity import DissimilarityMetric, DiversityConfig
from feelsim.domain import (
    ChannelState,
    DatasetProfile,
    DeviceReport,
    LocalDataset,
    ModelParams,
    RoundRecord,
    ScheduleDecision,
    left_sum,
)
from feelsim.engine import SimulationResult, SimulationState
from feelsim.errors import ValidationError
from feelsim.scheduler import ConstraintConfig

from conftest import make_device


def _record(round_index, times, energy):
    return RoundRecord(
        round=round_index,
        participants=tuple(sorted(times)),
        global_accuracy=0.5,
        global_loss=1.0,
        jain_fairness=1.0,
        device_times=times,
        device_energy=energy,
    )


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
        (_record(0, {0: 1.0}, {0: 2.0}), "participants"),
    ]
    for value, name in values:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)


def test_dataset_profile_is_a_frozen_slots_value_that_round_trips():
    # a fleet holds one per device, so it has slots and no __dict__
    built = DatasetProfile(uncertainty=0.5, diversity_index=0.25)
    assert not hasattr(built, "__dict__")
    for copied in (pickle.loads(pickle.dumps(built)), copy.deepcopy(built), dataclasses.replace(built)):
        assert (type(copied), copied, hash(copied), repr(copied)) == (DatasetProfile, built, hash(built), repr(built))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(built, "diversity_index", 1.0)


def test_abort_is_read_off_the_participants():
    aborted = _record(0, {}, {})
    completed = _record(1, {0: 1.0, 3: 0.25}, {0: 2.0, 3: 0.5})
    assert aborted.aborted is True and completed.aborted is False
    # duration and energy are read off the per-device ledgers
    assert (aborted.duration_s, aborted.total_energy_j) == (0.0, 0)
    assert (completed.duration_s, completed.total_energy_j) == (1.0, 2.5)
    result = SimulationResult(rounds=(aborted, completed), final_model=ModelParams(np.zeros(2)), rounds_to_target=None)
    assert result.aborted_rounds == 1


def test_derived_facts_cannot_be_set():
    features, labels = np.zeros((4, 2)), np.array([0, 1, 0, 1])
    record = vars(_record(0, {}, {}))
    constructors = [
        lambda: RoundRecord(**record, aborted=False),
        lambda: RoundRecord(**record, duration_s=0.0),
        lambda: RoundRecord(**record, total_energy_j=0.0),
        lambda: SimulationResult(rounds=(), final_model=ModelParams(np.zeros(2)), rounds_to_target=None, aborted_rounds=0),
        lambda: LocalDataset("classification", features, labels, n_samples=4),
        lambda: DatasetProfile(richness=4, uncertainty=0.5, diversity_index=0.3),
        lambda: ModelParams(np.zeros(2), round=1, source="server"),
    ]
    for construct in constructors:
        with pytest.raises(TypeError):
            construct()
    state = SimulationState(None, {}, ModelParams(np.zeros(2)), None, {})
    assert state.round == 0
    with pytest.raises(AttributeError):
        state.round = 3


@pytest.mark.parametrize(
    "build",
    [
        lambda: DiversityConfig(tolerance_scale=math.inf),
        lambda: DissimilarityMetric("heat_kernel", sigma=math.inf),
        lambda: ConstraintConfig(completion_threshold=math.nan),
        lambda: ConstraintConfig(min_snr_db=math.nan),
    ],
    ids=["tolerance_scale", "sigma", "nan_completion_threshold", "nan_min_snr_db"],
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


@pytest.mark.parametrize(
    "features, labels, code",
    [
        (np.zeros((3, 2)), np.array([0, -1, 1]), "negative_label"),
        (np.zeros(3), np.array([0, 1, 1]), "features_not_matrix"),
    ],
)
def test_local_dataset_checks_what_it_is_given(features, labels, code):
    # label_length_mismatch: test_local_dataset_rejects_label_mismatch
    with pytest.raises(ValidationError) as err:
        LocalDataset("classification", features, labels)
    assert err.value.code == code


def test_local_dataset_copies_what_it_is_given():
    features, labels = np.zeros((3, 2)), np.array([0, 1, 1])
    ds = LocalDataset("classification", features, labels)
    features[0, 0], labels[0] = 5.0, 2
    assert ds.features[0, 0] == 0.0 and ds.labels[0] == 0
    for arr in (ds.features, ds.labels):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


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


@pytest.mark.parametrize(
    "fields",
    [(math.nan, 0.0, 1.0), (0.0, math.nan, 1.0), (0.0, 0.0, math.nan), (0.0, 0.0, math.inf)],
    ids=["nan_snr", "nan_mean", "nan_std", "inf_std"],
)
def test_channel_state_refuses_nan_and_an_infinite_std(fields):
    # a NaN SNR passed filter_eligible's floor (nan < min_snr_db is False) and
    # made equalize_completion's shares NaN, which failed _top_k's assert; an
    # infinite std fades to inf - inf
    with pytest.raises(ValidationError, match="not_finite"):
        ChannelState(*fields)


def test_channel_state_keeps_an_infinite_snr_and_mean():
    assert ChannelState(math.inf, -math.inf, 0.0).snr_db == math.inf
    with pytest.raises(ValidationError, match="negative_snr_std"):
        ChannelState(0.0, 0.0, -math.inf)


def test_device_report_carries_exactly_one_scalar_and_battery():
    names = [f.name for f in dataclasses.fields(DeviceReport)]
    assert names == ["device_id", "diversity_index", "battery_level"]


def test_left_sum_adds_left_to_right_without_compensation():
    # Python 3.12's sum() gives 6.0 here: it carries each 1.0 that 1e16 absorbs
    assert left_sum([1e16, 1.0, -1e16, 1.0] * 3) == 1.0
    assert left_sum([]) == 0 and isinstance(left_sum([]), int)
    assert math.copysign(1.0, left_sum([-0.0])) == 1.0  # 0 + -0.0, as sum() starts


@given(st.lists(st.floats(allow_nan=False), max_size=30))
def test_left_sum_is_the_left_fold_of_addition(values):
    want = functools.reduce(operator.add, values, 0)
    got = left_sum(iter(values))
    assert type(got) is type(want) and float(got).hex() == float(want).hex()
