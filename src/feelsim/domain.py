"""Core value types shared by every other module.

Every type but DeviceProfile is frozen, and every array it holds is
read-only, so instances are shared across rounds without copying.  The public
constructors copy the arrays they are given.  The datasets that ``datagen``
and ``engine.build_state`` make from arrays they have just gathered take them
as they are: a fleet's datasets are views of row ranges of one read-only
array.  The engine updates a DeviceProfile's ``battery_level``, ``channel``,
``participation_count`` and ``last_participation_round`` in place.  Each fact
is stored once: a dataset's sample count is read off its features, a round
record is aborted exactly when it has no participants, and its duration and
energy are read off its per-device ledgers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import ValidationError

TASK_KINDS = ("classification", "timeseries", "clustering")


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def left_sum(values):
    """``sum(values)`` added one term at a time, left to right, from the int 0.

    This is how Python 3.11 and earlier add floats.  Python 3.12's ``sum``
    compensates their rounding, so a total that reaches a record or a CSV
    would change its bits with the interpreter.  No terms give the int 0, as
    ``sum`` does.
    """
    total = 0
    for value in values:
        total += value
    return total


def require_simplex(*weights: float) -> None:
    """Raise unless the weights are finite, nonnegative and sum to one."""
    if not all(math.isfinite(w) and w >= 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
        raise ValidationError("weights_not_simplex", f"{weights}")


def require_finite(config, *unbounded: str) -> None:
    """Raise unless every float field of a config dataclass is finite.

    ``inf`` and ``nan`` pass a ``<= 0`` range check, so this one rule refuses
    both, except ``inf`` in the fields named in ``unbounded``; ints and
    ``None`` are skipped.
    """
    for f in fields(config):
        name, value = f.name, getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value) and (name not in unbounded or math.isnan(value)):
            raise ValidationError("not_finite", f"{name} = {value}")


@dataclass(frozen=True, eq=False)
class LocalDataset:
    """A device-local dataset: feature rows plus labels for classification.

    ``LocalDataset(...)`` copies ``features`` and ``labels`` into read-only
    arrays and checks them.  ``LocalDataset._trusted_views`` is the one
    internal path that neither copies nor checks: the generated pool and the
    train/test split take it through ``_trusted``, and a partition's devices
    take it for their row ranges all at once.
    """

    task_kind: str
    features: np.ndarray
    labels: Optional[np.ndarray] = None
    n_samples: int = field(init=False)

    def __post_init__(self):
        if self.task_kind not in TASK_KINDS:
            raise ValidationError("unknown_task_kind", self.task_kind)
        feats = _frozen_array(self.features, float)
        if feats.ndim != 2:
            raise ValidationError("features_not_matrix", f"ndim={feats.ndim}")
        object.__setattr__(self, "features", feats)
        n = feats.shape[0]
        object.__setattr__(self, "n_samples", n)
        if self.task_kind == "classification":
            if self.labels is None:
                raise ValidationError("missing_labels")
            labels = _frozen_array(self.labels, np.int64)
            if labels.shape != (n,):
                raise ValidationError("label_length_mismatch")
            if n and labels.min() < 0:
                raise ValidationError("negative_label")
            object.__setattr__(self, "labels", labels)
        elif self.labels is not None:
            raise ValidationError("unexpected_labels", self.task_kind)

    @classmethod
    def _trusted(cls, features: np.ndarray, labels: np.ndarray) -> LocalDataset:
        """A classification dataset over arrays the caller owns, marked read-only, neither copied nor checked.

        ``features`` must be a float64 matrix and ``labels`` an int64 vector
        of as many rows, gathered from a dataset that has been checked (or
        made so by construction): no other reference may write to them.
        """
        return cls._trusted_views(features, labels, [features.shape[0]])[0]

    @classmethod
    def _trusted_views(cls, features: np.ndarray, labels: np.ndarray, ends: list) -> list:
        """Datasets over consecutive row ranges, the i-th ending at row ``ends[i]``, of arrays as ``_trusted`` takes them.

        Both arrays are marked read-only once, and each dataset holds views
        of its rows, which inherit the flag.
        """
        features.setflags(write=False)
        labels.setflags(write=False)
        new, datasets, start = object.__new__, [], 0
        for end in ends:
            dataset = new(cls)
            # the fields __post_init__ would set, written past the frozen __setattr__
            state = dataset.__dict__
            state["task_kind"] = "classification"
            state["features"] = features[start:end]
            state["labels"] = labels[start:end]
            state["n_samples"] = end - start
            datasets.append(dataset)
            start = end
        return datasets

    def class_counts(self, n_classes: int) -> np.ndarray:
        """Histogram of labels over ``n_classes`` bins (classification only)."""
        if self.labels is None:
            raise ValidationError("missing_labels")
        return np.bincount(self.labels, minlength=n_classes)


@dataclass(frozen=True, slots=True)
class ChannelState:
    """Per-device channel: current SNR plus the distribution it is drawn from.

    No field is NaN and the std is finite and nonnegative; the SNR and its
    mean may be infinite.  ``_trusted_channel`` is the one internal path
    that does not check: ``make_fleet`` takes it for the channels it draws
    from a checked ``FleetSpec``, and ``resample_channel`` for each round's
    fade.  A fleet holds one per device and a round makes one per device,
    so the fields are slots: an instance has no ``__dict__``.
    """

    snr_db: float
    mean_snr_db: float
    std_snr_db: float

    def __post_init__(self):
        if self.std_snr_db < 0:
            raise ValidationError("negative_snr_std")
        require_finite(self, "snr_db", "mean_snr_db")


# each field's slot setter, which writes past the frozen __setattr__
_set_snr, _set_mean_snr, _set_std_snr = (
    ChannelState.__dict__[name].__set__ for name in ("snr_db", "mean_snr_db", "std_snr_db")
)


def _trusted_channel(snr_db: float, mean_snr_db: float, std_snr_db: float) -> ChannelState:
    """A channel of fields the caller has checked, built past ``__init__`` and ``__post_init__``.

    A plain function, as a classmethod's lookup and binding would cost more
    than the three slot writes.
    """
    channel = object.__new__(ChannelState)
    _set_snr(channel, snr_db)
    _set_mean_snr(channel, mean_snr_db)
    _set_std_snr(channel, std_snr_db)
    return channel


@dataclass(slots=True)
class DeviceProfile:
    """Static capabilities and evolving state of one edge device.

    A fleet holds one per device, so the fields are slots.
    """

    id: int
    cpu_cycles_per_sample: float
    cpu_freq: float
    battery_level: float
    tx_power: float
    energy_per_cycle: float
    capacity_joules: float
    channel: ChannelState
    dataset: LocalDataset
    participation_count: int = 0
    last_participation_round: Optional[int] = None


@dataclass(frozen=True, eq=False)
class ModelParams:
    """A model's flat parameter vector, copied and read-only."""

    weights: np.ndarray

    def __post_init__(self):
        w = _frozen_array(self.weights, float)
        if w.ndim != 1:
            raise ValidationError("weights_not_vector", f"ndim={w.ndim}")
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True, slots=True)
class DatasetProfile:
    """Device-side summary of a local dataset: its uncertainty and the diversity index built from it.

    ``_trusted_dataset_profile`` builds one past ``__init__``: the diversity
    module makes one per device.
    """

    uncertainty: float
    diversity_index: float


_set_uncertainty, _set_dataset_index = (DatasetProfile.__dict__[name].__set__ for name in ("uncertainty", "diversity_index"))


def _trusted_dataset_profile(uncertainty: float, diversity_index: float) -> DatasetProfile:
    """A dataset profile built past ``__init__``, as ``_trusted_channel`` builds a channel."""
    profile = object.__new__(DatasetProfile)
    _set_uncertainty(profile, uncertainty)
    _set_dataset_index(profile, diversity_index)
    return profile


@dataclass(frozen=True)
class DeviceReport:
    """The only message a device sends the server before selection.

    Deliberately minimal: one scalar diversity index plus the battery level.
    Raw data, per-class counts, and sample statistics never cross this
    boundary.
    """

    device_id: int
    diversity_index: float
    battery_level: float


@dataclass(frozen=True)
class ScheduleDecision:
    """Outcome of one scheduling step."""

    selected: tuple
    bandwidth_share: dict
    round_valid: bool


@dataclass(frozen=True)
class RoundRecord:
    """Everything logged about one communication round."""

    round: int
    participants: tuple
    global_accuracy: float
    global_loss: float
    jain_fairness: float
    device_times: dict
    device_energy: dict

    @property
    def aborted(self) -> bool:
        """A round aborts when no device uploads."""
        return not self.participants

    @property
    def duration_s(self) -> float:
        """A round lasts as long as its slowest device."""
        return max(self.device_times.values(), default=0.0)

    @property
    def total_energy_j(self) -> float:
        """The energy every device paid this round, compute and upload."""
        return left_sum(self.device_energy.values())

