"""Core value types shared by every other module.

Every type but DeviceProfile is frozen; arrays are copied on construction and
marked read-only, so instances are shared across rounds without copying.  The
engine updates a DeviceProfile's ``battery_level``, ``channel``,
``participation_count`` and ``last_participation_round`` in place.  Each fact
is stored once: a dataset's sample count is read off its features, and a
round record is aborted exactly when it has no participants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ValidationError

TASK_KINDS = ("classification", "timeseries", "clustering")


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


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
    for name, value in vars(config).items():
        if isinstance(value, float) and not math.isfinite(value) and (name not in unbounded or math.isnan(value)):
            raise ValidationError("not_finite", f"{name} = {value}")


@dataclass(frozen=True, eq=False)
class LocalDataset:
    """A device-local dataset: feature rows plus labels for classification."""

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

    def class_counts(self, n_classes: int) -> np.ndarray:
        """Histogram of labels over ``n_classes`` bins (classification only)."""
        if self.labels is None:
            raise ValidationError("missing_labels")
        return np.bincount(self.labels, minlength=n_classes)


@dataclass(frozen=True)
class ChannelState:
    """Per-device channel: current SNR plus the distribution it is drawn from."""

    snr_db: float
    mean_snr_db: float
    std_snr_db: float

    def __post_init__(self):
        if self.std_snr_db < 0:
            raise ValidationError("negative_snr_std")


@dataclass
class DeviceProfile:
    """Static capabilities and evolving state of one edge device."""

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


@dataclass(frozen=True)
class DatasetProfile:
    """Device-side summary of a local dataset: its uncertainty and the diversity index built from it."""

    uncertainty: float
    diversity_index: float


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
    duration_s: float
    total_energy_j: float
    participants: tuple
    global_accuracy: float
    global_loss: float
    jain_fairness: float
    device_times: dict = field(default_factory=dict)
    device_energy: dict = field(default_factory=dict)

    @property
    def aborted(self) -> bool:
        """A round aborts when no device uploads."""
        return not self.participants

