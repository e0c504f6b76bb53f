"""Strict sectioned key-value experiment configs.

Format: ``[section]`` headers, ``key = value`` lines, ``#`` or ``;``
comments.  Unknown sections or keys are hard errors that name the offending
line, so a typo cannot silently fall back to a default.

Each key sets one field of a config dataclass (see ``SCHEMA``), no field
has two keys, and a key is parsed by its field's type annotation.  A float
parses ``inf`` but not ``nan``; each dataclass then refuses ``inf`` in every
float field but ``completion_threshold`` and ``min_snr_db``
(``domain.require_finite``).  A key missing from the file keeps the
dataclass default; defaults live only there:

    [devices]      FleetSpec; a run partitions its pool over the fleet's
                   n_devices, so PartitionSpec's count has no key
    [data]         DataConfig, PartitionSpec, DiversityConfig (measure);
                   runs build classification data only, so the time-series
                   and clustering knobs of DiversityConfig are API-only
    [train]        TrainConfig, except its seed: every device and round
                   trains with its own seed
    [network]      NetworkConfig
    [constraints]  ConstraintConfig
    [scheduler]    SimulationConfig (k, aggregation, q, size_priority_inverse),
                   ScoreWeights, DiversityConfig (the model-diversity
                   weights, cap and percentile)
    [experiment]   ExperimentSpec (name, seeds, schedulers, output_dir),
                   SimulationConfig (rounds_max, target_accuracy); the
                   sweep runs every scheduler with every seed, each as the
                   policy and master seed of its run, so neither may repeat

The minimal valid file is just

    [experiment]
    name = demo
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from .datagen import FleetSpec
from .engine import POLICIES, SimulationConfig
from .errors import ConfigError, FeelsimError
from .network import NetworkConfig
from .scheduler import ConstraintConfig


@dataclass(frozen=True)
class ExperimentSpec:
    """A named batch of runs: one base config swept over schedulers x seeds."""

    name: str
    base: SimulationConfig
    schedulers: list[str] = field(default_factory=lambda: ["diversity_pre"])
    seeds: list[int] = field(default_factory=lambda: [0])
    output_dir: str = "results"

    def __post_init__(self):
        if not self.name:
            raise ConfigError("experiment name must be non-empty")
        if not self.schedulers or not self.seeds:
            raise ConfigError("need at least one scheduler and one seed")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be nonnegative, got {min(self.seeds)}")
        unknown = [s for s in self.schedulers if s not in POLICIES]
        if unknown:
            raise ConfigError(f"unknown scheduler {unknown[0]!r}; choose from {', '.join(POLICIES)}")
        for what, items in (("scheduler", self.schedulers), ("seed", self.seeds)):
            if len(set(items)) < len(items):
                raise ConfigError(f"repeated {what} in {', '.join(map(str, items))}")


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    if math.isnan(value):
        raise ValueError(f"not a number: {text!r}")
    return value


def _parse_opt_float(text: str) -> Optional[float]:
    if text.lower() in ("none", ""):
        return None
    return _parse_float(text)


def _list_parser(item):
    return lambda text: [item(part.strip()) for part in text.split(",") if part.strip()]


# field annotation -> parser of the value text
PARSERS = {
    int: int,
    float: _parse_float,
    str: str,
    bool: _parse_bool,
    Optional[float]: _parse_opt_float,
    list[int]: _list_parser(int),
    list[str]: _list_parser(str),
}


def _same_names(prefix: str, *names: str) -> dict:
    return {name: prefix + name for name in names}


# section -> key -> the field it sets, as a dotted path from ExperimentSpec
SCHEMA = {
    "devices": _same_names("base.fleet.", *(f.name for f in fields(FleetSpec))),
    "data": {
        **_same_names("base.data.", "n_classes", "dim", "samples_per_class", "class_sep", "test_fraction"),
        **_same_names("base.data.partition.", "skew", "alpha", "size_dist", "size_sigma", "power_exponent"),
        **_same_names("base.data.partition.", "min_size", "redundancy_factor"),
        "measure": "base.data.diversity.classification_measure",
    },
    "train": _same_names("base.train.", "epochs", "batch_size", "learning_rate", "l2_reg"),
    "network": _same_names("base.network.", *(f.name for f in fields(NetworkConfig))),
    "constraints": _same_names("base.constraints.", *(f.name for f in fields(ConstraintConfig))),
    "scheduler": {
        **_same_names("base.", "aggregation", "size_priority_inverse"),
        "k": "base.k_per_round",
        "q": "base.qffl_q",
        **_same_names("base.weights.", "w_diversity", "w_battery", "w_channel"),
        "w_model_dissimilarity": "base.data.diversity.model_dissimilarity_weight",
        "w_model_redundancy": "base.data.diversity.model_redundancy_weight",
        **_same_names("base.data.diversity.", "redundancy_cap", "outlier_percentile"),
    },
    "experiment": {
        **_same_names("", "name", "seeds", "schedulers", "output_dir"),
        **_same_names("base.", "rounds_max", "target_accuracy"),
    },
}


_type_hints = functools.cache(typing.get_type_hints)  # resolving them evaluates every annotation


def _annotation(path: str):
    """Type annotation of the field at a dotted path from ExperimentSpec."""
    hint = ExperimentSpec
    for name in path.split("."):
        hint = _type_hints(hint)[name]
    return hint


def _read_values(path: str) -> dict:
    """path -> {field path: parsed value} for every key the file sets.

    Structure errors and bad values name the offending line.
    """
    values: dict = {}
    section = None
    with open(path, "r", encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith(("#", ";")):
                continue
            if stripped.startswith("[") and stripped.endswith("]"):
                section = stripped[1:-1].strip()
                if section not in SCHEMA:
                    raise ConfigError(f"{path}:{line_no}: unknown section [{section}]")
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {stripped!r}")
            if section is None:
                raise ConfigError(f"{path}:{line_no}: key outside any [section]")
            key, _, text = stripped.partition("=")
            key = key.strip()
            if key not in SCHEMA[section]:
                raise ConfigError(f"{path}:{line_no}: unknown key '{key}' in [{section}]")
            target = SCHEMA[section][key]
            if target in values:
                raise ConfigError(f"{path}:{line_no}: duplicate key '{key}' in [{section}]")
            try:
                values[target] = PARSERS[_annotation(target)](text.strip())
            except ValueError as exc:
                raise ConfigError(f"{path}:{line_no}: bad value for '{key}': {exc}") from exc
    return values


def _with_values(obj, values: dict, prefix: str):
    """``obj`` with every field that ``values`` sets under ``prefix`` replaced."""
    changes = {}
    for f in fields(obj):
        path = prefix + f.name
        if path in values:
            changes[f.name] = values[path]
        elif any(key.startswith(path + ".") for key in values):
            changes[f.name] = _with_values(getattr(obj, f.name), values, path + ".")
    return replace(obj, **changes)


def load_config(path: str) -> ExperimentSpec:
    """Parse and validate a config file into an ExperimentSpec."""
    values = _read_values(path)
    if "name" not in values:
        raise ConfigError(f"{path}: missing required key 'name' in [experiment]")
    try:
        base = _with_values(SimulationConfig(), values, "base.")
    except FeelsimError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return ExperimentSpec(base=base, **{key: value for key, value in values.items() if "." not in key})

