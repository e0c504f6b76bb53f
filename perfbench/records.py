"""Record digest and sanity checks over a unit's ``RoundRecord``s.

The digest is a sha256 over every record's fields in a fixed order, floats
written exactly with ``float.hex``.  A unit whose digest differs from the
warm-up unit's, or whose records fail a sanity check, counts as failed.  The
digest is printed, never compared with a pinned value: a change may alter
the numbers on purpose without having to edit the benchmark.
"""

from __future__ import annotations

import hashlib
import math


def _number(value) -> str:
    return float(value).hex() if isinstance(value, float) else repr(value)


def _mapping(values: dict) -> str:
    return ",".join(f"{key}:{_number(values[key])}" for key in sorted(values))


def record_line(rec) -> str:
    """One record's fields in a fixed order, every float written exactly."""
    return "|".join(
        (
            str(rec.round),
            _number(rec.duration_s),
            _number(rec.total_energy_j),
            ",".join(map(str, rec.participants)),
            _number(rec.global_accuracy),
            _number(rec.global_loss),
            _number(rec.jain_fairness),
            str(bool(rec.aborted)),
            _mapping(rec.device_times),
            _mapping(rec.device_energy),
        )
    )


def digest(results) -> str:
    """sha256 over the records of every result, in order."""
    h = hashlib.sha256()
    for run, result in enumerate(results):
        h.update(f"run {run}\n".encode())
        for rec in result.rounds:
            h.update(record_line(rec).encode())
            h.update(b"\n")
    return h.hexdigest()


def sanity_errors(results, k_per_round: int) -> list:
    """Every violated sanity condition, as readable strings."""
    errors = []
    for run, result in enumerate(results):
        for rec in result.rounds:
            where = f"run {run} round {rec.round}"
            if not (math.isfinite(rec.global_accuracy) and math.isfinite(rec.global_loss)):
                errors.append(f"{where}: non-finite accuracy or loss")
            elif not 0.0 <= rec.global_accuracy <= 1.0:
                errors.append(f"{where}: accuracy {rec.global_accuracy} outside [0, 1]")
            if not (rec.total_energy_j >= 0 and all(e >= 0 for e in rec.device_energy.values())):
                errors.append(f"{where}: negative energy")
            if len(rec.participants) > k_per_round:
                errors.append(f"{where}: {len(rec.participants)} participants > k={k_per_round}")
            if not rec.aborted and rec.duration_s != max(rec.device_times.values(), default=math.nan):
                errors.append(f"{where}: duration {rec.duration_s} != slowest device time")
    return errors
