"""feelsim benchmark: host time per simulation, end to end and per layer.

    python3 perfbench/run.py --workload post_fleet --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``feelsim`` from
``src/``.  One run builds the workload from ``--seed``, times
``engine.build_state`` as set-up, runs one untimed warm-up unit, then runs
units of work for ``--seconds`` seconds.  Every unit's records are
sanity-checked and digested; a unit fails if it raises, fails a check, or
its digest differs from the warm-up unit's.

Every timing is scaled by a calibration kernel timed just before and just
after it (see calibration.py), which cancels the drift of a shared host; the
unscaled host seconds are printed as well.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced units and reports the per-layer metrics of the traced
ones, per unit, plus the tracing overhead.  Human-readable lines come
first; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools are sized when numpy loads; a second OpenBLAS thread on
# a small machine makes identical runs differ by up to a third.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "feelsim" / "__init__.py").is_file():
    sys.exit(f"error: no feelsim sources under {SRC}; run from a feelsim checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import layers  # noqa: E402
import records  # noqa: E402
import workloads  # noqa: E402
from feelsim import engine  # noqa: E402

SETUP_REPS = 7
# Each set-up timing repeats build_state for at least this long, so that a
# set-up of a few milliseconds is not lost in the host's jitter.
SETUP_BATCH_S = 0.2
MIN_UNITS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "device_rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics, per unit of work (median over the traced units).
PER_LAYER = {
    "learning.local_train.calls": "count",
    "learning.local_train.busy_s": "s",
    "learning.loss_and_grad.calls": "count",
    "learning.loss_and_grad.busy_s": "s",
    "learning.loss_and_grad.us_per_call": "us",
    "learning.loss_and_grad.gflop": "GFLOP_computed",
    "learning.evaluate.busy_s": "s",
    "learning.aggregate.busy_s": "s",
    "diversity.model_index.calls": "count",
    "diversity.model_index.busy_s": "s",
    "diversity.outlier_ceiling.busy_s": "s",
    "diversity.dataset_index.busy_s": "s",
    "network.resample_channel.calls": "count",
    "network.resample_channel.busy_s": "s",
    "seeding.substream.calls": "count",
    "seeding.substream.busy_s": "s",
    "seeding.derive_seed.calls": "count",
    "network.allocate_bandwidth.calls": "count",
    "network.allocate_bandwidth.busy_s": "s",
    "network.allocate_bandwidth.us_per_call": "us",
    "network.expected_completion_time.calls": "count",
    "scheduler.filter_eligible.busy_s": "s",
    "scheduler.eligible_ratio": "ratio",
    "scheduler.schedule.busy_s": "s",
    "engine.round.calls": "count",
    "engine.round.self_s": "s",
    "engine.build_state.self_s": "s",
    "engine.upload_ratio": "ratio",
    "engine.aborted_rounds": "count",
    "datagen.make_classification_pool.busy_s": "s",
    "datagen.partition.busy_s": "s",
    "datagen.make_fleet.busy_s": "s",
    "config_io.load_config.busy_s": "s",
    "cli.run_experiment.self_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.absent_names": "count",
}


@dataclass
class Unit:
    elapsed: float  # host seconds
    calibration_s: float  # the calibration kernel's duration just before the unit
    trainings: int
    digest: str
    problems: list
    tracer: layers.Tracer = None
    scale: float = 1.0  # set once the kernel's duration just after is known


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(unit: Unit) -> dict:
    """The per-layer metrics of one traced unit (trace.* are filled in later)."""
    t, scale = unit.tracer, unit.scale
    values = {}
    for name in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = float(t.calls[span])
        elif kind == "busy_s":
            values[name] = scale * t.busy[span]
        elif kind == "self_s":
            values[name] = scale * t.self_time(span)
        elif kind == "us_per_call":
            values[name] = scale * 1e6 * _ratio(t.busy[span], t.calls[span])
    values["learning.loss_and_grad.gflop"] = t.counters["learning.loss_and_grad.flop"] / 1e9
    values["scheduler.eligible_ratio"] = _ratio(t.counters["scheduler.eligible"], t.counters["scheduler.offered"])
    values["engine.upload_ratio"] = _ratio(t.counters["learning.aggregated"], t.calls["learning.local_train"])
    values["engine.aborted_rounds"] = t.counters["engine.aborted_rounds"]
    values["trace.absent_names"] = float(len(t.absent))
    return values


def stress_checks(name: str, v: dict) -> list:
    """(finding, holds) for what each workload was chosen to stress."""
    cli_calls = v["config_io.load_config.busy_s"] + v["cli.run_experiment.self_s"] > 0
    checks = [(f"config_io/cli spans present: {cli_calls}", cli_calls == (name == "policy_sweep"))]
    if name == "post_fleet":
        spans = [k for k in v if k.endswith(("busy_s", "self_s")) and not k.startswith("trace.")]
        top = max(spans, key=v.get)
        checks.append((f"largest span is {top}", top == "learning.local_train.busy_s"))
    if name == "pre_fleet":
        channel = v["network.resample_channel.busy_s"] + v["engine.round.self_s"]
        learning = v["learning.local_train.busy_s"] + v["learning.evaluate.busy_s"] + v["learning.aggregate.busy_s"]
        checks.append((f"resample_channel + round self {channel:.4f} s vs learning {learning:.4f} s", channel > learning))
    return checks


def run_unit(wl: workloads.Workload, trace: bool) -> Unit:
    """One unit of work, timed, checked and digested."""
    tracer = layers.Tracer() if trace else None
    gc.collect()
    calibration_s = calibration.duration()
    with tracer if trace else contextlib.nullcontext():
        start = perf_counter()
        try:
            results = wl.run_unit()
        except Exception as exc:  # a failing unit is counted, not fatal
            return Unit(perf_counter() - start, calibration_s, 0, "", [f"raised {exc!r}"], tracer)
        elapsed = perf_counter() - start
    trainings = sum(len(rec.device_energy) for result in results for rec in result.rounds)
    problems = records.sanity_errors(results, wl.k_per_round)
    return Unit(elapsed, calibration_s, trainings, records.digest(results), problems, tracer)


def _median_by_key(dicts: list) -> dict:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def environment_line() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = " ".join(f"{var}={os.environ[var]}" for var in THREAD_VARS)
    return (
        f"# env nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={np.__version__} "
        f"blas={blas.get('name', '?')}-{blas.get('version', '?')} {threads}"
    )


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns (human-readable lines, result object)."""
    lines = [environment_line()]
    out_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        wl = workloads.build(name, seed, out_dir, tiny)
        start = perf_counter()
        engine.build_state(wl.setup_cfg)
        batch = max(1, math.ceil(SETUP_BATCH_S / (perf_counter() - start)))
        setup_host, setup_calibration = [], [calibration.duration()]
        for _ in range(SETUP_REPS):
            gc.collect()
            start = perf_counter()
            for _ in range(batch):
                engine.build_state(wl.setup_cfg)
            setup_host.append((perf_counter() - start) / batch)
            setup_calibration.append(calibration.duration())

        warm = run_unit(wl, trace=False)
        units = [warm]
        deadline = perf_counter() + seconds
        while perf_counter() < deadline or len(units) <= MIN_UNITS * (2 if trace else 1):
            units.append(run_unit(wl, trace=trace and len(units) % 2 == 0))
        closing_calibration = calibration.duration()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    # scale each timing by the calibrations just before and just after it
    setup = [t * calibration.scale(a, b) for t, a, b in zip(setup_host, setup_calibration, setup_calibration[1:])]
    for unit, after in zip(units, [u.calibration_s for u in units[1:]] + [closing_calibration]):
        unit.scale = calibration.scale(unit.calibration_s, after)

    failed = 0
    for i, unit in enumerate(units):
        if unit.digest != warm.digest:
            unit.problems.append(f"digest {unit.digest[:12]} != warm-up digest {warm.digest[:12]}")
        if unit.problems:
            failed += 1
            lines.append(f"# unit {i} FAILED: {'; '.join(unit.problems[:3])}")

    untraced = [u for u in units[1:] if u.tracer is None]
    wall = [u.scale * u.elapsed for u in untraced]
    host = [u.elapsed for u in untraced]
    q1, _, q3 = statistics.quantiles(wall, n=4)
    e2e = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(wall),
        "device_rounds_per_s": statistics.median(_ratio(u.trainings, u.scale * u.elapsed) for u in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    fail_frac = failed / len(units)
    lines.append(f"# workload {name} seed {seed} trace {int(trace)}: {len(units)} units incl. 1 warm-up")
    lines.append(f"# digest {name} seed {seed} {warm.digest}")
    lines.append(f"# wall_s median {e2e['wall_s']:.6f} q1 {q1:.6f} q3 {q3:.6f} n {len(wall)}")
    lines.append(f"# setup_s median {e2e['setup_s']:.6f} of {SETUP_REPS} timings of {batch} calls each")
    lines.append(
        f"# unscaled host seconds: wall median {statistics.median(host):.6f} min {min(host):.6f} "
        f"max {max(host):.6f}, setup median {statistics.median(setup_host):.6f}, "
        f"calibration scale median {statistics.median(u.scale for u in units):.4f}"
    )
    for key, value in e2e.items():
        lines.append(f"metric {key} {value!r} {END_TO_END[key]}")
    lines.append(f"metric fail_frac {fail_frac!r} ratio")

    metrics = {key: (value, END_TO_END[key]) for key, value in e2e.items()}
    if trace:
        traced = [u for u in units if u.tracer is not None]
        layer = _median_by_key([layer_values(u) for u in traced])
        layer["trace.untraced_wall_s"] = e2e["wall_s"]
        layer["trace.traced_wall_s"] = statistics.median(u.scale * u.elapsed for u in traced)
        layer["trace.overhead_s"] = layer["trace.traced_wall_s"] - e2e["wall_s"]
        for missing in traced[0].tracer.absent:
            lines.append(f"# absent: {missing} (its spans read 0)")
        for finding, holds in stress_checks(name, layer):
            lines.append(f"# stress {name}: {finding}: {'confirmed' if holds else 'NOT confirmed'}")
        for key in PER_LAYER:
            lines.append(f"metric {key} {layer[key]!r} {PER_LAYER[key]}")
        metrics = {key: (layer[key], PER_LAYER[key]) for key in PER_LAYER}

    result = {
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    lines, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
