"""Command-line interface.

``feelsim run <config> [--out DIR] [--seeds 1,2,3] [--scheduler NAME ...]``
runs every scheduler x seed combination from the config, writes one
``rounds.csv`` per run plus a single ``summary.csv``, and prints a comparison
table.  The table's median rounds-to-target counts a run that missed the
target as ``rounds_max + 1`` and reads ``>rounds_max`` when that median lies
past the budget, or ``-`` when the config sets no ``target_accuracy``; with
an even number of seeds it is the upper of the two middle runs, so a tie
between reaching and missing reads as a miss rather than a round count no
run had.
``feelsim measures <csv> --task {classification,timeseries}`` computes the
diversity measures for an external dataset, by ``DiversityConfig``'s defaults.

Outputs are deterministic: rerunning the same config into a fresh directory
reproduces every CSV byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import logging
import statistics
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config_io import ExperimentSpec, load_config, spec_with_overrides
from .diversity import (
    DiversityConfig,
    approximate_entropy,
    dataset_diversity_index,
    entropy_tolerance,
    gini_simpson,
    shannon_entropy,
)
from .domain import LocalDataset
from .engine import SimulationConfig, run_simulation
from .errors import FeelsimError

logger = logging.getLogger(__name__)

ROUNDS_HEADER = ["round", "duration_s", "energy_j", "n_participants", "accuracy", "loss", "jain_fairness", "aborted"]
SUMMARY_HEADER = ["scheduler", "seed", "rounds_to_target", "total_time_s", "total_energy_j", "final_accuracy", "mean_jain"]


def _fmt(value) -> str:
    """Floats with 9 significant digits; everything else verbatim."""
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _write_rounds_csv(path: Path, result) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROUNDS_HEADER)
        for rec in result.rounds:
            writer.writerow(
                [
                    rec.round,
                    _fmt(rec.duration_s),
                    _fmt(rec.total_energy_j),
                    len(rec.participants),
                    _fmt(rec.global_accuracy),
                    _fmt(rec.global_loss),
                    _fmt(rec.jain_fairness),
                    int(rec.aborted),
                ]
            )


def run_experiment(spec: ExperimentSpec) -> int:
    """Run the whole sweep; returns 0 only if every run completed."""
    out_root = Path(spec.output_dir) / spec.name
    out_root.mkdir(parents=True, exist_ok=True)
    summary_rows = []
    failures = 0
    for scheduler in spec.schedulers:
        for seed in spec.seeds:
            cfg = replace(spec.base, policy=scheduler, master_seed=seed)
            try:
                result = run_simulation(cfg)
            except FeelsimError as exc:
                logger.error("run %s/seed %s failed: %s", scheduler, seed, exc)
                failures += 1
                continue
            run_dir = out_root / scheduler / f"seed_{seed}"
            run_dir.mkdir(parents=True, exist_ok=True)
            _write_rounds_csv(run_dir / "rounds.csv", result)
            records = result.rounds
            summary_rows.append(
                {
                    "scheduler": scheduler,
                    "seed": seed,
                    "rounds_to_target": result.rounds_to_target,
                    "total_time_s": sum(r.duration_s for r in records),
                    "total_energy_j": sum(r.total_energy_j for r in records),
                    "final_accuracy": records[-1].global_accuracy,
                    "mean_jain": sum(r.jain_fairness for r in records) / len(records),
                }
            )

    with open(out_root / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        for row in summary_rows:
            writer.writerow(
                [
                    row["scheduler"],
                    row["seed"],
                    "" if row["rounds_to_target"] is None else row["rounds_to_target"],
                    _fmt(row["total_time_s"]),
                    _fmt(row["total_energy_j"]),
                    _fmt(row["final_accuracy"]),
                    _fmt(row["mean_jain"]),
                ]
            )

    _print_comparison(spec, summary_rows)
    return 0 if failures == 0 else 1


def _print_comparison(spec: ExperimentSpec, rows: list) -> None:
    print(f"experiment '{spec.name}': {len(rows)} completed runs -> {Path(spec.output_dir) / spec.name}")
    header = f"{'scheduler':<16} {'median rounds':>14} {'mean final acc':>15} {'mean time [s]':>14} {'mean energy [J]':>16} {'mean jain':>10}"
    print(header)
    print("-" * len(header))
    for scheduler in spec.schedulers:
        mine = [r for r in rows if r["scheduler"] == scheduler]
        if not mine:
            print(f"{scheduler:<16} {'(all runs failed)':>14}")
            continue
        med = _median_rounds([r["rounds_to_target"] for r in mine], spec.base)
        acc = statistics.mean(r["final_accuracy"] for r in mine)
        t = statistics.mean(r["total_time_s"] for r in mine)
        e = statistics.mean(r["total_energy_j"] for r in mine)
        j = statistics.mean(r["mean_jain"] for r in mine)
        print(f"{scheduler:<16} {med:>14} {acc:>15.4f} {t:>14.2f} {e:>16.2f} {j:>10.4f}")


def _median_rounds(reached: list, cfg: SimulationConfig) -> str:
    """Upper median rounds-to-target; a run that missed counts as ``rounds_max + 1``."""
    if cfg.target_accuracy is None:
        return "-"
    med = statistics.median_high(cfg.rounds_max + 1 if r is None else r for r in reached)
    return f"{med:g}" if med <= cfg.rounds_max else f">{cfg.rounds_max}"


def run_measures(path: str, task: str, embedding_m: int, tolerance_scale: float) -> int:
    """Diversity measures for an external CSV dataset."""
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        print(f"error: could not read {path}: {exc}", file=sys.stderr)
        return 1
    try:
        lines = list(_measure_lines(data, task, embedding_m, tolerance_scale))
    except (FeelsimError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


def _measure_lines(data: np.ndarray, task: str, embedding_m: int, tolerance_scale: float):
    """Yield the output lines; any undefined measure raises before one is printed."""
    if data.shape[0] < 2:
        raise ValueError("need at least two rows")
    cfg = DiversityConfig(embedding_m=embedding_m, tolerance_scale=tolerance_scale)
    if task == "classification":
        labels = data[:, -1].astype(np.int64)
        features = data[:, :-1] if data.shape[1] > 1 else data
        dataset = LocalDataset("classification", features, labels)
        k = int(labels.max()) + 1
        counts = dataset.class_counts(k)
        profile = dataset_diversity_index(dataset, cfg, n_classes=k)
        yield f"n_samples = {dataset.n_samples}"
        yield f"n_classes = {k}"
        yield f"shannon_entropy = {_fmt(shannon_entropy(counts))}"
        yield f"gini_simpson = {_fmt(gini_simpson(counts))}"
        yield f"diversity_index = {_fmt(profile.diversity_index)}"
    else:
        series = data[:, 0]
        r = entropy_tolerance(series, tolerance_scale)
        yield f"n_samples = {series.size}"
        yield f"approximate_entropy = {_fmt(approximate_entropy(series, embedding_m, r))}"
        profile = dataset_diversity_index(LocalDataset("timeseries", series[:, None]), cfg)
        note = "  # no template matches: maximally irregular" if np.isinf(profile.uncertainty) else ""
        yield f"sample_entropy = {_fmt(profile.uncertainty)}{note}"
        yield f"diversity_index = {_fmt(profile.diversity_index)}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feelsim",
        description="Deterministic simulator for data-aware device scheduling in federated edge learning.",
    )
    parser.add_argument("--version", action="version", version=f"feelsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the experiment described by a config file")
    run_p.add_argument("config", help="path to a sectioned key-value config file")
    run_p.add_argument("--out", help="output directory (overrides the config)")
    run_p.add_argument("--seeds", help="comma-separated seeds (overrides the config)")
    run_p.add_argument(
        "--scheduler",
        action="append",
        help="scheduler to run; repeat for several (overrides the config)",
    )

    meas_p = sub.add_parser("measures", help="compute diversity measures for a CSV dataset")
    meas_p.add_argument("csv", help="numeric CSV; classification: label in last column, timeseries: first column")
    meas_p.add_argument("--task", required=True, choices=["classification", "timeseries"])
    meas_p.add_argument("--embedding-m", type=int, default=DiversityConfig.embedding_m)
    meas_p.add_argument("--tolerance-scale", type=float, default=DiversityConfig.tolerance_scale)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    if args.command == "measures":
        return run_measures(args.csv, args.task, args.embedding_m, args.tolerance_scale)
    try:
        spec = load_config(args.config)
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()] if args.seeds else None
        spec = spec_with_overrides(spec, out_dir=args.out, seeds=seeds, schedulers=args.scheduler)
    except (FeelsimError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run_experiment(spec)


if __name__ == "__main__":
    sys.exit(main())
