"""Paired benchmark runs of a parent revision and the working tree, as one BENCH JSON file.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workloads policy_sweep --seeds 11 \\
        --pairs 10 --seconds 30 --out BENCH_NN.json

Run from the root of a git checkout.  The parent revision is exported with
``git archive`` into a temporary directory; the change is the working tree
as it is, uncommitted edits included.  For every workload and seed the
script runs ``perfbench/run.py --trace 0`` once per side per pair, each
process on its own, and alternates which side goes first: the parent in odd
pairs, the change in even ones.  It only starts ``perfbench/run.py`` as a
subprocess and imports nothing from ``perfbench/``.

The output has ``summary`` first, one entry per workload and seed: the
digests and failed units of each side, and per end-to-end metric the
parent's and the change's quartiles (numpy's linear percentiles over the
pairs) and their smallest and largest runs, the change's median over the
parent's, and the pairs the change won.  ``runs`` follows, one entry per
process in the order they ran, with its final JSON line under ``result``,
parsed (``json`` reads and writes Python floats exactly).  ``--digest-seeds`` adds one ``--seconds 1`` pair
per workload at each such seed that records digests only.

SIGTERM and SIGINT end the script with ``SystemExit``, so the exported tree
is removed and the running ``perfbench/run.py`` is killed on the way out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _exit_on_signal(signum, frame):
    # an exception, unlike the default action, unwinds through TemporaryDirectory's
    # cleanup and through subprocess.run, which kills its child on any exception
    raise SystemExit(128 + signum)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def _export(rev: str, dest: Path) -> None:
    """The tree of ``rev``, written under ``dest`` by ``git archive``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> tuple:
    """One ``perfbench/run.py`` process: its output lines and its final JSON object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(cmd)} in {checkout} exited with {proc.returncode}:\n{proc.stderr}")
    return lines, json.loads(lines[-1])


def _digest(lines: list) -> str:
    return next(line.split()[-1] for line in lines if line.startswith("# digest "))


def _quartiles(values: list) -> list:
    return [round(float(q), 6) for q in np.percentile(values, [25, 50, 75])]


def _summary(runs: list, metrics: dict, note: str = "") -> dict:
    """One workload and seed: digests, failures and, unless ``note`` is set, metric quartiles, extremes and wins."""
    side = {name: [r for r in runs if r["side"] == name] for name in ("parent", "change")}
    entry = {
        "workload": runs[0]["workload"],
        "seed": runs[0]["seed"],
        "pairs": len(side["change"]),
        "digest_parent": side["parent"][0]["digest"],
        "digest_change": side["change"][0]["digest"],
        "failed_parent": sum(r["result"]["failed"] for r in side["parent"]),
        "failed_change": sum(r["result"]["failed"] for r in side["change"]),
    }
    if note:
        entry["note"] = note
        return entry
    entry["metrics"] = {}
    for name, spec in metrics.items():
        parent = [r["result"]["metrics"][name]["value"] for r in side["parent"]]
        change = [r["result"]["metrics"][name]["value"] for r in side["change"]]
        sign = 1 if spec["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        entry["metrics"][name] = {
            "better": spec["better"],
            "change_over_parent_median": round(float(np.median(change) / np.median(parent)), 4),
            "change_min_max": [min(change), max(change)],
            "change_q1_median_q3": _quartiles(change),
            "change_wins": f"{wins}/{len(change)}",
            "parent_min_max": [min(parent), max(parent)],
            "parent_q1_median_q3": _quartiles(parent),
            "unit": spec["unit"],
        }
    return entry


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare the working tree against")
    ap.add_argument("--workloads", required=True, help="comma-separated perfbench workload names")
    ap.add_argument("--seeds", default="11", help="comma-separated seeds of the timed pairs")
    ap.add_argument("--pairs", type=int, default=3, help="timed pairs per workload and seed")
    ap.add_argument("--seconds", type=float, default=30.0, help="--seconds of each timed run")
    ap.add_argument("--digest-seeds", default="", help="comma-separated seeds of one --seconds 1 digest pair each")
    ap.add_argument("--change", default="", help="what the working tree changes (default: git describe)")
    ap.add_argument("--claim", default="none", help="the claim the runs are measured for")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    workloads = args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]
    digest_seeds = [int(s) for s in args.digest_seeds.split(",") if s]
    metrics = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    parent_rev = _git("rev-parse", args.parent)
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _exit_on_signal)

    runs, summary, env = [], [], ""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts = {"parent": Path(tmp), "change": ROOT}
        _export(parent_rev, checkouts["parent"])
        plan = [(w, s, args.pairs, args.seconds, "") for w in workloads for s in seeds]
        note = "digest runs only (--seconds 1)"
        plan += [(w, s, 1, 1.0, note) for s in digest_seeds for w in workloads]
        for workload, seed, pairs, seconds, note in plan:
            group = []
            for pair in range(1, pairs + 1):
                sides = ("parent", "change") if pair % 2 else ("change", "parent")
                for side in sides:
                    lines, result = _run(checkouts[side], workload, seed, seconds)
                    env = env or next((line for line in lines if line.startswith("# env ")), "")
                    run = {"order": len(runs), "pair": pair, "side": side, "first_in_pair": sides[0]}
                    run.update(workload=workload, seed=seed, digest=_digest(lines), result=result)
                    runs.append(run)
                    group.append(run)
                    print(f"{workload} seed {seed} pair {pair} {side}: " + ", ".join(
                        f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
            summary.append(_summary(group, metrics, note))

    out = {
        "what": (
            f"perfbench/run.py end-to-end runs (--seconds {args.seconds:g} --trace 0) of the parent commit and of "
            "this change, in pairs on one machine, alternating which side runs first; each run's final JSON line "
            "is kept under runs[].result; quartiles are numpy's linear percentiles over the pairs"
        ),
        "parent": parent_rev,
        "change": args.change or _git("describe", "--always", "--dirty"),
        "command": "python3 perfbench/run.py --workload W --seed S --seconds N --trace 0",
        "env": env,
        "host": f"{platform.machine()}, {os.cpu_count()} cores; timings scaled by perfbench's calibration kernel",
        "claim": args.claim,
        "summary": summary,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
