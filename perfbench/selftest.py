"""Self-test of the benchmark, every workload at a tiny size.

    python3 perfbench/selftest.py

Checks that each run reports exactly the metrics ``BENCHMARK.json`` declares
for its mode, with their units; that the human-readable lines name every
end-to-end metric, ``fail_frac`` included, with a unit; and that
``fail_frac`` is 0 on unchanged code.  Then checks that the checks work: a
record outside its sanity bounds, a record that drifts between repeats, and
a unit that raises must each make ``fail_frac`` nonzero, and a wrapped name
that no longer exists must be reported absent rather than fail the run.
"""

from __future__ import annotations

import contextlib
import json
import sys

import run  # pins BLAS threads and puts src/ on the path before numpy loads
from feelsim import engine

SEED = 5
PRINTED_E2E = ("setup_s", "wall_s", "device_rounds_per_s", "peak_rss_mb", "fail_frac")


def expect(condition: bool, what: str) -> None:
    if not condition:
        sys.exit(f"selftest FAILED: {what}")


@contextlib.contextmanager
def patched(module, attr: str, replacement=None):
    """Replace ``module.attr``, or delete it when no replacement is given."""
    original = getattr(module, attr)
    if replacement is None:
        delattr(module, attr)
    else:
        setattr(module, attr, replacement)
    try:
        yield
    finally:
        setattr(module, attr, original)


def printed_metrics(lines: list) -> dict:
    """metric name -> (value, unit) from the human-readable ``metric`` lines."""
    rows = [line.split() for line in lines if line.startswith("metric ")]
    return {name: (float(value), unit) for _, name, value, unit in rows}


def fail_frac(name: str) -> float:
    lines, result = run.measure(name, SEED, 0.0, trace=False, tiny=True)
    value, _ = printed_metrics(lines)["fail_frac"]
    expect(value == result["failed"] / result["attempted"], "fail_frac disagrees with failed/attempted")
    return value


def check_reports(bench: dict) -> None:
    for name in run.workloads.NAMES:
        for trace, declared in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            lines, result = run.measure(name, SEED, 0.0, trace, tiny=True)
            where = f"{name} trace {int(trace)}"
            json.loads(json.dumps(result))
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{where}: failures")
            reported = {key: m["unit"] for key, m in result["metrics"].items()}
            expect(reported == {m["name"]: m["unit"] for m in declared}, f"{where}: metrics differ from BENCHMARK.json")
            printed = printed_metrics(lines)
            for metric in PRINTED_E2E:
                expect(metric in printed and printed[metric][1], f"{where}: {metric} not printed with a unit")
            expect(printed["fail_frac"][0] == 0.0, f"{where}: fail_frac {printed['fail_frac'][0]} on unchanged code")
            expect(any(line.startswith(f"# digest {name}") for line in lines), f"{where}: no digest line")
        print(f"selftest: {name} reports every declared metric, fail_frac 0")


def check_checks() -> None:
    real_evaluate = engine.evaluate
    real_energy = engine.energy_compute
    calls = [0]

    def accuracy_out_of_range(model, test):
        accuracy, loss = real_evaluate(model, test)
        return accuracy + 2.0, loss

    def drifting_energy(device, n_samples, epochs):
        calls[0] += 1
        return real_energy(device, n_samples, epochs) * (1.0 + 1e-12 * calls[0])

    def raises(*args, **kwargs):
        raise ValueError("injected failure")

    with patched(engine, "evaluate", accuracy_out_of_range):
        expect(fail_frac("post_fleet") == 1.0, "accuracy outside [0, 1] went unnoticed")
    with patched(engine, "energy_compute", drifting_energy):
        expect(fail_frac("post_fleet") > 0.0, "a record drifting between repeats went unnoticed")
    with patched(engine, "filter_eligible", raises):
        expect(fail_frac("pre_fleet") == 1.0, "a unit that raises went unnoticed")
    print("selftest: perturbed, drifting and raising units all make fail_frac nonzero")


def check_absent_layer() -> None:
    # pre_fleet never schedules age-fair, so the run works without the name
    with patched(engine, "schedule_age_fair"):
        lines, result = run.measure("pre_fleet", SEED, 0.0, trace=True, tiny=True)
    expect(result["correct"], "a missing wrapped name broke the traced run")
    expect(result["metrics"]["trace.absent_names"]["value"] == 1.0, "a missing wrapped name was not counted")
    expect("# absent: feelsim.engine.schedule_age_fair (its spans read 0)" in lines, "no # absent line")
    print("selftest: a missing wrapped name is reported absent")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_reports(bench)
    check_checks()
    check_absent_layer()
    print("selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
