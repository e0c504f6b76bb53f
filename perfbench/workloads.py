"""The three benchmark workloads, each generated from a workload seed.

A workload is a config for ``engine.build_state`` (timed as set-up) plus a
unit of work (timed as ``wall_s``) that returns the ``SimulationResult``s it
produced, so they can be digested and sanity-checked.  ``tiny=True`` shrinks
every workload to a size the self-test can run in seconds.

Why these three (see README.md for the per-layer predictions):

* ``post_fleet``: post-training selection, so every eligible device trains
  every round; ``learning`` and ``diversity`` dominate.
* ``pre_fleet``: pre-training selection on a large fleet, so only k devices
  train but every device gets a channel draw and goes through eligibility
  and scoring; ``network``/``seeding`` and the engine's bookkeeping dominate.
* ``policy_sweep``: an in-process ``feelsim run`` over many small
  simulations, so per-call fixed costs (``build_state``, ``config_io``, CSV
  writing) count; the only workload covering ``random``, ``data_size``,
  ``age_fair`` and loss-weighted aggregation.
"""

from __future__ import annotations

import contextlib
import io
import itertools
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from feelsim import cli, config_io, engine
from feelsim.datagen import FleetSpec, PartitionSpec
from feelsim.engine import DataConfig, SimulationConfig
from feelsim.learning import TrainConfig
from feelsim.network import NetworkConfig

NAMES = ("post_fleet", "pre_fleet", "policy_sweep")

SWEEP_CONFIG = Path(__file__).resolve().parent / "policy_sweep.cfg"
SWEEP_SEEDS = 6


@dataclass
class Workload:
    setup_cfg: SimulationConfig
    k_per_round: int
    run_unit: Callable[[], list]


def _fleet_config(policy: str, n_devices: int, samples_per_class: int, epochs: int, rounds: int, seed: int):
    """Dirichlet-skewed, lognormal-sized, partly redundant fleet; no accuracy target."""
    return SimulationConfig(
        fleet=FleetSpec(n_devices=n_devices),
        data=DataConfig(
            n_classes=6,
            dim=16,
            samples_per_class=samples_per_class,
            partition=PartitionSpec(
                n_devices=n_devices,
                skew="dirichlet",
                alpha=0.3,
                size_dist="lognormal",
                size_sigma=1.0,
                redundancy_factor=0.1,
            ),
        ),
        train=TrainConfig(epochs=epochs),
        network=NetworkConfig(allocation_strategy="equalize_completion"),
        policy=policy,
        k_per_round=20,
        rounds_max=rounds,
        master_seed=seed,
    )


def _simulation(cfg: SimulationConfig) -> Workload:
    # looked up at call time, so a wrapper installed on the module is seen
    return Workload(cfg, cfg.k_per_round, lambda: [engine.run_simulation(cfg)])


def _policy_sweep(seed: int, tiny: bool, out_dir: Path) -> Workload:
    seeds = [SWEEP_SEEDS * seed + i for i in range(1 if tiny else SWEEP_SEEDS)]
    spec = config_io.load_config(str(SWEEP_CONFIG))
    setup_cfg = replace(spec.base, master_seed=seeds[0])
    units = itertools.count()

    def run_unit() -> list:
        out = out_dir / f"unit_{next(units)}"
        argv = ["run", str(SWEEP_CONFIG), "--out", str(out), "--seeds", ",".join(map(str, seeds))]
        results = []
        real = cli.run_simulation

        def capture(cfg):
            result = real(cfg)
            results.append(result)
            return result

        cli.run_simulation = capture
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        finally:
            cli.run_simulation = real
        if code != 0:
            raise RuntimeError(f"feelsim run exited with code {code}")
        expected = len(spec.schedulers) * len(seeds)
        if len(results) != expected:
            raise RuntimeError(f"feelsim run produced {len(results)} simulations, expected {expected}")
        return results

    return Workload(setup_cfg, spec.base.k_per_round, run_unit)


def build(name: str, seed: int, out_dir: Path, tiny: bool = False) -> Workload:
    """The named workload for ``seed``; ``out_dir`` receives the sweep's CSVs."""
    if name == "post_fleet":
        n, spc, rounds = (12, 60, 2) if tiny else (300, 1500, 10)
        return _simulation(_fleet_config("diversity_post", n, spc, 2, rounds, seed))
    if name == "pre_fleet":
        n, spc, rounds = (40, 60, 3) if tiny else (2000, 2000, 20)
        return _simulation(_fleet_config("diversity_pre", n, spc, 1, rounds, seed))
    if name == "policy_sweep":
        return _policy_sweep(seed, tiny, out_dir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
