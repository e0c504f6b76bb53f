"""Golden digests: exact results pinned across code versions.

The determinism criterion compares a run with its own rerun, so a change that
shifts every number the same way on both runs still passes it.  These tests
pin sha256 digests of whole runs instead: every ``RoundRecord`` field in a
fixed order with floats written exactly via ``float.hex``, plus the final
model, for three small configs per policy, and the CSV bytes of a tiny
``feelsim run`` sweep.

A digest changes only when the simulated numbers change.  A change that
alters them on purpose re-pins the values here and says why; a refactor
leaves this file untouched.  The values were computed with numpy 2.4 on
x86-64; another numpy or BLAS build may round matrix products differently.
"""

from __future__ import annotations

import hashlib

import pytest

from feelsim import (
    ConstraintConfig,
    DataConfig,
    FleetSpec,
    NetworkConfig,
    PartitionSpec,
    SimulationConfig,
    TrainConfig,
    run_simulation,
)
from feelsim.cli import main

POLICIES = ("diversity_pre", "diversity_post", "random", "data_size", "age_fair")


def _fedavg(policy: str) -> SimulationConfig:
    """Plain FedAvg on a skewed fleet with completion-equalizing bandwidth."""
    return SimulationConfig(
        fleet=FleetSpec(n_devices=10),
        data=DataConfig(
            n_classes=3,
            dim=4,
            samples_per_class=60,
            partition=PartitionSpec(n_devices=10, skew="dirichlet", alpha=0.5, size_dist="lognormal"),
        ),
        train=TrainConfig(epochs=2, batch_size=8),
        network=NetworkConfig(model_size_bits=1e5, allocation_strategy="equalize_completion"),
        constraints=ConstraintConfig(min_data_size=4),
        policy=policy,
        k_per_round=4,
        rounds_max=5,
        master_seed=3,
    )


def _loss_weighted(policy: str) -> SimulationConfig:
    """q-weighted aggregation (q = 1) with an equal band split."""
    return SimulationConfig(
        fleet=FleetSpec(n_devices=8),
        data=DataConfig(
            n_classes=4,
            dim=5,
            samples_per_class=40,
            partition=PartitionSpec(n_devices=8, skew="dirichlet", alpha=0.3, size_dist="powerlaw"),
        ),
        train=TrainConfig(epochs=1, batch_size=8, l2_reg=0.01),
        network=NetworkConfig(model_size_bits=2e5, allocation_strategy="equal"),
        policy=policy,
        k_per_round=3,
        aggregation="loss_weighted",
        qffl_q=1.0,
        rounds_max=5,
        master_seed=4,
        size_priority_inverse=True,
    )


def _drain_and_abort(policy: str) -> SimulationConfig:
    """Tiny batteries, a deadline and min_participants = k: batteries run
    dry, devices pay less than a round costs, and later rounds abort."""
    return SimulationConfig(
        fleet=FleetSpec(n_devices=8, capacity_joules=0.2),
        data=DataConfig(
            n_classes=3,
            dim=4,
            samples_per_class=40,
            partition=PartitionSpec(n_devices=8, skew="dirichlet", alpha=0.5, size_dist="lognormal"),
        ),
        train=TrainConfig(epochs=2, batch_size=8),
        network=NetworkConfig(model_size_bits=1e5),
        constraints=ConstraintConfig(completion_threshold=0.3, min_participants=3, min_data_size=4),
        policy=policy,
        k_per_round=3,
        rounds_max=8,
        master_seed=11,
    )


CONFIGS = {"fedavg": _fedavg, "loss_weighted": _loss_weighted, "drain_and_abort": _drain_and_abort}

GOLDEN = {
    ("drain_and_abort", "diversity_pre"): "799994deecb822d3d45af5e32acd111e9b8d82607eb6cfbfcd70f46cf0df7c49",
    ("drain_and_abort", "diversity_post"): "1aa57433584d7540a8d4fe9e30a90a4753f0540fbd9ab137fc0c8db6086bb77e",
    ("drain_and_abort", "random"): "5493abaef087a408e67b7ccf06bbb7a5f01d0a7c985d6bc1d1d73ec7c14ae9f1",
    ("drain_and_abort", "data_size"): "4369bd3a019d2a5b545e880b6062ff4c4337d730a47fceeb837317c20eaf5d11",
    ("drain_and_abort", "age_fair"): "9511c7c082da7cf7e5bb0f29b5065d0cf5acb31ac3ea95dc79f016d6d8f805c1",
    ("fedavg", "diversity_pre"): "b154f0cb91cc818193fd2218d73add86522b090af7b4bc6d3c9182e918b61a83",
    ("fedavg", "diversity_post"): "df4cdb30e792b7e844d846bf604bdea839995ff6f598f2e962a7852834d23f8b",
    ("fedavg", "random"): "68f812d7a5e09848c9919fd712db964c9a47877f099857437a3cd38d10824ce4",
    ("fedavg", "data_size"): "0c5af1f447a3984d86edd3e4998605522faca9a059780a184fc477a85b0bab47",
    ("fedavg", "age_fair"): "2ab6411506d552329311b087b744fd68c32c4b41723bba0a2584ade815820945",
    ("loss_weighted", "diversity_pre"): "caf33603fa60c8a1637ab196ff8fde6550c8bb4f0fc74b9a880de956221a932e",
    ("loss_weighted", "diversity_post"): "d7225f549c70e9a78ddfe7c2fde81b23ed12c40cf640f94ba51887cec61a274f",
    ("loss_weighted", "random"): "f784e8f71877da8e1ed5a72a16dbe9c5944ff170f82985b48d8991ef74ce41af",
    ("loss_weighted", "data_size"): "a97c933b06ab3dff168f280c9353a93107c74fbb8be06b7ce44c66d9fe83aeb1",
    ("loss_weighted", "age_fair"): "50a21527c979ded52c9e3344c87465f72ad02c018170fc1204c046f6dd5cd7fa",
}

SWEEP = """\
[devices]
n_devices = 6
capacity_joules = 5.0

[data]
n_classes = 3
dim = 4
samples_per_class = 40
skew = dirichlet
alpha = 0.5

[train]
batch_size = 8

[network]
model_size_bits = 1e5
allocation_strategy = equalize_completion

[scheduler]
k = 3

[experiment]
name = golden
rounds_max = 4
target_accuracy = 0.7
seeds = 0, 1
schedulers = diversity_pre, diversity_post, random, data_size, age_fair
"""

SWEEP_CSVS = {
    "age_fair/seed_0/rounds.csv": "2302b598105c8f77f807de7b7ac3390d781ec8593c1f7a9748b3bf90c01dd313",
    "age_fair/seed_1/rounds.csv": "12508a3e094c048d9e7b85d46217765d06c5c848f1a9c889503a5d87191517da",
    "data_size/seed_0/rounds.csv": "e23820d7d6b736f09d2ac040a78f4a16bd85617ea13a97902897acfc40235ff5",
    "data_size/seed_1/rounds.csv": "3f63153361a7051529d1a21d6ae044f2906fb8a2dd99998d13b99c5afaf73cac",
    "diversity_post/seed_0/rounds.csv": "251cf47a165c1c636f0600ff93b572e6a2afc757e096ab66f4e2ae65efed4cd4",
    "diversity_post/seed_1/rounds.csv": "c7975cba6c0c4e6b2ffc8acf56acd0fe08f5630ee98d75a13644d416fe39abae",
    "diversity_pre/seed_0/rounds.csv": "82f40c4b479a51da5b00a175ea08ab594a09d7af2a461ac6d8fb33b1bae41b2c",
    "diversity_pre/seed_1/rounds.csv": "4992fd87f06ee405b050ff23ce69170050d0d97c28fbbe3a6cc6309ef829d364",
    "random/seed_0/rounds.csv": "f8e7689ed958ff673339ac3698f028f4d45d7afd796ccf2377ab79dea97455d8",
    "random/seed_1/rounds.csv": "f1d734935aaebb195ad5b2ac9f690b7271305ca58fc525abeb8bddefe4c04560",
    "summary.csv": "f50c67e91979b2412edc58f704494c513df0a9ced8fbc236e6e9eafb4115d40f",
}


def _number(value) -> str:
    return float(value).hex() if isinstance(value, float) else repr(value)


def _mapping(values: dict) -> str:
    return ",".join(f"{key}:{_number(values[key])}" for key in sorted(values))


def run_digest(result) -> str:
    """sha256 over every record's fields, then the run's outcome and model."""
    h = hashlib.sha256()
    for rec in result.rounds:
        fields = (
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
        h.update("|".join(fields).encode() + b"\n")
    h.update(f"{result.aborted_rounds}|{result.rounds_to_target}\n".encode())
    h.update(",".join(_number(float(w)) for w in result.final_model.weights).encode())
    return h.hexdigest()


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_run_matches_golden_digest(config, policy):
    result = run_simulation(CONFIGS[config](policy))
    assert run_digest(result) == GOLDEN[config, policy]


@pytest.mark.parametrize("policy", POLICIES)
def test_drain_config_reaches_aborts_and_completed_rounds(policy):
    rounds = run_simulation(_drain_and_abort(policy)).rounds
    assert any(r.aborted for r in rounds) and not all(r.aborted for r in rounds)


def test_sweep_csvs_match_golden_hashes(tmp_path):
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(SWEEP)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    root = tmp_path / "out" / "golden"
    hashes = {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*.csv"))
    }
    assert hashes == SWEEP_CSVS
