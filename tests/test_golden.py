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
    ("drain_and_abort", "diversity_pre"): "d94f1433f6f987ad978dc7877adafb21a06f1eab9433836129931bb210f5a3b9",
    ("drain_and_abort", "diversity_post"): "18a2035b6c5b2a507add4c70c052c62709832bf64c3c6ce7f4afdb5f3d425b8b",
    ("drain_and_abort", "random"): "2a15d81cae169621fc79c50b741039ae89cb705d39ebc0fc56fdded21aee5a06",
    ("drain_and_abort", "data_size"): "1ab33d3d5e823b568c9e17f862516ed1e2d9ad059b568a7ae6efe461d4dbbdf5",
    ("drain_and_abort", "age_fair"): "46f041184fbdb65abf7cf15a59b54db7024ca84c76b940403abc4c0940f1197a",
    ("fedavg", "diversity_pre"): "7ba5ce8d11e1b83b128e92841a26e3a1d8d7f754906545a53c8c789eb34139c7",
    ("fedavg", "diversity_post"): "9581524c657b7144c48fbc310135f6a96f446a280c7bec47df02b50b7cbea968",
    ("fedavg", "random"): "83cbad74315c8583c580d1bf7262b19e042841a6dbf26df991b3132d3b44e6ad",
    ("fedavg", "data_size"): "e37d7e6f3030d5fd2605c5399110b9ef617b9706959c7241b5f4bd698b218f43",
    ("fedavg", "age_fair"): "e7b075a47368edfed04acec44eb668c37af7364e26703f5062a0249b345a75dd",
    ("loss_weighted", "diversity_pre"): "13443fed801cf8cc52cd3768190a19c1220c79c8a1bdb6a5265d68f402d89dd5",
    ("loss_weighted", "diversity_post"): "47c131cd83de0f4648a4df78e03889e8847a743ec029b8c578fb1c8fa27c3737",
    ("loss_weighted", "random"): "20a3b1352f4c65f240ab23de1457457dfa34b65f12babe9f2f834a6f03073254",
    ("loss_weighted", "data_size"): "3fa582b1722a7cca963ee92b436f3dec05b713802ad3509d6d731a7bea510a14",
    ("loss_weighted", "age_fair"): "d8e08bbdc02b264413b2771f623ca8ef647f74b5849d8968305b4a2afd02de53",
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
    "age_fair/seed_0/rounds.csv": "c69c17e19bf56b8350d27c21f4181b65724822f3e0eac9fde8a4e6a399adb1a9",
    "age_fair/seed_1/rounds.csv": "42b3ba31240409006872282b15a3bbf64c2ae29b50ad2a31759467f8c2dd6453",
    "data_size/seed_0/rounds.csv": "c8dfdb83bec03757aa0fe7cebcbfb8c246affacf003787cae9c0d3134720f221",
    "data_size/seed_1/rounds.csv": "d149ef887df56731c258ee119a7c2dd4d6d0d361a39d54ee9aa24f15acb10531",
    "diversity_post/seed_0/rounds.csv": "abdbc3c80d71dc10beb5745f1b4a55131d7f35c8b0d585170a23f76816d38872",
    "diversity_post/seed_1/rounds.csv": "ecf3ce4bf14be1933ab9a63ee2bb321113246962d9088511f68fa8b9c03afdfa",
    "diversity_pre/seed_0/rounds.csv": "d831fcd28ca1d9bdabd5d95b7f4124a1cb349f70b799f332c9fd718070b48688",
    "diversity_pre/seed_1/rounds.csv": "5e5ca0e14dd740abd839079bbf7e1520b036e0454f0a2e55bd1b5d15eb49fa52",
    "random/seed_0/rounds.csv": "69ece517161043545cc7d3e86fbc816080dbbbfc8a22b8f80ad45bb3df646853",
    "random/seed_1/rounds.csv": "9031ade23b821ba97888038704578c627a0b97ccdb01fe4201b0bb8abd328d73",
    "summary.csv": "1e35edc6ddc859cabd0c2b857e45864e80101aca4e21fee642d4142a14a1bef9",
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
