"""A pinned corpus of runs that the three golden configs miss.

The golden configs have at most 10 devices and 8 rounds.  The configs here
are built from a fixed list of axes, not drawn at test time:

* post-mode fleets of 255, 256, 257 and 600 devices, which cross the
  256-device channel blocks and train hundreds of devices in one round
* batch size 1, a batch equal to every device's data, and a batch larger
  than every device's data
* lognormal dataset sizes, with ragged last minibatches
* the ``data_size`` and ``age_fair`` policies, and bandwidth shared by
  ``equalize_completion`` beside the ``equal`` split the others use
* ``loss_weighted`` aggregation at q = 2 in post mode, where 5 of 60 trained
  devices upload
* rounds aborted by drained batteries and by a deadline, in post mode, where
  the devices that trained upload nothing
* a learning rate at which every device's SGD diverges to NaN weights, under
  ``fedavg``; under ``loss_weighted`` the same run raises
  ``DegenerateWeightsError`` in its first aggregation
* in pre mode and in post mode, a ``redundancy_factor`` that makes duplicates
  of a device's own rows, dataset indices by ``gini_simpson``, and model
  indices capped at the 50th percentile, where the default caps at the 95th

Each digest is ``test_golden.run_digest`` of the whole run.  As there, a
digest changes only when the simulated numbers change, and a change that
alters them on purpose re-pins this file together with ``test_golden.py``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from test_golden import run_digest

from feelsim import (
    ConstraintConfig,
    DataConfig,
    DiversityConfig,
    FleetSpec,
    NetworkConfig,
    PartitionSpec,
    SimulationConfig,
    TrainConfig,
    run_simulation,
)
from feelsim.engine import build_state
from feelsim.errors import DegenerateWeightsError


def _fleet(n_devices: int, policy: str = "diversity_post", rounds: int = 2, seed: int = 0, sigma: float = 1.0, **train):
    """Small Dirichlet-skewed data, lognormal sizes, about 5 samples per device."""
    return SimulationConfig(
        fleet=FleetSpec(n_devices=n_devices),
        data=DataConfig(
            n_classes=3,
            dim=4,
            samples_per_class=2 * n_devices,
            partition=PartitionSpec(
                n_devices=n_devices, skew="dirichlet", alpha=0.5, size_dist="lognormal", size_sigma=sigma
            ),
        ),
        train=TrainConfig(**{"epochs": 2, "batch_size": 4, **train}),
        policy=policy,
        k_per_round=10,
        rounds_max=rounds,
        master_seed=seed,
    )


def _diverging(aggregation: str) -> SimulationConfig:
    q = 1.0 if aggregation == "loss_weighted" else 0.0
    return replace(_fleet(24, seed=7, learning_rate=1e306, l2_reg=0.05), aggregation=aggregation, qffl_q=q)


def _drained() -> SimulationConfig:
    """50 mJ batteries: after three rounds fewer than k devices keep 30% charge."""
    cfg = _fleet(40, rounds=5, seed=15)
    drained = replace(cfg.fleet, capacity_joules=0.05)
    return replace(cfg, fleet=drained, constraints=ConstraintConfig(min_battery=0.3, min_participants=10))


def _deadline() -> SimulationConfig:
    """A 9.5 s deadline at an equal share of the band: in one round, fading leaves fewer than k devices in time."""
    deadline = ConstraintConfig(completion_threshold=9.5, min_participants=10)
    return replace(_fleet(40, rounds=5, seed=16), constraints=deadline)


def _redundant(policy: str, seed: int) -> SimulationConfig:
    """About 40% of every device's rows are copies of its own; Gini-Simpson indices, capped at the median."""
    cfg = _fleet(40, policy=policy, rounds=3, seed=seed)
    diversity = DiversityConfig(classification_measure="gini_simpson", outlier_percentile=50.0)
    data = replace(cfg.data, partition=replace(cfg.data.partition, redundancy_factor=0.4), diversity=diversity)
    return replace(cfg, data=data)


CORPUS = {
    "post_255": lambda: _fleet(255, seed=1),
    "post_256": lambda: _fleet(256, seed=2),
    "post_257": lambda: _fleet(257, seed=3),
    "post_600": lambda: _fleet(600, seed=4),
    "post_batch_1": lambda: _fleet(30, rounds=3, seed=5, batch_size=1),
    "post_batch_above_n": lambda: _fleet(30, rounds=3, seed=6, batch_size=1000, l2_reg=0.05),
    "pre_batch_1": lambda: _fleet(40, policy="diversity_pre", rounds=4, seed=8, batch_size=1),
    "random_lognormal_wide": lambda: _fleet(
        60, policy="random", rounds=4, seed=9, sigma=2.0, epochs=3, batch_size=7, l2_reg=0.05
    ),
    "post_diverging_fedavg": lambda: _diverging("fedavg"),
    "post_loss_weighted_q2": lambda: replace(
        _fleet(60, rounds=3, seed=10, l2_reg=0.01), aggregation="loss_weighted", qffl_q=2.0, k_per_round=5
    ),
    "data_size": lambda: _fleet(40, policy="data_size", rounds=3, seed=12),
    "age_fair": lambda: _fleet(40, policy="age_fair", rounds=4, seed=13),
    "pre_equalize_completion": lambda: replace(
        _fleet(50, policy="diversity_pre", rounds=3, seed=14),
        network=NetworkConfig(allocation_strategy="equalize_completion"),
    ),
    "post_battery_abort": _drained,
    "post_deadline_abort": _deadline,
    "post_batch_equal_n": lambda: _fleet(30, rounds=3, seed=17, sigma=0.0, batch_size=4),  # every device has 4 rows
    "pre_redundant_gini_simpson": lambda: _redundant("diversity_pre", seed=18),
    "post_redundant_percentile_50": lambda: _redundant("diversity_post", seed=19),
}

DIGESTS = {
    "post_255": "26e06073d9e8421518eb3656103b7ad86d9f881f56b50d03fa9fc8b28fef317a",
    "post_256": "25513f0f92f1550ce94e2e694f6b3f5900638f5286a484bf6609a6f9e87276f7",
    "post_257": "0654523d6a36e563b4603548d940782d241e13374827bfeac8f3020641d5711e",
    "post_600": "545423d5f82a6c4b2119c8f9cb7df410a94c2268af293a035f899a38ed76a7cc",
    "post_batch_1": "20d82dd6b891c3b9b2f4c3ad1154d25a9f5273dca4a9f7038fa9c325038836a8",
    "post_batch_above_n": "0470d4ae106d05490ed8e14df52ab1e2541e6a5efb501b909c4728071fbc7904",
    "pre_batch_1": "7a07b141f191587a25e8a31f8b4a6d7b2c65c5ccc2860693a1924e69bfa13f28",
    "random_lognormal_wide": "f6bd2a1c873a74480efa0269e52a4115d473b441145522c0e76e0caa96135b8e",
    "post_diverging_fedavg": "310ce4f3582cf3b634634608bf8b6ed18d78ae463865b626331b47d0224703f4",
    "post_loss_weighted_q2": "f6d040682895e0ef6ecbffcbde279164baf1f656349494268ed76ef72b5f2414",
    "data_size": "c9572c96f62c6a3e5770969f6273918e6a84efee76d969e01a5ac10002e59068",
    "age_fair": "3c1b12ac482336183ed94160d7bdb6f05e6732fc11c1b13fb886c039f74290dd",
    "pre_equalize_completion": "06205c36251e25c01b295eacead9ce301fa78bd5a82a800650bbb7252350efdd",
    "post_battery_abort": "39d31aed7b2d63b587e62115b30c064964390db7409ef8fcafe0f6487a5a4de9",
    "post_deadline_abort": "7a5ae7e3f18c2b50e3cecf22629254d9c52c77dd1d466396f2441f816d46d26c",
    "post_batch_equal_n": "5278a296e9dbf8405007f8e3da838c49793171aa27d00d31413f72af2a6d3487",
    "pre_redundant_gini_simpson": "cef0f2c5b4d6d736e30663da134d018d2119a437f385eabcfdff011758e0d97c",
    "post_redundant_percentile_50": "8d47aeba8f791acdf4b6e1848c409c62e8bef4b1b38912d6f287f85755c5dd9e",
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_run_matches_corpus_digest(name):
    with np.errstate(all="ignore"):  # the diverging run overflows on purpose
        result = run_simulation(CORPUS[name]())
    assert run_digest(result) == DIGESTS[name]


def test_diverging_run_goes_nan():
    with np.errstate(all="ignore"):
        result = run_simulation(CORPUS["post_diverging_fedavg"]())
    assert np.isnan(result.final_model.weights).all()
    assert all(r.global_accuracy == 0.0 for r in result.rounds)  # a NaN model predicts no class


def test_diverging_run_under_loss_weighting_raises():
    with np.errstate(all="ignore"), pytest.raises(DegenerateWeightsError):
        run_simulation(_diverging("loss_weighted"))


@pytest.mark.parametrize("name", ["post_battery_abort", "post_deadline_abort"])
def test_abort_runs_abort_some_rounds_and_train_in_them(name):
    rounds = run_simulation(CORPUS[name]()).rounds
    aborted = [r for r in rounds if r.aborted]
    assert 0 < len(aborted) < len(rounds)
    assert all(r.device_energy for r in aborted)  # post mode: the eligible devices trained and paid


def test_loss_weighted_run_uploads_few_of_the_devices_it_trains():
    cfg = CORPUS["post_loss_weighted_q2"]()
    for record in run_simulation(cfg).rounds:
        assert len(record.participants) == cfg.k_per_round
        assert len(record.device_energy) >= 10 * cfg.k_per_round  # every eligible device trained and paid


def test_batch_equal_n_run_gives_every_device_one_batch_of_its_data():
    cfg = CORPUS["post_batch_equal_n"]()
    sizes = {dev.dataset.n_samples for dev in build_state(cfg).devices.values()}
    assert sizes == {cfg.train.batch_size}
