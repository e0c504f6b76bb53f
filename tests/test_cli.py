"""Config parsing and the command-line entry points."""

from __future__ import annotations

import csv
import logging
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from feelsim.cli import SUMMARY_HEADER, _print_comparison, main, run_experiment
from feelsim.config_io import ExperimentSpec, load_config
from feelsim.diversity import approximate_entropy, sample_entropy
from feelsim.engine import SimulationConfig, build_state
from feelsim.errors import ConfigError
from test_golden import POLICIES, _drain_and_abort

REPO = Path(__file__).resolve().parents[1]

MINIMAL = """\
[experiment]
name = demo
"""

SMALL_RUN = """\
[devices]
n_devices = 6

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

[scheduler]
k = 3

[experiment]
name = tiny
rounds_max = 3
seeds = 0, 1
schedulers = diversity_pre, random
"""


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ----------------------------------------------------------------- parsing


def test_minimal_config_gets_all_defaults(tmp_path):
    spec = load_config(_write(tmp_path, MINIMAL))
    assert spec.name == "demo"
    assert spec.seeds == [0]
    assert spec.schedulers == ["diversity_pre"]
    assert spec.base.fleet.n_devices == 20
    assert spec.base.k_per_round == 10
    assert spec.base.network.total_bandwidth == 1e6
    assert spec.base.constraints.completion_threshold == math.inf
    # every default comes from the dataclasses, so the API and a file agree
    assert spec.base.constraints.min_data_size == 1
    assert spec.base == SimulationConfig()


def test_full_config_round_trip(tmp_path):
    spec = load_config(_write(tmp_path, SMALL_RUN))
    assert spec.name == "tiny"
    assert spec.seeds == [0, 1]
    assert spec.schedulers == ["diversity_pre", "random"]
    assert spec.base.fleet.n_devices == 6
    assert spec.base.data.n_classes == 3
    assert spec.base.data.partition.skew == "dirichlet"
    assert spec.base.data.partition.alpha == 0.5
    assert spec.base.train.batch_size == 8
    assert spec.base.network.model_size_bits == 1e5
    assert spec.base.k_per_round == 3
    assert spec.base.rounds_max == 3
    assert spec.base.constraints.min_data_size == 1  # the default, whatever the batch size


def test_config_saved_with_a_utf8_byte_order_mark_loads(tmp_path):
    # editors on Windows often save UTF-8 with a BOM before the first section
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + SMALL_RUN.encode("utf-8"))
    assert load_config(str(path)) == load_config(_write(tmp_path, SMALL_RUN))


def test_missing_name_is_an_error(tmp_path):
    with pytest.raises(ConfigError, match="name"):
        load_config(_write(tmp_path, "[experiment]\nrounds_max = 3\n"))


def test_unknown_section_names_the_line(tmp_path):
    with pytest.raises(ConfigError, match=r":4: unknown section"):
        load_config(_write(tmp_path, "[experiment]\nname = x\n\n[banana]\n"))


def test_unknown_key_names_the_line(tmp_path):
    with pytest.raises(ConfigError, match=r":2: unknown key 'colour'"):
        load_config(_write(tmp_path, "[experiment]\ncolour = blue\nname = x\n"))
    # the engine and the sweep set these seeds and the policy themselves, and
    # a run builds classification data only, so the time-series and
    # clustering knobs are not keys either
    removed = [("train", "seed"), ("experiment", "master_seed"), ("scheduler", "policy")]
    removed += [
        ("data", key)
        for key in ("embedding_m", "tolerance_scale", "uncertainty_cap", "sample_size", "metric", "metric_sigma")
    ]
    for section, key in removed:
        text = f"[{section}]\n{key} = 5\n[experiment]\nname = x\n"
        with pytest.raises(ConfigError, match=rf":2: unknown key '{key}' in \[{section}\]"):
            load_config(_write(tmp_path, text))


def test_devices_n_devices_sets_the_fleet_and_the_run_partitions_over_it(tmp_path):
    spec = load_config(_write(tmp_path, SMALL_RUN))
    assert spec.base.data.partition.n_devices == SimulationConfig().data.partition.n_devices  # no key sets it
    state = build_state(spec.base)
    assert sorted(state.devices) == list(range(6))
    # six balanced shards of the whole train pool, not the first six of twenty
    assert sum(d.dataset.n_samples for d in state.devices.values()) == state.train_pool.n_samples


def test_q_without_loss_weighting_is_a_config_error(tmp_path, capsys):
    # FedAvg never reads q: this run's CSVs would equal those of q = 0
    cfg = _write(tmp_path, "[scheduler]\nq = 1.0\n[experiment]\nname = x\n")
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "q_without_loss_weighting" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_band_whose_equal_share_underflows_is_a_config_error(tmp_path, capsys):
    # 5e-324 Hz passes the > 0 check, but its share over two devices is 0, which the filter refuses
    cfg = _write(tmp_path, "[devices]\nn_devices = 2\n[network]\ntotal_bandwidth = 5e-324\n[experiment]\nname = x\n")
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "bandwidth_share_underflow: total_bandwidth 5e-324 over 2 devices" in err
    assert not (tmp_path / "out").exists()


def test_duplicate_key_rejected(tmp_path):
    text = "[experiment]\nname = a\nname = b\n"
    with pytest.raises(ConfigError, match="duplicate key 'name'"):
        load_config(_write(tmp_path, text))


def test_bad_value_names_key_and_line(tmp_path):
    text = "[experiment]\nname = x\nrounds_max = soon\n"
    with pytest.raises(ConfigError, match=r":3: bad value for 'rounds_max'"):
        load_config(_write(tmp_path, text))


def test_key_outside_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="outside any"):
        load_config(_write(tmp_path, "name = x\n"))


def test_comments_and_blank_lines_ignored(tmp_path):
    text = "# comment\n; other comment\n\n[experiment]\nname = ok  \n"
    spec = load_config(_write(tmp_path, text))
    assert spec.name == "ok"


def test_semantic_errors_wrapped_as_config_errors(tmp_path):
    text = "[scheduler]\nw_diversity = 0.9\n\n[experiment]\nname = x\n"
    with pytest.raises(ConfigError, match="weights_not_simplex"):
        load_config(_write(tmp_path, text))
    text = "[constraints]\nmin_data_size = -1\n\n[experiment]\nname = x\n"
    with pytest.raises(ConfigError, match="negative_data_size"):
        load_config(_write(tmp_path, text))


def test_unknown_scheduler_is_a_config_error(tmp_path):
    text = "[experiment]\nname = x\nschedulers = random, psychic\n"
    with pytest.raises(ConfigError, match="unknown scheduler 'psychic'"):
        load_config(_write(tmp_path, text))
    spec = load_config(_write(tmp_path, MINIMAL))
    with pytest.raises(ConfigError, match="unknown scheduler 'psychic'"):
        replace(spec, schedulers=["psychic"])


@pytest.mark.parametrize(
    "setting, override",
    [
        ("seeds = 0, 1, 0", {"seeds": [2, 2]}),
        ("schedulers = random, age_fair, random", {"schedulers": ["age_fair", "age_fair"]}),
    ],
    ids=["seeds", "schedulers"],
)
def test_repeated_seed_or_scheduler_is_a_config_error(tmp_path, setting, override):
    # a repeat would run twice and weigh double in the summary statistics
    with pytest.raises(ConfigError, match="repeated"):
        load_config(_write(tmp_path, f"[experiment]\nname = x\n{setting}\n"))
    spec = load_config(_write(tmp_path, MINIMAL))
    with pytest.raises(ConfigError, match="repeated"):
        replace(spec, **override)


SHIPPED_CONFIGS = [*sorted(REPO.glob("configs/*.cfg")), REPO / "perfbench" / "policy_sweep.cfg"]


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: str(path.relative_to(REPO)))
def test_shipped_configs_load(path):
    assert load_config(str(path)).name == path.stem


def test_overrides(tmp_path, monkeypatch):
    # main hands run_experiment the loaded spec with only the given flags replaced
    path = _write(tmp_path, MINIMAL)
    ran = []
    monkeypatch.setattr("feelsim.cli.run_experiment", lambda spec: ran.append(spec) or 0)
    elsewhere = str(tmp_path / "elsewhere")
    assert main(["run", path, "--out", elsewhere, "--seeds", "7", "--scheduler", "random"]) == 0
    out = ran.pop()
    assert out.output_dir == elsewhere
    assert out.seeds == [7]
    assert out.schedulers == ["random"]
    assert main(["run", path, "--seeds", "7"]) == 0
    assert ran.pop() == replace(load_config(path), seeds=[7])
    assert main(["run", path]) == 0
    assert ran.pop() == load_config(path)


@pytest.mark.parametrize(
    "section, key",
    [
        ("constraints", "completion_threshold"),
        ("train", "learning_rate"),
        ("scheduler", "q"),
        ("scheduler", "w_diversity"),
        ("network", "total_bandwidth"),
        ("experiment", "target_accuracy"),
    ],
)
def test_nan_is_a_bad_value(tmp_path, capsys, section, key):
    # a NaN passes every range check, so it would run with that check off
    cfg = _write(tmp_path, f"[{section}]\n{key} = nan\n[experiment]\nname = x\n")
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"exp.cfg:2: bad value for '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_inf_parses(tmp_path):
    text = "[constraints]\ncompletion_threshold = inf\nmin_snr_db = -inf\n[experiment]\nname = x\n"
    constraints = load_config(_write(tmp_path, text)).base.constraints
    assert (constraints.completion_threshold, constraints.min_snr_db) == (math.inf, -math.inf)


@pytest.mark.parametrize(
    "section, key",
    [
        ("train", "learning_rate"),
        ("train", "l2_reg"),
        ("data", "class_sep"),
        ("data", "alpha"),
        ("data", "size_sigma"),
        ("data", "power_exponent"),
        ("network", "model_size_bits"),
        ("network", "total_bandwidth"),
        ("scheduler", "q"),
        ("scheduler", "redundancy_cap"),
        ("devices", "capacity_joules"),
        ("devices", "mean_snr_db"),
        ("devices", "tx_power_max"),
        ("devices", "cpu_freq_max"),
        ("devices", "cycles_per_sample_max"),
        ("devices", "energy_per_cycle"),
        ("devices", "snr_spread_db"),
        ("devices", "std_snr_db"),
    ],
)
def test_inf_is_rejected_where_no_range_check_would_catch_it(tmp_path, capsys, section, key):
    # inf parses (a completion threshold may be infinite), so each config must refuse it
    cfg = _write(tmp_path, f"[{section}]\n{key} = inf\n[experiment]\nname = x\n")
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "not_finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "line, code",
    [
        ("n_classes = 1", "too_few_classes"),
        ("dim = 0", "nonpositive_dim"),
        ("samples_per_class = 0", "nonpositive_samples_per_class"),
        ("class_sep = -1", "negative_class_sep"),
    ],
    ids=["n_classes", "dim", "samples_per_class", "class_sep"],
)
def test_pool_that_cannot_be_built_is_a_config_error(tmp_path, capsys, line, code):
    # refused on load, not by a traceback from make_classification_pool after the output directory exists
    cfg = _write(tmp_path, f"[data]\n{line}\n[experiment]\nname = x\n")
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert code in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, value", [("yes", True), ("off", False)])
def test_bool_key_parses(tmp_path, text, value):
    cfg = _write(tmp_path, f"[scheduler]\nsize_priority_inverse = {text}\n[experiment]\nname = x\n")
    assert load_config(cfg).base.size_priority_inverse is value


def test_bad_bool_names_key_and_line(tmp_path, capsys):
    cfg = _write(tmp_path, "[experiment]\nname = x\n[scheduler]\nsize_priority_inverse = maybe\n")
    with pytest.raises(ConfigError, match=r":4: bad value for 'size_priority_inverse'"):
        load_config(cfg)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "exp.cfg:4: bad value" in capsys.readouterr().err


def test_target_accuracy_none_parses(tmp_path):
    text = "[experiment]\nname = x\ntarget_accuracy = none\n"
    assert load_config(_write(tmp_path, text)).base.target_accuracy is None
    text = "[experiment]\nname = x\ntarget_accuracy = 0.8\n"
    assert load_config(_write(tmp_path, text)).base.target_accuracy == 0.8


# ------------------------------------------------------------------ running


def test_run_experiment_writes_expected_tree(tmp_path, capsys):
    spec = load_config(_write(tmp_path, SMALL_RUN))
    spec = replace(spec, output_dir=str(tmp_path / "out"))
    assert run_experiment(spec) == 0

    root = tmp_path / "out" / "tiny"
    assert (root / "summary.csv").exists()
    for scheduler in ("diversity_pre", "random"):
        for seed in (0, 1):
            rounds = root / scheduler / f"seed_{seed}" / "rounds.csv"
            assert rounds.exists()
            with open(rounds) as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["round", "duration_s", "energy_j", "n_participants", "accuracy", "loss", "jain_fairness", "aborted"]
            assert len(rows) == 1 + 3  # header + rounds_max

    with open(root / "summary.csv") as fh:
        summary = list(csv.reader(fh))
    assert summary[0][0] == "scheduler"
    assert len(summary) == 1 + 4  # header + 2 schedulers x 2 seeds

    table = capsys.readouterr().out
    assert "diversity_pre" in table and "random" in table


def test_summary_aborted_rounds_sums_each_runs_aborted_column(tmp_path):
    spec = ExperimentSpec("abort", _drain_and_abort("random"), list(POLICIES), [11, 12], str(tmp_path))
    assert run_experiment(spec) == 0
    root = tmp_path / "abort"
    with open(root / "summary.csv") as fh:
        summary = list(csv.DictReader(fh))
    assert list(summary[0])[-2:] == ["mean_jain", "aborted_rounds"]
    assert len(summary) == len(POLICIES) * 2
    for row in summary:
        with open(root / row["scheduler"] / f"seed_{row['seed']}" / "rounds.csv") as fh:
            aborted = sum(int(r["aborted"]) for r in csv.DictReader(fh))
        assert int(row["aborted_rounds"]) == aborted
    assert sum(int(row["aborted_rounds"]) for row in summary) > 0  # the config does abort rounds


def _table_rounds(capsys, reached, target_accuracy=0.8):
    spec = ExperimentSpec("x", SimulationConfig(rounds_max=10, target_accuracy=target_accuracy), ["random"])
    row = {"scheduler": "random", "final_accuracy": 0.5, "total_time_s": 1.0, "total_energy_j": 1.0, "mean_jain": 1.0}
    _print_comparison(spec, [{**row, "rounds_to_target": r} for r in reached])
    return capsys.readouterr().out.splitlines()[-1].split()[1]


def test_table_median_rounds_counts_missed_runs_past_the_budget(capsys):
    assert _table_rounds(capsys, [3, None, None]) == ">10"
    assert _table_rounds(capsys, [3, 4, None]) == "4"
    # an even count takes the upper middle run: no average of a round and a miss
    assert _table_rounds(capsys, [3, None]) == ">10"
    assert _table_rounds(capsys, [3, 4, None, None]) == ">10"
    assert _table_rounds(capsys, [5, 3, 4, 6]) == "5"
    assert _table_rounds(capsys, [3, 4], target_accuracy=None) == "-"


def test_run_experiment_is_byte_deterministic(tmp_path):
    spec = load_config(_write(tmp_path, SMALL_RUN))
    for out in ("a", "b"):
        run_experiment(replace(spec, output_dir=str(tmp_path / out)))
    for rel in ("tiny/summary.csv", "tiny/random/seed_1/rounds.csv"):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_main_run_end_to_end(tmp_path):
    cfg = _write(tmp_path, SMALL_RUN)
    code = main(["run", cfg, "--out", str(tmp_path / "cli_out"), "--seeds", "3", "--scheduler", "age_fair"])
    assert code == 0
    assert (tmp_path / "cli_out" / "tiny" / "age_fair" / "seed_3" / "rounds.csv").exists()


def test_main_run_logs_each_run_whose_training_pool_is_empty_and_goes_on(tmp_path, caplog):
    # two pool rows, 0.9 of them held out: round(1.8) = 2 test rows and no training rows
    text = "[data]\nn_classes = 2\nsamples_per_class = 1\ntest_fraction = 0.9\n"
    text += "[experiment]\nname = empty\nseeds = 0\nschedulers = diversity_pre, random\n"
    with caplog.at_level(logging.ERROR):
        assert main(["run", _write(tmp_path, text), "--out", str(tmp_path / "out")]) == 1
    failure = "failed: insufficient_pool: pool of 0 cannot cover 20 devices at min_size 1"
    assert [r.getMessage() for r in caplog.records] == [f"run {s}/seed 0 {failure}" for s in ("diversity_pre", "random")]
    assert (tmp_path / "out" / "empty" / "summary.csv").read_text().splitlines() == [",".join(SUMMARY_HEADER)]


def test_main_run_logs_each_run_whose_test_split_is_empty_and_goes_on(tmp_path, caplog):
    # 40 pool rows, 0.01 of them held out: round(0.4) = 0 test rows, refused before any round runs
    text = "[data]\nn_classes = 2\nsamples_per_class = 20\ntest_fraction = 0.01\n"
    text += "[experiment]\nname = empty\nseeds = 0\nschedulers = diversity_pre, random\n"
    with caplog.at_level(logging.ERROR):
        assert main(["run", _write(tmp_path, text), "--out", str(tmp_path / "out")]) == 1
    failure = "failed: empty_dataset: test_fraction 0.01 holds out no row of a pool of 40"
    assert [r.getMessage() for r in caplog.records] == [f"run {s}/seed 0 {failure}" for s in ("diversity_pre", "random")]
    assert (tmp_path / "out" / "empty" / "summary.csv").read_text().splitlines() == [",".join(SUMMARY_HEADER)]


def test_main_run_logs_each_run_whose_aggregation_weight_overflows_and_goes_on(tmp_path, caplog):
    # a learning rate of 1e6 drives the uploads' losses far above 1, and loss ** 50 leaves the float range
    text = "[train]\nlearning_rate = 1e6\n[scheduler]\naggregation = loss_weighted\nq = 50\n"
    text += "[experiment]\nname = ovf\nseeds = 0\nrounds_max = 5\nschedulers = diversity_pre, random\n"
    with caplog.at_level(logging.ERROR):
        assert main(["run", _write(tmp_path, text), "--out", str(tmp_path / "out")]) == 1
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 2
    for message, scheduler in zip(messages, ("diversity_pre", "random")):
        assert message.startswith(f"run {scheduler}/seed 0 failed: degenerate_weights: device ")
        assert "overflows" in message
    assert (tmp_path / "out" / "ovf" / "summary.csv").read_text().splitlines() == [",".join(SUMMARY_HEADER)]


def test_main_run_logs_a_run_whose_upload_diverged_to_nan_and_goes_on(tmp_path, caplog):
    # a learning rate of 1e300 drives an upload's ||W||^2 past the float range, so its loss and weight are NaN
    text = "[train]\nlearning_rate = 1e300\n[scheduler]\naggregation = loss_weighted\nq = 1\n"
    text += "[experiment]\nname = nan\nseeds = 0\nschedulers = random\n"
    with caplog.at_level(logging.ERROR):
        assert main(["run", _write(tmp_path, text), "--out", str(tmp_path / "out")]) == 1
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 1
    assert messages[0].startswith("run random/seed 0 failed: degenerate_weights: device ")
    assert messages[0].endswith("is NaN")
    assert (tmp_path / "out" / "nan" / "summary.csv").read_text().splitlines() == [",".join(SUMMARY_HEADER)]


@pytest.mark.parametrize("warning_filter", ["error", "always"])
@pytest.mark.parametrize("line", ["[train]\nl2_reg = 1.7e308", "[train]\nlearning_rate = 1.7e308", "[data]\nclass_sep = 1e300"])
def test_main_run_of_a_diverging_fedavg_run_ends_the_same_under_any_warning_filter(tmp_path, caplog, line, warning_filter):
    # the training overflows to inf and NaN; FedAvg reads no loss, so every run completes, and warns of nothing
    text = f"{line}\n[experiment]\nname = div\nseeds = 0\nrounds_max = 2\nschedulers = diversity_pre, diversity_post, random\n"
    with warnings.catch_warnings(record=True) as caught, caplog.at_level(logging.ERROR):
        warnings.simplefilter(warning_filter)
        assert main(["run", _write(tmp_path, text), "--out", str(tmp_path / "out")]) == 0
    assert (caught, caplog.records) == ([], [])
    for scheduler in ("diversity_pre", "diversity_post", "random"):
        assert len((tmp_path / "out" / "div" / scheduler / "seed_0" / "rounds.csv").read_text().splitlines()) == 3
    assert len((tmp_path / "out" / "div" / "summary.csv").read_text().splitlines()) == 4


def test_main_config_error_exit_code(tmp_path, capsys):
    bad = _write(tmp_path, "[experiment]\nrounds_max = 3\n")
    assert main(["run", bad]) == 2
    assert "error:" in capsys.readouterr().err


def test_main_missing_file_exit_code(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 2


@pytest.mark.parametrize(
    "extra, replaced",
    [
        ([], ("schedulers = diversity_pre, random", "schedulers = random, psychic")),
        (["--scheduler", "psychic"], None),
        (["--seeds", "0,0"], None),
        (["--scheduler", "random", "--scheduler", "random"], None),
        (["--seeds", ""], None),
        (["--seeds", ","], None),
    ],
    ids=[
        "unknown_in_file",
        "unknown_on_command_line",
        "repeated_seed",
        "repeated_scheduler",
        "empty_seeds",
        "comma_seeds",
    ],
)
def test_main_rejects_bad_sweep_before_running(tmp_path, capsys, extra, replaced):
    # nothing runs and nothing is written: no partial sweep without a summary
    text = SMALL_RUN.replace(*replaced) if replaced else SMALL_RUN
    assert main(["run", _write(tmp_path, text), "--out", str(tmp_path / "out"), *extra]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out", ["file", "under_a_file"])
def test_main_rejects_an_out_that_cannot_be_a_directory_before_running(tmp_path, capsys, caplog, out):
    # an existing file, or a path below one: one error line and exit 2, as for any bad input, not a traceback
    (tmp_path / "taken").write_text("not a directory\n")
    path = tmp_path / "taken" if out == "file" else tmp_path / "taken" / "below"
    with caplog.at_level(logging.INFO):
        assert main(["run", _write(tmp_path, SMALL_RUN), "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not captured.out and not caplog.records  # no run started, none was logged
    assert (tmp_path / "taken").read_text() == "not a directory\n"


@pytest.mark.parametrize("where", ["command_line", "file"])
def test_main_negative_seed_exit_code(tmp_path, capsys, where):
    if where == "file":
        argv = ["run", _write(tmp_path, SMALL_RUN.replace("seeds = 0, 1", "seeds = -1"))]
    else:
        argv = ["run", _write(tmp_path, SMALL_RUN), "--seeds=-1"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


# ----------------------------------------------------------------- measures


def test_measures_classification(tmp_path, capsys):
    rng = np.random.default_rng(0)
    features = rng.standard_normal((30, 2))
    labels = np.tile([0, 1, 2], 10)
    path = tmp_path / "data.csv"
    np.savetxt(path, np.column_stack([features, labels]), delimiter=",")
    assert main(["measures", str(path), "--task", "classification"]) == 0
    out = capsys.readouterr().out
    assert "n_samples = 30" in out
    assert "n_classes = 3" in out
    # balanced three classes: shannon = ln 3
    assert f"{math.log(3):.9g}"[:8] in out
    assert "diversity_index" in out


def _measure_classes(tmp_path, capsys, labels) -> str:
    path = tmp_path / "labels.csv"
    np.savetxt(path, np.column_stack([np.arange(len(labels), dtype=float), labels]), delimiter=",")
    assert main(["measures", str(path), "--task", "classification"]) == 0
    return capsys.readouterr().out


def test_measures_sparse_labels_print_what_dense_labels_print(tmp_path, capsys):
    # labels name classes: a large label adds one class, not a million empty ones
    sparse = _measure_classes(tmp_path, capsys, [0, 1, 1000000, 0])
    assert "n_classes = 3\n" in sparse
    assert sparse == _measure_classes(tmp_path, capsys, [0, 1, 2, 0])


def test_measures_signed_labels_are_classes(tmp_path, capsys):
    out = _measure_classes(tmp_path, capsys, [-1, 1])
    assert "n_classes = 2\n" in out
    assert out == _measure_classes(tmp_path, capsys, [0, 1])


def test_measures_single_class_entropy_is_positive_zero(tmp_path, capsys):
    path = tmp_path / "one_class.csv"
    np.savetxt(path, np.column_stack([np.arange(5.0), np.zeros(5)]), delimiter=",")
    assert main(["measures", str(path), "--task", "classification"]) == 0
    assert "shannon_entropy = 0\n" in capsys.readouterr().out


def test_measures_timeseries(tmp_path, capsys):
    t = np.arange(200)
    series = np.sin(2 * np.pi * t / 25)
    path = tmp_path / "wave.csv"
    np.savetxt(path, series[:, None], delimiter=",")
    assert main(["measures", str(path), "--task", "timeseries"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the defaults are DiversityConfig's: m = 2 and r = 0.2 * std
    r = 0.2 * float(series.std())
    assert lines[1] == f"approximate_entropy = {approximate_entropy(series, 2, r):.9g}"
    assert lines[2] == f"sample_entropy = {sample_entropy(series, 2, r):.9g}"
    assert lines[3].startswith("diversity_index = ")


def test_measures_timeseries_without_template_matches(tmp_path, capsys):
    path = tmp_path / "noise.csv"
    np.savetxt(path, np.random.default_rng(0).standard_normal(40)[:, None], delimiter=",")
    assert main(["measures", str(path), "--task", "timeseries", "--tolerance-scale", "1e-9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "sample_entropy = inf  # no template matches: maximally irregular" in lines
    assert f"diversity_index = {math.log1p(40):.9g}" in lines  # maximal irregularity: u_hat = 1


def test_measures_flat_series_entropy_is_positive_zero(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    np.savetxt(path, np.ones((6, 1)), delimiter=",")
    assert main(["measures", str(path), "--task", "timeseries"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "sample_entropy = 0" in lines
    assert "diversity_index = 0" in lines


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_measures_non_finite_series_is_one_error_line(tmp_path, capsys, value):
    path = tmp_path / "series.csv"
    path.write_text("\n".join([*map(str, np.sin(np.arange(40) / 4).tolist()), value]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would end the run in a traceback
        assert main(["measures", str(path), "--task", "timeseries"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "not_finite" in captured.err
    assert captured.out == ""


def test_measures_bad_file(tmp_path, capsys):
    assert main(["measures", str(tmp_path / "missing.csv"), "--task", "classification"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "# no rows, only a comment\n"], ids=["empty", "comment_only"])
def test_measures_file_without_rows_is_an_error_not_a_warning(tmp_path, capsys, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    assert main(["measures", str(path), "--task", "classification"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: need at least two rows\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "rows, args, message",
    [
        ([[1.0], [2.0], [3.0]], ["--task", "timeseries"], "series_too_short"),
        ([[np.sin(t / 4)] for t in range(60)], ["--task", "timeseries", "--embedding-m", "0"], "embedding dimension"),
        ([[np.sin(t / 4)] for t in range(60)], ["--task", "timeseries", "--tolerance-scale", "inf"], "not_finite"),
        ([[np.sin(t / 4)] for t in range(60)], ["--task", "timeseries", "--tolerance-scale", "nan"], "not_finite"),
        ([[np.sin(t / 4)] for t in range(200)], ["--task", "timeseries", "--tolerance-scale=0"], "nonpositive_tolerance_scale"),
        ([[np.sin(t / 4)] for t in range(200)], ["--task", "timeseries", "--tolerance-scale=-0.2"], "nonpositive_tolerance_scale"),
        ([[0.1, 0.5], [0.2, 1.5], [0.3, 1.9], [0.4, 0.2]], ["--task", "classification"], "whole numbers"),
    ],
    ids=[
        "short_series",
        "zero_embedding",
        "inf_tolerance",
        "nan_tolerance",
        "zero_tolerance",
        "negative_tolerance",
        "fractional_label",
    ],
)
def test_measures_undefined_input_is_an_error_not_a_traceback(tmp_path, capsys, rows, args, message):
    path = tmp_path / "data.csv"
    np.savetxt(path, np.array(rows), delimiter=",")
    assert main(["measures", str(path), *args]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""
