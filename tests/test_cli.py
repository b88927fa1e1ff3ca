import copy
import csv
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsplit.cli import main
from fedsplit.metrics import ExperimentReport, RoundMetrics

MINI = """
dataset.num_samples = 300
dataset.input_dim = 6
dataset.num_classes = 3
round.clients_total_N = 3
round.clients_sampled_n = 3
round.rounds_T = 2
seed = 5
"""


COST_KEYS = ["he.per_op_seconds", "he.per_slot_seconds"]

# Values that parse as their types but can never run, each with the words its
# config error must name.  Before it was checked at the parse, each one trained
# or built data and exited 2, unless a comment below says otherwise.
NEVER_RUNS = {
    "hidden_width_negative": (["model.kind=mlp", "model.hidden_dims=-3"],
                              ["'model'", "hidden_dims"]),
    "hidden_width_zero": (["model.kind=mlp", "model.hidden_dims=8,0"],
                          ["'model'", "hidden_dims"]),
    "dirichlet_alpha_zero": (["dataset.partition=dirichlet", "dataset.dirichlet_alpha=0"],
                             ["'dataset'", "dirichlet_alpha"]),
    "test_fraction_above_one": (["dataset.test_fraction=1.5"],
                                ["'dataset'", "test_fraction"]),
    "no_samples": (["dataset.num_samples=0"], ["'dataset'", "num_samples"]),
    "no_features": (["dataset.input_dim=0"], ["'dataset.input_dim'", "got 0"]),
    "no_classes": (["dataset.num_classes=0"], ["'dataset.num_classes'", "got 0"]),
    "separation_nan": (["dataset.separation=nan"], ["'dataset'", "separation"]),
    "learning_rate_infinite": (["round.learning_rate_eta=inf"],
                               ["'round'", "learning_rate_eta"]),
    "cost_per_slot_infinite": (["he.per_slot_seconds=inf"], ["'he'", "per_slot_seconds"]),
    "epsilon_negative": (["dp.epsilon=-1"], ["dp.epsilon"]),
    "delta_above_one": (["dp.delta=2"], ["dp.delta"]),
    "theta_zero": (["dp.theta=0"], ["dp.theta"]),
    "seed_negative": (["seed=-1"], ["seed"]),
    "max_additions_below_cohort": (["round.clients_total_N=4", "round.clients_sampled_n=4",
                                    "he.max_additions=2"],
                                   ["he.max_additions", "round.clients_sampled_n"]),
    "max_additions_below_cohort_ckks": (["round.clients_total_N=4",
                                         "round.clients_sampled_n=4", "he.max_additions=2",
                                         "he.backend=ckks", "he.ring_degree=64"],
                                        ["he.max_additions", "round.clients_sampled_n"]),
    # Every encrypt was refused, in round 0 after setup and training.
    "no_he_headroom": (["protection.kind=he_only", "he.modulus_bits=12", "he.scale_bits=10"],
                       ["he.modulus_bits=12", "he.scale_bits=10", "he.max_additions"]),
    "no_test_row": (["dataset.test_fraction=0.0001"], ["'dataset'", "test_fraction"]),
    "fewer_train_rows_than_clients": (["dataset.num_samples=3", "round.clients_total_N=5"],
                                      ["dataset.num_samples", "round.clients_total_N"]),
    "fewer_samples_than_classes": (["dataset.num_samples=5", "dataset.num_classes=8",
                                    "round.clients_total_N=1", "round.clients_sampled_n=1"],
                                   ["dataset.num_samples=5", "dataset.num_classes=8"]),
    # Escaped from the parse as an uncaught OverflowError.
    "num_samples_beyond_any_float": ([f"dataset.num_samples={10 ** 400}"], ["'dataset'"]),
    # A simulated cost model whose totals or ratio overflow: the first failed
    # in round 0 (exit 2), the other two wrote a report with an infinity.
    "round_cost_infinite": (["protection.kind=he_only", "round.rounds_T=30",
                             "he.per_op_seconds=1e308"], COST_KEYS),
    "total_cost_infinite": (["protection.kind=he_only", "round.rounds_T=30",
                             "he.per_op_seconds=1e307"], COST_KEYS),
    "efficiency_ratio_infinite": (["he.per_op_seconds=1e-320", "he.per_slot_seconds=0"],
                                  COST_KEYS),
    # Found by tests/test_config_property.py.
    "ckks_no_ntt_prime": (["he.backend=ckks", "protection.kind=he_only",
                           "he.ring_degree=65536", "he.modulus_bits=17", "he.scale_bits=4"],
                          ["he.modulus_bits", "he.ring_degree"]),
    "noise_std_infinite": (["dp.theta=1.7e308"], ["dp.theta", "dp.epsilon", "dp.delta"]),
    "noise_std_infinite_delta": (["protection.kind=dp_only", "dp.delta=5e-324"],
                                 ["dp.theta", "dp.epsilon", "dp.delta"]),
    "dirichlet_draw_overflows": (["dataset.partition=dirichlet", "dataset.dirichlet_alpha=1e308"],
                                 ["dataset.dirichlet_alpha", "round.clients_total_N"]),
}


@pytest.fixture
def mini_config(tmp_path):
    p = tmp_path / "mini.conf"
    p.write_text(MINI)
    return p


CKKS_HE_ONLY = ["--set", "he.backend=ckks", "--set", "protection.kind=he_only"]
HUGE_RING = 2**17


@pytest.fixture
def huge_ring_out_of_memory(monkeypatch):
    """A ring's power table of ``HUGE_RING`` entries raises MemoryError, as
    numpy does when it cannot allocate one, so a run at the largest ring
    degree the config takes meets an allocation failure."""
    from fedsplit.he import ring
    pow_table = ring._pow_table

    def refuse_huge(base, count, q):
        if count >= HUGE_RING:
            raise MemoryError(f"Unable to allocate {8 * count} bytes")
        return pow_table(base, count, q)

    monkeypatch.setattr(ring, "_pow_table", refuse_huge)


class TestRun:
    def test_minimal_run_writes_outputs(self, mini_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(mini_config), "--out", str(out)]) == 0
        assert (out / "report.json").exists()
        assert (out / "rounds.csv").exists()
        doc = json.loads((out / "report.json").read_text())
        assert doc["complete"] is True
        assert len(doc["rounds"]) == 2
        rows = list(csv.DictReader((out / "rounds.csv").read_text().splitlines()))
        assert len(rows) == 2
        assert set(rows[0]) == {"round", "r_t", "accuracy", "sim_time_s",
                                "wall_time_s"}

    def test_unknown_key_names_it(self, tmp_path, capsys):
        p = tmp_path / "bad.conf"
        p.write_text("protection.kindd = none\n")
        code = main(["run", "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "protection.kindd" in capsys.readouterr().err

    def test_override_supersedes_file(self, mini_config, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--config", str(mini_config), "--out", str(out),
                     "--set", "schedule.lambda=0.95",
                     "--set", "schedule.mode=dynamic"])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["schedule.lambda"] == "0.95"
        assert doc["rounds"][1]["r_t"] == pytest.approx(0.1 * 0.95)

    def test_seed_flag_and_determinism(self, mini_config, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "--config", str(mini_config), "--out", str(out),
                         "--seed", "123"]) == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_worker_flag_does_not_change_report(self, mini_config, tmp_path):
        blobs = []
        for workers in ("1", "3"):
            out = tmp_path / f"w{workers}"
            assert main(["run", "--config", str(mini_config), "--out", str(out),
                         "--set", f"workers={workers}"]) == 0
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_csv_dataset_end_to_end(self, tmp_path):
        import numpy as np
        rng = np.random.default_rng(0)
        rows = ["f0,f1,f2,label"]
        for _ in range(120):
            label = int(rng.integers(0, 2))
            feats = rng.normal(2.0 * label, 1.0, 3)
            rows.append(",".join(f"{v:.5f}" for v in feats) + f",{label}")
        data = tmp_path / "data.csv"
        data.write_text("\n".join(rows) + "\n")
        conf = tmp_path / "csv.conf"
        conf.write_text(
            "dataset.kind = csv\n"
            f"dataset.path = {data}\n"
            "dataset.input_dim = 3\n"
            "dataset.num_classes = 2\n"
            "round.clients_total_N = 2\n"
            "round.clients_sampled_n = 2\n"
            "round.rounds_T = 2\n"
            "model.kind = logistic\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(conf), "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["complete"] is True

    @pytest.mark.parametrize("held_out", [True, False])
    def test_csv_non_finite_feature_is_runtime_error(self, tmp_path, capsys, held_out):
        # a NaN row that lands in the evaluation set used to run to exit 0,
        # scored as class 0 (the argmax of NaN logits)
        import numpy as np
        from fedsplit import seeds
        from fedsplit.datasets import train_test_rows
        n = 40
        train, test = train_test_rows(n, 0.2, seeds.seed_sequence(0, seeds.SPLIT, 0))
        row = int((test if held_out else train)[0])
        rng = np.random.default_rng(0)
        rows = ["f0,f1,label"]
        for i in range(n):
            feats = [f"{v:.5f}" for v in rng.normal(0.0, 1.0, 2)]
            rows.append(",".join(["nan" if i == row else feats[0], feats[1], str(i % 2)]))
        data = tmp_path / "data.csv"
        data.write_text("\n".join(rows) + "\n")
        conf = tmp_path / "csv.conf"
        conf.write_text(f"dataset.kind = csv\ndataset.path = {data}\ndataset.input_dim = 2\n"
                        "dataset.num_classes = 2\nround.clients_total_N = 2\n"
                        "round.clients_sampled_n = 2\nround.rounds_T = 1\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(conf), "--out", str(out)]) == 2
        assert f"data.csv: line {row + 2}: non-finite" in capsys.readouterr().err
        assert json.loads((out / "report.json").read_text())["complete"] is False

    def test_csv_over_long_field_is_runtime_error(self, tmp_path, capsys):
        # the csv module's field limit used to escape as _csv.Error: exit 1, no report
        data = tmp_path / "data.csv"
        data.write_text("f0,f1,label\n" + "1" * 140_000 + ",2.0,0\n")
        conf = tmp_path / "csv.conf"
        conf.write_text(f"dataset.kind = csv\ndataset.path = {data}\ndataset.input_dim = 2\n"
                        "dataset.num_classes = 2\nround.clients_total_N = 2\n"
                        "round.clients_sampled_n = 2\nround.rounds_T = 1\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(conf), "--out", str(out)]) == 2
        assert "data.csv: line 2: field larger than field limit" in capsys.readouterr().err
        assert json.loads((out / "report.json").read_text())["complete"] is False

    def test_missing_csv_is_config_error(self, tmp_path, capsys):
        conf = tmp_path / "csv.conf"
        conf.write_text(f"dataset.kind = csv\ndataset.path = {tmp_path / 'nope.csv'}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(conf), "--out", str(out)]) == 1
        assert "dataset.path" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_columns_differ_from_input_dim(self, tmp_path, capsys):
        # the parse cannot see a CSV's columns: only the load finds three, not two
        data = tmp_path / "data.csv"
        data.write_text("f0,f1,f2,label\n"
                        + "".join(f"{i}.0,1.0,2.0,{i % 2}\n" for i in range(20)))
        conf = tmp_path / "csv.conf"
        conf.write_text(f"dataset.kind = csv\ndataset.path = {data}\ndataset.input_dim = 2\n"
                        "dataset.num_classes = 2\nround.clients_total_N = 2\n"
                        "round.clients_sampled_n = 2\nround.rounds_T = 1\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(conf), "--out", str(out)]) == 2
        assert "data.csv: header has 3 feature columns, but dataset.input_dim is 2" \
            in capsys.readouterr().err
        assert json.loads((out / "report.json").read_text())["complete"] is False

    def test_data_file_gone_after_parse(self, mini_config, tmp_path, monkeypatch, capsys):
        from fedsplit import cli
        from fedsplit.config import DataConfig, ExperimentConfig
        # DataConfig does not check that the file exists; only the parse does
        cfg = ExperimentConfig(data=DataConfig(kind="csv", path=str(tmp_path / "gone.csv")))
        monkeypatch.setattr(cli, "load_config", lambda path, overrides: cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", str(mini_config), "--out", str(out)]) == 2
        assert "gone.csv" in capsys.readouterr().err
        doc = json.loads((out / "report.json").read_text())
        assert doc["complete"] is False

    @pytest.mark.parametrize("case", sorted(NEVER_RUNS))
    def test_config_that_cannot_run_exits_one(self, case, mini_config, tmp_path, capsys):
        overrides, named = NEVER_RUNS[case]
        out = tmp_path / "out"
        argv = ["run", "--config", str(mini_config), "--out", str(out)]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert all(word in err for word in named), err
        assert not out.exists()

    def test_no_he_headroom_runs_when_nothing_is_encrypted(self, mini_config, tmp_path):
        """The headroom check refuses only a pipeline that encrypts."""
        out = tmp_path / "out"
        assert main(["run", "--config", str(mini_config), "--out", str(out),
                     "--set", "protection.kind=dp_only", "--set", "he.modulus_bits=12",
                     "--set", "he.scale_bits=10"]) == 0
        assert json.loads((out / "report.json").read_text())["complete"] is True

    def test_out_of_memory_is_runtime_error(self, mini_config, tmp_path, capsys,
                                            huge_ring_out_of_memory):
        out = tmp_path / "out"
        code = main(["run", "--config", str(mini_config), "--out", str(out), *CKKS_HE_ONLY,
                     "--set", f"he.ring_degree={HUGE_RING}"])
        assert code == 2
        assert "Unable to allocate" in capsys.readouterr().err
        assert json.loads((out / "report.json").read_text())["complete"] is False

    def test_runtime_failure_exit_code(self, tmp_path, capsys):
        p = tmp_path / "diverge.conf"
        p.write_text(MINI + "model.kind = linear\nround.learning_rate_eta = 1e18\n")
        out = tmp_path / "out"
        code = main(["run", "--config", str(p), "--out", str(out)])
        assert code == 2
        doc = json.loads((out / "report.json").read_text())
        assert doc["complete"] is False


class TestSweep:
    def test_theta_sweep_writes_summary(self, mini_config, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(mini_config), "--out", str(out),
                     "--param", "dp.theta", "--values", "0.01,0.1,1,10"])
        assert code == 0
        rows = list(csv.DictReader((out / "summary.csv").read_text().splitlines()))
        assert [row["value"] for row in rows] == ["0.01", "0.1", "1", "10"]
        assert all(row["accuracy"] for row in rows)
        assert (out / "dp_theta=0.01" / "report.json").exists()

    def test_client_count_sweep(self, mini_config, tmp_path):
        out = tmp_path / "sweepN"
        code = main(["sweep", "--config", str(mini_config), "--out", str(out),
                     "--set", "round.clients_sampled_n=5",
                     "--param", "round.clients_total_N",
                     "--values", "5,10,25,50"])
        # clients_sampled_n=5 keeps every swept N valid
        assert code == 0
        rows = list(csv.DictReader((out / "summary.csv").read_text().splitlines()))
        assert [row["value"] for row in rows] == ["5", "10", "25", "50"]
        assert all(row["accuracy"] for row in rows)

    def test_r0_sweep(self, mini_config, tmp_path):
        out = tmp_path / "sweepR"
        code = main(["sweep", "--config", str(mini_config), "--out", str(out),
                     "--param", "schedule.r0", "--values", "0.01,0.05,0.10,0.20"])
        assert code == 0
        rows = list(csv.DictReader((out / "summary.csv").read_text().splitlines()))
        assert len(rows) == 4

    def test_partial_failure_exit_three(self, mini_config, tmp_path, capsys):
        out = tmp_path / "sweepP"
        code = main(["sweep", "--config", str(mini_config), "--out", str(out),
                     "--param", "round.clients_total_N", "--values", "3,1000"])
        assert code == 3
        rows = list(csv.DictReader((out / "summary.csv").read_text().splitlines()))
        assert len(rows) == 2
        assert rows[1]["accuracy"] == ""

    def test_out_of_memory_value_fails_alone(self, mini_config, tmp_path, capsys,
                                             huge_ring_out_of_memory):
        out = tmp_path / "sweepM"
        code = main(["sweep", "--config", str(mini_config), "--out", str(out), *CKKS_HE_ONLY,
                     "--param", "he.ring_degree", "--values", f"{HUGE_RING},4096"])
        assert code == 3
        rows = list(csv.DictReader((out / "summary.csv").read_text().splitlines()))
        assert [(row["value"], bool(row["accuracy"])) for row in rows] == [
            (str(HUGE_RING), False), ("4096", True)]

    def test_values_with_a_slash_stay_sibling_dirs_under_out(self, tmp_path, capsys):
        # a value's '/' used to nest or scatter sub-runs, '../' to leave --out
        data = tmp_path / "x.csv"
        data.write_text("f0,label\n" + "".join(f"{i}.0,{i % 2}\n" for i in range(20)))
        conf = tmp_path / "base" / "csv.conf"
        conf.parent.mkdir()
        conf.write_text("dataset.kind = csv\ndataset.input_dim = 1\ndataset.num_classes = 2\n"
                        "round.clients_total_N = 2\nround.clients_sampled_n = 2\n"
                        "round.rounds_T = 1\n")
        out = tmp_path / "base" / "a" / "b" / "sweep"
        out.parent.mkdir(parents=True)
        before = set(tmp_path.rglob("*"))
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(out.parent)  # so both values name tmp_path/x.csv
            code = main(["sweep", "--config", str(conf), "--out", str(out),
                         "--param", "dataset.path", "--values", "../../../x.csv,./../../../x.csv"])
        assert code == 0, capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == [
            "dataset_path=.%2F..%2F..%2F..%2Fx.csv", "dataset_path=..%2F..%2F..%2Fx.csv",
            "summary.csv"]
        written = set(tmp_path.rglob("*")) - before
        assert all(p == out or out in p.parents for p in written)

    def test_unknown_sweep_key(self, mini_config, tmp_path, capsys):
        code = main(["sweep", "--config", str(mini_config),
                     "--out", str(tmp_path / "x"),
                     "--param", "dp.thetaa", "--values", "1"])
        assert code == 1
        assert "dp.thetaa" in capsys.readouterr().err


# Config files that cannot be read or parsed, each with the words its error names.
BAD_CONFIG_FILES = {
    "missing": (None, ["cannot read config", "No such file"]),
    "not_utf8": (b"seed = 1\n# caf\xe9\n", ["cannot read config", "byte 0xe9"]),
    "repeated_key": (b"seed = 1\nround.rounds_T = 2\nseed = 2\n",
                     ["line 3: key 'seed' repeats line 1"]),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_FILES))
def test_run_and_sweep_reject_a_config_file_alike(case, tmp_path, capsys):
    data, named = BAD_CONFIG_FILES[case]
    conf = tmp_path / "exp.conf"
    if data is not None:
        conf.write_bytes(data)
    errs = []
    for argv in (["run"], ["sweep", "--param", "dp.theta", "--values", "1,2"]):
        out = tmp_path / argv[0]
        assert main([*argv, "--config", str(conf), "--out", str(out)]) == 1
        errs.append(capsys.readouterr().err)
        assert not out.exists()
    assert errs[0] == errs[1]
    assert errs[0].startswith("config error: ")
    assert all(word in errs[0] for word in named), errs[0]


class TestAccountant:
    def test_reference_value(self, capsys):
        assert main(["accountant", "--epsilon", "1", "--delta", "1e-5",
                     "--q", "1", "--rounds", "50", "--theta", "1",
                     "--min-dataset", "100"]) == 0
        out = capsys.readouterr().out
        assert "delta_f = 0.02" in out
        assert "sigma_z = 0.6786140424" in out

    def test_delta_one_rejected(self, capsys):
        assert main(["accountant", "--epsilon", "1", "--delta", "1",
                     "--q", "1", "--rounds", "50", "--theta", "1",
                     "--min-dataset", "100"]) == 1

    def test_epsilon_homogeneity(self, capsys):
        main(["accountant", "--epsilon", "1", "--delta", "1e-5", "--q", "0.5",
              "--rounds", "10", "--theta", "2", "--min-dataset", "40"])
        sigma1 = float(capsys.readouterr().out.splitlines()[1].split("=")[1])
        main(["accountant", "--epsilon", "2", "--delta", "1e-5", "--q", "0.5",
              "--rounds", "10", "--theta", "2", "--min-dataset", "40"])
        sigma2 = float(capsys.readouterr().out.splitlines()[1].split("=")[1])
        assert sigma2 == pytest.approx(sigma1 / 2, rel=1e-9)

    @pytest.mark.parametrize("epsilon,rounds,theta", [
        ("1", str(10 ** 400), "1"),  # T does not fit a float
        ("1", "50", "1e308"),        # delta_f = 2 * theta overflows
        ("5e-324", "50", "1"),       # delta_f / epsilon overflows
    ], ids=["rounds-1e400", "theta-1e308", "epsilon-5e-324"])
    def test_no_finite_noise_exits_one(self, epsilon, rounds, theta, capsys):
        assert main(["accountant", "--epsilon", epsilon, "--delta", "1e-5", "--q", "1",
                     "--rounds", rounds, "--theta", theta, "--min-dataset", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid budget: ")
        assert captured.out == ""


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["run", "--config", "x"],
        ["run", "--config", "x", "--out", "y", "--seed", "abc"],
        ["vote-demo"],  # an unknown subcommand
        ["run", "--config", "x", "--out", "y", "--workers", "2"],  # the key is --set workers=
    ], ids=["missing-out", "seed-not-int", "vote-demo", "workers-flag"])
    def test_malformed_command_line_exits_one(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert "error: " in captured.err and captured.out == ""

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "accountant" in capsys.readouterr().out


class TestReportCmd:
    def test_summarize(self, mini_config, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--config", str(mini_config), "--out", str(out)])
        capsys.readouterr()
        assert main(["report", "--input", str(out / "report.json")]) == 0
        text = capsys.readouterr().out
        assert "final_accuracy" in text
        assert "rounds.csv wall time total" in text

    def test_missing_file(self, tmp_path, capsys):
        assert main(["report", "--input", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("case", ["schema-only", "round-not-object",
                                      "top-level-list", "csv-without-wall",
                                      "accuracy-above-one", "negative-sim-time",
                                      "nan-ratio", "unknown-backend",
                                      "unknown-time-basis", "summary-edited",
                                      "csv-nan-wall", "csv-row-out-of-range",
                                      "csv-extra-row", "csv-accuracy-differs",
                                      "echo-seed-differs", "echo-backend-ckks",
                                      "echo-wall-without-wall-keys", "echo-empty",
                                      "echo-theta-list", "notes-not-strings",
                                      "complete-flipped", "last-round-dropped",
                                      "negative-seed"])
    def test_malformed_report_exits_one(self, real_report, tmp_path, case, capsys):
        doc, csv_text = copy.deepcopy(real_report)
        rows = csv_text.splitlines()
        if case == "schema-only":
            doc = {"schema": "fedsplit-report-v1"}
        elif case == "round-not-object":
            doc["rounds"] = [1]
        elif case == "top-level-list":
            doc = [1, 2]
        elif case == "csv-without-wall":
            csv_text = csv_text.replace(",wall_time_s", "")
        elif case.startswith("echo-"):
            doc["config"] = {} if case == "echo-empty" else dict(doc["config"], **{
                "echo-seed-differs": {"seed": str(doc["seed"] + 1)},
                "echo-backend-ckks": {"he.backend": "ckks"},
                "echo-wall-without-wall-keys": {"report.include_wall_time": "true"},
                "echo-theta-list": {"dp.theta": [1, 2]},
            }[case])
        elif case == "negative-seed":
            # the seed and its echo agree, but no run takes a negative seed
            doc["seed"], doc["config"]["seed"] = -5, "-5"
        elif case == "notes-not-strings":
            doc["notes"] = [1, {"a": 2}, None]
        elif case == "summary-edited":
            doc.update(final_accuracy=0.01, total_sim_time_s=123.0, efficiency_ratio=5.0)
        elif case == "complete-flipped":
            doc["complete"] = False
        elif case == "last-round-dropped":
            # a consistent report of the first round only, still flagged complete
            del doc["rounds"][-1]
            kept = ExperimentReport(config={}, seed=0, backend=doc["backend"], rounds=[
                RoundMetrics(**r, wall_time_s=0.0) for r in doc["rounds"]])
            doc.update(final_accuracy=kept.final_accuracy,
                       total_sim_time_s=kept.total_sim_time_s,
                       efficiency_ratio=kept.efficiency_ratio)
            csv_text = "\n".join(rows[:-1]) + "\n"
        elif case.startswith("csv-"):
            cells = rows[1].split(",")
            if case == "csv-nan-wall":
                rows[1] = ",".join(cells[:-1] + ["nan"])
            elif case == "csv-row-out-of-range":
                rows[-1] = "7,9.0,3.5,-1,-5"
            elif case == "csv-extra-row":
                rows.append(rows[-1])
            else:
                cells[2] = repr(1.0 - float(cells[2]) / 2)
                rows[1] = ",".join(cells)
            csv_text = "\n".join(rows) + "\n"
        else:
            key, value = {"accuracy-above-one": ("final_accuracy", 7.0),
                          "negative-sim-time": ("total_sim_time_s", -3.0),
                          "nan-ratio": ("efficiency_ratio", float("nan")),
                          "unknown-backend": ("backend", "nope"),
                          "unknown-time-basis": ("time_basis", "sideways")}[case]
            doc[key] = value
        assert report_exit_code(doc, csv_text) == 1
        assert "cannot read report" in capsys.readouterr().err

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_report_never_crashes(self, real_report, data):
        """Drop keys from, or retype values in, a real report and its
        rounds.csv: the command exits 0 or 1 and raises nothing."""
        doc, csv_text = copy.deepcopy(real_report)
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            path = data.draw(st.sampled_from(list(json_paths(doc))))
            if path and data.draw(st.booleans()):
                del walk(doc, path[:-1])[path[-1]]
            elif path:
                walk(doc, path[:-1])[path[-1]] = data.draw(JSON_VALUES)
            else:
                doc = data.draw(JSON_VALUES)
        rows = list(csv.reader(csv_text.splitlines()))
        col = data.draw(st.integers(min_value=0, max_value=len(rows[0]) - 1))
        edit = data.draw(st.sampled_from(["keep", "drop", "retype"]))
        if edit == "drop":
            rows = [row[:col] + row[col + 1:] for row in rows]
        elif edit == "retype":
            row = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
            rows[row][col] = data.draw(st.text(max_size=6))
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        assert report_exit_code(doc, buf.getvalue()) in (0, 1)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)


@pytest.fixture(scope="module")
def real_report(tmp_path_factory):
    """The report.json document and rounds.csv text of a real mini run."""
    root = tmp_path_factory.mktemp("real_report")
    (root / "mini.conf").write_text(MINI)
    assert main(["run", "--config", str(root / "mini.conf"), "--out", str(root)]) == 0
    return json.loads((root / "report.json").read_text()), (root / "rounds.csv").read_text()


def report_exit_code(doc, csv_text: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        path.write_text(json.dumps(doc))
        (Path(tmp) / "rounds.csv").write_bytes(csv_text.encode())
        return main(["report", "--input", str(path)])


def json_paths(node, prefix=()):
    """Every key path into a JSON document, the root (empty path) first."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from json_paths(child, prefix + (key,))


def walk(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "fedsplit.cli", "accountant",
                           "--epsilon", "1", "--delta", "1e-5", "--q", "1",
                           "--rounds", "50", "--theta", "1",
                           "--min-dataset", "100"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "sigma_z" in proc.stdout
