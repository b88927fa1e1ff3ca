import csv
import json
import subprocess
import sys

import pytest

from fedsplit.cli import main

MINI = """
dataset.num_samples = 300
dataset.input_dim = 6
dataset.num_classes = 3
round.clients_total_N = 3
round.clients_sampled_n = 3
round.rounds_T = 2
seed = 5
"""


@pytest.fixture
def mini_config(tmp_path):
    p = tmp_path / "mini.conf"
    p.write_text(MINI)
    return p


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
                         "--workers", workers]) == 0
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

    def test_missing_csv_is_config_error(self, tmp_path, capsys):
        conf = tmp_path / "csv.conf"
        conf.write_text(f"dataset.kind = csv\ndataset.path = {tmp_path / 'nope.csv'}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(conf), "--out", str(out)]) == 1
        assert "dataset.path" in capsys.readouterr().err
        assert not out.exists()

    def test_data_file_gone_after_parse(self, mini_config, tmp_path, monkeypatch, capsys):
        from fedsplit import cli
        from fedsplit.runtime import DataConfig, ExperimentConfig
        # DataConfig does not check that the file exists; only the parse does
        cfg = ExperimentConfig(data=DataConfig(kind="csv", path=str(tmp_path / "gone.csv")))
        monkeypatch.setattr(cli, "load_config", lambda path, overrides: cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", str(mini_config), "--out", str(out)]) == 2
        assert "gone.csv" in capsys.readouterr().err
        doc = json.loads((out / "report.json").read_text())
        assert doc["complete"] is False

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

    def test_unknown_sweep_key(self, mini_config, tmp_path, capsys):
        code = main(["sweep", "--config", str(mini_config),
                     "--out", str(tmp_path / "x"),
                     "--param", "dp.thetaa", "--values", "1"])
        assert code == 1
        assert "dp.thetaa" in capsys.readouterr().err


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


class TestVoteDemo:
    def test_single_voter_wins_verbatim(self, capsys):
        assert main(["vote-demo", "--clients", "1", "--dim", "8",
                     "--ratio", "0.5", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        proposed = out.splitlines()[1].split("indices ")[1].split(" ->")[0]
        assert f"winning partition: {proposed}" in out

    def test_zero_ratio_empty_partition(self, capsys):
        assert main(["vote-demo", "--clients", "3", "--dim", "8",
                     "--ratio", "0", "--seed", "4"]) == 0
        assert "winning partition: []" in capsys.readouterr().out

    def test_demo_smoke(self, capsys):
        assert main(["vote-demo", "--clients", "3", "--dim", "16",
                     "--ratio", "0.25", "--strategy", "min", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "server tally" in out


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


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "fedsplit.cli", "accountant",
                           "--epsilon", "1", "--delta", "1e-5", "--q", "1",
                           "--rounds", "50", "--theta", "1",
                           "--min-dataset", "100"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "sigma_z" in proc.stdout
