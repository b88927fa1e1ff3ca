import re
from pathlib import Path

import pytest

from fedsplit.config import (KNOWN_KEYS, PROTECTION_KINDS, DataConfig, ProtectionMode,
                             apply_overrides, config_from_flat, config_to_flat, load_config,
                             parse_kv_text)
from fedsplit.errors import ConfigError


class TestParseKvText:
    def test_basic(self):
        flat = parse_kv_text("a.b = 1\n# comment\n\nc.d = hello  # trailing\n")
        assert flat == {"a.b": "1", "c.d": "hello"}

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_kv_text("a.b = 1\nbogus line\n")

    def test_empty_key(self):
        with pytest.raises(ConfigError):
            parse_kv_text("= 3\n")


class TestBuildConfig:
    def test_defaults_from_empty(self):
        cfg = config_from_flat({})
        assert cfg.protection.kind == "parallel"
        assert cfg.he_backend == "mock"
        assert cfg.rounds.rounds_T == 3

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="protection.kindd"):
            config_from_flat({"protection.kindd": "none"})

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="round.rounds_T"):
            config_from_flat({"round.rounds_T": "twenty"})

    def test_bad_section_value(self):
        with pytest.raises(ConfigError, match="protection"):
            config_from_flat({"protection.kind": "both"})

    def test_ring_degree_above_the_cap_is_a_config_error(self):
        with pytest.raises(ConfigError, match=r"^config section 'he': ring_degree must be an "
                                              r"integer in \[8, 131072\], got 1099511627776$"):
            config_from_flat({"he.ring_degree": str(2**40)})

    @pytest.mark.parametrize("kind", ["synthetic", "csv"])
    @pytest.mark.parametrize("path", [3, 0, None, b"data.csv", 1.5],
                             ids=["fd", "fd0", "None", "bytes", "float"])
    def test_dataset_path_is_a_str_or_pathlike(self, kind, path):
        # an int path made load_csv_dataset open that file descriptor
        with pytest.raises(ValueError, match=rf"^path must be a str or os\.PathLike, "
                                             rf"not {type(path).__name__}$"):
            DataConfig(kind=kind, path=path)
        assert DataConfig(kind=kind, path=Path("data.csv")).path == Path("data.csv")

    def test_overrides_take_precedence(self):
        flat = apply_overrides({"schedule.lambda": "0.99"}, ["schedule.lambda=0.95"])
        cfg = config_from_flat(flat)
        assert cfg.schedule.lam == 0.95

    def test_full_mapping(self):
        cfg = config_from_flat({
            "dataset.kind": "synthetic",
            "dataset.num_samples": "500",
            "dataset.input_dim": "6",
            "dataset.num_classes": "3",
            "dataset.partition": "dirichlet",
            "dataset.dirichlet_alpha": "0.5",
            "model.kind": "mlp",
            "model.hidden_dims": "16,8",
            "round.clients_total_N": "4",
            "round.clients_sampled_n": "2",
            "round.learning_rate_eta": "0.2",
            "protection.kind": "serial",
            "schedule.mode": "dynamic",
            "schedule.r0": "0.3",
            "schedule.lambda": "0.9",
            "voting.strategy": "random",
            "dp.theta": "0.5",
            "he.backend": "ckks",
            "he.ring_degree": "64",
            "seed": "42",
            "workers": "2",
        })
        assert cfg.model.hidden_dims == (16, 8)
        assert cfg.data.partition == "dirichlet"
        assert cfg.rounds.clients_sampled_n == 2
        assert cfg.protection.kind == "serial"
        assert cfg.schedule.mode == "dynamic"
        assert cfg.strategy.value == "random"
        assert cfg.he_backend == "ckks"
        assert cfg.he_params.ring_degree == 64
        assert cfg.seed == 42 and cfg.workers == 2

    def test_strategy_validation(self):
        with pytest.raises(ConfigError, match="voting.strategy"):
            config_from_flat({"voting.strategy": "biggest"})

    def test_backend_validation(self):
        with pytest.raises(ConfigError, match="he.backend"):
            config_from_flat({"he.backend": "seal"})

    def test_cross_field_validation(self):
        with pytest.raises(ConfigError, match="round"):
            config_from_flat({"round.clients_total_N": "2",
                              "round.clients_sampled_n": "5"})

    @pytest.mark.parametrize("kind", PROTECTION_KINDS)
    def test_no_he_headroom_refused_where_the_pipeline_encrypts(self, kind):
        """At 12 modulus bits and 10 scale bits the decode noise alone can
        wrap a fold, so every encrypt would be refused mid-run."""
        flat = {"protection.kind": kind, "he.modulus_bits": "12", "he.scale_bits": "10"}
        if ProtectionMode(kind).pipeline.encrypted == "none":
            assert config_from_flat(flat).he_params.max_encodable < 0
            return
        with pytest.raises(ConfigError, match=r"he\.modulus_bits=12, he\.scale_bits=10, "
                                              r"he\.max_additions=256 .* no fixed-point "
                                              r"headroom \(-0\.50695\d*\)"):
            config_from_flat(flat)

    @pytest.mark.parametrize("kind", ["he_only", "none"])
    @pytest.mark.parametrize("rounds", [10 ** 400, 2 ** 52 + 1], ids=["10**400", "2**52+1"])
    def test_rounds_beyond_bound_named(self, kind, rounds):
        """Parse only: such a run overflowed the cost check or never ended."""
        with pytest.raises(ConfigError, match=r"'round'.*rounds_T"):
            config_from_flat({"round.rounds_T": str(rounds), "protection.kind": kind})

    def test_flat_echo_roundtrip(self):
        cfg = config_from_flat({"schedule.r0": "0.25", "seed": "9"})
        echoed = config_from_flat(config_to_flat(cfg))
        assert echoed == cfg
        for kind in PROTECTION_KINDS:
            cfg = config_from_flat({
                "protection.kind": kind, "protection.amplitude_scale": "0.7",
                "model.kind": "mlp", "model.hidden_dims": "16,8",
                "voting.strategy": "random", "he.backend": "ckks",
                "he.per_op_seconds": "0.1", "report.include_wall_time": "true",
            })
            assert set(config_to_flat(cfg)) == set(KNOWN_KEYS) - {"workers"}
            assert config_from_flat(config_to_flat(cfg)) == cfg


def test_readme_key_table_matches_known_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| section | keys |", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for row in table.splitlines()[2:]:
        section, keys = (cell.strip() for cell in row.strip("|").split("|"))
        prefix = "" if section == "(top)" else section + "."
        documented[section] = {prefix + key for key in re.findall(r"`(\w+)`", keys)}
    known = {}
    for key in KNOWN_KEYS:
        known.setdefault(key.split(".")[0] if "." in key else "(top)", set()).add(key)
    assert documented == known


class TestLoadConfig:
    def test_file_roundtrip(self, tmp_path):
        p = tmp_path / "exp.conf"
        p.write_text("seed = 5\nround.rounds_T = 2\n")
        cfg = load_config(str(p), overrides=["seed=6"])
        assert cfg.seed == 6
        assert cfg.rounds.rounds_T == 2

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.conf")

    def test_utf8_bom_is_skipped(self, tmp_path):
        """A BOM used to stick to the first key, which then read as unknown."""
        text = "seed = 3\nround.rounds_T = 2\n"
        plain, bom = tmp_path / "plain.conf", tmp_path / "bom.conf"
        plain.write_bytes(text.encode())
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert load_config(str(bom)) == load_config(str(plain))

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        data = tmp_path / "a#b.csv"
        data.write_text("f0,label\n0.5,0\n")
        p = tmp_path / "exp.conf"
        p.write_text(f"dataset.kind = csv\ndataset.path = {data}  # the data\n")
        assert load_config(str(p)).data.path == str(data)

    def test_bad_override_shape(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["justakey"])
