import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsplit.datasets import Dataset, synthetic_dataset
from fedsplit.he import BACKENDS
from fedsplit.metrics import (ExperimentReport, RoundMetrics, accuracy,
                              efficiency_ratio, emit_report, parse_report_json)
from fedsplit.models import ModelSpec, init_params, local_train, param_count

class TestAccuracy:
    def test_perfect_predictor(self):
        ds = synthetic_dataset(200, 4, 2, 15.0, seed=1)
        spec = ModelSpec("logistic", 4, 2)
        w = init_params(spec, 0)
        for _ in range(40):
            w += local_train(spec, w, ds.features, ds.labels, 1, 0.5, 32, seed=2)
        assert accuracy(spec, w, Dataset(ds.features[:10], ds.labels[:10])) == 1.0

    def test_constant_predictor_near_chance(self):
        ds = synthetic_dataset(800, 4, 4, 2.0, seed=2)
        spec = ModelSpec("logistic", 4, 4)
        acc = accuracy(spec, np.zeros(param_count(spec)), ds)
        assert acc == pytest.approx(0.25, abs=0.02)

    def test_empty_set_rejected(self):
        ds = synthetic_dataset(50, 4, 2, 2.0, seed=3)
        spec = ModelSpec("logistic", 4, 2)
        with pytest.raises(ValueError):
            accuracy(spec, np.zeros(param_count(spec)),
                     Dataset(ds.features[:0], ds.labels[:0]))


class TestEfficiencyRatio:
    @pytest.mark.parametrize("acc,time_s,expected", [
        (80.93, 3571.0, 2.27),
        (20.28, 3007.0, 0.67),
        (81.14, 18527.0, 0.44),
        # the other two no-protection reference columns
        (79.38, 3665.0, 2.17),
        (77.98, 3699.0, 2.11),
    ])
    def test_reference_rows(self, acc, time_s, expected):
        assert round(efficiency_ratio(acc, time_s), 2) == expected

    def test_zero_accuracy(self):
        assert efficiency_ratio(0.0, 100.0) == 0.0

    def test_zero_time_rejected(self):
        with pytest.raises(ValueError):
            efficiency_ratio(50.0, 0.0)

    def test_overflow_is_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert efficiency_ratio(50.0, np.float64(5e-324)) == math.inf


def sample_report(complete=True, wall=False):
    """A mock report whose config echo carries what the program writes."""
    return ExperimentReport(
        config={"seed": "7", "he.backend": "mock", "protection.kind": "parallel",
                "report.include_wall_time": str(wall).lower(), "round.rounds_T": "1"},
        seed=7, backend="mock",
        rounds=[RoundMetrics(round=0, r_t=0.1, accuracy=0.5,
                             sim_time_s=0.25, wall_time_s=1.5)],
        complete=complete,
        notes=["sigma_z=0.5 calibrated"],
        include_wall_time=wall,
    )


class TestReportIO:
    def test_csv_minimal(self):
        text = emit_report(sample_report(), "csv").decode()
        lines = text.strip().split("\n")
        assert lines[0] == "round,r_t,accuracy,sim_time_s,wall_time_s"
        assert len(lines) == 2
        assert lines[1].startswith("0,0.1,0.5,0.25,1.5")

    def test_json_roundtrip_with_wall_time(self):
        rep = sample_report(wall=True)
        parsed = parse_report_json(emit_report(rep, "json"))
        assert parsed == rep

    def test_wall_time_excluded_by_default(self):
        blob = emit_report(sample_report(), "json")
        assert b"wall_time_s" not in blob

    def test_partial_flagged(self):
        blob = emit_report(sample_report(complete=False), "json")
        assert b'"complete": false' in blob

    def test_byte_stability(self):
        assert emit_report(sample_report(), "json") == emit_report(sample_report(), "json")
        assert emit_report(sample_report(), "csv") == emit_report(sample_report(), "csv")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(sample_report(), "yaml")

    def test_round_metrics_validation(self):
        with pytest.raises(ValueError):
            RoundMetrics(round=0, r_t=0.1, accuracy=1.5, sim_time_s=0.0,
                         wall_time_s=0.0)
        with pytest.raises(ValueError):
            RoundMetrics(round=0, r_t=0.1, accuracy=0.5, sim_time_s=-1.0,
                         wall_time_s=0.0)


class TestParseMalformedReport:
    """Every malformed report raises ValueError naming the offending field."""

    @staticmethod
    def doc():
        return json.loads(emit_report(sample_report(), "json"))

    @pytest.mark.parametrize("key", ["schema", "complete", "seed", "backend",
                                     "time_basis", "config", "rounds",
                                     "final_accuracy", "total_sim_time_s",
                                     "efficiency_ratio", "notes"])
    def test_missing_field_named(self, key):
        doc = self.doc()
        del doc[key]
        with pytest.raises(ValueError, match=f"'{key}'"):
            parse_report_json(json.dumps(doc).encode())

    @pytest.mark.parametrize("key,value", [("seed", "7"), ("complete", 1),
                                           ("rounds", {}), ("final_accuracy", True),
                                           ("efficiency_ratio", "fast"), ("notes", "x")])
    def test_retyped_field_named(self, key, value):
        doc = self.doc()
        doc[key] = value
        with pytest.raises(ValueError, match=f"'{key}'"):
            parse_report_json(json.dumps(doc).encode())

    @pytest.mark.parametrize("bad_round,where", [
        (1, "'rounds[0]'"),
        ({"round": 0, "r_t": 0.1, "sim_time_s": 0.0}, "'rounds[0].accuracy'"),
        ({"round": 0, "r_t": 0.1, "accuracy": [], "sim_time_s": 0.0}, "'rounds[0].accuracy'"),
        ({"round": 0, "r_t": 0.1, "accuracy": 2.0, "sim_time_s": 0.0}, "'rounds[0]'"),
        ({"round": 0, "r_t": 10 ** 400, "accuracy": 0.5, "sim_time_s": 0.0}, "'rounds[0]'"),
        ({"round": 0, "r_t": 0.1, "accuracy": 0.5, "sim_time_s": float("nan")}, "'rounds[0]'"),
    ])
    def test_malformed_round_named(self, bad_round, where):
        doc = self.doc()
        doc["rounds"] = [bad_round]
        with pytest.raises(ValueError, match=re.escape(where)):
            parse_report_json(json.dumps(doc).encode())

    @pytest.mark.parametrize("key,value", [
        ("r_t", -5.0), ("r_t", float("nan")), ("r_t", 7.0), ("round", -1),
        ("sim_time_s", float("inf")), ("wall_time_s", float("inf")),
    ])
    def test_out_of_range_round_named(self, key, value):
        doc = self.doc()
        doc["rounds"][0][key] = value
        with pytest.raises(ValueError, match=re.escape("'rounds[0]")):
            parse_report_json(json.dumps(doc).encode())

    @pytest.mark.parametrize("key,value,where", [
        ("notes", [1, {"a": 2}, None], "'notes[0]'"),
        ("notes", ["a note", None], "'notes[1]'"),
        ("config", {"dp.theta": [1, 2]}, "'config'"),
    ])
    def test_non_string_element_named(self, key, value, where):
        doc = self.doc()
        doc[key] = dict(doc["config"], **value) if key == "config" else value
        with pytest.raises(ValueError, match=re.escape(where)):
            parse_report_json(json.dumps(doc).encode())

    @pytest.mark.parametrize("complete,rounds_T", [
        (False, "1"),  # every round written, yet flagged partial
        (True, "2"),   # flagged complete a round short
        (False, "0"),  # more rounds than the run asked for
        (True, None),  # no round count echoed
        (True, "one"),
    ])
    def test_complete_disagreeing_with_round_count_named(self, complete, rounds_T):
        doc = self.doc()
        doc["complete"] = complete
        doc["config"].pop("round.rounds_T")
        if rounds_T is not None:
            doc["config"]["round.rounds_T"] = rounds_T
        with pytest.raises(ValueError, match="'complete' is "):
            parse_report_json(json.dumps(doc).encode())

    def test_aborted_report_has_fewer_rounds(self):
        doc = self.doc()
        doc["complete"], doc["config"]["round.rounds_T"] = False, "3"
        assert parse_report_json(json.dumps(doc).encode()).complete is False

    def test_rounds_numbered_in_order(self):
        doc = self.doc()
        doc["rounds"].append(dict(doc["rounds"][0]))
        with pytest.raises(ValueError, match=re.escape("'rounds[1].round'")):
            parse_report_json(json.dumps(doc).encode())

    @pytest.mark.parametrize("key,value", [
        ("final_accuracy", 7.0), ("final_accuracy", -0.1),
        ("final_accuracy", float("nan")),
        ("total_sim_time_s", -3.0), ("total_sim_time_s", float("inf")),
        ("total_sim_time_s", 10 ** 400),
        ("total_wall_time_s", -1.0), ("total_wall_time_s", float("nan")),
        ("efficiency_ratio", float("nan")), ("efficiency_ratio", -1.0),
        ("efficiency_ratio", float("inf")),
        ("backend", "nope"), ("time_basis", "sideways"), ("time_basis", "wall"),
    ])
    def test_out_of_range_field_named(self, key, value):
        doc = self.doc()
        doc[key] = value
        with pytest.raises(ValueError, match=f"'{key}'"):
            parse_report_json(json.dumps(doc).encode())

    @pytest.mark.parametrize("key,value", [
        ("final_accuracy", 0.75), ("total_sim_time_s", 0.5),
        ("total_wall_time_s", 2.0), ("efficiency_ratio", 10.0),
    ])
    def test_summary_disagreeing_with_rounds_named(self, key, value):
        rep = sample_report(wall=True)
        doc = json.loads(emit_report(rep, "json"))
        doc[key] = value
        with pytest.raises(ValueError, match=f"'{key}' is {value}, not "):
            parse_report_json(json.dumps(doc).encode())

    def test_summary_that_overflows_named(self):
        doc = self.doc()
        doc["rounds"] = [dict(doc["rounds"][0], round=i, sim_time_s=1.5e308) for i in (0, 1)]
        doc["total_sim_time_s"] = float("inf")
        with pytest.raises(ValueError, match="'total_sim_time_s' is not finite"):
            parse_report_json(json.dumps(doc).encode())

    def test_time_basis_follows_backend(self):
        doc = self.doc()
        doc["backend"], doc["time_basis"], doc["efficiency_ratio"] = "ckks", "wall", None
        doc["config"]["he.backend"] = "ckks"
        assert parse_report_json(json.dumps(doc).encode()).time_basis == "wall"
        doc["time_basis"] = "simulated"
        with pytest.raises(ValueError, match="'time_basis'"):
            parse_report_json(json.dumps(doc).encode())

    @pytest.mark.parametrize("key,value", [
        ("seed", "8"), ("seed", 7), ("seed", None), ("he.backend", "ckks"),
        ("report.include_wall_time", "true"), ("report.include_wall_time", "False"),
    ])
    def test_config_echo_disagreeing_with_report_named(self, key, value):
        doc = self.doc()
        if value is None:
            del doc["config"][key]
        else:
            doc["config"][key] = value
        with pytest.raises(ValueError, match=f"'config' echoes {re.escape(key)}="):
            parse_report_json(json.dumps(doc).encode())

    def test_config_echo_without_wall_times_named(self):
        doc = json.loads(emit_report(sample_report(wall=True), "json"))
        doc["config"]["report.include_wall_time"] = "false"
        with pytest.raises(ValueError, match="'config' echoes report.include_wall_time="):
            parse_report_json(json.dumps(doc).encode())

    def test_empty_config_echo_named(self):
        doc = self.doc()
        doc["config"] = {}
        with pytest.raises(ValueError, match="'config' echoes seed=None"):
            parse_report_json(json.dumps(doc).encode())

    @pytest.mark.parametrize("blob", [b"[1, 2]", b"null", b"\xff", b"{",
                                      b"[" * 100_000 + b"]" * 100_000])
    def test_not_a_report_document(self, blob):
        with pytest.raises(ValueError):
            parse_report_json(blob)


TIMES = st.just(0.0) | st.floats(min_value=1e-9, max_value=1e6)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), TIMES, TIMES),
                     max_size=6),
       backend=st.sampled_from(sorted(BACKENDS)), wall=st.booleans())
def test_json_roundtrip_keeps_every_field(rows, backend, wall):
    """A report the program could write parses back to the same fields,
    the derived summaries included."""
    rep = ExperimentReport(config={"seed": "7", "he.backend": backend,
                                   "report.include_wall_time": str(wall).lower(),
                                   "round.rounds_T": str(max(1, len(rows)))}, seed=7,
                           backend=backend, complete=bool(rows), notes=["n"],
                           rounds=[RoundMetrics(i, *row) for i, row in enumerate(rows)],
                           include_wall_time=wall)
    blob = emit_report(rep, "json")
    doc = json.loads(blob)
    parsed = parse_report_json(blob)
    assert ("total_wall_time_s" in doc) is wall
    for key in doc.keys() - {"schema", "rounds"}:
        assert getattr(parsed, key) == getattr(rep, key) == doc[key], key
    assert emit_report(parsed, "json") == blob
