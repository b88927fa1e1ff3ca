"""Every named choice the program takes is checked by ``errors.check_choice``:
a site accepts a value exactly when it equals one of the site's choices and
is an instance of that choice's type (so a ``str`` subclass such as a
``PartitionStrategy`` member or ``np.str_`` passes), and refuses any other
value with the site's error type and one message form, without hashing it.
The example budget comes from the hypothesis profile (tests/conftest.py
registers ``ci``)."""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedsplit.config import (PROTECTION_KINDS, DataConfig, ExperimentConfig, ProtectionMode,
                             RatioSchedule, config_from_flat, config_to_flat)
from fedsplit.errors import ConfigError, ProtocolError
from fedsplit.he import HeParams, MockBackend, make_backend
from fedsplit.he import wire
from fedsplit.he.wire import deserialize, serialize
from fedsplit.metrics import ExperimentReport, RoundMetrics, emit_report, parse_report_json
from fedsplit.models import ModelSpec
from fedsplit.voting import PartitionStrategy, propose_partition

_BACKENDS = ("ckks", "mock")
_STRATEGIES = ("max", "min", "random")
_MOCK = MockBackend(HeParams(ring_degree=64))
_CT = _MOCK.encrypt(_MOCK.keygen(0), np.ones(3), 1)[0]
_REPORT = ExperimentReport(
    config={"seed": "7", "he.backend": "mock", "report.include_wall_time": "false",
            "round.rounds_T": "1"},
    seed=7, backend="mock", complete=True,
    rounds=[RoundMetrics(round=0, r_t=0.1, accuracy=0.5, sim_time_s=0.25, wall_time_s=1.5)])


def _parse_with_backend(backend: str):
    """Parse ``_REPORT`` written with ``backend`` in both places that store it."""
    written = "ckks" if backend == "ckks" else "mock"
    doc = json.loads(emit_report(dataclasses.replace(
        _REPORT, backend=written, config={**_REPORT.config, "he.backend": written}), "json"))
    doc["backend"] = doc["config"]["he.backend"] = backend
    return parse_report_json(json.dumps(doc).encode())


# (site, the name its message gives, builder of the value, choices, error type):
# the site takes the value exactly when it is one of the choices.
SITES = [
    ("DataConfig.kind", "kind", lambda v: DataConfig(kind=v, path="data.csv"),
     ("synthetic", "csv"), ValueError),
    ("DataConfig.partition", "partition", lambda v: DataConfig(partition=v),
     ("iid", "dirichlet"), ValueError),
    ("RatioSchedule.mode", "mode", lambda v: RatioSchedule(mode=v), ("static", "dynamic"),
     ValueError),
    ("ProtectionMode.kind", "kind", lambda v: ProtectionMode(kind=v), PROTECTION_KINDS,
     ValueError),
    ("ExperimentConfig.strategy", "voting.strategy", lambda v: ExperimentConfig(strategy=v),
     _STRATEGIES, ValueError),
    ("ExperimentConfig.he_backend", "he.backend", lambda v: ExperimentConfig(he_backend=v),
     _BACKENDS, ValueError),
    ("ExperimentConfig.include_wall_time", "report.include_wall_time",
     lambda v: ExperimentConfig(include_wall_time=v), (False, True), ValueError),
    ("ModelSpec.kind", "kind", lambda v: ModelSpec(v, 2, 2, (3,) if v == "mlp" else ()),
     ("linear", "logistic", "mlp"), ValueError),
    ("make_backend.name", "HE backend", lambda v: make_backend(v, HeParams(ring_degree=64)),
     _BACKENDS, ValueError),
    ("propose_partition.strategy", "strategy", lambda v: propose_partition(np.ones(4), 0.5, v),
     _STRATEGIES, ValueError),
    ("emit_report.fmt", "report format", lambda v: emit_report(_REPORT, v), ("json", "csv"),
     ValueError),
    ("parse_report_json.backend", "report field 'backend'", _parse_with_backend, _BACKENDS,
     ValueError),
    ("ExperimentReport.backend", "backend",
     lambda v: ExperimentReport(config={}, seed=0, backend=v), _BACKENDS, ValueError),
    ("serialize.backend", "ciphertext backend",
     lambda v: serialize(dataclasses.replace(_CT, backend=v)), _BACKENDS, ProtocolError),
]
# A JSON document carries only strings here: the parse refuses any other
# backend by its type before the choice is checked.
_STRINGS_ONLY = {"parse_report_json.backend"}


def _taken(choices: tuple) -> list:
    """The choices, and each string choice as the ``str`` subclasses that equal it."""
    if isinstance(choices[0], bool):
        return list(choices)
    members = [s for s in PartitionStrategy if s.value in choices]
    return [*choices, *(np.str_(c) for c in choices), *members]


def _refused(choices: tuple) -> list:
    """Values no site takes: None, ints and a float, a list holding a choice;
    at the flag the bools' other spellings, and at a string site each choice
    in another case, with whitespace, as bytes and as a bool."""
    values = [None, 0, 1, 2, 1.0, [choices[0]], (choices[0],), "", "bogus"]
    if isinstance(choices[0], bool):
        return values + ["true", "false", "True", "1", np.True_, np.False_]
    for c in choices:
        values += [c.upper(), c.title(), f" {c}", f"{c} ", f"{c}\n", f"\t{c}", c.encode(), [c]]
    return values + [True, False]


def _message(name: str, choices: tuple, value) -> str:
    return f"{name} must be one of [{', '.join(repr(c) for c in choices)}], got {value!r}"


@st.composite
def site_values(draw):
    """A site, and a value it takes, one it refuses, or any text; with
    whether the site takes it."""
    site = draw(st.sampled_from(SITES))
    choices = site[3]
    forms = [(v, True) for v in _taken(choices)] + [(v, False) for v in _refused(choices)]
    if site[0] in _STRINGS_ONLY:
        forms = [(v, taken) for v, taken in forms if isinstance(v, str)]
    text = st.text(max_size=12).map(lambda t: (t, t in choices))
    return site, draw(st.sampled_from(forms) | text)


@given(case=site_values())
def test_each_choice_site_takes_exactly_its_choices(case):
    (name, shown, build, choices, error), (value, taken) = case
    if taken:
        build(value)
        return
    with pytest.raises(Exception) as refused:
        build(value)
    assert type(refused.value) is error, (name, value, refused.value)
    assert str(refused.value) == _message(shown, choices, value), (name, str(refused.value))


@pytest.mark.parametrize("site", SITES, ids=[site[0] for site in SITES])
def test_every_choice_and_its_str_subclasses_are_taken(site):
    _name, _shown, build, choices, _error = site
    for value in _taken(choices):
        build(value)


@pytest.mark.parametrize("site", SITES, ids=[site[0] for site in SITES])
def test_every_refused_value_names_the_site(site):
    name, shown, build, choices, error = site
    for value in _refused(choices):
        if name in _STRINGS_ONLY and not isinstance(value, str):
            continue
        with pytest.raises(error) as refused:
            build(value)
        assert type(refused.value) is error, (value, refused.value)
        assert str(refused.value) == _message(shown, choices, value)


def test_the_message_has_one_form():
    with pytest.raises(ValueError, match=r"^he\.backend must be one of \['ckks', 'mock'\], "
                                         r"got \['mock'\]$"):
        ExperimentConfig(he_backend=["mock"])  # was a bare unhashable-type TypeError
    with pytest.raises(ValueError, match=r"^HE backend must be one of \['ckks', 'mock'\], "
                                         r"got \['mock'\]$"):
        make_backend(["mock"])
    with pytest.raises(ValueError, match=r"^backend must be one of \['ckks', 'mock'\], "
                                         r"got \['mock'\]$"):
        # was a bare TypeError, and backend="x" a bare KeyError, in emit_report
        emit_report(ExperimentReport(config={}, seed=0, backend=["mock"]), "json")
    with pytest.raises(ValueError, match=r"^kind must be one of \['none', 'dp_only', "
                                         r"'he_only', 'serial', 'parallel', 'varying_dp'\], "
                                         r"got an integer of 16610 bits$"):
        ProtectionMode(kind=-10**5000)
    with pytest.raises(ProtocolError, match=r"^ciphertext backend must be one of "
                                            r"\['ckks', 'mock'\], got b'mock'$"):
        serialize(dataclasses.replace(_CT, backend=b"mock"))


@pytest.mark.parametrize("code", [0, 3, 255])
def test_a_blob_backend_code_is_one_of_the_codes(code):
    blob = bytearray(serialize(_CT))
    # magic, version and kind bytes, the u32 length, then the params block,
    # whose last byte is the backend code
    blob[len(wire.MAGIC) + 2 + 4 + wire._PARAMS.size - 1] = code
    with pytest.raises(ProtocolError, match=rf"^backend code must be one of \[1, 2\], "
                                            rf"got {code}$"):
        deserialize(bytes(blob))


def test_the_wall_time_flag_is_a_bool():
    # "no" once ran and wrote a report.json that parse_report_json refused
    with pytest.raises(ValueError, match=r"^report\.include_wall_time must be one of "
                                         r"\[False, True\], got 'no'$"):
        ExperimentConfig(include_wall_time="no")
    cfg = ExperimentConfig(include_wall_time=True)
    assert config_to_flat(cfg)["report.include_wall_time"] == "true"


@pytest.mark.parametrize("key, value, choices", [
    ("he.backend", "seal", _BACKENDS),
    ("voting.strategy", "biggest", _STRATEGIES),
])
def test_a_config_file_choice_is_named_by_its_key(key, value, choices):
    with pytest.raises(ConfigError, match=f"^{re.escape(_message(key, choices, value))}$"):
        config_from_flat({key: value})
