"""Property: a config drawn from the config vocabulary either fails the parse
with a ConfigError naming a key or section, or sets up a run.

Values are drawn from each key's parse domain in ``config._KEYS``: any
integer, any float (NaN and infinities included), the booleans' spellings,
comma-separated widths, and the program's own choices plus a stray word for
the string keys.  Data is synthetic only, so ``dataset.kind`` is fixed and
``dataset.path`` is not drawn.  The example budget comes from the hypothesis
profile (tests/conftest.py registers ``ci``).
"""

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from fedsplit import runtime
from fedsplit.config import (_BOOL, _DIMS, _EXECUTION, _FLOAT, _INT, _KEYS, _SIZE,
                             KNOWN_KEYS, PROTECTION_KINDS, config_from_flat)
from fedsplit.errors import ConfigError
from fedsplit.he import BACKENDS
from fedsplit.models import KINDS
from fedsplit.voting import PartitionStrategy

# Largest values drawn for keys whose size costs time or memory in _setup;
# each key's domain is otherwise unbounded.  workers is capped at 4 threads.
CAPS = {
    "dataset.num_samples": 2000,     # rows synthesized and split
    "dataset.input_dim": 64,         # feature columns
    "dataset.num_classes": 16,       # class means, model outputs
    "model.hidden_dims": 64,         # each width; at most 3 layers
    "round.clients_total_N": 256,    # shards
    "he.ring_degree": 2 ** 12,       # ckks NTT tables and keygen
    "workers": 4,
}

CHOICES = {
    "dataset.partition": ["iid", "dirichlet"],
    "model.kind": list(KINDS),
    "protection.kind": list(PROTECTION_KINDS),
    "schedule.mode": ["static", "dynamic"],
    "voting.strategy": [s.value for s in PartitionStrategy],
    "he.backend": list(BACKENDS),
}

SECTIONS = {key.split(".")[0] for key in KNOWN_KEYS if "." in key}

EDGE_INTS = [-1, 0, 1, 2, 2 ** 52, 2 ** 52 + 1, 2 ** 63, 10 ** 400]
EDGE_FLOATS = [0.0, 5e-324, 1e-300, 0.5, 1.0, 1e300, 1.7e308]


def ints(cap=None):
    """Any integer up to ``cap``, weighted toward small positive ones and edges."""
    edges = [v for v in EDGE_INTS if cap is None or v <= cap]
    return (st.integers(min_value=1, max_value=min(cap or 64, 64))
            | st.integers(max_value=cap) | st.sampled_from(edges))


def floats():
    """Any float, weighted toward (0, 1] and edges."""
    return st.floats(0.0, 1.0) | st.floats() | st.sampled_from(EDGE_FLOATS)


def value_text(key: str):
    codec = _KEYS[key][1]
    cap = CAPS.get(key)
    if key in CHOICES:
        return st.sampled_from(CHOICES[key] + ["bogus"])
    if key == "he.ring_degree":
        return st.builds(str, st.sampled_from([2 ** j for j in range(13)]) | ints(cap))
    if codec in (_INT, _SIZE, _EXECUTION):
        return st.builds(str, ints(cap))
    if codec == _FLOAT:
        return st.builds(repr, floats())
    if codec == _BOOL:
        return st.sampled_from(["true", "false", "1", "0", "yes", "no", "maybe"])
    if codec == _DIMS:
        widths = st.lists(ints(cap), max_size=3)
        return st.builds(lambda ws: ",".join(map(str, ws)), widths)
    raise AssertionError(f"no domain for config key {key!r}")


DRAWN = sorted(set(_KEYS) - {"dataset.kind", "dataset.path"})


@st.composite
def flat_configs(draw):
    """A few drawn keys over the defaults, so that some configs reach _setup."""
    keys = draw(st.lists(st.sampled_from(DRAWN), unique=True))
    return {"dataset.kind": "synthetic", **{key: draw(value_text(key)) for key in keys}}


def names_key_or_section(message: str) -> bool:
    return (any(key in message for key in KNOWN_KEYS)
            or any(f"'{section}'" in message for section in SECTIONS))


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(flat=flat_configs())
# Each example failed in _setup before the program was fixed.
@example(flat={"he.backend": "ckks", "protection.kind": "he_only", "he.ring_degree": "65536",
               "he.modulus_bits": "17", "he.scale_bits": "4"})
@example(flat={"dp.theta": "1.7e+308"})
@example(flat={"dataset.partition": "dirichlet", "dataset.dirichlet_alpha": "0.01",
               "round.clients_total_N": "10"})
@example(flat={"dataset.partition": "dirichlet", "dataset.dirichlet_alpha": "1.7e+308"})
def test_config_rejected_by_name_or_sets_up(flat):
    try:
        cfg = config_from_flat(flat)
    except ConfigError as exc:
        assert names_key_or_section(str(exc)), str(exc)
        event("rejected at the parse")
        return
    event("set up")
    runtime._setup(cfg)
