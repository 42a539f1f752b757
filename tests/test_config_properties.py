"""Property test of config parsing: whatever JSON value a config holds in
any one field, ``SweepSpec.from_dict`` returns a spec or raises ValueError,
so ``hybridsim validate`` reports a config error and never a traceback."""

from dataclasses import fields

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hybridsim.admm import AdmmConfig  # noqa: E402
from hybridsim.harness import SweepSpec  # noqa: E402

BASE = SweepSpec(
    scenario="narrowband_partial",
    n_s=2,
    n_rf=[2, 4],
    n_tx_side=4,
    n_rx_side=4,
    n_subcarriers=1,
    snr_db_list=[-5.0, 0.0],
    runs=3,
    base_seed=1,
    admm=AdmmConfig(phase_bits=3),
).to_dict()

# the path of every field: top-level keys, then the admm section's keys
PATHS = [(f.name,) for f in fields(SweepSpec)] + [
    ("admm", f.name) for f in fields(AdmmConfig)
]

# what json.load returns, with integers far beyond float range
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(PATHS), value=json_values)
def test_any_value_in_any_field_is_a_spec_or_a_value_error(path, value):
    doc = {**BASE, "admm": dict(BASE["admm"])}
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        spec = SweepSpec.from_dict(doc)
    except ValueError:
        return
    assert isinstance(spec, SweepSpec)
