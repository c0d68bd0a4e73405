"""Property tests over the config loaders (hypothesis)."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from resokit.design import profile_from_dict
from resokit.errors import ResokitError


def _mostly(good, bad):
    """Values from `good` three times in four, else from `bad` (a plain
    one_of would draw from each of bad's branches as often as from good)."""
    return st.integers(0, 3).flatmap(lambda i: bad if i == 0 else good)


_junk = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(), st.booleans(),
    st.none(), st.text(max_size=6), st.lists(st.integers(), max_size=2),
    st.sampled_from(["-1 V", "1e999", "12 parsecs"]))
_number = st.one_of(st.floats(min_value=-10.0, max_value=1e10),
                    st.sampled_from(["38.4 MHz", "2 GHz", "5 V", "50 ohm"]))
_quantity = _mostly(_number, _junk)
_interval = _mostly(st.lists(st.floats(min_value=-10.0, max_value=1e10),
                             min_size=2, max_size=2).map(sorted),
                    st.one_of(st.lists(_quantity, max_size=3), _junk))
_fields = {
    "q_required": _quantity,
    "bandpass": _interval,
    "impedance_range": _interval,
    "dc_voltage_range": _interval,
    "tuning_required": _quantity,
    "informational": _mostly(st.dictionaries(st.text(max_size=6), st.text(max_size=12),
                                             max_size=3), _junk),
    "schema_version": st.integers(0, 2),
}
_profile_dicts = _mostly(
    # name and center frequency present: often a loadable profile
    st.fixed_dictionaries(
        {"name": _mostly(st.text(max_size=10), _junk),
         "center_frequency": _mostly(_quantity, st.lists(_interval, max_size=3))},
        optional=_fields),
    # required fields missing or unknown ones present
    st.dictionaries(st.sampled_from(["name", "center_frequency", "colour", *_fields]),
                    _quantity, max_size=4))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_profile_dicts)
def test_profile_from_dict_refuses_or_round_trips(d):
    """Any dict is either refused with a ResokitError or loads to a profile
    whose to_dict, also through JSON, loads back to an equal profile."""
    try:
        profile = profile_from_dict(d)
    except ResokitError:
        return
    out = profile.to_dict()
    again = profile_from_dict(json.loads(json.dumps(out)))
    assert again == profile
    assert again.to_dict() == out
