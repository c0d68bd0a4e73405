"""Property tests over the config loaders (hypothesis)."""

import json
import math
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resokit.cli import main
from resokit.core import (beam_geometry_from_dict, disk_geometry_from_dict,
                          equivalent_circuit_from_dict, material_from_dict,
                          mode_result_from_dict, mos_params_from_dict,
                          transducer_from_dict)
from resokit.design import profile_from_dict
from resokit.errors import ResokitError
from resokit.fab import process_model_from_dict

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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


def _loader_dicts(required, optional=None):
    """Dicts for a loader: its fields, each a good value three times in four,
    else junk (optional fields may be absent); or junk, or a dict of known
    and unknown keys with arbitrary quantities."""
    optional = optional or {}
    fields = st.fixed_dictionaries(
        {k: _mostly(v, _junk) for k, v in required.items()},
        optional={k: _mostly(v, _junk) for k, v in optional.items()})
    keys = st.sampled_from(sorted({*required, *optional, "colour"}))
    return _mostly(fields, st.one_of(_junk, st.dictionaries(keys, _quantity, max_size=4)))


_positive = st.one_of(st.floats(min_value=1e-9, max_value=1e12),
                      st.sampled_from(["10 um", "90nm", "0.4 um", "5 V", "160 GPa"]))
_material = _loader_dicts(
    {"youngs_modulus": _positive, "density": _positive,
     "poisson_ratio": st.floats(min_value=-0.1, max_value=0.6)},
    {"rel_permittivity": st.floats(min_value=0.5, max_value=20.0), "name": st.text(max_size=6)})
_beam = _loader_dicts(
    {"length": _positive, "width": _positive, "thickness": _positive},
    {"vibration_axis": st.sampled_from(["in_plane", "out_of_plane", "sideways"])})
_disk = _loader_dicts({"radius": _positive, "thickness": _positive})
_mos = _loader_dicts({"bias_drain_current": _positive},
                     {"channel_modulation_order": st.floats(-10.0, 10.0)})
_transducer = _loader_dicts(
    {"gap": _positive, "bias_voltage": st.floats(min_value=0.0, max_value=100.0),
     "drive_voltage": st.floats(min_value=0.0, max_value=10.0), "electrode_area": _positive},
    {"gap_rel_permittivity": st.floats(min_value=0.5, max_value=20.0),
     "detection": st.sampled_from(["capacitive", "mos", "optical"]), "mos": _mos})
_process = _loader_dicts(
    {}, {"etch_bias": _positive, "release_enlargement_rate": _positive,
         "min_drawn_gap": _positive, "max_tunnel_depth": _positive,
         "schema_version": st.integers(0, 2)})


@st.composite
def _consistent_mode(draw):
    """A mode result's fields that satisfy k = (2 pi f)^2 m and a unit-max shape."""
    f, m = draw(st.floats(1e3, 1e10)), draw(st.floats(1e-18, 1e-6))
    shape = draw(st.lists(st.floats(-1.0, 1.0), max_size=4))
    peak = max((abs(v) for v in shape), default=0.0)
    w0 = 2 * math.pi * f
    return {"frequency": f, "effective_mass": m, "effective_stiffness": w0 * w0 * m,
            "mode_order": draw(st.integers(0, 5)),
            "mode_shape": [v / peak for v in shape] if peak > 0 else []}


@st.composite
def _consistent_circuit(draw):
    """Equivalent-circuit fields with f0 and q derived from the RLC values."""
    r, l, c = (draw(st.floats(1e-3, 1e6)) for _ in range(3))
    return {"r_x": r, "l_x": l, "c_x": c, "c0": draw(st.floats(1e-18, 1e-9)),
            "q": math.sqrt(l / c) / r, "f0": 1.0 / (2 * math.pi * math.sqrt(l * c))}


def _damaged(consistent):
    """A consistent dict, or one with a field replaced by junk or dropped."""
    @st.composite
    def build(draw):
        d = draw(consistent)
        action = draw(st.sampled_from(["keep", "keep", "junk", "drop", "extra"]))
        key = draw(st.sampled_from(sorted(d)))
        if action == "junk":
            d[key] = draw(_junk)
        elif action == "drop":
            del d[key]
        elif action == "extra":
            d["colour"] = draw(_quantity)
        return d
    return st.one_of(build(), _junk)


_LOADERS = {
    "material": (material_from_dict, _material),
    "beam_geometry": (beam_geometry_from_dict, _beam),
    "disk_geometry": (disk_geometry_from_dict, _disk),
    "mos_params": (mos_params_from_dict, _mos),
    "transducer": (transducer_from_dict, _transducer),
    "process_model": (process_model_from_dict, _process),
    "mode_result": (mode_result_from_dict, _damaged(_consistent_mode())),
    "equivalent_circuit": (equivalent_circuit_from_dict, _damaged(_consistent_circuit())),
    # non-dict input, beyond the profile dicts of the test above
    "profile": (profile_from_dict, _mostly(_profile_dicts, _junk)),
}


@pytest.mark.parametrize("name", sorted(_LOADERS))
def test_loader_refuses_or_round_trips(name):
    """Any dict is either refused with a ResokitError or loads to an object
    whose to_dict, also through JSON, loads back to an equal object."""
    load, dicts = _LOADERS[name]
    loaded = []

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(dicts)
    def check(d):
        try:
            obj = load(d)
        except ResokitError:
            return
        out = obj.to_dict()
        again = load(json.loads(json.dumps(out)))
        assert again == obj
        assert again.to_dict() == out
        loaded.append(obj)

    check()
    # the strategies reach objects that load, not only refusals
    assert loaded


# every design-config subcommand, on meshes small enough to keep examples fast
_DESIGN_COMMANDS = (
    ["analyze", "--elements", "8", "--target-edge", "0.6 um"],
    ["fem", "--elements", "8", "--target-edge", "0.6 um", "--modes", "2"],
    ["respond", "--points", "101"],
    ["check", "--profile", "oscillator-n2"],
    ["compare-detection"],
)


@st.composite
def _damaged_configs(draw):
    """(argv without the config path, config dict): a shipped config with
    one top-level key dropped, or the bounds config with one interval
    truncated to 0 or 1 elements."""
    name = draw(st.sampled_from(sorted(p.name for p in CONFIGS.glob("*.json"))))
    cfg = json.loads((CONFIGS / name).read_text())
    if "bounds" in cfg and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(cfg["bounds"])))
        cfg["bounds"][key] = cfg["bounds"][key][:draw(st.integers(0, 1))]
    else:
        del cfg[draw(st.sampled_from(sorted(cfg)))]
    if "bounds" in json.loads((CONFIGS / name).read_text()):
        argv = ["optimize", "--profile", "oscillator-n2", "--bounds"]
    else:
        argv = [*draw(st.sampled_from(_DESIGN_COMMANDS)), "--config"]
    return argv, cfg


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_damaged_configs())
def test_cli_exits_with_a_code_on_damaged_configs(case):
    """A shipped config missing a key or a bound ends in exit 0, 1 or 2,
    never in a traceback."""
    argv, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as f:
            json.dump(cfg, f)
        assert main([*argv, path]) in (0, 1, 2)
