import dataclasses
import json
import math

import numpy as np
import pytest

from resokit.core import (EPSILON_0, BeamGeometry, DetectionKind, DiskGeometry,
                          EquivalentCircuit, Material, ModeResult, MosParams,
                          Transducer, VibrationAxis, beam_geometry_from_dict,
                          disk_geometry_from_dict, equivalent_circuit_from_dict,
                          load_material, material_from_dict, material_presets,
                          mode_result_from_dict, save_json, transducer_from_dict)
from resokit.design import SpecProfile
from resokit.errors import (InvariantError, SchemaError, UnknownPresetError,
                            UnitError)
from resokit.fab import ProcessModel
from resokit.units import parse_quantity


def test_epsilon_0_value():
    assert EPSILON_0 == 8.8541878128e-12


_INF, _NAN = math.inf, math.nan


@pytest.mark.parametrize("build", [
    lambda: Material(_INF, 2330, 0.28),
    lambda: Material(160e9, _NAN, 0.28),
    lambda: Material(160e9, 2330, _NAN),
    lambda: Material(160e9, 2330, 0.28, rel_permittivity=_INF),
    lambda: BeamGeometry(length=_INF, width=1e-6, thickness=1e-6),
    lambda: BeamGeometry(length=10e-6, width=_NAN, thickness=1e-6),
    lambda: DiskGeometry(radius=_INF, thickness=1e-6),
    lambda: DiskGeometry(radius=3e-6, thickness=_NAN),
    lambda: MosParams(_INF),
    lambda: MosParams(1e-6, channel_modulation_order=_NAN),
    lambda: Transducer(gap=90e-9, bias_voltage=_INF, drive_voltage=0.1, electrode_area=4e-12),
    lambda: Transducer(gap=90e-9, bias_voltage=5.0, drive_voltage=_INF, electrode_area=4e-12),
    lambda: Transducer(gap=90e-9, bias_voltage=5.0, drive_voltage=0.1, electrode_area=_INF),
    lambda: Transducer(gap=_INF, bias_voltage=5.0, drive_voltage=0.1, electrode_area=4e-12),
    lambda: Transducer(gap=90e-9, bias_voltage=5.0, drive_voltage=0.1, electrode_area=4e-12,
                       gap_rel_permittivity=_INF),
    lambda: ProcessModel(etch_bias=_NAN),
    lambda: ProcessModel(release_enlargement_rate=_INF),
    lambda: ProcessModel(min_drawn_gap=_INF),
    lambda: ProcessModel(max_tunnel_depth=_INF),
    lambda: SpecProfile("x", _INF),
    lambda: SpecProfile("x", ((1e6, _INF),)),
    lambda: SpecProfile("x", ((_NAN, 2e6),)),
    lambda: SpecProfile("x", 1e6, q_required=_INF),
    lambda: SpecProfile("x", 1e6, q_required=_NAN),
    lambda: SpecProfile("x", 1e6, tuning_required=_INF),
    lambda: SpecProfile("x", 1e6, bandpass=(1e6, _INF)),
    lambda: SpecProfile("x", 1e6, impedance_range=(50.0, _INF)),
    lambda: SpecProfile("x", 1e6, dc_voltage_range=(_NAN, 5.0)),
], ids=["material-E", "material-density", "material-poisson", "material-permittivity",
        "beam-length", "beam-width", "disk-radius", "disk-thickness", "mos-current",
        "mos-order", "transducer-bias", "transducer-drive", "transducer-area",
        "transducer-gap", "transducer-permittivity", "process-etch-bias",
        "process-rate", "process-min-gap", "process-max-tunnel", "profile-center",
        "profile-band-hi", "profile-band-lo", "profile-q-inf", "profile-q-nan",
        "profile-tuning", "profile-bandpass", "profile-impedance", "profile-dc"])
def test_non_finite_field_rejected(build):
    with pytest.raises(InvariantError):
        build()


class TestUnits:
    @pytest.mark.parametrize("text,expected", [
        ("10 um", 10e-6),
        ("90nm", 90e-9),
        ("38.8 MHz", 38.8e6),
        ("5 V", 5.0),
        ("169 GPa", 169e9),
        ("100 mV", 0.1),
        ("4 um2", 4e-12),
        ("10 kohm", 10e3),
        ("88.5 aF", 88.5e-18),
        (2330, 2330.0),
        (0.28, 0.28),
    ])
    def test_parse(self, text, expected):
        assert parse_quantity(text) == pytest.approx(expected, rel=1e-15)

    def test_unknown_suffix(self):
        with pytest.raises(UnitError):
            parse_quantity("10 parsec")

    def test_garbage(self):
        with pytest.raises(UnitError):
            parse_quantity("not a number")

    def test_bool_rejected(self):
        with pytest.raises(UnitError):
            parse_quantity(True)

    @pytest.mark.parametrize("value", [
        "1e999 nm", "1e999", "-1e999 V", math.inf, -math.inf, math.nan,
        json.loads("Infinity"), json.loads("NaN"), 10**400,
    ])
    def test_non_finite_rejected(self, value):
        with pytest.raises(UnitError):
            parse_quantity(value)


class TestMaterial:
    def test_silicon_preset(self, silicon):
        assert silicon.youngs_modulus == 169e9
        assert silicon.density == 2330.0
        assert silicon.poisson_ratio == 0.28
        assert silicon.rel_permittivity == 11.7

    def test_presets_listed(self):
        assert "silicon" in material_presets()

    def test_unknown_preset(self):
        with pytest.raises(UnknownPresetError):
            load_material("unobtainium")

    def test_negative_density_rejected(self):
        with pytest.raises(InvariantError):
            Material(youngs_modulus=169e9, density=-1.0, poisson_ratio=0.28)

    def test_negative_density_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"youngs_modulus": 169e9, "density": -1,
                                    "poisson_ratio": 0.28}))
        with pytest.raises(InvariantError):
            load_material(str(path))

    def test_poisson_bounds(self):
        with pytest.raises(InvariantError):
            Material(youngs_modulus=1e9, density=1e3, poisson_ratio=0.5)
        with pytest.raises(InvariantError):
            Material(youngs_modulus=1e9, density=1e3, poisson_ratio=-0.1)

    def test_permittivity_floor(self):
        with pytest.raises(InvariantError):
            Material(youngs_modulus=1e9, density=1e3, poisson_ratio=0.3,
                     rel_permittivity=0.5)

    def test_unit_suffixes_in_file(self, tmp_path):
        path = tmp_path / "mat.json"
        path.write_text(json.dumps({"youngs_modulus": "169 GPa", "density": 2330,
                                    "poisson_ratio": 0.28}))
        m = load_material(str(path))
        assert m.youngs_modulus == 169e9

    def test_schema_unknown_field(self):
        with pytest.raises(SchemaError):
            material_from_dict({"youngs_modulus": 1e9, "density": 1e3,
                                "poisson_ratio": 0.3, "color": "blue"})

    def test_schema_missing_field(self):
        with pytest.raises(SchemaError):
            material_from_dict({"youngs_modulus": 1e9})

    def test_round_trip(self, tmp_path, silicon):
        path = tmp_path / "m.json"
        save_json(silicon, path)
        again = load_material(str(path))
        assert again == silicon
        # save(load(m)) == load(save(m)) identity
        path2 = tmp_path / "m2.json"
        save_json(again, path2)
        assert load_material(str(path2)) == again

    def test_round_trip_awkward_floats(self, tmp_path):
        m = Material(youngs_modulus=1e11 / 3.0, density=2330.000000001,
                     poisson_ratio=1.0 / 7.0, rel_permittivity=11.7)
        path = tmp_path / "m.json"
        save_json(m, path)
        assert load_material(str(path)) == m


class TestGeometry:
    def test_beam_invariants(self):
        with pytest.raises(InvariantError):
            BeamGeometry(length=0.0, width=1e-6, thickness=1e-6)
        with pytest.raises(InvariantError):
            BeamGeometry(length=1e-6, width=2e-6, thickness=0.5e-6)

    def test_flexural_dimension(self, ref_beam):
        assert ref_beam.flexural_dimension == ref_beam.width
        out = dataclasses.replace(ref_beam, vibration_axis=VibrationAxis.OUT_OF_PLANE)
        assert out.flexural_dimension == out.thickness

    def test_disk_invariants(self):
        with pytest.raises(InvariantError):
            DiskGeometry(radius=1e-6, thickness=2e-6)
        with pytest.raises(InvariantError):
            DiskGeometry(radius=-1e-6, thickness=0.1e-6)

    def test_beam_round_trip(self, ref_beam):
        assert beam_geometry_from_dict(ref_beam.to_dict()) == ref_beam

    def test_disk_round_trip(self, ref_disk):
        assert disk_geometry_from_dict(ref_disk.to_dict()) == ref_disk

    def test_geometry_units_in_dict(self):
        g = beam_geometry_from_dict({"length": "10 um", "width": "0.46 um",
                                     "thickness": "0.4 um",
                                     "vibration_axis": "in_plane"})
        assert g.length == pytest.approx(10e-6, rel=1e-15)
        assert g.vibration_axis is VibrationAxis.IN_PLANE


class TestTransducer:
    def test_invariants(self):
        with pytest.raises(InvariantError):
            Transducer(gap=0.0, bias_voltage=1, drive_voltage=0, electrode_area=1e-12)
        with pytest.raises(InvariantError):
            Transducer(gap=1e-7, bias_voltage=-1, drive_voltage=0, electrode_area=1e-12)
        with pytest.raises(InvariantError):
            Transducer(gap=1e-7, bias_voltage=1, drive_voltage=0,
                       electrode_area=1e-12, gap_rel_permittivity=0.9)

    def test_mos_requires_params(self):
        with pytest.raises(InvariantError):
            Transducer(gap=1e-7, bias_voltage=1, drive_voltage=0,
                       electrode_area=1e-12, detection=DetectionKind.MOS)

    def test_round_trip(self, ref_transducer):
        assert transducer_from_dict(ref_transducer.to_dict()) == ref_transducer

    def test_mos_round_trip(self):
        t = Transducer(gap=1e-7, bias_voltage=2, drive_voltage=0.01,
                       electrode_area=1e-12, detection=DetectionKind.MOS,
                       mos=MosParams(bias_drain_current=1e-5))
        assert transducer_from_dict(t.to_dict()) == t

    def test_mos_params_invariant(self):
        with pytest.raises(InvariantError):
            MosParams(bias_drain_current=0.0)


def _mode(f=1e6, m=1e-15, order=1):
    k = (2 * math.pi * f) ** 2 * m
    return ModeResult(frequency=f, mode_order=order, effective_mass=m,
                      effective_stiffness=k, mode_shape=(0.0, 0.5, 1.0, 0.5, 0.0))


class TestModeResult:
    def test_valid(self):
        mr = _mode()
        assert mr.angular_frequency == pytest.approx(2 * math.pi * 1e6, rel=1e-15)

    def test_stiffness_consistency_enforced(self):
        with pytest.raises(InvariantError):
            ModeResult(frequency=1e6, mode_order=1, effective_mass=1e-15,
                       effective_stiffness=1.0, mode_shape=(1.0,))

    def test_empty_shape_allowed(self):
        k = (2 * math.pi * 1e6) ** 2 * 1e-15
        mr = ModeResult(frequency=1e6, mode_order=1, effective_mass=1e-15,
                        effective_stiffness=k)
        assert mr.mode_shape == ()
        assert mode_result_from_dict(mr.to_dict()) == mr

    def test_shape_normalization_enforced(self):
        k = (2 * math.pi * 1e6) ** 2 * 1e-15
        with pytest.raises(InvariantError):
            ModeResult(frequency=1e6, mode_order=1, effective_mass=1e-15,
                       effective_stiffness=k, mode_shape=(0.0, 0.5))

    def test_round_trip(self):
        mr = _mode()
        assert mode_result_from_dict(mr.to_dict()) == mr

    @pytest.mark.parametrize("shape", [
        (1.0, _NAN), (_NAN, 1.0), (0.5, _NAN, 1.0), (1.0, _INF), (_INF, 1.0),
        (1.0, -_INF), (_NAN,), (_INF,),
    ], ids=["nan-last", "nan-first", "nan-middle", "inf-last", "inf-first",
            "minus-inf", "nan-only", "inf-only"])
    def test_non_finite_shape_rejected(self, shape):
        k = (2 * math.pi * 1e6) ** 2 * 1e-15
        with pytest.raises(InvariantError, match="finite"):
            ModeResult(frequency=1e6, mode_order=1, effective_mass=1e-15,
                       effective_stiffness=k, mode_shape=shape)

    @pytest.mark.parametrize("name", ["frequency", "effective_mass", "effective_stiffness"])
    def test_non_finite_figure_rejected(self, name):
        fields = {"frequency": 1e6, "effective_mass": 1e-15,
                  "effective_stiffness": (2 * math.pi * 1e6) ** 2 * 1e-15}
        ModeResult(mode_order=1, **fields)
        with pytest.raises(InvariantError, match=f"{name} must be finite and > 0"):
            ModeResult(mode_order=1, **dict(fields, **{name: _INF}))

    @pytest.mark.parametrize("shape", [1.0, ((1.0, 0.5), (0.5, 1.0))], ids=["scalar", "2-d"])
    def test_shape_must_be_one_dimensional(self, shape):
        k = (2 * math.pi * 1e6) ** 2 * 1e-15
        with pytest.raises(InvariantError, match="1-D"):
            ModeResult(frequency=1e6, mode_order=1, effective_mass=1e-15,
                       effective_stiffness=k, mode_shape=shape)

    def test_shape_stored_as_float_tuple(self):
        k = (2 * math.pi * 1e6) ** 2 * 1e-15
        values = np.array([0.0, -0.25, 1.0, np.nextafter(0.5, 1.0)])
        for given in (values, tuple(values), list(values), [0, -0.25, 1, values[3]]):
            mr = ModeResult(frequency=1e6, mode_order=1, effective_mass=1e-15,
                            effective_stiffness=k, mode_shape=given)
            assert mr.mode_shape == tuple(float(v) for v in values)
            assert all(type(v) is float for v in mr.mode_shape)


class TestEquivalentCircuit:
    def test_consistent(self):
        l_x, c_x, r_x = 1.0, 1e-18, 1e4
        f0 = 1 / (2 * math.pi * math.sqrt(l_x * c_x))
        q = math.sqrt(l_x / c_x) / r_x
        c = EquivalentCircuit(r_x=r_x, l_x=l_x, c_x=c_x, c0=1e-15, q=q, f0=f0)
        assert equivalent_circuit_from_dict(c.to_dict()) == c

    def test_f0_mismatch_rejected(self):
        with pytest.raises(InvariantError):
            EquivalentCircuit(r_x=1e4, l_x=1.0, c_x=1e-18, c0=1e-15,
                              q=1e4, f0=1e6)

    def test_positive_enforced(self):
        with pytest.raises(InvariantError):
            EquivalentCircuit(r_x=-1, l_x=1.0, c_x=1e-18, c0=1e-15,
                              q=1e4, f0=1 / (2 * math.pi * 1e-9))

    @pytest.mark.parametrize("bad", [_INF, _NAN])
    @pytest.mark.parametrize("name", ["r_x", "l_x", "c_x", "c0", "q", "f0"])
    def test_non_finite_field_rejected(self, name, bad):
        l_x, c_x, r_x = 1.0, 1e-18, 1e4
        fields = {"r_x": r_x, "l_x": l_x, "c_x": c_x, "c0": 1e-15,
                  "q": math.sqrt(l_x / c_x) / r_x,
                  "f0": 1 / (2 * math.pi * math.sqrt(l_x * c_x))}
        EquivalentCircuit(**fields)
        with pytest.raises(InvariantError):
            EquivalentCircuit(**dict(fields, **{name: bad}))


class TestImmutability:
    def test_frozen(self, silicon, ref_beam, ref_transducer):
        for obj, field_name, value in [
            (silicon, "density", 1.0),
            (ref_beam, "length", 1.0),
            (ref_transducer, "gap", 1.0),
            (_mode(), "frequency", 1.0),
        ]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, field_name, value)
