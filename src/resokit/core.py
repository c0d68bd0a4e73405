"""Domain types, physical constants, and serialization.

All types are frozen dataclasses validated on construction: an object that
exists is valid. Dimensioned fields are SI; file loaders accept unit
suffixes (see :mod:`resokit.units`) and normalize at parse time.

Every record's JSON form is its fields in declaration order (`_Record`):
a nested record as its own form, an enum by value, a tuple as a list. A
record overrides it only where its form differs. Every JSON file is
written by `_write_json`.
"""

from __future__ import annotations

import enum
import json
import math
import os
from dataclasses import dataclass, field, fields
from importlib import resources

import numpy as np

from .errors import InvariantError, SchemaError, UnknownPresetError
from .units import parse_quantity

# vacuum permittivity (F/m)
EPSILON_0 = 8.8541878128e-12

# relative tolerance for derived-field invariants (ModeResult, EquivalentCircuit)
_DERIVED_RTOL = 1e-9


class VibrationAxis(enum.Enum):
    """Cross-section direction along which a beam deflects."""

    OUT_OF_PLANE = "out_of_plane"   # deflection along thickness
    IN_PLANE = "in_plane"           # deflection along width


class DetectionKind(enum.Enum):
    CAPACITIVE = "capacitive"
    MOS = "mos"


def _require(cond: bool, message: str):
    if not cond:
        raise InvariantError(message)


class _Record:
    """Mixin of frozen dataclasses: to_dict is the fields in declaration
    order, each through _plain."""

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(value):
    """The JSON form of a field value: a record's to_dict, an enum's value,
    a tuple as a list (recursively); anything else as it is."""
    if isinstance(value, _Record):
        return value.to_dict()
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _derived(what: str, kernel, *args):
    """kernel(*args) on floats as a float (a tuple of floats for a tuple),
    each finite and > 0: a figure of absurd but finite inputs that overflows
    or underflows (numpy: inf, nan or 0, silently; Python floats: also
    OverflowError or ZeroDivisionError) is an InvariantError naming what."""
    try:
        out = kernel(*args)
    except ArithmeticError:
        out = math.nan
    values = tuple(map(float, out)) if isinstance(out, tuple) else (float(out),)
    if not all(0 < v < math.inf for v in values):
        raise InvariantError(f"{what} must be finite and > 0, got {', '.join(map(repr, values))}")
    return values if isinstance(out, tuple) else values[0]


@dataclass(frozen=True)
class Material(_Record):
    """Isotropic structural material.

    youngs_modulus in Pa, density in kg/m^3; rel_permittivity describes the
    material when used as a solid dielectric gap fill.
    """

    youngs_modulus: float
    density: float
    poisson_ratio: float
    rel_permittivity: float = 1.0

    def __post_init__(self):
        _require(0 < self.youngs_modulus < math.inf,
                 "youngs_modulus must be finite and > 0")
        _require(0 < self.density < math.inf, "density must be finite and > 0")
        _require(0 <= self.poisson_ratio < 0.5, "poisson_ratio must be in [0, 0.5)")
        _require(1 <= self.rel_permittivity < math.inf,
                 "rel_permittivity must be finite and >= 1")


def _shape_ok(family: str, dims):
    """Shape rule for floats or arrays of the dimensions in dims: a beam is
    longer than its cross-section dimensions, a disk thinner than its radius."""
    if family == "beam":
        return (dims["length"] > dims["width"]) & (dims["length"] > dims["thickness"])
    return dims["thickness"] < dims["radius"]


@dataclass(frozen=True)
class BeamGeometry(_Record):
    """Clamped-clamped rectangular beam. Dimensions in m."""

    length: float
    width: float
    thickness: float
    vibration_axis: VibrationAxis = VibrationAxis.OUT_OF_PLANE

    def __post_init__(self):
        _require(all(0 < v < math.inf for v in (self.length, self.width, self.thickness)),
                 "beam dimensions must be finite and > 0")
        _require(_shape_ok("beam", vars(self)),
                 "beam length must exceed both cross-section dimensions")
        _require(isinstance(self.vibration_axis, VibrationAxis),
                 "vibration_axis must be a VibrationAxis")

    @property
    def flexural_dimension(self) -> float:
        """Cross-section dimension along the vibration axis."""
        if self.vibration_axis is VibrationAxis.IN_PLANE:
            return self.width
        return self.thickness

    @property
    def cross_section_area(self) -> float:
        return self.width * self.thickness


@dataclass(frozen=True)
class DiskGeometry(_Record):
    """Thin circular disk vibrating in its plane. Dimensions in m."""

    radius: float
    thickness: float

    def __post_init__(self):
        _require(0 < self.radius < math.inf, "radius must be finite and > 0")
        _require(0 < self.thickness < math.inf, "thickness must be finite and > 0")
        _require(_shape_ok("disk", vars(self)), "thin-disk regime requires thickness < radius")


def _geometry_family(geometry) -> str:
    """"beam" or "disk"; InvariantError for any other geometry type."""
    if isinstance(geometry, BeamGeometry):
        return "beam"
    if isinstance(geometry, DiskGeometry):
        return "disk"
    raise InvariantError(f"unsupported geometry {type(geometry).__name__}")


@dataclass(frozen=True)
class MosParams(_Record):
    """Operating point of the sense transistor for MOS detection.

    channel_modulation_order is the exponent of the drain-current vs
    gate-capacitance law (1 = linear modulation), finite and > 0.
    """

    bias_drain_current: float
    channel_modulation_order: float = 1.0

    def __post_init__(self):
        _require(0 < self.bias_drain_current < math.inf,
                 "bias_drain_current must be finite and > 0")
        _require(0 < self.channel_modulation_order < math.inf,
                 "channel_modulation_order must be finite and > 0")


@dataclass(frozen=True)
class Transducer(_Record):
    """Electrostatic gap transducer: geometry, bias and detection scheme.

    gap in m, voltages in V, electrode_area in m^2. gap_rel_permittivity is
    1 for an airgap, >1 for a solid dielectric fill.
    """

    gap: float
    bias_voltage: float
    drive_voltage: float
    electrode_area: float
    gap_rel_permittivity: float = 1.0
    detection: DetectionKind = DetectionKind.CAPACITIVE
    mos: MosParams | None = None

    def __post_init__(self):
        _require(0 < self.gap < math.inf, "gap must be finite and > 0")
        _require(0 <= self.bias_voltage < math.inf, "bias_voltage must be finite and >= 0")
        _require(0 <= self.drive_voltage < math.inf, "drive_voltage must be finite and >= 0")
        _require(0 < self.electrode_area < math.inf, "electrode_area must be finite and > 0")
        _require(1 <= self.gap_rel_permittivity < math.inf,
                 "gap_rel_permittivity must be finite and >= 1")
        _require(isinstance(self.detection, DetectionKind), "detection must be a DetectionKind")
        if self.detection is DetectionKind.MOS:
            _require(self.mos is not None, "MOS detection requires MosParams")

    def to_dict(self) -> dict:
        d = super().to_dict()
        if self.mos is None:
            del d["mos"]
        return d


@dataclass(frozen=True)
class ModeResult(_Record):
    """One vibration mode reduced to lumped parameters.

    mode_shape is a sampled displacement field normalized to unit maximum,
    or empty when no shape was sampled; effective_stiffness must equal
    (2*pi*frequency)^2 * effective_mass.
    """

    frequency: float
    mode_order: int
    effective_mass: float
    effective_stiffness: float
    mode_shape: tuple = field(default=(), repr=False)

    def __post_init__(self):
        _require(0 < self.frequency < math.inf, "frequency must be finite and > 0")
        _require(self.mode_order >= 0, "mode_order must be >= 0")
        _require(0 < self.effective_mass < math.inf, "effective_mass must be finite and > 0")
        _require(0 < self.effective_stiffness < math.inf,
                 "effective_stiffness must be finite and > 0")
        shape = np.asarray(self.mode_shape, dtype=float)
        _require(shape.ndim == 1, "mode_shape must be a 1-D sequence")
        w0 = 2 * math.pi * self.frequency
        k_expected = w0 * w0 * self.effective_mass
        _require(abs(self.effective_stiffness - k_expected) <= _DERIVED_RTOL * k_expected,
                 "effective_stiffness must equal (2*pi*f)^2 * effective_mass")
        if shape.size:
            _require(bool(np.isfinite(shape).all()), "mode_shape entries must be finite")
            _require(abs(float(np.max(np.abs(shape))) - 1.0) <= _DERIVED_RTOL,
                     "mode_shape must be normalized to unit maximum")
        object.__setattr__(self, "mode_shape", tuple(shape.tolist()))

    @property
    def angular_frequency(self) -> float:
        return 2 * math.pi * self.frequency


@dataclass(frozen=True)
class EquivalentCircuit(_Record):
    """Series RLC image of one mode plus the static electrode capacitance."""

    r_x: float
    l_x: float
    c_x: float
    c0: float
    q: float
    f0: float

    def __post_init__(self):
        for name in ("r_x", "l_x", "c_x", "c0", "q", "f0"):
            _require(0 < getattr(self, name) < math.inf, f"{name} must be finite and > 0")
        f_lc = 1.0 / (2 * math.pi * math.sqrt(self.l_x * self.c_x))
        _require(abs(f_lc - self.f0) <= _DERIVED_RTOL * self.f0,
                 "f0 must equal 1/(2*pi*sqrt(l_x*c_x))")
        q_rlc = math.sqrt(self.l_x / self.c_x) / self.r_x
        _require(abs(q_rlc - self.q) <= _DERIVED_RTOL * self.q,
                 "q must equal sqrt(l_x/c_x)/r_x")


# ---------------------------------------------------------------------------
# deserialization

def _check_keys(d: dict, required: set, optional: set, what: str):
    if not isinstance(d, dict):
        raise SchemaError(f"{what}: expected an object, got {type(d).__name__}")
    keys = set(d)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise SchemaError(f"{what}: missing fields {sorted(missing)}")
    if unknown:
        raise SchemaError(f"{what}: unknown fields {sorted(unknown)}")


def _quantities(d: dict, names) -> dict:
    """SI values of d's quantity fields among names, in order (absent: type default)."""
    return {k: parse_quantity(d[k]) for k in names if k in d}


def _enum_field(d: dict, key: str, kind, default, what: str):
    """The kind member named by d[key] (default when absent)."""
    value = d.get(key, default.value)
    try:
        return kind(value)
    except ValueError:
        raise SchemaError(f"unknown {what} {value!r}") from None


def material_from_dict(d: dict) -> Material:
    _check_keys(d, {"youngs_modulus", "density", "poisson_ratio"},
                {"rel_permittivity", "name"}, "material")
    return Material(**_quantities(d, ("youngs_modulus", "density", "poisson_ratio",
                                      "rel_permittivity")))


def beam_geometry_from_dict(d: dict) -> BeamGeometry:
    _check_keys(d, {"length", "width", "thickness"}, {"vibration_axis"}, "beam geometry")
    axis = _enum_field(d, "vibration_axis", VibrationAxis, VibrationAxis.OUT_OF_PLANE,
                       "vibration_axis")
    return BeamGeometry(**_quantities(d, ("length", "width", "thickness")),
                        vibration_axis=axis)


def disk_geometry_from_dict(d: dict) -> DiskGeometry:
    _check_keys(d, {"radius", "thickness"}, set(), "disk geometry")
    return DiskGeometry(**_quantities(d, ("radius", "thickness")))


def mos_params_from_dict(d: dict) -> MosParams:
    _check_keys(d, {"bias_drain_current"}, {"channel_modulation_order"}, "mos params")
    return MosParams(**_quantities(d, ("bias_drain_current", "channel_modulation_order")))


def transducer_from_dict(d: dict) -> Transducer:
    _check_keys(d, {"gap", "bias_voltage", "drive_voltage", "electrode_area"},
                {"gap_rel_permittivity", "detection", "mos"}, "transducer")
    detection = _enum_field(d, "detection", DetectionKind, DetectionKind.CAPACITIVE,
                            "detection kind")
    mos = mos_params_from_dict(d["mos"]) if "mos" in d else None
    return Transducer(**_quantities(d, ("gap", "bias_voltage", "drive_voltage",
                                        "electrode_area", "gap_rel_permittivity")),
                      detection=detection, mos=mos)


def mode_result_from_dict(d: dict) -> ModeResult:
    _check_keys(d, {"frequency", "mode_order", "effective_mass",
                    "effective_stiffness", "mode_shape"}, set(), "mode result")
    order, shape = d["mode_order"], d["mode_shape"]
    if (isinstance(order, bool) or not isinstance(order, int)
            or not isinstance(shape, (list, tuple)) or any(isinstance(v, str) for v in shape)):
        raise SchemaError("mode result: mode_order must be an integer, mode_shape a list of numbers")
    return ModeResult(**_quantities(d, ("frequency", "effective_mass", "effective_stiffness")),
                      mode_order=order, mode_shape=tuple(parse_quantity(v) for v in shape))


def equivalent_circuit_from_dict(d: dict) -> EquivalentCircuit:
    _check_keys(d, {"r_x", "l_x", "c_x", "c0", "q", "f0"}, set(), "equivalent circuit")
    return EquivalentCircuit(**_quantities(d, ("r_x", "l_x", "c_x", "c0", "q", "f0")))


def _write_json(data, path):
    """Write data to path as JSON, indented by 2, with a final newline: the
    one writer of every JSON file."""
    with open(path, "w") as f:
        json.dump(data, f, indent=2)
        f.write("\n")


def save_json(obj, path):
    """Write any to_dict-capable object as JSON."""
    _write_json(obj.to_dict(), path)


def _load_json_file(path) -> dict:
    """The JSON object in a config file of any kind, the one reader; SchemaError
    if it cannot be read, is no JSON object, or has a schema_version other than 1."""
    try:
        with open(path) as f:
            cfg = json.load(f)
    except OSError as exc:   # missing, a directory, unreadable
        raise SchemaError(f"cannot read config file {path}: "
                          f"{exc.strerror or exc}") from None
    except ValueError as exc:   # invalid JSON, or text that is not UTF-8
        raise SchemaError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    if cfg.get("schema_version", 1) != 1:
        raise SchemaError(f"{path}: unsupported schema_version {cfg['schema_version']}")
    return cfg


# ---------------------------------------------------------------------------
# built-in material presets

def _preset_table() -> dict:
    text = resources.files("resokit.data").joinpath("materials.json").read_text()
    return json.loads(text)


def material_presets() -> tuple:
    """Names of the built-in material presets."""
    return tuple(sorted(_preset_table()))


def load_material(name_or_file) -> Material:
    """Load a material by preset name or from a JSON file.

    Preset constants are shipped as data and are configuration defaults,
    not ground truth; override them with a file where needed.
    """
    table = _preset_table()
    key = str(name_or_file)
    if key in table:
        return material_from_dict(table[key])
    if os.path.exists(key):
        return material_from_dict(_load_json_file(key))
    raise UnknownPresetError(
        f"{key!r} is neither a built-in material preset {sorted(table)} nor an existing file")
