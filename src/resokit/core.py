"""Domain types, physical constants, and serialization.

All types are frozen dataclasses validated on construction: an object that
exists is valid. Dimensioned fields are SI; file loaders accept unit
suffixes (see :mod:`resokit.units`) and normalize at parse time.
"""

from __future__ import annotations

import enum
import json
import math
import os
from dataclasses import dataclass, field
from importlib import resources

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


@dataclass(frozen=True)
class Material:
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

    def to_dict(self) -> dict:
        return {
            "youngs_modulus": self.youngs_modulus,
            "density": self.density,
            "poisson_ratio": self.poisson_ratio,
            "rel_permittivity": self.rel_permittivity,
        }


@dataclass(frozen=True)
class BeamGeometry:
    """Clamped-clamped rectangular beam. Dimensions in m."""

    length: float
    width: float
    thickness: float
    vibration_axis: VibrationAxis = VibrationAxis.OUT_OF_PLANE

    def __post_init__(self):
        _require(all(0 < v < math.inf for v in (self.length, self.width, self.thickness)),
                 "beam dimensions must be finite and > 0")
        _require(self.length > max(self.width, self.thickness),
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

    def to_dict(self) -> dict:
        return {
            "length": self.length,
            "width": self.width,
            "thickness": self.thickness,
            "vibration_axis": self.vibration_axis.value,
        }


@dataclass(frozen=True)
class DiskGeometry:
    """Thin circular disk vibrating in its plane. Dimensions in m."""

    radius: float
    thickness: float

    def __post_init__(self):
        _require(0 < self.radius < math.inf, "radius must be finite and > 0")
        _require(0 < self.thickness < math.inf, "thickness must be finite and > 0")
        _require(self.thickness < self.radius, "thin-disk regime requires thickness < radius")

    def to_dict(self) -> dict:
        return {"radius": self.radius, "thickness": self.thickness}


@dataclass(frozen=True)
class MosParams:
    """Operating point of the sense transistor for MOS detection.

    channel_modulation_order is the exponent of the drain-current vs
    gate-capacitance law (1 = linear modulation).
    """

    bias_drain_current: float
    channel_modulation_order: float = 1.0

    def __post_init__(self):
        _require(0 < self.bias_drain_current < math.inf,
                 "bias_drain_current must be finite and > 0")
        _require(math.isfinite(self.channel_modulation_order),
                 "channel_modulation_order must be finite")

    def to_dict(self) -> dict:
        return {
            "bias_drain_current": self.bias_drain_current,
            "channel_modulation_order": self.channel_modulation_order,
        }


@dataclass(frozen=True)
class Transducer:
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
        d = {
            "gap": self.gap,
            "bias_voltage": self.bias_voltage,
            "drive_voltage": self.drive_voltage,
            "electrode_area": self.electrode_area,
            "gap_rel_permittivity": self.gap_rel_permittivity,
            "detection": self.detection.value,
        }
        if self.mos is not None:
            d["mos"] = self.mos.to_dict()
        return d


@dataclass(frozen=True)
class ModeResult:
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
        _require(self.frequency > 0, "frequency must be > 0")
        _require(self.mode_order >= 0, "mode_order must be >= 0")
        _require(self.effective_mass > 0, "effective_mass must be > 0")
        _require(self.effective_stiffness > 0, "effective_stiffness must be > 0")
        object.__setattr__(self, "mode_shape", tuple(float(v) for v in self.mode_shape))
        w0 = 2 * math.pi * self.frequency
        k_expected = w0 * w0 * self.effective_mass
        _require(abs(self.effective_stiffness - k_expected) <= _DERIVED_RTOL * k_expected,
                 "effective_stiffness must equal (2*pi*f)^2 * effective_mass")
        if self.mode_shape:
            peak = max(abs(v) for v in self.mode_shape)
            _require(abs(peak - 1.0) <= _DERIVED_RTOL,
                     "mode_shape must be normalized to unit maximum")

    @property
    def angular_frequency(self) -> float:
        return 2 * math.pi * self.frequency

    def to_dict(self) -> dict:
        return {
            "frequency": self.frequency,
            "mode_order": self.mode_order,
            "effective_mass": self.effective_mass,
            "effective_stiffness": self.effective_stiffness,
            "mode_shape": list(self.mode_shape),
        }


@dataclass(frozen=True)
class EquivalentCircuit:
    """Series RLC image of one mode plus the static electrode capacitance."""

    r_x: float
    l_x: float
    c_x: float
    c0: float
    q: float
    f0: float

    def __post_init__(self):
        for name in ("r_x", "l_x", "c_x", "c0", "q", "f0"):
            _require(getattr(self, name) > 0, f"{name} must be > 0")
        f_lc = 1.0 / (2 * math.pi * math.sqrt(self.l_x * self.c_x))
        _require(abs(f_lc - self.f0) <= _DERIVED_RTOL * self.f0,
                 "f0 must equal 1/(2*pi*sqrt(l_x*c_x))")
        q_rlc = math.sqrt(self.l_x / self.c_x) / self.r_x
        _require(abs(q_rlc - self.q) <= _DERIVED_RTOL * self.q,
                 "q must equal sqrt(l_x/c_x)/r_x")

    def to_dict(self) -> dict:
        return {"r_x": self.r_x, "l_x": self.l_x, "c_x": self.c_x,
                "c0": self.c0, "q": self.q, "f0": self.f0}


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


def material_from_dict(d: dict) -> Material:
    _check_keys(d, {"youngs_modulus", "density", "poisson_ratio"},
                {"rel_permittivity", "name"}, "material")
    return Material(
        youngs_modulus=parse_quantity(d["youngs_modulus"]),
        density=parse_quantity(d["density"]),
        poisson_ratio=parse_quantity(d["poisson_ratio"]),
        rel_permittivity=parse_quantity(d.get("rel_permittivity", 1.0)),
    )


def beam_geometry_from_dict(d: dict) -> BeamGeometry:
    _check_keys(d, {"length", "width", "thickness"}, {"vibration_axis"}, "beam geometry")
    axis = d.get("vibration_axis", VibrationAxis.OUT_OF_PLANE.value)
    try:
        axis = VibrationAxis(axis)
    except ValueError:
        raise SchemaError(f"unknown vibration_axis {axis!r}") from None
    return BeamGeometry(
        length=parse_quantity(d["length"]),
        width=parse_quantity(d["width"]),
        thickness=parse_quantity(d["thickness"]),
        vibration_axis=axis,
    )


def disk_geometry_from_dict(d: dict) -> DiskGeometry:
    _check_keys(d, {"radius", "thickness"}, set(), "disk geometry")
    return DiskGeometry(radius=parse_quantity(d["radius"]),
                        thickness=parse_quantity(d["thickness"]))


def mos_params_from_dict(d: dict) -> MosParams:
    _check_keys(d, {"bias_drain_current"}, {"channel_modulation_order"}, "mos params")
    return MosParams(
        bias_drain_current=parse_quantity(d["bias_drain_current"]),
        channel_modulation_order=parse_quantity(d.get("channel_modulation_order", 1.0)),
    )


def transducer_from_dict(d: dict) -> Transducer:
    _check_keys(d, {"gap", "bias_voltage", "drive_voltage", "electrode_area"},
                {"gap_rel_permittivity", "detection", "mos"}, "transducer")
    detection = d.get("detection", DetectionKind.CAPACITIVE.value)
    try:
        detection = DetectionKind(detection)
    except ValueError:
        raise SchemaError(f"unknown detection kind {detection!r}") from None
    mos = mos_params_from_dict(d["mos"]) if "mos" in d else None
    return Transducer(
        gap=parse_quantity(d["gap"]),
        bias_voltage=parse_quantity(d["bias_voltage"]),
        drive_voltage=parse_quantity(d["drive_voltage"]),
        electrode_area=parse_quantity(d["electrode_area"]),
        gap_rel_permittivity=parse_quantity(d.get("gap_rel_permittivity", 1.0)),
        detection=detection,
        mos=mos,
    )


def mode_result_from_dict(d: dict) -> ModeResult:
    _check_keys(d, {"frequency", "mode_order", "effective_mass",
                    "effective_stiffness", "mode_shape"}, set(), "mode result")
    return ModeResult(
        frequency=parse_quantity(d["frequency"]),
        mode_order=int(d["mode_order"]),
        effective_mass=parse_quantity(d["effective_mass"]),
        effective_stiffness=parse_quantity(d["effective_stiffness"]),
        mode_shape=tuple(d["mode_shape"]),
    )


def equivalent_circuit_from_dict(d: dict) -> EquivalentCircuit:
    _check_keys(d, {"r_x", "l_x", "c_x", "c0", "q", "f0"}, set(), "equivalent circuit")
    return EquivalentCircuit(**{k: parse_quantity(d[k]) for k in
                                ("r_x", "l_x", "c_x", "c0", "q", "f0")})


def save_json(obj, path):
    """Write any to_dict-capable object as JSON."""
    with open(path, "w") as f:
        json.dump(obj.to_dict(), f, indent=2)
        f.write("\n")


def _load_json_file(path) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from None


def load_material_file(path) -> Material:
    return material_from_dict(_load_json_file(path))


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
        return load_material_file(key)
    raise UnknownPresetError(
        f"{key!r} is neither a built-in material preset {sorted(table)} nor an existing file")
