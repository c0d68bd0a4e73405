"""Application profiles, spec checking, tuning evaluation, and
constrained design-space search.

Built-in profiles cover the reference-oscillator family (center frequency
N x 38.4 MHz with Q = 100000/N), a 2 GHz VCO, and standard band-pass
filter bands. Informational entries (phase noise, temperature behavior,
aging) are stored and reported, never computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache
from numbers import Integral

import numpy as np

from . import analytic, fab, transduction
from .core import (EPSILON_0, BeamGeometry, DiskGeometry, Material,
                   Transducer, VibrationAxis, _check_keys, _geometry_family,
                   _shape_ok)
from .errors import (InfeasibleDesignError, InstabilityError, InvariantError,
                     SchemaError, UnknownPresetError)
from .fab import ProcessModel
from .units import parse_quantity

_REVERIFY_RTOL = 1e-9
# a bias above this fraction of the pull-in voltage is unsafe (tuning and search)
_PULL_IN_MARGIN = 0.8
# coordinate-refinement rounds after the grid search, each halving the step
_REFINE_ROUNDS = 3
# grid points the search refines, so the most candidates it returns
_REFINE_STARTS = 5
# default relative tolerance of check_spec's frequency criterion
_FREQ_TOL = 0.005


def _as_interval(value, what: str):
    lo, hi = float(value[0]), float(value[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvariantError(f"{what}: interval ({lo}, {hi}) must be finite")
    if not lo <= hi:
        raise InvariantError(f"{what}: empty interval ({lo}, {hi})")
    return (lo, hi)


@dataclass(frozen=True)
class SpecProfile:
    """Application requirement set.

    center_frequency is either a single Hz value or a tuple of (lo, hi)
    Hz bands. Criteria set to None are not applicable for the profile.
    informational holds display-only strings.
    """

    name: str
    center_frequency: object
    q_required: float | None = None
    bandpass: tuple | None = None
    impedance_range: tuple | None = None
    dc_voltage_range: tuple | None = None
    tuning_required: float | None = None
    informational: tuple = ()

    def __post_init__(self):
        if isinstance(self.center_frequency, (int, float)):
            if not 0 < self.center_frequency < math.inf:
                raise InvariantError("center_frequency must be finite and > 0")
            object.__setattr__(self, "center_frequency", float(self.center_frequency))
        else:
            bands = tuple(_as_interval(b, f"{self.name} band") for b in self.center_frequency)
            if not bands or any(b[0] <= 0 for b in bands):
                raise InvariantError("frequency bands must be positive and non-empty")
            object.__setattr__(self, "center_frequency", bands)
        for field_name in ("bandpass", "impedance_range", "dc_voltage_range"):
            v = getattr(self, field_name)
            if v is not None:
                object.__setattr__(self, field_name, _as_interval(v, field_name))
        if self.dc_voltage_range is not None and self.dc_voltage_range[0] < 0:
            raise InvariantError(
                f"dc_voltage_range: lower bound {self.dc_voltage_range[0]} must be >= 0")
        if self.q_required is not None and not 0 < self.q_required < math.inf:
            raise InvariantError("q_required must be finite and > 0")
        if self.tuning_required is not None and not 0 < self.tuning_required < math.inf:
            raise InvariantError("tuning_required must be finite and > 0")
        if isinstance(self.informational, dict):
            object.__setattr__(self, "informational",
                               tuple(sorted(self.informational.items())))
        else:
            object.__setattr__(self, "informational", tuple(self.informational))

    @property
    def frequency_bands(self) -> tuple:
        """Target frequency intervals (a center collapses to a point)."""
        if isinstance(self.center_frequency, float):
            return ((self.center_frequency, self.center_frequency),)
        return self.center_frequency

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "center_frequency": (self.center_frequency
                                 if isinstance(self.center_frequency, float)
                                 else [list(b) for b in self.center_frequency]),
            "q_required": self.q_required,
            "bandpass": list(self.bandpass) if self.bandpass else None,
            "impedance_range": list(self.impedance_range) if self.impedance_range else None,
            "dc_voltage_range": list(self.dc_voltage_range) if self.dc_voltage_range else None,
            "tuning_required": self.tuning_required,
            "informational": dict(self.informational),
        }


def _pair(v, what: str) -> tuple:
    """(low, high) of a [low, high] list v, unparsed; SchemaError naming what."""
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise SchemaError(f"{what} must be a [low, high] list")
    return v[0], v[1]


def profile_from_dict(d: dict) -> SpecProfile:
    _check_keys(d, {"name", "center_frequency"},
                {"q_required", "bandpass", "impedance_range", "dc_voltage_range",
                 "tuning_required", "informational", "schema_version"}, "profile")
    if not isinstance(d["name"], str):
        raise SchemaError("profile: name must be a string")
    cf = d["center_frequency"]
    if isinstance(cf, list):
        cf = tuple(tuple(map(parse_quantity, _pair(b, "profile: each center_frequency band")))
                   for b in cf)
    else:
        cf = parse_quantity(cf)

    def interval(key):
        v = d.get(key)
        return None if v is None else tuple(map(parse_quantity, _pair(v, f"profile: {key}")))

    def scalar(key):
        v = d.get(key)
        return None if v is None else parse_quantity(v)

    info = d.get("informational", {})
    if not (isinstance(info, dict)
            and all(isinstance(k, str) and isinstance(v, str) for k, v in info.items())):
        raise SchemaError("profile: informational must map names to strings")
    return SpecProfile(name=d["name"], center_frequency=cf,
                       q_required=scalar("q_required"), bandpass=interval("bandpass"),
                       impedance_range=interval("impedance_range"),
                       dc_voltage_range=interval("dc_voltage_range"),
                       tuning_required=scalar("tuning_required"),
                       informational=info)


# ---------------------------------------------------------------------------
# built-in profiles

_OSC_BASE_HZ = 38.4e6
_OSC_BASE_Q = 100000.0


def oscillator_profile(n: int = 1) -> SpecProfile:
    """Reference oscillator: center N x 38.4 MHz, Q = 100000/N."""
    if n < 1:
        raise InvariantError(f"oscillator multiplier must be >= 1, got {n}")
    return SpecProfile(
        name=f"oscillator-n{n}",
        center_frequency=n * _OSC_BASE_HZ,
        q_required=_OSC_BASE_Q / n,
        impedance_range=(50.0, 10e3),
        dc_voltage_range=(1.2, 5.0),
        informational={
            "phase_noise": "-117 dBc/Hz @ 400 kHz; -160 dBc/Hz @ 20 MHz",
            "temperature_range": "-40 to +100 C",
            "stability_temperature": "+/- 0.1 ppm/C (compensated quartz reference)",
            "stability_aging": "10 ppm over 10 years (quartz reference)",
            "tuning": "if possible",
        })


def vco_profile() -> SpecProfile:
    return SpecProfile(
        name="vco",
        center_frequency=2e9,
        q_required=1000.0,
        dc_voltage_range=(2.4, 2.4),
        tuning_required=200e6,
        informational={
            "phase_noise": "-140.7 dBc/Hz @ 600 kHz",
            "temperature_range": "-40 to +100 C",
            "tuning": "> 200-300 MHz required",
        })


def _filter_profile(name, bands, bandpass) -> SpecProfile:
    return SpecProfile(
        name=name, center_frequency=bands, bandpass=bandpass,
        impedance_range=(50.0, 50.0),
        informational={
            "insertion_loss": "-1.5 dB (-2.5 dB GSM)",
            "rejection": "-35 dB (-30 dB GSM)",
            "temperature_range": "-40 to +100 C",
            "tuning": "if possible",
        })


@cache
def builtin_profiles() -> tuple:
    """All built-in application profiles (built once; they are frozen)."""
    return (
        oscillator_profile(1), oscillator_profile(2),
        oscillator_profile(3), oscillator_profile(4),
        vco_profile(),
        _filter_profile("filter-wimax", ((2.3e9, 2.7e9), (3.3e9, 3.7e9)), (1.5e6, 10e6)),
        _filter_profile("filter-wifi", ((2.4e9, 2.5e9), (4.9e9, 5.9e9)), (20e6, 20e6)),
        _filter_profile("filter-dvbh", ((450e6, 850e6),), (5e6, 8e6)),
        _filter_profile("filter-gsm-egsb-tx", ((850e6, 915e6),), (35e6, 35e6)),
        _filter_profile("filter-gsm-egsb-rx", ((925e6, 960e6),), (35e6, 35e6)),
        _filter_profile("filter-gsm-dsc-tx", ((1710e6, 1785e6),), (75e6, 75e6)),
        _filter_profile("filter-gsm-dsc-rx", ((1805e6, 1880e6),), (75e6, 75e6)),
    )


@cache
def _profiles_by_name() -> dict:
    return {p.name: p for p in builtin_profiles()}


def profile_by_name(name: str) -> SpecProfile:
    try:
        return _profiles_by_name()[name]
    except KeyError:
        raise UnknownPresetError(
            f"unknown profile {name!r}; built-ins: {list(_profiles_by_name())}") from None


# ---------------------------------------------------------------------------
# candidates

@dataclass(frozen=True)
class CandidateAnalysis:
    """Derived figures of one analyzed design (as-fabricated gap)."""

    frequency: float
    r_x: float
    released_gap: float
    v_pi: float
    tuning_range: float | None
    tuning_v_range: tuple | None

    def to_dict(self) -> dict:
        return {"frequency": self.frequency, "r_x": self.r_x,
                "released_gap": self.released_gap, "v_pi": self.v_pi,
                "tuning_range": self.tuning_range,
                "tuning_v_range": list(self.tuning_v_range) if self.tuning_v_range else None}


@dataclass(frozen=True)
class DesignCandidate:
    """A geometry + transducer + assumed Q with its analysis results."""

    geometry: object
    transducer: Transducer
    material: Material
    assumed_q: float
    analysis: CandidateAnalysis

    def __post_init__(self):
        if self.assumed_q <= 0:
            raise InvariantError("assumed_q must be > 0")
        _geometry_family(self.geometry)   # InvariantError unless a beam or disk

    @property
    def family(self) -> str:
        return _geometry_family(self.geometry)

    @classmethod
    def analyze(cls, geometry, transducer: Transducer, material: Material,
                assumed_q: float, process: ProcessModel = ProcessModel(),
                tuning_v_range: tuple | None = None) -> "DesignCandidate":
        """Analyze a design in as-fabricated mode.

        The transducer gap is read as the drawn gap; R_x, pull-in and
        tuning use the released gap from the process model.
        """
        mode = _mode_for(geometry, material)
        gap = fab._released_gap(transducer.gap, fab.release_tunnel_depth(geometry), process)
        t_fab = replace(transducer, gap=gap)
        r_x = transduction.motional_resistance(mode, t_fab, assumed_q)
        v_pi = transduction.pull_in_voltage(mode, t_fab)
        if tuning_v_range is None:
            tuning_v_range = (0.0, transducer.bias_voltage)
        try:
            tuning = tuning_span(mode, t_fab, tuning_v_range[0], tuning_v_range[1])
        except InstabilityError:
            tuning = None
        return cls(geometry=geometry, transducer=transducer, material=material,
                   assumed_q=assumed_q,
                   analysis=CandidateAnalysis(frequency=mode.frequency, r_x=r_x,
                                              released_gap=gap,
                                              v_pi=v_pi, tuning_range=tuning,
                                              tuning_v_range=tuple(tuning_v_range)))

    def reverify(self, process: ProcessModel = ProcessModel()) -> bool:
        """Recompute the analysis and compare at 1e-9 relative."""
        fresh = DesignCandidate.analyze(self.geometry, self.transducer,
                                        self.material, self.assumed_q, process,
                                        tuning_v_range=self.analysis.tuning_v_range)
        a, b = self.analysis, fresh.analysis

        def close(u, v):
            if u is None or v is None:
                return u is None and v is None
            return abs(u - v) <= _REVERIFY_RTOL * max(abs(u), abs(v), 1e-300)

        return (close(a.frequency, b.frequency) and close(a.r_x, b.r_x)
                and close(a.released_gap, b.released_gap)
                and close(a.v_pi, b.v_pi) and close(a.tuning_range, b.tuning_range))

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "geometry": self.geometry.to_dict(),
            "transducer": self.transducer.to_dict(),
            "material": self.material.to_dict(),
            "assumed_q": self.assumed_q,
            "analysis": self.analysis.to_dict(),
        }


def _mode_for(geometry, material: Material):
    """Lumped fundamental mode, without a sampled shape."""
    if _geometry_family(geometry) == "beam":
        return analytic.beam_mode_result(geometry, material, n=1, samples=0)
    return analytic.disk_mode_result(geometry, material, n=2, samples=0)


# ---------------------------------------------------------------------------
# spec checking

@dataclass(frozen=True)
class CriterionResult:
    name: str
    applicable: bool
    passed: bool
    detail: str


@dataclass(frozen=True)
class SpecReport:
    profile_name: str
    criteria: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria if c.applicable)

    def criterion(self, name: str) -> CriterionResult:
        for c in self.criteria:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "profile": self.profile_name,
            "passed": self.passed,
            "criteria": [{"name": c.name, "applicable": c.applicable,
                          "passed": c.passed, "detail": c.detail}
                         for c in self.criteria],
        }

    def to_text(self) -> str:
        lines = [f"spec check vs '{self.profile_name}': "
                 f"{'PASS' if self.passed else 'FAIL'}"]
        for c in self.criteria:
            mark = "n/a " if not c.applicable else ("pass" if c.passed else "FAIL")
            lines.append(f"  [{mark}] {c.name}: {c.detail}")
        return "\n".join(lines)


def _within(x, lo, hi):
    """lo <= x <= hi, for floats or arrays; NaN is outside."""
    return (lo <= x) & (x <= hi)


def _spec_passed(profile: SpecProfile, f, q, r_x, bias, tuning, freq_tol: float):
    """check_spec's verdicts (frequency, q, impedance, dc_voltage, tuning) for
    floats or arrays; an unset criterion passes, and a NaN tuning span fails."""
    in_band = False
    for lo, hi in profile.frequency_bands:
        in_band = in_band | _within(f, lo * (1 - freq_tol), hi * (1 + freq_tol))
    return (in_band,
            profile.q_required is None or q >= profile.q_required,
            profile.impedance_range is None or _within(r_x, *profile.impedance_range),
            profile.dc_voltage_range is None or _within(bias, *profile.dc_voltage_range),
            profile.tuning_required is None or tuning >= profile.tuning_required)


def _criterion(name: str, requirement, passed, detail, absent: str) -> CriterionResult:
    """A check_spec row, not applicable (and passed) without a requirement."""
    if requirement is None:
        return CriterionResult(name, False, True, absent)
    return CriterionResult(name, True, passed, detail(requirement))


def check_spec(candidate: DesignCandidate, profile: SpecProfile,
               freq_tol: float = _FREQ_TOL) -> SpecReport:
    """Per-criterion pass/fail of an analyzed design against a profile; the
    frequency may miss a band edge by freq_tol, relative (0: exact match)."""
    if not (math.isfinite(freq_tol) and freq_tol >= 0):
        raise InvariantError(f"freq_tol must be finite and >= 0, got {freq_tol!r}")
    a, q = candidate.analysis, candidate.assumed_q
    f, r, v, tr = a.frequency, a.r_x, candidate.transducer.bias_voltage, a.tuning_range
    f_ok, q_ok, r_ok, v_ok, tuning_ok = _spec_passed(
        profile, f, q, r, v, math.nan if tr is None else tr, freq_tol)
    bands_txt = ", ".join(f"{lo:.6g}..{hi:.6g}" for lo, hi in profile.frequency_bands)
    tuning_txt = ("tuning range not evaluable (unstable)" if tr is None
                  else f"tuning range {tr:.6g} Hz")
    criteria = (
        CriterionResult("frequency", True, f_ok,
                        f"f = {f:.6g} Hz vs target [{bands_txt}] Hz (rel tol {freq_tol:g})"),
        _criterion("q", profile.q_required, q_ok,
                   lambda req: f"assumed Q = {q:.6g} vs required >= {req:.6g}",
                   "no Q requirement"),
        _criterion("impedance", profile.impedance_range, r_ok,
                   lambda rng: f"R_x = {r:.6g} ohm vs [{rng[0]:.6g}, {rng[1]:.6g}] ohm "
                               "(as-fabricated)",
                   "no impedance requirement"),
        _criterion("dc_voltage", profile.dc_voltage_range, v_ok,
                   lambda rng: f"Vp = {v:.6g} V vs [{rng[0]:.6g}, {rng[1]:.6g}] V",
                   "no DC requirement"),
        _criterion("tuning", profile.tuning_required, tuning_ok,
                   lambda req: f"{tuning_txt} vs required >= {req:.6g} Hz",
                   "tuning optional"))
    return SpecReport(profile_name=profile.name, criteria=criteria)


# ---------------------------------------------------------------------------
# bias tuning

def tuning_span(mode, transducer: Transducer, v_min: float, v_max: float) -> float:
    """f(v_min) - f(v_max) with stability and pull-in margin enforced.

    Raises InstabilityError naming the largest safe bias if any voltage in
    [v_min, v_max] exceeds it.
    """
    if not 0 <= v_min <= v_max:
        raise InvariantError(f"need 0 <= v_min <= v_max, got ({v_min}, {v_max})")
    v_pi = transduction.pull_in_voltage(mode, transducer)
    v_limit = _PULL_IN_MARGIN * v_pi
    if v_max > v_limit:
        raise InstabilityError(
            f"bias sweep up to {v_max:.3g} V exceeds the safe limit "
            f"{v_limit:.3g} V ({_PULL_IN_MARGIN:g} x pull-in {v_pi:.3g} V)",
            critical_voltage=v_limit)

    f_min, f_max = (transduction.spring_softening_frequency(
        mode, replace(transducer, bias_voltage=v)) for v in (v_min, v_max))
    return f_min - f_max


def tuning_range(candidate: DesignCandidate, v_min: float, v_max: float) -> float:
    """Bias-tuning span of an analyzed design over [v_min, v_max]."""
    mode = _mode_for(candidate.geometry, candidate.material)
    t_fab = replace(candidate.transducer, gap=candidate.analysis.released_gap)
    return tuning_span(mode, t_fab, v_min, v_max)


# ---------------------------------------------------------------------------
# design-space search

_BEAM_PARAMS = ("length", "width", "thickness", "gap", "bias_voltage")
_DISK_PARAMS = ("radius", "thickness", "gap", "bias_voltage")
# optimize's binding constraints, in the order a grid point is tested
_FAILURES = ("geometry", "min_drawn_gap", "max_tunnel_depth", "pull_in_margin",
             "frequency", "q", "impedance", "dc_voltage", "tuning")


def _electrode_area(family: str, dims, vibration_axis):
    """electrode_area for floats or arrays of the dimensions in dims."""
    if family == "disk":
        return math.pi * dims["radius"] / 2.0 * dims["thickness"]
    if vibration_axis is VibrationAxis.IN_PLANE:
        return dims["length"] * dims["thickness"]
    return dims["length"] * dims["width"]


def electrode_area(geometry) -> float:
    """Electrode area convention used by the optimizer.

    Beam: electrode spans the face the beam deflects toward (length x
    thickness for in-plane motion, length x width for out-of-plane).
    Disk: electrode wraps a quarter of the rim (pi*R/2 x thickness).
    """
    return _electrode_area(_geometry_family(geometry), vars(geometry),
                           getattr(geometry, "vibration_axis", None))


# a point's figures may overflow or divide by zero (dimensions of 1e-170 m,
# say); the masks and the finite check below decide such points, silently
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _evaluate_points(p: dict, profile: SpecProfile, family: str, material: Material,
                     process: ProcessModel, assumed_q: float,
                     vibration_axis: VibrationAxis, main_bounds: tuple):
    """optimize's evaluator: (p with the main dimension snapped, failure
    code per point, R_x per point) for arrays p of the other parameters.

    The main dimension (length or radius) hits the first target frequency
    whose value fits main_bounds unclipped, else the first target, clipped.
    A code indexes _FAILURES, the first constraint the point fails; -1
    marks a feasible point. Every figure comes from the kernels that
    DesignCandidate.analyze, tuning_span and check_spec call on floats, so
    each code and R_x is what they give for the point. Raises the
    InvariantError analyze raises for a point that gets that far.
    """
    cf = profile.center_frequency
    # band midpoints stand for multi-band targets
    targets = [cf] if isinstance(cf, float) else [0.5 * (lo + hi) for lo, hi in cf]
    gap, bias, t = p["gap"], p["bias_voltage"], p["thickness"]
    if family == "beam":
        # beam frequency scales with the cross-section dimension along the motion
        flex = p["width"] if vibration_axis is VibrationAxis.IN_PLANE else t
        vals = [analytic._beam_length(f, flex, material) for f in targets]
    else:
        vals = [np.full(len(gap), analytic._disk_frequency(2, f, material)) for f in targets]
    lo, hi = main_bounds
    dim = np.clip(vals[0], lo, hi)
    for v in reversed(vals):
        dim = np.where(_within(v, lo, hi), v, dim)
    p = {**p, "length" if family == "beam" else "radius": dim}

    # the checks a point meets in Transducer (valid geometry), then in
    # ModeResult and the released gap (analyzed)
    geometry_ok = _shape_ok(family, p)
    area = _electrode_area(family, p, vibration_axis)
    if np.any(geometry_ok & ~((0 < area) & (area < math.inf))):
        raise InvariantError("electrode_area must be finite and > 0")
    f, m_eff, k_eff = (analytic._beam_lumped(1, 0.5, dim, p["width"], t, flex, material)
                       if family == "beam" else analytic._disk_lumped(2, dim, t, material))
    tunnel = fab._tunnel_depth(family, p)
    gap_ok, tunnel_ok = fab._rules_passed(gap, tunnel, process)
    g = fab._released_gap(gap, tunnel, process)
    lumped = np.stack([f, m_eff, k_eff, g])[:, geometry_ok & gap_ok & tunnel_ok]
    if not np.all((0 < lumped) & (lumped < math.inf)):
        raise InvariantError("frequency, m_eff, k_eff and released gap must be "
                             "finite and > 0")

    # as-fabricated R_x, pull-in and tuning (air gap)
    r_x = transduction._motional_resistance(k_eff, f, bias, g, area, assumed_q, EPSILON_0)
    v_limit = _PULL_IN_MARGIN * transduction._pull_in_voltage(k_eff, g, area, EPSILON_0)
    v_lo, v_hi = profile.dc_voltage_range or (0.0, bias)
    unstable_lo, f_lo = transduction._spring_softening(f, k_eff, v_lo, g, area, EPSILON_0)
    unstable_hi, f_hi = transduction._spring_softening(f, k_eff, v_hi, g, area, EPSILON_0)
    tuning = np.where((v_hi > v_limit) | unstable_lo | unstable_hi, np.nan, f_lo - f_hi)
    fails = [~geometry_ok, ~gap_ok, ~tunnel_ok, bias > v_limit,
             *map(np.logical_not, _spec_passed(profile, f, assumed_q, r_x, bias,
                                               tuning, _FREQ_TOL))]
    return p, np.select(fails, range(len(_FAILURES)), -1), r_x


def optimize(profile: SpecProfile, family: str, bounds: dict,
             process: ProcessModel = ProcessModel(),
             material: Material | None = None,
             assumed_q: float | None = None,
             grid_points: int = 7, max_results: int = 10,
             vibration_axis: VibrationAxis = VibrationAxis.IN_PLANE) -> list:
    """Deterministic grid search + coordinate refinement, minimizing R_x.

    A design is feasible when it passes the fab rules, keeps the bias at or
    below 0.8 x its pull-in voltage, and passes `check_spec` (default
    freq_tol) against the profile. The search evaluates arrays of points at
    once through the same array-capable kernels that `DesignCandidate.analyze`
    and `check_spec` call on floats (the tuning sweep spans the profile's DC
    range, else 0 V to the bias), so it decides exactly as they would. The best
    `_REFINE_STARTS` (5) grid points are refined, so at most that many
    candidates are returned, whatever max_results; each is the `analyze`
    result of a feasible point, ranked by ascending as-fabricated R_x.
    Raises InfeasibleDesignError when no grid point is feasible; its
    histogram counts every grid point once under the first constraint it
    fails: "geometry", a fab rule name ("min_drawn_gap",
    "max_tunnel_depth"), "pull_in_margin", or a check_spec criterion name
    ("frequency", "q", "impedance", "dc_voltage", "tuning"; an unstable
    tuning sweep counts as "tuning"). Raises InvariantError unless assumed_q
    (default: the profile's q_required, else 1e4) is finite and > 0.
    """
    if family not in ("beam", "disk"):
        raise InvariantError(f"family must be 'beam' or 'disk', got {family!r}")
    if material is None:
        raise InvariantError("optimize requires a material")
    if assumed_q is None:
        assumed_q = profile.q_required if profile.q_required is not None else 1e4
    if not 0 < assumed_q < math.inf:
        raise InvariantError(f"assumed_q must be finite and > 0, got {assumed_q!r}")
    for name, value in (("grid_points", grid_points), ("max_results", max_results)):
        if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
            raise SchemaError(f"{name} must be an integer >= 1, got {value!r}")
    param_names = _BEAM_PARAMS if family == "beam" else _DISK_PARAMS
    if not isinstance(bounds, dict):
        raise SchemaError("bounds must map parameter names to [low, high] lists")
    missing = set(param_names) - set(bounds)
    if missing:
        raise SchemaError(f"bounds missing parameters {sorted(missing)}")
    # every bound's shape is checked before any value is parsed
    pairs = {k: _pair(bounds[k], f"bounds[{k!r}]") for k in param_names}
    bnd = {k: tuple(map(parse_quantity, v)) for k, v in pairs.items()}
    for k, (lo, hi) in bnd.items():
        if not 0 < lo <= hi:
            raise SchemaError(f"bounds[{k!r}] must be a positive interval")

    main = "length" if family == "beam" else "radius"

    def evaluate(p: dict):
        return _evaluate_points(p, profile, family, material, process, assumed_q,
                                vibration_axis, bnd[main])

    grid_names = [k for k in param_names if k != main]
    axes = [np.linspace(bnd[k][0], bnd[k][1], grid_points) for k in grid_names]
    grid = np.meshgrid(*axes, indexing="ij")
    p, codes, r_x = evaluate({k: a.ravel() for k, a in zip(grid_names, grid)})

    feasible = np.flatnonzero(codes < 0)
    if not feasible.size:
        failed, first, counts = np.unique(codes, return_index=True, return_counts=True)
        binding = {_FAILURES[failed[i]]: int(counts[i]) for i in np.argsort(first)}
        summary = ", ".join(f"{k}: {v}" for k, v in
                            sorted(binding.items(), key=lambda kv: -kv[1]))
        raise InfeasibleDesignError(
            f"no feasible design in bounds (binding constraints: {summary})",
            binding_constraints=binding)

    # rank by (R_x, parameters), ties in grid order
    order = np.lexsort([p[k][feasible] for k in reversed(param_names)] + [r_x[feasible]])
    starts = feasible[order[:_REFINE_STARTS]]
    cur = {k: p[k][starts] for k in param_names}
    cur_r = r_x[starts]
    n_trials = 11
    for rnd in range(_REFINE_ROUNDS):
        for k in grid_names:
            # one call evaluates the axis sweep of every start
            lo, hi = bnd[k]
            half = (hi - lo) / grid_points * 0.5**rnd
            trials = {name: np.repeat(cur[name], n_trials) for name in grid_names}
            trials[k] = np.linspace(np.maximum(lo, cur[k] - half),
                                    np.minimum(hi, cur[k] + half), n_trials, axis=-1).ravel()
            tp, t_codes, t_r = evaluate(trials)
            # each start moves to its first trial of least R_x among the
            # feasible ones below its own R_x, as taking every feasible trial
            # that lowers it, in turn, would (NaN never lowers it)
            t_r = np.where((t_codes < 0) & (t_r < np.repeat(cur_r, n_trials)), t_r, np.inf)
            j = t_r.reshape(-1, n_trials).argmin(axis=1) + np.arange(0, t_r.size, n_trials)
            moved = t_r[j] < np.inf
            j = j[moved]
            cur_r[moved] = t_r[j]
            for name in param_names:
                cur[name][moved] = tp[name][j]

    refined = [(r, {k: float(cur[k][s]) for k in param_names})
               for s, r in enumerate(cur_r.tolist())]
    refined.sort(key=lambda item: (item[0],) + tuple(item[1][k] for k in param_names))
    out, seen = [], set()
    for _, params in refined:
        sig = tuple(round(params[k], 15) for k in param_names)
        if sig in seen:
            continue
        seen.add(sig)
        geom = (BeamGeometry(params["length"], params["width"], params["thickness"],
                             vibration_axis) if family == "beam"
                else DiskGeometry(params["radius"], params["thickness"]))
        t = Transducer(gap=params["gap"], bias_voltage=params["bias_voltage"],
                       drive_voltage=0.0, electrode_area=electrode_area(geom))
        out.append(DesignCandidate.analyze(geom, t, material, assumed_q, process,
                                           tuning_v_range=profile.dc_voltage_range))
        if len(out) >= max_results:
            break
    return out
