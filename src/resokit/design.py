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
from numbers import Integral

import numpy as np

from . import analytic, transduction
from .core import (EPSILON_0, BeamGeometry, DiskGeometry, Material,
                   Transducer, VibrationAxis)
from .errors import (InfeasibleDesignError, InstabilityError, InvariantError,
                     SchemaError, UnknownPresetError)
from .fab import ProcessModel, check_fab_constraints
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


def profile_from_dict(d: dict) -> SpecProfile:
    known = {"name", "center_frequency", "q_required", "bandpass",
             "impedance_range", "dc_voltage_range", "tuning_required",
             "informational", "schema_version"}
    unknown = set(d) - known
    if unknown:
        raise SchemaError(f"profile: unknown fields {sorted(unknown)}")
    if "name" not in d or "center_frequency" not in d:
        raise SchemaError("profile: name and center_frequency are required")
    if not isinstance(d["name"], str):
        raise SchemaError("profile: name must be a string")

    def pair(v, what):
        if not (isinstance(v, (list, tuple)) and len(v) == 2):
            raise SchemaError(f"profile: {what} must be a [low, high] list")
        return parse_quantity(v[0]), parse_quantity(v[1])

    cf = d["center_frequency"]
    if isinstance(cf, list):
        cf = tuple(pair(b, "each center_frequency band") for b in cf)
    else:
        cf = parse_quantity(cf)

    def interval(key):
        v = d.get(key)
        return None if v is None else pair(v, key)

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


def builtin_profiles() -> tuple:
    """All built-in application profiles."""
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


def profile_by_name(name: str) -> SpecProfile:
    for p in builtin_profiles():
        if p.name == name:
            return p
    raise UnknownPresetError(
        f"unknown profile {name!r}; built-ins: {[p.name for p in builtin_profiles()]}")


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
        if not isinstance(self.geometry, (BeamGeometry, DiskGeometry)):
            raise InvariantError("geometry must be a BeamGeometry or DiskGeometry")

    @property
    def family(self) -> str:
        return "beam" if isinstance(self.geometry, BeamGeometry) else "disk"

    @classmethod
    def analyze(cls, geometry, transducer: Transducer, material: Material,
                assumed_q: float, process: ProcessModel = ProcessModel(),
                tuning_v_range: tuple | None = None) -> "DesignCandidate":
        """Analyze a design in as-fabricated mode.

        The transducer gap is read as the drawn gap; R_x, pull-in and
        tuning use the released gap from the process model.
        """
        mode = _mode_for(geometry, material)
        fab = check_fab_constraints(geometry, transducer, process)
        t_fab = replace(transducer, gap=fab.released_gap)
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
                                              released_gap=fab.released_gap,
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
    if isinstance(geometry, BeamGeometry):
        return analytic.beam_mode_result(geometry, material, n=1, samples=0)
    if isinstance(geometry, DiskGeometry):
        return analytic.disk_mode_result(geometry, material, n=2, samples=0)
    raise InvariantError(f"unsupported geometry {type(geometry).__name__}")


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


def check_spec(candidate: DesignCandidate, profile: SpecProfile,
               freq_tol: float = _FREQ_TOL) -> SpecReport:
    """Per-criterion pass/fail of an analyzed design against a profile; the
    frequency may miss a band edge by freq_tol, relative (0: exact match)."""
    if not (math.isfinite(freq_tol) and freq_tol >= 0):
        raise InvariantError(f"freq_tol must be finite and >= 0, got {freq_tol!r}")
    f = candidate.analysis.frequency
    criteria = []

    in_band = any(lo * (1 - freq_tol) <= f <= hi * (1 + freq_tol)
                  for lo, hi in profile.frequency_bands)
    bands_txt = ", ".join(f"{lo:.6g}..{hi:.6g}" for lo, hi in profile.frequency_bands)
    criteria.append(CriterionResult(
        "frequency", True, in_band,
        f"f = {f:.6g} Hz vs target [{bands_txt}] Hz (rel tol {freq_tol:g})"))

    if profile.q_required is None:
        criteria.append(CriterionResult("q", False, True, "no Q requirement"))
    else:
        ok = candidate.assumed_q >= profile.q_required
        criteria.append(CriterionResult(
            "q", True, ok,
            f"assumed Q = {candidate.assumed_q:.6g} vs required >= {profile.q_required:.6g}"))

    if profile.impedance_range is None:
        criteria.append(CriterionResult("impedance", False, True, "no impedance requirement"))
    else:
        lo, hi = profile.impedance_range
        r = candidate.analysis.r_x
        criteria.append(CriterionResult(
            "impedance", True, lo <= r <= hi,
            f"R_x = {r:.6g} ohm vs [{lo:.6g}, {hi:.6g}] ohm (as-fabricated)"))

    if profile.dc_voltage_range is None:
        criteria.append(CriterionResult("dc_voltage", False, True, "no DC requirement"))
    else:
        lo, hi = profile.dc_voltage_range
        v = candidate.transducer.bias_voltage
        criteria.append(CriterionResult(
            "dc_voltage", True, lo <= v <= hi,
            f"Vp = {v:.6g} V vs [{lo:.6g}, {hi:.6g}] V"))

    if profile.tuning_required is None:
        criteria.append(CriterionResult("tuning", False, True, "tuning optional"))
    else:
        tr = candidate.analysis.tuning_range
        if tr is None:
            criteria.append(CriterionResult(
                "tuning", True, False,
                f"tuning range not evaluable (unstable) vs required >= "
                f"{profile.tuning_required:.6g} Hz"))
        else:
            criteria.append(CriterionResult(
                "tuning", True, tr >= profile.tuning_required,
                f"tuning range {tr:.6g} Hz vs required >= {profile.tuning_required:.6g} Hz"))

    return SpecReport(profile_name=profile.name, criteria=tuple(criteria))


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

    def f_at(v):
        if v == 0:
            return mode.frequency
        return transduction.spring_softening_frequency(
            mode, replace(transducer, bias_voltage=v))

    return f_at(v_min) - f_at(v_max)


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


def electrode_area(geometry) -> float:
    """Electrode area convention used by the optimizer.

    Beam: electrode spans the face the beam deflects toward (length x
    thickness for in-plane motion, length x width for out-of-plane).
    Disk: electrode wraps a quarter of the rim (pi*R/2 x thickness).
    """
    if isinstance(geometry, BeamGeometry):
        if geometry.vibration_axis is VibrationAxis.IN_PLANE:
            return geometry.length * geometry.thickness
        return geometry.length * geometry.width
    if isinstance(geometry, DiskGeometry):
        return math.pi * geometry.radius / 2.0 * geometry.thickness
    raise InvariantError(f"unsupported geometry {type(geometry).__name__}")


def _evaluate_points(p: dict, profile: SpecProfile, family: str, material: Material,
                     process: ProcessModel, assumed_q: float,
                     vibration_axis: VibrationAxis, main_bounds: tuple):
    """optimize's evaluator: (p with the main dimension snapped, failure
    code per point, R_x per point) for arrays p of the other parameters.

    The main dimension (length or radius) hits the first target frequency
    whose value fits main_bounds unclipped, else the first target, clipped.
    A code indexes _FAILURES, the first constraint the point fails; -1
    marks a feasible point. Each formula keeps the operation order of the
    scalar path (analytic, fab, transduction, tuning_span, check_spec) and
    its libm `**` (np.float_power), so every code and R_x equals what
    DesignCandidate.analyze and check_spec give for the point. Raises the
    InvariantError analyze raises for a point that gets that far.
    """
    v_range = profile.dc_voltage_range
    cf = profile.center_frequency
    # band midpoints stand for multi-band targets
    targets = [cf] if isinstance(cf, float) else [0.5 * (lo + hi) for lo, hi in cf]
    if family == "beam":
        # beam frequency scales with the cross-section dimension along the motion
        flex = p["width"] if vibration_axis is VibrationAxis.IN_PLANE else p["thickness"]
        k_len = analytic.beam_mode_coefficient(1).a_n \
            * math.sqrt(material.youngs_modulus / material.density)
        vals = [np.sqrt(k_len * flex / f) for f in targets]
    else:
        vals = [np.full(len(p["gap"]), analytic.disk_radius_for_frequency(f, material))
                for f in targets]
    lo, hi = main_bounds
    dim = np.clip(vals[0], lo, hi)
    for v in reversed(vals):
        dim = np.where((lo <= v) & (v <= hi), v, dim)

    gap, bias, t = p["gap"], p["bias_voltage"], p["thickness"]
    if family == "beam":
        p = {**p, "length": dim}
        width = p["width"]
        geometry_ok = dim > np.maximum(width, t)
        area = dim * (t if vibration_axis is VibrationAxis.IN_PLANE else width)
        tunnel = width / 2.0
    else:
        p = {**p, "radius": dim}
        geometry_ok = t < dim
        area = math.pi * dim / 2.0 * t
        tunnel = dim
    # the checks a point meets in Transducer (valid geometry), then in
    # ModeResult, Transducer, motional_resistance and tuning_span (analyzed)
    if np.any(geometry_ok & ~((0 < area) & (area < math.inf))):
        raise InvariantError("electrode_area must be finite and > 0")
    f, m_eff, k_eff = (
        analytic.beam_lumped_arrays(dim, p["width"], t, vibration_axis, material)
        if family == "beam" else analytic.disk_lumped_arrays(dim, t, material))
    gap_ok = gap >= process.min_drawn_gap
    tunnel_ok = tunnel <= process.max_tunnel_depth
    g = gap + process.etch_bias + process.release_enlargement_rate * tunnel   # released
    analyzed = geometry_ok & gap_ok & tunnel_ok
    if np.any(analyzed):
        lumped = np.stack([f, m_eff, k_eff, g])[:, analyzed]
        if not np.all((0 < lumped) & (lumped < math.inf)):
            raise InvariantError("frequency, m_eff, k_eff and released gap must be "
                                 "finite and > 0")
        if assumed_q <= 0:
            raise InvariantError(f"quality factor must be > 0, got {assumed_q}")
        if v_range is not None and not 0 <= v_range[0]:
            raise InvariantError(f"need 0 <= v_min <= v_max, got {v_range}")

    # as-fabricated R_x, pull-in and tuning
    g3 = np.float_power(g, 3)
    r_x = (k_eff / (2 * math.pi * f * np.float_power(bias, 2))) \
        * (np.float_power(g, 4) / (EPSILON_0**2 * np.float_power(area, 2))) / assumed_q
    v_limit = _PULL_IN_MARGIN * np.sqrt(8.0 * k_eff * g3 / (27.0 * EPSILON_0 * area))

    def tuned(v):
        """(unstable, f) at bias v, as spring_softening_frequency."""
        k_e = np.float_power(v, 2) * EPSILON_0 * area / g3
        with np.errstate(invalid="ignore"):   # sqrt < 0 where k_e > k_eff
            return k_e >= k_eff, np.where(v == 0, f, f * np.sqrt(1.0 - k_e / k_eff))

    v_lo, v_hi = (0.0, bias) if v_range is None else v_range
    unstable_lo, f_lo = tuned(v_lo)
    unstable_hi, f_hi = tuned(v_hi)
    unstable = (v_hi > v_limit) | unstable_lo | unstable_hi

    def outside(value, interval):
        return interval is not None and ~((interval[0] <= value) & (value <= interval[1]))

    in_band = np.any([(lo * (1 - _FREQ_TOL) <= f) & (f <= hi * (1 + _FREQ_TOL))
                      for lo, hi in profile.frequency_bands], axis=0)
    fails = [~geometry_ok, ~gap_ok, ~tunnel_ok, bias > v_limit, ~in_band,
             profile.q_required is not None and not assumed_q >= profile.q_required,
             outside(r_x, profile.impedance_range),
             outside(bias, profile.dc_voltage_range),
             profile.tuning_required is not None
             and (unstable | ~(f_lo - f_hi >= profile.tuning_required))]
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
    once, with the formulas and operation order of `DesignCandidate.analyze`
    and `check_spec` (the tuning sweep spans the profile's DC range, else
    0 V to the bias), so it decides exactly as they would. The best
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
    for k in param_names:
        if not (isinstance(bounds[k], (list, tuple)) and len(bounds[k]) == 2):
            raise SchemaError(f"bounds[{k!r}] must be a [low, high] list")
    bnd = {k: (parse_quantity(bounds[k][0]), parse_quantity(bounds[k][1]))
           for k in param_names}
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
    cur_r = r_x[starts].tolist()
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
            # each start takes, in turn, every feasible trial that lowers its R_x
            t_codes, t_r = t_codes.tolist(), t_r.tolist()
            for s in range(len(cur_r)):
                for j in range(s * n_trials, (s + 1) * n_trials):
                    if t_codes[j] < 0 and t_r[j] < cur_r[s]:
                        cur_r[s] = t_r[j]
                        for name in param_names:
                            cur[name][s] = tp[name][j]

    refined = [(r, {k: float(cur[k][s]) for k in param_names})
               for s, r in enumerate(cur_r)]
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
