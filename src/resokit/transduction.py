"""Electromechanical layer: motional resistance, equivalent circuit,
transmission response, electrostatic tuning, and detection currents.

Core relation for an airgap (or solid-dielectric) parallel-plate transducer:

    R_x = k_r / (w0 * Vp^2) * d0^4 / (eps0^2 * er^2 * S^2) * 1/Q

equivalently R_x = sqrt(k_r * m_eff) / (Q * eta^2) with the transduction
factor eta = Vp * eps0 * er * S / d0^2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import beam_mode_result
from .core import (EPSILON_0, BeamGeometry, DetectionKind, EquivalentCircuit,
                   Material, ModeResult, Transducer, _derived)
from .errors import (DetectionMismatchError, InstabilityError, InvariantError,
                     MissingBandwidthError, PeakAtBoundaryError, SpectrumError,
                     UnboundedResistanceError)


@dataclass(frozen=True)
class Spectrum:
    """Sampled two-port transmission |H(f)| and phase.

    The validated values are also kept as read-only float64 arrays, which
    extract_q reads.
    """

    frequencies: tuple
    magnitude: tuple
    phase: tuple
    _f: np.ndarray = field(init=False, repr=False, compare=False)
    _mag: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        f, m, p = (np.array(v, float) for v in (self.frequencies, self.magnitude,
                                                self.phase))
        if not (f.ndim == m.ndim == p.ndim == 1 and len(f) == len(m) == len(p)):
            raise InvariantError("spectrum arrays must be 1-D of equal length")
        if not (np.isfinite(f).all() and np.isfinite(m).all() and np.isfinite(p).all()):
            raise InvariantError("spectrum values must be finite")
        if np.any(f[1:] <= f[:-1]):
            raise InvariantError("frequencies must be strictly increasing")
        f.flags.writeable = m.flags.writeable = False
        for name, value in (("frequencies", tuple(f.tolist())),
                            ("magnitude", tuple(m.tolist())),
                            ("phase", tuple(p.tolist())), ("_f", f), ("_mag", m)):
            object.__setattr__(self, name, value)

    def to_csv(self, path):
        """CSV rows: frequency_hz, magnitude_db, phase_rad."""
        with open(path, "w") as fh:
            fh.write("frequency_hz,magnitude_db,phase_rad\n")
            for f, m, p in zip(self.frequencies, self.magnitude, self.phase):
                db = 20 * math.log10(m) if m > 0 else float("-inf")
                fh.write(f"{f!r},{db!r},{p!r}\n")


def _gap_permittivity(t: Transducer) -> float:
    return EPSILON_0 * t.gap_rel_permittivity


def transduction_factor(t: Transducer) -> float:
    """eta = Vp * eps0 * er * S / d0^2 (N/V, equivalently A.s/m)."""
    return t.bias_voltage * _gap_permittivity(t) * t.electrode_area / t.gap**2


def static_capacitance(t: Transducer) -> float:
    """Parallel-plate electrode capacitance (no fringing)."""
    return _gap_permittivity(t) * t.electrode_area / t.gap


# kernels for floats or arrays (see analytic); eps is the gap permittivity

def _motional_resistance(k_eff, f, v, g, area, q, eps):
    return (k_eff / (2 * math.pi * f * np.float_power(v, 2))) \
        * (np.float_power(g, 4) / (np.float_power(eps, 2) * np.float_power(area, 2))) / q


def _pull_in_voltage(k_eff, g, area, eps):
    return np.sqrt(8.0 * k_eff * np.float_power(g, 3) / (27.0 * eps * area))


def _electrostatic_spring(v, g, area, eps):
    return np.float_power(v, 2) * eps * area / np.float_power(g, 3)


def _spring_softening(f, k_eff, v, g, area, eps):
    """(unstable, f*sqrt(1 - k_e/k_eff)): unstable where k_e >= k_eff, and
    the frequency there means nothing (abs keeps its sqrt real)."""
    k_e = _electrostatic_spring(v, g, area, eps)
    return k_e >= k_eff, f * np.sqrt(abs(1.0 - k_e / k_eff))


def motional_resistance(mode: ModeResult, t: Transducer, q: float) -> float:
    """Series motional resistance (ohm) of the transduced mode."""
    if q <= 0:
        raise InvariantError(f"quality factor must be > 0, got {q}")
    if t.bias_voltage == 0:
        raise UnboundedResistanceError(
            "zero bias voltage: motional resistance is unbounded")
    return _derived("R_x", _motional_resistance, mode.effective_stiffness, mode.frequency,
                    t.bias_voltage, t.gap, t.electrode_area, q, _gap_permittivity(t))


def equivalent_circuit(mode: ModeResult, t: Transducer, q: float) -> EquivalentCircuit:
    """Series R-L-C plus static capacitance for one mode.

    r_x is evaluated through motional_resistance (single code path); f0 and
    q are stored as the exact RLC-derived values.
    """
    r_x = motional_resistance(mode, t, q)
    eta2 = _derived("eta^2", lambda: transduction_factor(t)**2)
    l_x = mode.effective_mass / eta2
    c_x = eta2 / mode.effective_stiffness
    f0 = 1.0 / (2 * math.pi * math.sqrt(l_x * c_x))
    q_rlc = math.sqrt(l_x / c_x) / r_x
    return EquivalentCircuit(r_x=r_x, l_x=l_x, c_x=c_x,
                             c0=static_capacitance(t), q=q_rlc, f0=f0)


def circuit_to_json(c: EquivalentCircuit, path):
    """Netlist-like JSON record of the equivalent circuit."""
    record = {"topology": "series-RLC with shunt C0 at each port", **c.to_dict()}
    with open(path, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")


def transmission_spectrum(c: EquivalentCircuit, termination: float = 50.0,
                          f_lo: float = None, f_hi: float = None,
                          points: int = 2001) -> Spectrum:
    """Two-port transmission of the series-RLC branch between matched
    terminations, with the static capacitance as a shunt element at each
    port. Sampled on a geometric frequency grid.

    Without the shunts H(f) reduces to 2*Z/(2*Z + Z_motional(f)).
    """
    if f_lo is None:
        f_lo = c.f0 * (1 - 20.0 / c.q)
    if f_hi is None:
        f_hi = c.f0 * (1 + 20.0 / c.q)
    if not (0 < f_lo < c.f0 < f_hi):
        raise SpectrumError(f"need f_lo < f0 < f_hi, got [{f_lo}, {f_hi}] vs f0={c.f0}")
    if points < 3:
        raise SpectrumError(f"points must be >= 3, got {points}")
    if termination <= 0:
        raise SpectrumError(f"termination must be > 0, got {termination}")

    f = np.geomspace(f_lo, f_hi, points)
    w = 2 * np.pi * f
    z_m = c.r_x + 1j * (w * c.l_x - 1.0 / (w * c.c_x))
    y0 = 1j * w * c.c0
    # ABCD chain: shunt C0, series Z_m, shunt C0
    a = 1 + z_m * y0
    b = z_m
    cc = y0 * (2 + z_m * y0)
    d = a
    s21 = 2.0 / (a + b / termination + cc * termination + d)
    return Spectrum(frequencies=f, magnitude=np.abs(s21), phase=np.angle(s21))


def extract_q(s: Spectrum) -> float:
    """Q = f_peak / (3 dB bandwidth), crossings linearly interpolated."""
    mag, f = s._mag, s._f
    i_pk = int(np.argmax(mag))
    if i_pk == 0 or i_pk == len(mag) - 1:
        raise PeakAtBoundaryError("spectrum maximum at grid boundary")
    level = mag[i_pk] / math.sqrt(2.0)
    below = mag < level
    left = np.flatnonzero(below[:i_pk])
    right = np.flatnonzero(below[i_pk + 1:])
    if not (left.size and right.size):
        raise MissingBandwidthError(
            "3 dB crossing outside the sampled grid (grid too narrow)")

    def cross(i: int, j: int) -> float:
        """Linear interpolation in frequency between sample i, at or above
        the level, and its neighbour j, below it."""
        frac = (mag[i] - level) / (mag[i] - mag[j])
        return float(f[i] + frac * (f[j] - f[i]))

    # the crossings nearest the peak on either side
    f_left = cross(left[-1] + 1, left[-1])
    f_right = cross(i_pk + right[0], i_pk + 1 + right[0])
    return float(f[i_pk]) / (f_right - f_left)


def resonant_amplitude(mode: ModeResult, t: Transducer, q: float) -> float:
    """Peak displacement x = Q*F/k_r with F = Vp*vac*eps0*er*S/d0^2."""
    if q <= 0:
        raise InvariantError(f"quality factor must be > 0, got {q}")
    force = t.bias_voltage * t.drive_voltage * _gap_permittivity(t) \
        * t.electrode_area / t.gap**2
    return q * force / mode.effective_stiffness


def electrostatic_spring(mode: ModeResult, t: Transducer) -> float:
    """Gap force gradient k_e = Vp^2 * eps0 * er * S / d0^3."""
    return float(_electrostatic_spring(t.bias_voltage, t.gap, t.electrode_area,
                                       _gap_permittivity(t)))


def spring_softening_frequency(mode: ModeResult, t: Transducer) -> float:
    """Bias-tuned frequency f0*sqrt(1 - k_e/k_r); raises past instability."""
    k_r = mode.effective_stiffness
    unstable, f = _spring_softening(mode.frequency, k_r, t.bias_voltage, t.gap,
                                    t.electrode_area, _gap_permittivity(t))
    if unstable:
        k_e = electrostatic_spring(mode, t)
        v_crit = math.sqrt(k_r * t.gap**3 / (_gap_permittivity(t) * t.electrode_area))
        raise InstabilityError(
            f"electrostatic spring {k_e:.3g} N/m >= stiffness {k_r:.3g} N/m "
            f"(critical bias {v_crit:.3g} V)", critical_voltage=v_crit)
    return float(f)


def pull_in_voltage(mode: ModeResult, t: Transducer) -> float:
    """Parallel-plate pull-in limit sqrt(8*k_r*d0^3/(27*eps0*er*S))."""
    return _derived("pull-in voltage", _pull_in_voltage, mode.effective_stiffness, t.gap,
                    t.electrode_area, _gap_permittivity(t))


def capacitive_output_current(mode: ModeResult, t: Transducer, q: float) -> float:
    """Motional output current i = w0 * Vp * (dC/dx) * x_amp."""
    x_amp = resonant_amplitude(mode, t, q)
    dc_dx = _gap_permittivity(t) * t.electrode_area / t.gap**2
    return mode.angular_frequency * t.bias_voltage * dc_dx * x_amp


def mos_output_current(mode: ModeResult, t: Transducer, q: float) -> float:
    """First-order gate-capacitance modulation: i = I_D * alpha * x_amp/d0."""
    if t.detection is not DetectionKind.MOS or t.mos is None:
        raise DetectionMismatchError("transducer detection kind is not MOS")
    x_amp = resonant_amplitude(mode, t, q)
    return t.mos.bias_drain_current * t.mos.channel_modulation_order * x_amp / t.gap


def detection_comparison(geom: BeamGeometry, mat: Material, t: Transducer,
                         q: float, scales) -> list:
    """(scale, i_mos/i_cap) for a family of uniformly shrunk beam designs.

    Every length scales by s (beam dimensions, gap) and the electrode area
    by s^2; voltages and Q stay fixed. The sense transistor shrinks with
    the resonator, so at fixed bias voltages its drain current grows with
    the gate-capacitance density: I_D(s) = I_D / s (the gap is the gate
    dielectric). The resulting ratio follows a pure power law in s.
    """
    scales = [float(s) for s in scales]
    if not scales or scales[0] != 1.0:
        raise InvariantError("scales must start at 1")
    if any(not 0 < s <= 1 for s in scales):
        raise InvariantError("scales must lie in (0, 1]")
    if any(b >= a for a, b in zip(scales, scales[1:])):
        raise InvariantError("scales must be strictly descending")
    if t.detection is not DetectionKind.MOS or t.mos is None:
        raise DetectionMismatchError("detection comparison needs MOS parameters")

    out = []
    for s in scales:
        geom_s = BeamGeometry(length=geom.length * s, width=geom.width * s,
                              thickness=geom.thickness * s,
                              vibration_axis=geom.vibration_axis)
        mos_s = type(t.mos)(bias_drain_current=t.mos.bias_drain_current / s,
                            channel_modulation_order=t.mos.channel_modulation_order)
        t_s = Transducer(gap=t.gap * s, bias_voltage=t.bias_voltage,
                         drive_voltage=t.drive_voltage,
                         electrode_area=t.electrode_area * s * s,
                         gap_rel_permittivity=t.gap_rel_permittivity,
                         detection=DetectionKind.MOS, mos=mos_s)
        mode_s = beam_mode_result(geom_s, mat, n=1, samples=0)
        out.append((s, _derived("i_mos/i_cap", lambda: mos_output_current(mode_s, t_s, q)
                                / capacitive_output_current(mode_s, t_s, q))))
    return out
