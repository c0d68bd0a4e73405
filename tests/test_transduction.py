import dataclasses
import math
import warnings

import numpy as np
import pytest

from conftest import with_pow_ties
from resokit import transduction
from resokit.analytic import beam_effective_params, beam_mode_result
from resokit.core import (EPSILON_0, DetectionKind, ModeResult, MosParams,
                          Transducer)
from resokit.errors import (DetectionMismatchError, InstabilityError,
                            InvariantError, MissingBandwidthError,
                            PeakAtBoundaryError, SpectrumError,
                            UnboundedResistanceError)
from resokit.transduction import (Spectrum, capacitive_output_current,
                                  detection_comparison, equivalent_circuit,
                                  extract_q, mos_output_current,
                                  motional_resistance, pull_in_voltage,
                                  resonant_amplitude,
                                  spring_softening_frequency,
                                  static_capacitance, transmission_spectrum)

Q_REF = 1e4


@pytest.fixture(scope="module")
def ref_mode(ref_beam, silicon):
    return beam_mode_result(ref_beam, silicon, 1)


@pytest.fixture(scope="module")
def ref_circuit(ref_mode, ref_transducer):
    return equivalent_circuit(ref_mode, ref_transducer, Q_REF)


@pytest.fixture(scope="module")
def mos_transducer(ref_transducer):
    return dataclasses.replace(ref_transducer, detection=DetectionKind.MOS,
                               mos=MosParams(bias_drain_current=10e-6))


def _random_mode(rng) -> ModeResult:
    f = rng.uniform(1e6, 2e9)
    m = rng.uniform(1e-16, 1e-12)
    k = (2 * math.pi * f) ** 2 * m
    return ModeResult(frequency=f, mode_order=1, effective_mass=m,
                      effective_stiffness=k, mode_shape=(0.0, 1.0))


def _random_transducer(rng) -> Transducer:
    return Transducer(gap=rng.uniform(50e-9, 500e-9),
                      bias_voltage=rng.uniform(0.5, 20),
                      drive_voltage=rng.uniform(0.001, 1),
                      electrode_area=rng.uniform(1e-13, 1e-10),
                      gap_rel_permittivity=rng.uniform(1.0, 12.0))


class TestMotionalResistance:
    def test_golden_value_against_direct_evaluation(self, ref_beam, silicon,
                                                    ref_transducer, ref_mode):
        # independent evaluation with k_r from the quadrature-backed params
        k_r = beam_effective_params(ref_beam, silicon, 1, 0.5)[1]
        w0 = 2 * math.pi * ref_mode.frequency
        t = ref_transducer
        expected = (k_r / (w0 * t.bias_voltage**2)) \
            * (t.gap**4 / (EPSILON_0**2 * t.electrode_area**2)) / Q_REF
        got = motional_resistance(ref_mode, t, Q_REF)
        assert got == pytest.approx(expected, rel=1e-9)
        # recorded once: ~90 kohm for the 90 nm gap reference design
        assert got == pytest.approx(89984.4986283, rel=1e-9)

    @pytest.mark.parametrize("field,factor,expected_ratio", [
        ("gap", 2.0, 16.0),             # d0^4
        ("bias_voltage", 2.0, 0.25),    # Vp^-2
        ("electrode_area", 2.0, 0.25),  # S^-2
        ("gap_rel_permittivity", 2.0, 0.25),  # er^-2
    ])
    def test_exact_scaling_laws(self, field, factor, expected_ratio):
        rng = np.random.default_rng(3)
        for _ in range(25):
            mode = _random_mode(rng)
            t = _random_transducer(rng)
            t2 = dataclasses.replace(t, **{field: getattr(t, field) * factor})
            r1 = motional_resistance(mode, t, Q_REF)
            r2 = motional_resistance(mode, t2, Q_REF)
            assert r2 / r1 == pytest.approx(expected_ratio, rel=1e-9)

    def test_q_scaling(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            mode = _random_mode(rng)
            t = _random_transducer(rng)
            assert motional_resistance(mode, t, 2 * Q_REF) / \
                motional_resistance(mode, t, Q_REF) == pytest.approx(0.5, rel=1e-9)

    def test_zero_bias_error(self, ref_mode, ref_transducer):
        t0 = dataclasses.replace(ref_transducer, bias_voltage=0.0)
        with pytest.raises(UnboundedResistanceError):
            motional_resistance(ref_mode, t0, Q_REF)

    def test_bad_q(self, ref_mode, ref_transducer):
        with pytest.raises(InvariantError):
            motional_resistance(ref_mode, ref_transducer, 0.0)

    @pytest.mark.parametrize("gap", [1e100, 1e-100])
    def test_absurd_gap_rejected(self, ref_mode, ref_transducer, gap):
        # d0^4 overflows to inf or underflows to 0: an InvariantError, and
        # no numpy warning (an error under this suite's filterwarnings)
        t = dataclasses.replace(ref_transducer, gap=gap)
        with pytest.raises(InvariantError, match="R_x must be finite and > 0"):
            motional_resistance(ref_mode, t, Q_REF)
        with pytest.raises(InvariantError, match="R_x"):
            equivalent_circuit(ref_mode, t, Q_REF)


class TestAbsurdGap:
    """The helpers that scale with a power of the gap refuse a figure that
    overflows or underflows, with no numpy warning."""

    @pytest.mark.parametrize("gap", [1e200, 1e-200])
    @pytest.mark.parametrize("what,call", [
        ("eta", lambda mode, t: transduction.transduction_factor(t)),
        ("resonant amplitude", lambda mode, t: resonant_amplitude(mode, t, Q_REF)),
        ("electrostatic spring", lambda mode, t: transduction.electrostatic_spring(mode, t)),
        # a current refuses the amplitude it scales first
        pytest.param("resonant amplitude",
                     lambda mode, t: capacitive_output_current(mode, t, Q_REF),
                     id="capacitive current"),
        pytest.param("resonant amplitude", lambda mode, t: mos_output_current(
            mode, dataclasses.replace(t, detection=DetectionKind.MOS,
                                      mos=MosParams(bias_drain_current=10e-6)), Q_REF),
                     id="MOS current"),
    ])
    def test_rejected(self, ref_mode, ref_transducer, gap, what, call):
        t = dataclasses.replace(ref_transducer, gap=gap)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantError, match=f"{what} must be finite and > 0"):
                call(ref_mode, t)

    @pytest.mark.parametrize("call,what", [
        (capacitive_output_current, "capacitive output current"),
        (mos_output_current, "MOS output current"),
    ], ids=["capacitive", "mos"])
    def test_current_overflow_rejected(self, ref_mode, mos_transducer, call, what):
        # the amplitude is finite at a 1e-115 m gap, the current is not
        t = dataclasses.replace(mos_transducer, gap=1e-115)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 0 < resonant_amplitude(ref_mode, t, Q_REF) < math.inf
            with pytest.raises(InvariantError, match=f"{what} must be finite and > 0, got inf"):
                call(ref_mode, t, Q_REF)

    def test_spring_softening_total(self, ref_mode, ref_transducer):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # k_e underflows to 0: no softening
            huge = dataclasses.replace(ref_transducer, gap=1e200)
            assert spring_softening_frequency(ref_mode, huge) == ref_mode.frequency
            # k_e overflows: unstable, and the spring itself is refused
            tiny = dataclasses.replace(ref_transducer, gap=1e-200)
            with pytest.raises(InvariantError,
                               match="electrostatic spring must be finite and > 0"):
                spring_softening_frequency(ref_mode, tiny)
            # no bias over a d0^3 that underflows: k_e = 0/0
            unbiased = dataclasses.replace(tiny, bias_voltage=0.0)
            with pytest.raises(InvariantError, match="spring-softened frequency must be "
                                                     "finite and > 0, got nan"):
                spring_softening_frequency(ref_mode, unbiased)

    def test_static_capacitance_overflow_rejected(self, ref_transducer):
        t = dataclasses.replace(ref_transducer, gap=1e-30, electrode_area=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantError,
                               match="static capacitance must be finite and > 0, got inf"):
                static_capacitance(t)

    def test_zero_bias_is_zero(self, ref_mode, ref_transducer):
        t0 = dataclasses.replace(ref_transducer, bias_voltage=0.0)
        assert transduction.transduction_factor(t0) == 0.0
        assert transduction.electrostatic_spring(ref_mode, t0) == 0.0
        assert resonant_amplitude(ref_mode, t0, Q_REF) == 0.0

    @pytest.mark.parametrize("change", [{"bias_voltage": 0.0}, {"drive_voltage": 0.0}],
                             ids=["no-bias", "no-drive"])
    def test_no_force_currents_are_zero(self, ref_mode, mos_transducer, change):
        t = dataclasses.replace(mos_transducer, **change)
        assert capacitive_output_current(ref_mode, t, Q_REF) == 0.0
        assert mos_output_current(ref_mode, t, Q_REF) == 0.0
        with pytest.raises(InvariantError, match="quality factor must be > 0"):
            mos_output_current(ref_mode, t, 0.0)

    def test_in_range_values_unchanged(self, ref_mode, ref_transducer):
        t = ref_transducer
        eps = EPSILON_0 * t.gap_rel_permittivity
        assert transduction.transduction_factor(t) == \
            t.bias_voltage * eps * t.electrode_area / t.gap**2
        assert resonant_amplitude(ref_mode, t, Q_REF) == Q_REF * (
            t.bias_voltage * t.drive_voltage * eps * t.electrode_area / t.gap**2) \
            / ref_mode.effective_stiffness
        assert transduction.electrostatic_spring(ref_mode, t) == float(
            np.float_power(t.bias_voltage, 2) * eps * t.electrode_area
            / np.float_power(t.gap, 3))
        x = resonant_amplitude(ref_mode, t, Q_REF)
        assert capacitive_output_current(ref_mode, t, Q_REF) == \
            ref_mode.angular_frequency * t.bias_voltage * (eps * t.electrode_area / t.gap**2) * x
        t_mos = dataclasses.replace(t, detection=DetectionKind.MOS,
                                    mos=MosParams(bias_drain_current=10e-6,
                                                  channel_modulation_order=1.5))
        assert mos_output_current(ref_mode, t_mos, Q_REF) == 10e-6 * 1.5 * x / t.gap
        assert static_capacitance(t) == eps * t.electrode_area / t.gap
        k_e = transduction.electrostatic_spring(ref_mode, t)
        assert spring_softening_frequency(ref_mode, t) == float(
            ref_mode.frequency * np.sqrt(abs(1.0 - k_e / ref_mode.effective_stiffness)))


class TestEquivalentCircuit:
    def test_rx_equivalence_both_paths(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            mode = _random_mode(rng)
            t = _random_transducer(rng)
            q = rng.uniform(100, 1e5)
            c = equivalent_circuit(mode, t, q)
            r_direct = motional_resistance(mode, t, q)
            assert abs(c.r_x - r_direct) <= 1e-12 * r_direct

    def test_resonance_identity(self, ref_mode, ref_transducer):
        c = equivalent_circuit(ref_mode, ref_transducer, Q_REF)
        f_lc = 1 / (2 * math.pi * math.sqrt(c.l_x * c.c_x))
        assert f_lc == pytest.approx(ref_mode.frequency, rel=1e-9)

    def test_q_round_trip_value(self, ref_mode, ref_transducer):
        c = equivalent_circuit(ref_mode, ref_transducer, Q_REF)
        assert c.q == pytest.approx(Q_REF, rel=1e-9)

    def test_static_capacitance_oracle(self):
        # parallel-plate hand calculation: S = 1 um^2, d = 100 nm -> 88.5 aF
        t = Transducer(gap=100e-9, bias_voltage=1, drive_voltage=0,
                       electrode_area=1e-12)
        assert static_capacitance(t) == pytest.approx(88.541878128e-18, rel=1e-9)

    def test_eta_squared_out_of_range(self, ref_mode, ref_transducer):
        # R_x is finite and > 0 here, but eta^2 overflows
        t = dataclasses.replace(ref_transducer, gap=1e-40, bias_voltage=1e100)
        assert 0 < motional_resistance(ref_mode, t, 1e-10) < math.inf
        with pytest.raises(InvariantError, match="eta"):
            equivalent_circuit(ref_mode, t, 1e-10)

    def test_dielectric_gap_reduces_rx(self, ref_mode, ref_transducer):
        er = 7.8
        t2 = dataclasses.replace(ref_transducer, gap_rel_permittivity=er)
        ratio = motional_resistance(ref_mode, t2, Q_REF) / \
            motional_resistance(ref_mode, ref_transducer, Q_REF)
        assert ratio == pytest.approx(1.0 / er**2, rel=1e-12)


class TestSpectrum:
    def test_peak_near_f0(self, ref_circuit):
        s = transmission_spectrum(ref_circuit, points=2001)
        f = np.asarray(s.frequencies)
        i_pk = int(np.argmax(s.magnitude))
        step = f[i_pk + 1] - f[i_pk - 1]
        assert abs(f[i_pk] - ref_circuit.f0) <= step

    def test_far_from_resonance_floor(self, ref_circuit):
        s = transmission_spectrum(ref_circuit, f_lo=ref_circuit.f0 * 0.5,
                                  f_hi=ref_circuit.f0 * 2.0, points=4001)
        mag = np.asarray(s.magnitude)
        peak = float(mag.max())
        assert mag[0] < 1e-3 * peak
        assert mag[-1] < 1e-3 * peak

    @pytest.mark.parametrize("q", [1e3, 1e4, 5e4])
    def test_q_round_trip(self, ref_mode, ref_transducer, q):
        c = equivalent_circuit(ref_mode, ref_transducer, q)
        s = transmission_spectrum(c, points=4001)
        assert extract_q(s) == pytest.approx(q, rel=0.01)

    def test_grid_is_geometric_and_sized(self, ref_circuit):
        s = transmission_spectrum(ref_circuit, points=101)
        f = np.asarray(s.frequencies)
        assert len(f) == 101
        ratios = f[1:] / f[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-12)

    @pytest.mark.parametrize("points", [3, 101, 2001, transduction._MAX_POINTS])
    def test_grid_ends_exactly_at_its_bounds(self, ref_circuit, points):
        f_lo, f_hi = ref_circuit.f0 * 0.999, ref_circuit.f0 * 1.003
        f = transmission_spectrum(ref_circuit, f_lo=f_lo, f_hi=f_hi,
                                  points=points).frequencies
        assert f[0] == f_lo and f[-1] == f_hi
        assert np.all(f[1:] > f[:-1])
        # the default band too
        f = transmission_spectrum(ref_circuit, points=points).frequencies
        assert f[0] == ref_circuit.f0 * (1 - 20.0 / ref_circuit.q)
        assert f[-1] == ref_circuit.f0 * (1 + 20.0 / ref_circuit.q)
        assert np.all(f[1:] > f[:-1])

    @pytest.mark.parametrize("q,expected", [
        (1e2, 99.98349559357261),
        (1e3, 999.8886088451765),
        (1e4, 9988.788787978965),
        (1e5, 98891.89448013887),
        (1e6, 899934.864626092),
    ])
    def test_extracted_q_recorded(self, ref_mode, ref_transducer, q, expected):
        # recorded on the np.geomspace grid the spectrum was sampled on
        # before; the exp(linspace) grid moves each value by ~1e-11 at most
        c = equivalent_circuit(ref_mode, ref_transducer, q)
        assert extract_q(transmission_spectrum(c)) == pytest.approx(expected, rel=1e-9)

    def test_invalid_range(self, ref_circuit):
        with pytest.raises(SpectrumError):
            transmission_spectrum(ref_circuit, f_lo=ref_circuit.f0 * 1.01,
                                  f_hi=ref_circuit.f0 * 1.1)
        with pytest.raises(SpectrumError):
            transmission_spectrum(ref_circuit, points=2)

    @pytest.mark.parametrize("band", [
        lambda f0: {"f_hi": math.inf},
        lambda f0: {"f_lo": 1e-300},
        lambda f0: {"f_lo": 5e-324},
        lambda f0: {"f_hi": 1e308},
        lambda f0: {"f_lo": f0 * (1 - 1e-15), "f_hi": f0 * (1 + 1e-15)},
    ], ids=["f_hi-inf", "f_lo-1e-300", "f_lo-subnormal", "f_hi-1e308", "narrow"])
    def test_unsampleable_band_refused(self, ref_circuit, band):
        # an end that is infinite or so far out that the response
        # overflows, or a band too narrow for distinct points: a domain
        # error, with no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpectrumError, match="cannot be sampled"):
                transmission_spectrum(ref_circuit, **band(ref_circuit.f0))

    @pytest.mark.parametrize("points,message", [
        (2, "from 3 to 100000, got 2"),
        (transduction._MAX_POINTS + 1, "from 3 to 100000, got 100001"),
        (10**12, "from 3 to 100000"),
        (3.0, "an integer, got 3.0"),
        (2001.5, "an integer"),
        ("2001", "an integer"),
        (None, "an integer"),
    ])
    def test_points_refused(self, ref_circuit, points, message):
        with pytest.raises(SpectrumError, match=message):
            transmission_spectrum(ref_circuit, points=points)

    def test_points_any_integer_type(self, ref_circuit):
        assert transmission_spectrum(ref_circuit, points=np.int64(101)) == \
            transmission_spectrum(ref_circuit, points=101)

    def test_csv_export(self, ref_circuit, tmp_path):
        s = transmission_spectrum(ref_circuit, points=101)
        path = tmp_path / "spec.csv"
        s.to_csv(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 102
        assert lines[0] == "frequency_hz,magnitude_db,phase_rad"


class TestExtractQ:
    def test_frequency_scale_invariance(self, ref_mode, ref_transducer):
        c = equivalent_circuit(ref_mode, ref_transducer, Q_REF)
        s = transmission_spectrum(c, points=2001)
        scaled = Spectrum(frequencies=tuple(2.0 * f for f in s.frequencies),
                          magnitude=s.magnitude, phase=s.phase)
        assert extract_q(scaled) == pytest.approx(extract_q(s), rel=1e-12)

    def test_peak_at_boundary(self):
        f = tuple(np.linspace(1e6, 2e6, 64))
        mag = tuple(np.linspace(0.1, 1.0, 64))  # rising to the edge
        with pytest.raises(PeakAtBoundaryError):
            extract_q(Spectrum(frequencies=f, magnitude=mag, phase=(0.0,) * 64))

    def test_missing_crossings(self, ref_mode, ref_transducer):
        c = equivalent_circuit(ref_mode, ref_transducer, Q_REF)
        narrow = transmission_spectrum(c, f_lo=c.f0 * (1 - 0.05 / c.q),
                                       f_hi=c.f0 * (1 + 0.05 / c.q), points=64)
        with pytest.raises(MissingBandwidthError):
            extract_q(narrow)

    def test_spectrum_invariants(self):
        with pytest.raises(InvariantError):
            Spectrum(frequencies=(2.0, 1.0), magnitude=(1.0, 1.0), phase=(0.0, 0.0))
        with pytest.raises(InvariantError):
            Spectrum(frequencies=(1.0, 2.0), magnitude=(1.0,), phase=(0.0, 0.0))

    @pytest.mark.parametrize("field,bad", [
        ("frequencies", (1.0, math.nan, 3.0)), ("frequencies", (math.nan,) * 3),
        ("frequencies", (1.0, 2.0, math.inf)), ("magnitude", (1.0, math.inf, 1.0)),
        ("phase", (0.0, math.nan, 0.0)),
    ])
    def test_non_finite_rejected(self, field, bad):
        fields = {"frequencies": (1.0, 2.0, 3.0), "magnitude": (1.0, 1.0, 1.0),
                  "phase": (0.0, 0.0, 0.0), field: bad}
        with pytest.raises(InvariantError):
            Spectrum(**fields)

    def test_fields_are_read_only_float_arrays(self, ref_mode, ref_transducer):
        s = transmission_spectrum(equivalent_circuit(ref_mode, ref_transducer, Q_REF),
                                  points=101)
        for field in (s.frequencies, s.magnitude, s.phase):
            assert isinstance(field, np.ndarray) and field.shape == (101,)
            assert field.dtype == np.float64 and not field.flags.writeable
        with pytest.raises(ValueError):
            s.magnitude[0] = 0.0

    def test_fields_copied_and_compared_by_value(self):
        f, mag = np.array([1.0, 2.0, 3.0]), np.array([0.1, 1.0, 0.1])
        s = Spectrum(frequencies=f, magnitude=mag, phase=[0, 0, 0])
        assert f.flags.writeable and mag.flags.writeable   # the caller's arrays
        f[0] = 0.5
        assert s.frequencies[0] == 1.0
        base = {"frequencies": (1.0, 2.0, 3.0), "magnitude": (0.1, 1.0, 0.1),
                "phase": (0.0, -0.0, 0.0)}
        assert Spectrum(**base) == s and hash(Spectrum(**base)) == hash(s)
        zero = Spectrum(**{**base, "frequencies": (0.0, 2.0, 3.0)})
        minus_zero = Spectrum(**{**base, "frequencies": (-0.0, 2.0, 3.0)})
        assert zero == minus_zero and hash(zero) == hash(minus_zero)
        for name, other in (("frequencies", (1.0, 2.0, 4.0)), ("magnitude", (0.1, 1.0, 0.2)),
                            ("phase", (0.0, 0.0, 1e-300))):
            assert Spectrum(**{**base, name: other}) != s
        assert s != (s.frequencies, s.magnitude, s.phase)

    def test_csv_bytes_as_from_float_tuples(self, ref_mode, ref_transducer, tmp_path):
        # the writer as it was when the fields were tuples of floats (reference)
        s = transmission_spectrum(equivalent_circuit(ref_mode, ref_transducer, Q_REF),
                                  points=501)
        s = Spectrum(s.frequencies, np.append(s.magnitude[:-1], 0.0), s.phase)
        rows = ["frequency_hz,magnitude_db,phase_rad"]
        for f, m, p in zip(*(tuple(a.tolist()) for a in (s.frequencies, s.magnitude,
                                                          s.phase))):
            db = 20 * math.log10(m) if m > 0 else float("-inf")
            rows.append(f"{f!r},{db!r},{p!r}")
        s.to_csv(tmp_path / "spec.csv")
        assert (tmp_path / "spec.csv").read_bytes() == ("\n".join(rows) + "\n").encode()


def _walk_extract_q(s: Spectrum) -> float:
    """extract_q as it was before the kept arrays (reference): the spectrum
    rebuilt from its tuples, each crossing found by a walk from the peak."""
    mag = np.asarray(s.magnitude)
    f = np.asarray(s.frequencies)
    i_pk = int(np.argmax(mag))
    if i_pk == 0 or i_pk == len(mag) - 1:
        raise PeakAtBoundaryError("spectrum maximum at grid boundary")
    level = mag[i_pk] / math.sqrt(2.0)

    def cross(direction: int) -> float:
        i = i_pk
        while 0 <= i + direction < len(mag):
            j = i + direction
            if mag[j] < level:
                frac = (mag[i] - level) / (mag[i] - mag[j])
                return float(f[i] + frac * (f[j] - f[i]))
            i = j
        raise MissingBandwidthError(
            "3 dB crossing outside the sampled grid (grid too narrow)")

    f_left = cross(-1)
    f_right = cross(+1)
    return float(f[i_pk]) / (f_right - f_left)


def _outcome(fn, s):
    try:
        return repr(fn(s))
    except (PeakAtBoundaryError, MissingBandwidthError) as exc:
        return type(exc).__name__


def _random_spectra(seed, count):
    """Random spectra: noise, resonances narrow and wide against the grid,
    peaks at either edge, plateaus with no crossing, repeated maxima and
    samples exactly at the 3 dB level."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 400))
        f = np.cumsum(rng.uniform(0.1, 2.0, n)) + rng.uniform(1.0, 1e9)
        kind = rng.integers(6)
        if kind == 0:
            mag = rng.uniform(0.0, 1.0, n)
        else:
            center = rng.uniform(f[0] - 0.1 * (f[-1] - f[0]), f[-1] + 0.1 * (f[-1] - f[0]))
            width = (f[-1] - f[0]) * 10.0 ** rng.uniform(-3, 1)
            mag = 1.0 / np.hypot(1.0, (f - center) / width)
            mag += rng.uniform(0.0, 0.05) * rng.uniform(0.0, 1.0, n)
        if kind == 2:
            mag[rng.integers(n, size=2)] = mag.max()
        if kind == 3:
            i = int(np.argmax(mag))
            mag[rng.integers(n, size=3)] = mag[i] / math.sqrt(2.0)
            mag[i] = mag.max()
        if kind == 4:
            mag = np.maximum(mag, 0.9 * mag.max())
        yield Spectrum(frequencies=f, magnitude=mag, phase=np.zeros(n))


class TestExtractQReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_spectra_bitwise_equal_to_walk(self, seed):
        outcomes = set()
        for s in _random_spectra(seed, 500):
            got = _outcome(extract_q, s)
            assert got == _outcome(_walk_extract_q, s)
            outcomes.add(got if got.endswith("Error") else "q")
        assert outcomes == {"q", "PeakAtBoundaryError", "MissingBandwidthError"}

    @pytest.mark.parametrize("q", [50.0, 1e3, 1e4, 1e5])
    @pytest.mark.parametrize("points", [3, 64, 2001])
    def test_transmission_spectra_bitwise_equal_to_walk(self, ref_mode, ref_transducer,
                                                        q, points):
        c = equivalent_circuit(ref_mode, ref_transducer, q)
        for span in (0.05, 1.0, 20.0):
            s = transmission_spectrum(c, f_lo=c.f0 * (1 - span / c.q),
                                      f_hi=c.f0 * (1 + span / c.q), points=points)
            assert _outcome(extract_q, s) == _outcome(_walk_extract_q, s)


class TestAmplitude:
    def test_linear_in_drive_and_q(self, ref_mode, ref_transducer):
        x1 = resonant_amplitude(ref_mode, ref_transducer, Q_REF)
        t2 = dataclasses.replace(ref_transducer, drive_voltage=2 * ref_transducer.drive_voltage)
        assert resonant_amplitude(ref_mode, t2, Q_REF) == pytest.approx(2 * x1, rel=1e-12)
        assert resonant_amplitude(ref_mode, ref_transducer, 3 * Q_REF) == \
            pytest.approx(3 * x1, rel=1e-12)

    def test_zero_drive_zero_amplitude(self, ref_mode, ref_transducer):
        t0 = dataclasses.replace(ref_transducer, drive_voltage=0.0)
        assert resonant_amplitude(ref_mode, t0, Q_REF) == 0.0

    def test_formula_oracle(self, ref_mode, ref_transducer):
        t = ref_transducer
        force = t.bias_voltage * t.drive_voltage * EPSILON_0 * t.electrode_area / t.gap**2
        expected = Q_REF * force / ref_mode.effective_stiffness
        assert resonant_amplitude(ref_mode, t, Q_REF) == pytest.approx(expected, rel=1e-12)

    def test_nanometre_range(self, ref_mode, ref_transducer):
        # at a 10 mV drive the reference beam swings ~20 nm, consistent with
        # the expected 10-20 nm for this class of beam
        t = dataclasses.replace(ref_transducer, drive_voltage=0.01)
        x = resonant_amplitude(ref_mode, t, Q_REF)
        assert 10e-9 <= x <= 25e-9
        # the full 100 mV drive lands at ~200 nm, still nanometre-scale
        x_full = resonant_amplitude(ref_mode, ref_transducer, Q_REF)
        assert 1e-9 < x_full < 1e-6


class TestSpringSoftening:
    def test_zero_bias_identity(self, ref_mode, ref_transducer):
        t0 = dataclasses.replace(ref_transducer, bias_voltage=0.0)
        assert spring_softening_frequency(ref_mode, t0) == ref_mode.frequency

    def test_strictly_decreasing_in_bias(self, ref_mode, ref_transducer):
        volts = np.linspace(0.0, 5.0, 11)
        freqs = [spring_softening_frequency(
            ref_mode, dataclasses.replace(ref_transducer, bias_voltage=float(v)))
            for v in volts]
        assert all(b < a for a, b in zip(freqs, freqs[1:]))

    def test_fractional_tuning_drops_with_stiffness(self, ref_mode, ref_transducer):
        # stiffer mode at the same frequency: scale both m_eff and k_eff
        stiff = ModeResult(frequency=ref_mode.frequency, mode_order=1,
                           effective_mass=ref_mode.effective_mass * 4,
                           effective_stiffness=ref_mode.effective_stiffness * 4,
                           mode_shape=ref_mode.mode_shape)
        df_soft = 1 - spring_softening_frequency(ref_mode, ref_transducer) / ref_mode.frequency
        df_stiff = 1 - spring_softening_frequency(stiff, ref_transducer) / stiff.frequency
        assert df_stiff < df_soft

    def test_instability_error(self, ref_mode, ref_transducer):
        t_hot = dataclasses.replace(ref_transducer, bias_voltage=1000.0)
        with pytest.raises(InstabilityError) as exc:
            spring_softening_frequency(ref_mode, t_hot)
        assert exc.value.critical_voltage is not None
        assert 0 < exc.value.critical_voltage < 1000.0


    def test_instability_edge(self, ref_mode, ref_transducer):
        # k_e exactly equal to the stiffness is unstable, one ulp below is not
        k_e = transduction.electrostatic_spring(ref_mode, ref_transducer)
        w0 = 2 * math.pi * ref_mode.frequency
        for k, unstable in ((k_e, True), (math.nextafter(k_e, 0.0), True),
                            (math.nextafter(k_e, math.inf), False)):
            mode = ModeResult(frequency=ref_mode.frequency, mode_order=1,
                              effective_mass=k / (w0 * w0), effective_stiffness=k)
            if unstable:
                with pytest.raises(InstabilityError):
                    spring_softening_frequency(mode, ref_transducer)
            else:
                assert spring_softening_frequency(mode, ref_transducer) >= 0


class TestPullIn:
    def test_gap_scaling(self, ref_mode, ref_transducer):
        t2 = dataclasses.replace(ref_transducer, gap=2 * ref_transducer.gap)
        ratio = pull_in_voltage(ref_mode, t2) / pull_in_voltage(ref_mode, ref_transducer)
        assert ratio == pytest.approx(math.sqrt(8.0), rel=1e-12)

    def test_stiffness_scaling(self, ref_mode, ref_transducer):
        stiff = ModeResult(frequency=ref_mode.frequency, mode_order=1,
                           effective_mass=ref_mode.effective_mass * 4,
                           effective_stiffness=ref_mode.effective_stiffness * 4,
                           mode_shape=ref_mode.mode_shape)
        ratio = pull_in_voltage(stiff, ref_transducer) / \
            pull_in_voltage(ref_mode, ref_transducer)
        assert ratio == pytest.approx(2.0, rel=1e-12)

    def test_golden_value(self, ref_mode, ref_transducer):
        t = ref_transducer
        expected = math.sqrt(8 * ref_mode.effective_stiffness * t.gap**3
                             / (27 * EPSILON_0 * t.electrode_area))
        got = pull_in_voltage(ref_mode, t)
        assert got == pytest.approx(expected, rel=1e-12)
        # recorded once for the 90 nm reference design
        assert got == pytest.approx(25.7620995599, rel=1e-9)

    @pytest.mark.parametrize("gap", [1e110, 1e-170])
    def test_absurd_gap_rejected(self, ref_mode, ref_transducer, gap):
        t = dataclasses.replace(ref_transducer, gap=gap)   # d0^3 = inf or 0
        with pytest.raises(InvariantError, match="pull-in voltage must be finite"):
            pull_in_voltage(ref_mode, t)


class TestKernels:
    """The R_x, pull-in and spring-softening kernels on arrays equal the
    scalar functions and independently written math.pow expressions
    bitwise, at values where numpy's array x**n (x*x for a square) and
    libm pow round differently."""

    def test_arrays_equal_math_pow(self):
        rng = np.random.default_rng(4)

        def ties(lo, hi, exponent):
            return with_pow_ties(rng.uniform(lo, hi, 200000), count=30, keep=270,
                                 exponent=exponent)

        v = ties(0.5, 30.0, 2)
        g = np.concatenate([ties(50e-9, 500e-9, 3)[:285], ties(50e-9, 500e-9, 4)[270:285]])
        area = ties(1e-13, 1e-10, 2)
        eps, q = EPSILON_0 * 1.7, 5e3
        f = rng.uniform(1e6, 2e9, len(v))
        # stiffness around the electrostatic spring: some points are unstable
        k = v * v * eps * area / (g * g * g) * rng.uniform(0.5, 5.0, len(v))
        m = k / (2 * math.pi * f) ** 2
        r_x = transduction._motional_resistance(k, f, v, g, area, q, eps)
        v_pi = transduction._pull_in_voltage(k, g, area, eps)
        unstable, f_soft = transduction._spring_softening(f, k, v, g, area, eps)
        for i in range(len(v)):
            vi, gi, ai, fi, ki = (float(x[i]) for x in (v, g, area, f, k))
            mode = ModeResult(frequency=fi, mode_order=1, effective_mass=float(m[i]),
                              effective_stiffness=ki)
            t = Transducer(gap=gi, bias_voltage=vi, drive_voltage=0.0,
                           electrode_area=ai, gap_rel_permittivity=1.7)
            expected = (ki / (2 * math.pi * fi * math.pow(vi, 2))) \
                * (math.pow(gi, 4) / (math.pow(eps, 2) * math.pow(ai, 2))) / q
            assert r_x[i] == motional_resistance(mode, t, q) == expected
            expected = math.sqrt(8.0 * ki * math.pow(gi, 3) / (27.0 * eps * ai))
            assert v_pi[i] == pull_in_voltage(mode, t) == expected
            k_e = math.pow(vi, 2) * eps * ai / math.pow(gi, 3)
            assert unstable[i] == (k_e >= ki)
            if k_e < ki:
                expected = fi * math.sqrt(1.0 - k_e / ki)
                assert f_soft[i] == spring_softening_frequency(mode, t) == expected
            else:
                with pytest.raises(InstabilityError):
                    spring_softening_frequency(mode, t)
        assert 0 < unstable.sum() < len(v)


class TestDetectionCurrents:
    def test_capacitive_equals_vac_over_rx(self, ref_mode, ref_transducer):
        i_cap = capacitive_output_current(ref_mode, ref_transducer, Q_REF)
        expected = ref_transducer.drive_voltage / \
            motional_resistance(ref_mode, ref_transducer, Q_REF)
        assert i_cap == pytest.approx(expected, rel=1e-9)

    def test_capacitive_quadratic_in_bias(self, ref_mode, ref_transducer):
        t2 = dataclasses.replace(ref_transducer, bias_voltage=2 * ref_transducer.bias_voltage)
        ratio = capacitive_output_current(ref_mode, t2, Q_REF) / \
            capacitive_output_current(ref_mode, ref_transducer, Q_REF)
        assert ratio == pytest.approx(4.0, rel=1e-12)

    def test_mos_linear_in_amplitude(self, ref_mode, mos_transducer):
        i1 = mos_output_current(ref_mode, mos_transducer, Q_REF)
        t2 = dataclasses.replace(mos_transducer,
                                 drive_voltage=2 * mos_transducer.drive_voltage)
        assert mos_output_current(ref_mode, t2, Q_REF) == pytest.approx(2 * i1, rel=1e-12)

    def test_mos_area_independent_at_fixed_relative_swing(self, ref_mode, mos_transducer):
        # i_mos depends on area only through x_amp: dividing by x_amp/d0
        # must leave a constant regardless of electrode area
        def normalized(t):
            x = resonant_amplitude(ref_mode, t, Q_REF)
            return mos_output_current(ref_mode, t, Q_REF) / (x / t.gap)

        t2 = dataclasses.replace(mos_transducer,
                                 electrode_area=3 * mos_transducer.electrode_area)
        assert normalized(t2) == pytest.approx(normalized(mos_transducer), rel=1e-12)

    def test_detection_mismatch(self, ref_mode, ref_transducer):
        with pytest.raises(DetectionMismatchError):
            mos_output_current(ref_mode, ref_transducer, Q_REF)


class TestDetectionComparison:
    def test_ratio_strictly_increasing_as_scale_drops(self, ref_beam, silicon,
                                                      mos_transducer):
        scales = [1.0, 0.8, 0.6, 0.4, 0.2]
        curve = detection_comparison(ref_beam, silicon, mos_transducer, Q_REF, scales)
        ratios = [r for _, r in curve]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_scale_one_is_identity(self, ref_beam, silicon, mos_transducer,
                                   ref_mode):
        curve = detection_comparison(ref_beam, silicon, mos_transducer, Q_REF, [1.0])
        i_mos = mos_output_current(ref_mode, mos_transducer, Q_REF)
        i_cap = capacitive_output_current(ref_mode, mos_transducer, Q_REF)
        assert curve[0][0] == 1.0
        assert curve[0][1] == pytest.approx(i_mos / i_cap, rel=1e-12)

    def test_log_log_slope_is_minus_one(self, ref_beam, silicon, mos_transducer):
        # closed-form exponent: ratio = I_D(s)*alpha*d(s) / (w(s)*Vp*eps0*S(s))
        # with d ~ s, w ~ 1/s, S ~ s^2, I_D ~ 1/s  ->  ratio ~ s^-1
        scales = [1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.2]
        curve = detection_comparison(ref_beam, silicon, mos_transducer, Q_REF, scales)
        logs = np.log([s for s, _ in curve])
        logr = np.log([r for _, r in curve])
        slope = np.polyfit(logs, logr, 1)[0]
        assert slope == pytest.approx(-1.0, abs=1e-6)

    def test_scales_validation(self, ref_beam, silicon, mos_transducer):
        with pytest.raises(InvariantError):
            detection_comparison(ref_beam, silicon, mos_transducer, Q_REF, [0.8, 0.4])
        with pytest.raises(InvariantError):
            detection_comparison(ref_beam, silicon, mos_transducer, Q_REF, [1.0, 1.0])
        with pytest.raises(InvariantError):
            detection_comparison(ref_beam, silicon, mos_transducer, Q_REF, [1.0, -0.5])

    @pytest.mark.parametrize("change,what", [
        ({"drive_voltage": 0.0}, "i_mos/i_cap"),       # both currents are 0
        ({"gap": 1e160}, "resonant amplitude"),        # d0^2 overflows
        ({"gap": 1e-300}, "resonant amplitude"),       # d0^2 underflows to 0
    ], ids=["no-drive", "huge-gap", "tiny-gap"])
    def test_ratio_out_of_range(self, ref_beam, silicon, mos_transducer, change, what):
        t = dataclasses.replace(mos_transducer, **change)
        with pytest.raises(InvariantError, match=f"{what} must be finite and > 0"):
            detection_comparison(ref_beam, silicon, t, Q_REF, [1.0, 0.5])

    def test_needs_mos(self, ref_beam, silicon, ref_transducer):
        with pytest.raises(DetectionMismatchError):
            detection_comparison(ref_beam, silicon, ref_transducer, Q_REF, [1.0, 0.5])
