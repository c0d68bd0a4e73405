import dataclasses
import math

import numpy as np
import pytest

from resokit.analytic import beam_mode_result
from resokit.core import BeamGeometry, Transducer, VibrationAxis
from resokit.design import (CandidateAnalysis, DesignCandidate,
                            SpecProfile, builtin_profiles, check_spec,
                            electrode_area, optimize, oscillator_profile,
                            profile_by_name, profile_from_dict, tuning_range,
                            tuning_span, vco_profile)
from resokit.errors import (InfeasibleDesignError, InstabilityError,
                            InvariantError, SchemaError, UnknownPresetError)
from resokit.fab import ProcessModel, release_tunnel_depth, released_gap
from resokit.transduction import spring_softening_frequency


class TestProfiles:
    def test_oscillator_n2(self):
        p = oscillator_profile(2)
        assert p.center_frequency == 76.8e6
        assert p.q_required == 50000.0
        assert p.impedance_range == (50.0, 10e3)
        assert p.dc_voltage_range == (1.2, 5.0)

    def test_oscillator_family(self):
        for n in (1, 3, 4):
            p = oscillator_profile(n)
            assert p.center_frequency == pytest.approx(n * 38.4e6, rel=1e-15)
            assert p.q_required == pytest.approx(100000.0 / n, rel=1e-15)

    def test_vco(self):
        p = vco_profile()
        assert p.center_frequency == 2e9
        assert p.q_required == 1000.0
        assert p.tuning_required == 200e6
        assert p.dc_voltage_range == (2.4, 2.4)

    def test_gsm_dsc_rx_band(self):
        p = profile_by_name("filter-gsm-dsc-rx")
        assert p.center_frequency == ((1805e6, 1880e6),)
        assert p.q_required is None
        assert p.bandpass == (75e6, 75e6)
        assert p.impedance_range == (50.0, 50.0)

    def test_wimax_dual_band(self):
        p = profile_by_name("filter-wimax")
        assert p.center_frequency == ((2.3e9, 2.7e9), (3.3e9, 3.7e9))
        assert p.bandpass == (1.5e6, 10e6)

    def test_all_profiles_valid_and_unique(self):
        profiles = builtin_profiles()
        names = [p.name for p in profiles]
        assert len(names) == len(set(names))
        for p in profiles:
            assert p.frequency_bands  # constructor enforced invariants

    def test_unknown_profile(self):
        with pytest.raises(UnknownPresetError):
            profile_by_name("teleporter")

    def test_invariants(self):
        with pytest.raises(InvariantError):
            SpecProfile(name="bad", center_frequency=-1.0)
        with pytest.raises(InvariantError):
            SpecProfile(name="bad", center_frequency=1e6, impedance_range=(10, 5))

    def test_round_trip(self):
        for p in builtin_profiles():
            assert profile_from_dict(p.to_dict()) == p


def _hand_candidate(freq=76.8e6, r_x=2e3, v_p=3.0, q=50000.0,
                    tuning=0.2e6) -> DesignCandidate:
    geometry = BeamGeometry(10e-6, 0.46e-6, 0.4e-6, VibrationAxis.IN_PLANE)
    transducer = Transducer(gap=90e-9, bias_voltage=v_p, drive_voltage=0.0,
                            electrode_area=4e-12)
    from resokit.core import load_material
    analysis = CandidateAnalysis(frequency=freq, r_x=r_x, released_gap=104e-9,
                                 v_pi=25.0, tuning_range=tuning,
                                 tuning_v_range=(1.2, 5.0))
    return DesignCandidate(geometry=geometry, transducer=transducer,
                           material=load_material("silicon"), assumed_q=q,
                           analysis=analysis)


class TestCheckSpec:
    def test_hand_candidate_passes_oscillator_n2(self):
        c = _hand_candidate()
        report = check_spec(c, oscillator_profile(2))
        assert report.passed
        for name in ("frequency", "q", "impedance", "dc_voltage"):
            assert report.criterion(name).passed

    def test_same_candidate_fails_vco_tuning(self):
        c = _hand_candidate()
        report = check_spec(c, vco_profile())
        assert not report.passed
        tuning = report.criterion("tuning")
        assert tuning.applicable and not tuning.passed

    def test_exact_match_semantics(self):
        c = _hand_candidate(freq=76.8e6 * 1.001)
        assert check_spec(c, oscillator_profile(2)).passed  # default 0.5% tol
        strict = check_spec(c, oscillator_profile(2), freq_tol=0.0)
        assert not strict.passed
        assert not strict.criterion("frequency").passed
        exact = _hand_candidate(freq=76.8e6)
        assert check_spec(exact, oscillator_profile(2), freq_tol=0.0).passed

    @pytest.mark.parametrize("freq_tol", [math.nan, math.inf, -1.0, -1e-12])
    def test_bad_freq_tol_rejected(self, freq_tol):
        with pytest.raises(InvariantError):
            check_spec(_hand_candidate(freq=76.8e6), oscillator_profile(2), freq_tol)

    def test_band_profile_check(self):
        c = _hand_candidate(freq=1850e6, r_x=50.0)
        report = check_spec(c, profile_by_name("filter-gsm-dsc-rx"))
        assert report.criterion("frequency").passed
        assert report.criterion("impedance").passed
        assert not report.criterion("q").applicable

    def test_monotone_improvement_never_flips(self):
        base = _hand_candidate()
        profile = oscillator_profile(2)
        assert check_spec(base, profile).passed
        # push each criterion value strictly toward its requirement
        better_q = dataclasses.replace(base, assumed_q=base.assumed_q * 2)
        assert check_spec(better_q, profile).passed
        # pass indicator is monotone along improving q sweeps
        q_values = np.linspace(10000, 90000, 9)
        passes = [check_spec(dataclasses.replace(base, assumed_q=float(q)),
                             profile).criterion("q").passed for q in q_values]
        assert passes == sorted(passes)

    def test_report_serialization(self):
        report = check_spec(_hand_candidate(), oscillator_profile(2))
        d = report.to_dict()
        assert d["passed"] is True
        assert len(d["criteria"]) == 5
        assert "PASS" in report.to_text()


@pytest.fixture(scope="module")
def candidate(ref_beam, silicon, ref_transducer):
    return DesignCandidate.analyze(ref_beam, ref_transducer, silicon, 1e4)


@pytest.fixture(scope="module")
def osc2_result(silicon):
    return optimize(oscillator_profile(2), "beam", BOUNDS,
                    material=silicon, grid_points=5)


class TestTuning:
    def test_zero_span(self, candidate):
        assert tuning_range(candidate, 3.0, 3.0) == 0.0

    def test_grows_with_v_max(self, candidate):
        spans = [tuning_range(candidate, 1.2, v) for v in (2.0, 3.0, 4.0, 5.0)]
        assert all(b > a for a, b in zip(spans, spans[1:]))

    def test_golden_value_against_formula_sweep(self, ref_beam, silicon,
                                                ref_transducer, candidate):
        # direct formula oracle on the as-fabricated gap
        mode = beam_mode_result(ref_beam, silicon, 1)
        d_fab = candidate.analysis.released_gap
        t_fab = dataclasses.replace(ref_transducer, gap=d_fab)

        def f_at(v):
            return spring_softening_frequency(
                mode, dataclasses.replace(t_fab, bias_voltage=v))

        expected = f_at(1.2) - f_at(5.0)
        assert tuning_range(candidate, 1.2, 5.0) == pytest.approx(expected, rel=1e-9)

    def test_instability_names_critical_voltage(self, candidate):
        v_pi = candidate.analysis.v_pi
        with pytest.raises(InstabilityError) as exc:
            tuning_range(candidate, 0.0, v_pi * 0.9)  # above the 0.8 margin
        assert exc.value.critical_voltage == pytest.approx(0.8 * v_pi, rel=1e-12)

    def test_bad_range(self, candidate):
        with pytest.raises(InvariantError):
            tuning_range(candidate, 5.0, 1.0)


class TestCandidate:
    def test_analyze_and_reverify(self, ref_beam, silicon, ref_transducer):
        c = DesignCandidate.analyze(ref_beam, ref_transducer, silicon, 1e4)
        assert c.reverify()
        assert c.analysis.frequency == pytest.approx(40.27e6, rel=1e-3)
        # tampered analysis must fail reverification
        bad = dataclasses.replace(
            c, analysis=dataclasses.replace(c.analysis, r_x=c.analysis.r_x * 1.01))
        assert not bad.reverify()

    def test_released_gap_used(self, ref_beam, silicon, ref_transducer):
        c = DesignCandidate.analyze(ref_beam, ref_transducer, silicon, 1e4)
        expected = released_gap(ref_transducer.gap,
                                release_tunnel_depth(ref_beam))
        assert c.analysis.released_gap == pytest.approx(expected, rel=1e-15)

    def test_to_dict(self, ref_beam, silicon, ref_transducer):
        c = DesignCandidate.analyze(ref_beam, ref_transducer, silicon, 1e4)
        d = c.to_dict()
        assert d["family"] == "beam"
        assert d["analysis"]["r_x"] == c.analysis.r_x


BOUNDS = {
    "length": (2e-6, 30e-6),
    "width": (0.2e-6, 1.0e-6),
    "thickness": (0.4e-6, 4.0e-6),
    "gap": (80e-9, 200e-9),
    "bias_voltage": (1.2, 5.0),
}


class TestOptimize:
    def test_nonempty_and_feasible(self, osc2_result, silicon):
        assert osc2_result
        profile = oscillator_profile(2)
        for c in osc2_result:
            assert c.reverify()
            report = check_spec(c, profile)
            assert report.passed, report.to_text()
            assert c.transducer.bias_voltage <= 0.8 * c.analysis.v_pi

    def test_ranked_ascending(self, osc2_result):
        r_values = [c.analysis.r_x for c in osc2_result]
        assert r_values == sorted(r_values)

    def test_deterministic(self, osc2_result, silicon):
        again = optimize(oscillator_profile(2), "beam", BOUNDS,
                         material=silicon, grid_points=5)
        assert [c.to_dict() for c in again] == [c.to_dict() for c in osc2_result]

    def test_beats_exhaustive_grid_oracle(self, osc2_result, silicon):
        # independent verification grid with the same length-snapping rule
        from resokit.analytic import beam_length_for_frequency
        profile = oscillator_profile(2)
        p = ProcessModel()
        best = math.inf
        f_target = profile.center_frequency
        for w in np.linspace(*BOUNDS["width"], 12):
            for t in np.linspace(*BOUNDS["thickness"], 12):
                length = beam_length_for_frequency(f_target, w, silicon)
                if not BOUNDS["length"][0] <= length <= BOUNDS["length"][1]:
                    continue
                geom = BeamGeometry(length, float(w), float(t), VibrationAxis.IN_PLANE)
                for gap in np.linspace(*BOUNDS["gap"], 8):
                    for v in np.linspace(*BOUNDS["bias_voltage"], 8):
                        tr = Transducer(gap=float(gap), bias_voltage=float(v),
                                        drive_voltage=0.0,
                                        electrode_area=electrode_area(geom))
                        c = DesignCandidate.analyze(geom, tr, silicon, 50000.0, p)
                        if not check_spec(c, profile).passed:
                            continue
                        if c.transducer.bias_voltage > 0.8 * c.analysis.v_pi:
                            continue
                        tunnel = release_tunnel_depth(geom)
                        if tunnel > p.max_tunnel_depth or gap < p.min_drawn_gap:
                            continue
                        best = min(best, c.analysis.r_x)
        assert best < math.inf, "oracle grid found no feasible point"
        assert osc2_result[0].analysis.r_x <= best * (1 + 1e-12)

    def test_infeasible_names_binding_constraint(self, silicon):
        bad = dict(BOUNDS)
        bad["gap"] = (20e-9, 60e-9)  # below the 80 nm drawn-gap floor
        with pytest.raises(InfeasibleDesignError) as exc:
            optimize(oscillator_profile(2), "beam", bad, material=silicon,
                     grid_points=4)
        assert "min_drawn_gap" in exc.value.binding_constraints

    def test_binding_histogram_counts_each_grid_point_once(self, silicon):
        grid = 4
        with pytest.raises(InfeasibleDesignError) as exc:
            optimize(vco_profile(), "beam", BOUNDS, material=silicon,
                     grid_points=grid)
        binding = exc.value.binding_constraints
        assert sum(binding.values()) == grid ** 4
        documented = {"geometry", "min_drawn_gap", "max_tunnel_depth",
                      "pull_in_margin", "frequency", "q", "impedance",
                      "dc_voltage", "tuning"}
        assert binding and set(binding) <= documented

    @pytest.mark.parametrize("key", ["grid_points", "max_results"])
    @pytest.mark.parametrize("value", [0, -3, 2.5, "seven", True, None])
    def test_bad_search_size(self, silicon, key, value):
        with pytest.raises(SchemaError, match=key):
            optimize(oscillator_profile(2), "beam", BOUNDS, material=silicon,
                     **{key: value})

    def test_missing_bounds_key(self, silicon):
        with pytest.raises(SchemaError):
            optimize(oscillator_profile(2), "beam", {"length": (1e-6, 2e-6)},
                     material=silicon)

    def test_disk_family(self, silicon):
        # relaxed process: disks need a deeper release tunnel than beams
        process = ProcessModel(max_tunnel_depth=5e-6)
        bounds = {
            "radius": (0.5e-6, 4.0e-6),
            "thickness": (0.2e-6, 0.4e-6),
            "gap": (80e-9, 200e-9),
            "bias_voltage": (1.2, 20.0),
        }
        profile = SpecProfile(name="uhf-test", center_frequency=660e6,
                              impedance_range=(50.0, 1e9))
        result = optimize(profile, "disk", bounds, process=process,
                          material=silicon, assumed_q=1e4, grid_points=4)
        assert result
        for c in result:
            assert c.family == "disk"
            assert c.analysis.frequency == pytest.approx(660e6, rel=0.005)

    def test_bad_family(self, silicon):
        with pytest.raises(InvariantError):
            optimize(oscillator_profile(2), "plate", BOUNDS, material=silicon)
