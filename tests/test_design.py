import dataclasses
import math
import re

import numpy as np
import pytest

from conftest import with_pow_ties
from resokit import analytic, design
from resokit.analytic import beam_mode_result
from resokit.core import (BeamGeometry, DiskGeometry, Transducer, VibrationAxis,
                          load_material)
from resokit.design import (CandidateAnalysis, DesignCandidate,
                            SpecProfile, builtin_profiles, check_spec,
                            electrode_area, optimize, oscillator_profile,
                            profile_by_name, profile_from_dict, tuning_range,
                            tuning_span, vco_profile)
from resokit.errors import (InfeasibleDesignError, InstabilityError,
                            InvariantError, SchemaError, UnknownPresetError)
from resokit.fab import (ProcessModel, check_fab_constraints,
                         release_tunnel_depth, released_gap)
from resokit.transduction import spring_softening_frequency
from resokit.units import parse_quantity


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
        with pytest.raises(UnknownPresetError, match="oscillator-n1.*filter-gsm-dsc-rx"):
            profile_by_name("teleporter")

    def test_built_once_and_looked_up(self):
        profiles = builtin_profiles()
        assert builtin_profiles() is profiles
        for p in profiles:
            assert profile_by_name(p.name) is p
        assert profiles[:5] == (oscillator_profile(1), oscillator_profile(2),
                                oscillator_profile(3), oscillator_profile(4), vco_profile())

    def test_invariants(self):
        with pytest.raises(InvariantError):
            SpecProfile(name="bad", center_frequency=-1.0)
        with pytest.raises(InvariantError):
            SpecProfile(name="bad", center_frequency=1e6, impedance_range=(10, 5))

    def test_negative_dc_bound_rejected(self):
        with pytest.raises(InvariantError, match="dc_voltage_range"):
            SpecProfile("negative-dc", 76.8e6, dc_voltage_range=(-1.0, 5.0))
        assert SpecProfile("zero-dc", 76.8e6, dc_voltage_range=(0.0, 5.0))

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

    @pytest.mark.parametrize("freq_tol", [0.005, 0.0])
    def test_band_edges_pass(self, freq_tol):
        # f exactly at lo*(1-tol) and hi*(1+tol) passes, one ulp outside fails
        profile = profile_by_name("filter-wimax")
        for lo, hi in profile.frequency_bands:
            for edge, outward in ((lo * (1 - freq_tol), 0.0), (hi * (1 + freq_tol), math.inf)):
                assert check_spec(_hand_candidate(freq=edge, r_x=50.0), profile,
                                  freq_tol).criterion("frequency").passed
                outside = _hand_candidate(freq=math.nextafter(edge, outward), r_x=50.0)
                assert not check_spec(outside, profile, freq_tol).criterion("frequency").passed

    @pytest.mark.parametrize("name, field, value, outward", [
        ("impedance", "r_x", 50.0, 0.0), ("impedance", "r_x", 10e3, math.inf),
        ("dc_voltage", "v_p", 1.2, 0.0), ("dc_voltage", "v_p", 5.0, math.inf),
        ("q", "q", 50000.0, 0.0)])
    def test_requirement_edges_pass(self, name, field, value, outward):
        # a figure exactly at an edge of oscillator-n2's requirement passes
        profile = oscillator_profile(2)
        assert check_spec(_hand_candidate(**{field: value}), profile).criterion(name).passed
        beyond = _hand_candidate(**{field: math.nextafter(value, outward)})
        assert not check_spec(beyond, profile).criterion(name).passed

    def test_tuning_requirement_edge_passes(self):
        profile = vco_profile()
        c = _hand_candidate(freq=2e9, v_p=2.4, q=1000.0, tuning=200e6)
        assert check_spec(c, profile).passed
        c = _hand_candidate(freq=2e9, v_p=2.4, q=1000.0, tuning=math.nextafter(200e6, 0.0))
        assert not check_spec(c, profile).criterion("tuning").passed

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

    def test_pull_in_margin_edge(self, candidate):
        # a sweep up to exactly 0.8 x v_pi is safe, one ulp more is not
        v_limit = 0.8 * candidate.analysis.v_pi
        assert tuning_range(candidate, 0.0, v_limit) > 0
        with pytest.raises(InstabilityError):
            tuning_range(candidate, 0.0, math.nextafter(v_limit, math.inf))

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

    @pytest.mark.parametrize("family,extra", [
        ("beam", {"radius": (1e-6, 2e-6), "lenght": (1e-6, 2e-6)}),
        ("disk", {"length": (1e-6, 2e-6), 3: (1e-6, 2e-6)}),
    ])
    def test_unknown_bounds_key(self, silicon, family, extra):
        bounds = dict(BOUNDS) if family == "beam" else {
            "radius": (0.5e-6, 4.0e-6), "thickness": (0.2e-6, 0.4e-6),
            "gap": (80e-9, 200e-9), "bias_voltage": (1.2, 20.0)}
        names = sorted(extra, key=str)
        with pytest.raises(SchemaError, match=re.escape(
                f"bounds has parameters a {family} does not have: {names}")):
            optimize(oscillator_profile(2), family, {**bounds, **extra}, material=silicon)

    def test_missing_reported_before_unknown(self, silicon):
        with pytest.raises(SchemaError, match=r"bounds missing parameters \['width'\]"):
            optimize(oscillator_profile(2), "beam",
                     {**{k: v for k, v in BOUNDS.items() if k != "width"},
                      "radius": (1e-6, 2e-6)}, material=silicon)

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

    def test_rejected_geometry_is_silent(self, silicon):
        # every point fails the shape rule (thickness > length), and the
        # physics of those points divides by zero and overflows: no numpy
        # warning (an error under this suite's filterwarnings)
        bounds = dict(BOUNDS, length=(1e-170, 1e-170), thickness=(1e-160, 1e-160))
        with pytest.raises(InfeasibleDesignError) as exc:
            optimize(oscillator_profile(2), "beam", bounds, material=silicon,
                     grid_points=3)
        assert exc.value.binding_constraints == {"geometry": 81}


def _reference_point_search(profile, family, bounds, process, material,
                            assumed_q, vibration_axis):
    """The per-point search's pieces: (parameter names, main dimension,
    parsed bounds, assumed Q, snap, evaluate). evaluate(params) returns (the
    first binding constraint or None, the analyzed candidate or None)."""
    param_names = (("length", "width", "thickness", "gap", "bias_voltage")
                   if family == "beam" else ("radius", "thickness", "gap", "bias_voltage"))
    bnd = {k: (parse_quantity(bounds[k][0]), parse_quantity(bounds[k][1]))
           for k in param_names}
    if assumed_q is None:
        assumed_q = profile.q_required if profile.q_required is not None else 1e4
    main = "length" if family == "beam" else "radius"
    flex = "width" if vibration_axis is VibrationAxis.IN_PLANE else "thickness"
    cf = profile.center_frequency
    targets = [cf] if isinstance(cf, float) else [0.5 * (lo + hi) for lo, hi in cf]

    def snap(params):
        lo, hi = bnd[main]
        vals = []
        for f_target in targets:
            vals.append(analytic.beam_length_for_frequency(f_target, params[flex], material)
                        if family == "beam"
                        else analytic.disk_radius_for_frequency(f_target, material))
            if lo <= vals[-1] <= hi:
                return {**params, main: vals[-1]}
        return {**params, main: min(max(vals[0], lo), hi)}

    def evaluate(params):
        try:
            geom = (BeamGeometry(params["length"], params["width"], params["thickness"],
                                 vibration_axis) if family == "beam"
                    else DiskGeometry(params["radius"], params["thickness"]))
        except InvariantError:
            return "geometry", None
        t = Transducer(gap=params["gap"], bias_voltage=params["bias_voltage"],
                       drive_voltage=0.0, electrode_area=electrode_area(geom))
        for rule in check_fab_constraints(geom, t, process).rules:
            if not rule.passed:
                return rule.name, None
        c = DesignCandidate.analyze(geom, t, material, assumed_q, process,
                                    tuning_v_range=profile.dc_voltage_range)
        if t.bias_voltage > 0.8 * c.analysis.v_pi:
            return "pull_in_margin", c
        for crit in check_spec(c, profile).criteria:
            if crit.applicable and not crit.passed:
                return crit.name, c
        return None, c

    return param_names, main, bnd, assumed_q, snap, evaluate


def _reference_optimize(profile, family, bounds, process=ProcessModel(),
                        material=None, assumed_q=None, grid_points=7,
                        max_results=10, vibration_axis=VibrationAxis.IN_PLANE):
    """The per-point search: snap and evaluate one grid point at a time
    through DesignCandidate.analyze and check_spec (optimize's reference)."""
    param_names, main, bnd, assumed_q, snap, evaluate = _reference_point_search(
        profile, family, bounds, process, material, assumed_q, vibration_axis)
    grid_names = [k for k in param_names if k != main]
    axes = [np.linspace(bnd[k][0], bnd[k][1], grid_points) for k in grid_names]

    def rank(item):
        candidate, params = item
        return (candidate.analysis.r_x,) + tuple(params[k] for k in param_names)

    binding = {}
    feasible = []
    for combo in np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes)):
        params = snap(dict(zip(grid_names, (float(v) for v in combo))))
        reason, candidate = evaluate(params)
        if reason is not None:
            binding[reason] = binding.get(reason, 0) + 1
        else:
            feasible.append((candidate, params))
    if not feasible:
        summary = ", ".join(f"{k}: {v}" for k, v in
                            sorted(binding.items(), key=lambda kv: -kv[1]))
        raise InfeasibleDesignError(
            f"no feasible design in bounds (binding constraints: {summary})",
            binding_constraints=binding)

    feasible.sort(key=rank)
    refined = []
    for cur, cur_p in feasible[:5]:
        for rnd in range(3):
            for k in grid_names:
                lo, hi = bnd[k]
                half = (hi - lo) / grid_points * 0.5**rnd
                local = np.linspace(max(lo, cur_p[k] - half),
                                    min(hi, cur_p[k] + half), 11)
                for val in local:
                    trial = snap({**cur_p, k: float(val)})
                    reason, candidate = evaluate(trial)
                    if reason is None and candidate.analysis.r_x < cur.analysis.r_x:
                        cur, cur_p = candidate, trial
        refined.append((cur, cur_p))
    refined.sort(key=rank)
    out, seen = [], set()
    for candidate, params in refined:
        sig = tuple(round(params[k], 15) for k in param_names)
        if sig in seen:
            continue
        seen.add(sig)
        out.append(candidate)
        if len(out) >= max_results:
            break
    return out


def _outcome(search, **kwargs):
    """Candidates as dicts, or the error's type (and histogram and message
    when nothing is feasible)."""
    try:
        return [c.to_dict() for c in search(**kwargs)]
    except InfeasibleDesignError as exc:
        return type(exc), exc.binding_constraints, str(exc)
    except InvariantError as exc:
        return (type(exc),)


def _assert_matches_reference(**kwargs):
    outcome = _outcome(optimize, **kwargs)
    assert outcome == _outcome(_reference_optimize, **kwargs)
    return outcome


_DISK_BOUNDS = {"radius": (0.5e-6, 40e-6), "thickness": (0.2e-6, 2e-6),
                "gap": (80e-9, 200e-9), "bias_voltage": (1.2, 20.0)}


class TestArraySearchMatchesReference:
    """optimize evaluates arrays of points; every outcome equals the
    per-point search's: candidates, histograms, messages and errors."""

    @pytest.mark.parametrize("shape", ["beam-in_plane", "beam-out_of_plane", "disk"])
    @pytest.mark.parametrize("profile", builtin_profiles()
                             + (SpecProfile("no-dc", 76.8e6, q_required=5e4,
                                            impedance_range=(50.0, 10e3)),),
                             ids=lambda p: p.name)
    def test_each_point(self, profile, shape):
        # random points: codes, snapped main dimension and R_x (wherever
        # analyze ran) equal the scalar path's, bitwise
        family, _, axis = shape.partition("-")
        axis = VibrationAxis(axis or "in_plane")
        bounds = dict(BOUNDS if family == "beam" else _DISK_BOUNDS, bias_voltage=(1.2, 30.0))
        process = ProcessModel(max_tunnel_depth=5e-6)
        material = load_material("polysilicon" if family == "disk" else "silicon")
        param_names, main, bnd, assumed_q, snap, evaluate = _reference_point_search(
            profile, family, bounds, process, material, None, axis)
        rng = np.random.default_rng(0)
        grid_names = [k for k in param_names if k != main]
        points = {k: with_pow_ties(rng.uniform(*bnd[k], 40000), count=30, keep=270)
                  for k in grid_names}
        p, codes, r_x = design._evaluate_points(points, profile, family, material, process,
                                                assumed_q, axis, bnd[main])
        for i in range(300):
            params = snap({k: float(points[k][i]) for k in grid_names})
            reason, candidate = evaluate(params)
            assert p[main][i] == params[main]
            assert codes[i] == (-1 if reason is None else design._FAILURES.index(reason))
            if candidate is not None:
                assert r_x[i] == candidate.analysis.r_x

    @pytest.mark.parametrize("shape", ["beam-in_plane", "beam-out_of_plane", "disk"])
    @pytest.mark.parametrize("profile", builtin_profiles(), ids=lambda p: p.name)
    def test_builtin_profiles(self, profile, shape):
        family, _, axis = shape.partition("-")
        for material in ("silicon", "polysilicon"):
            for process in (ProcessModel(), ProcessModel(max_tunnel_depth=5e-6)):
                for grid in (3, 5):
                    _assert_matches_reference(
                        profile=profile, family=family,
                        bounds=BOUNDS if family == "beam" else _DISK_BOUNDS,
                        process=process, material=load_material(material),
                        grid_points=grid,
                        vibration_axis=VibrationAxis(axis or "in_plane"))

    @pytest.mark.parametrize("family", ["beam", "disk"])
    def test_profile_without_dc_range(self, silicon, family):
        profile = SpecProfile("no-dc", 76.8e6, q_required=5e4,
                              impedance_range=(50.0, 10e3))
        outcomes = [_assert_matches_reference(
            profile=profile, family=family,
            bounds=dict(BOUNDS if family == "beam" else _DISK_BOUNDS,
                        bias_voltage=(1.2, 30.0)),
            process=ProcessModel(max_tunnel_depth=5e-6), material=silicon,
            grid_points=grid) for grid in (3, 5)]
        if family == "beam":
            assert all(isinstance(o, list) and o for o in outcomes)

    @pytest.mark.parametrize("family, center", [("beam", 76.8e6), ("disk", 600e6)])
    def test_pull_in_margin_edge(self, silicon, family, center):
        # a point biased exactly at 0.8 x v_pi passes the pull-in margin and
        # its tuning sweep (0 V to the bias) is stable; one ulp more fails
        # the margin, in both searches
        profile = SpecProfile("edge", center, tuning_required=1.0)
        bounds = dict(BOUNDS if family == "beam" else _DISK_BOUNDS, bias_voltage=(1.2, 30.0))
        axis = VibrationAxis.IN_PLANE
        process = ProcessModel(max_tunnel_depth=5e-6)
        param_names, main, bnd, assumed_q, snap, evaluate = _reference_point_search(
            profile, family, bounds, process, silicon, None, axis)
        params = snap({"width": 0.5e-6, "thickness": 1e-6, "gap": 100e-9,
                       "bias_voltage": 1.2})
        reason, candidate = evaluate(params)
        assert reason is None
        v_limit = 0.8 * candidate.analysis.v_pi
        biases = [v_limit, math.nextafter(v_limit, math.inf)]
        points = {k: np.array([params[k]] * 2) for k in param_names if k != main}
        points["bias_voltage"] = np.array(biases)
        _, codes, _ = design._evaluate_points(points, profile, family, silicon, process,
                                              assumed_q, axis, bnd[main])
        reasons = [evaluate({**params, "bias_voltage": v})[0] for v in biases]
        assert reasons == [None, "pull_in_margin"]
        assert [design._FAILURES[c] if c >= 0 else None for c in codes] == reasons

    def test_max_results_below_feasible_count(self, silicon):
        kwargs = dict(profile=oscillator_profile(2), family="beam", bounds=BOUNDS,
                      material=silicon, grid_points=5)
        assert len(optimize(**kwargs)) > 1
        assert len(_assert_matches_reference(max_results=1, **kwargs)) == 1

    @pytest.mark.parametrize("change", [
        # electrode area underflows to 0
        {"bounds": dict(BOUNDS, length=(1e-170, 2e-170), width=(1e-171, 2e-171),
                        thickness=(1e-171, 2e-171)),
         "process": ProcessModel(min_drawn_gap=1e-9)},
        # effective mass underflows to 0
        {"bounds": dict(BOUNDS, length=(2e-110, 4e-110), width=(1e-110, 1.5e-110),
                        thickness=(1e-110, 1.5e-110))},
    ], ids=["area-underflow", "mass-underflow"])
    def test_invariant_errors(self, silicon, change):
        kwargs = dict(profile=oscillator_profile(2), family="beam", bounds=BOUNDS,
                      material=silicon, grid_points=3)
        outcome = _assert_matches_reference(**{**kwargs, **change})
        assert outcome[0] is InvariantError

    @pytest.mark.parametrize("assumed_q", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("gap", [(80e-9, 200e-9), (20e-9, 60e-9)],
                             ids=["fab-passes", "fab-fails"])
    def test_bad_assumed_q(self, silicon, assumed_q, gap):
        # refused up front, like bad bounds, whether or not any grid point
        # gets past the fab rules
        with pytest.raises(SchemaError, match="assumed_q"):
            optimize(oscillator_profile(2), "beam", dict(BOUNDS, gap=gap),
                     material=silicon, assumed_q=assumed_q, grid_points=3)
