import dataclasses
import math

import numpy as np
import pytest

from resokit.analytic import beam_mode_result
from resokit import fab
from resokit.core import BeamGeometry, DiskGeometry, Transducer
from resokit.errors import FabConstraintError, InvariantError, SchemaError
from resokit.fab import (ProcessModel, check_fab_constraints,
                         process_model_from_dict, release_tunnel_depth,
                         released_gap)
from resokit.transduction import motional_resistance


class TestReleasedGap:
    def test_reference_calibration_point(self):
        # 90 nm post-etch (80 nm drawn + 10 nm etch bias), 1.19 um tunnel
        # -> exactly 130 nm after release under the default calibration
        d = released_gap(80e-9, 1.19e-6)
        assert d == pytest.approx(130e-9, rel=1e-12)

    def test_zero_tunnel(self):
        p = ProcessModel()
        assert released_gap(100e-9, 0.0) == pytest.approx(
            100e-9 + p.etch_bias, rel=1e-15)

    def test_monotone_in_depth(self):
        rng = np.random.default_rng(11)
        p = ProcessModel()
        for _ in range(20):
            drawn = rng.uniform(p.min_drawn_gap, 300e-9)
            t1 = rng.uniform(0, p.max_tunnel_depth)
            t2 = rng.uniform(t1, p.max_tunnel_depth)
            assert released_gap(drawn, t2, p) >= released_gap(drawn, t1, p)

    def test_affine_in_both_arguments(self):
        p = ProcessModel()
        g0 = released_gap(100e-9, 0.5e-6, p)
        # slope in drawn gap is exactly 1
        assert released_gap(120e-9, 0.5e-6, p) - g0 == pytest.approx(20e-9, rel=1e-9)
        # slope in depth is the calibrated rate
        d_gap = released_gap(100e-9, 0.7e-6, p) - g0
        assert d_gap == pytest.approx(p.release_enlargement_rate * 0.2e-6, rel=1e-9)

    def test_drawn_gap_floor(self):
        with pytest.raises(FabConstraintError, match="min_drawn_gap"):
            released_gap(50e-9, 0.5e-6)

    def test_tunnel_ceiling(self):
        with pytest.raises(FabConstraintError, match="max_tunnel_depth"):
            released_gap(100e-9, 2e-6)

    @pytest.mark.parametrize("drawn, tunnel", [
        (math.nan, 0.0), (1e-7, math.nan), (math.inf, 0.0), (1e-7, math.inf),
        (-math.inf, 0.0), (1e-7, -math.inf), (math.nan, math.nan)])
    def test_non_finite_rejected(self, drawn, tunnel):
        with pytest.raises(InvariantError, match="finite"):
            released_gap(drawn, tunnel)

    def test_exact_limits_pass(self):
        # a drawn gap at the floor and a tunnel at the ceiling are allowed
        p = ProcessModel(min_drawn_gap=80e-9, max_tunnel_depth=1.19e-6)
        assert released_gap(80e-9, 1.19e-6, p) == \
            80e-9 + p.etch_bias + p.release_enlargement_rate * 1.19e-6
        with pytest.raises(FabConstraintError, match="min_drawn_gap"):
            released_gap(math.nextafter(80e-9, 0.0), 1.19e-6, p)
        with pytest.raises(FabConstraintError, match="max_tunnel_depth"):
            released_gap(80e-9, math.nextafter(1.19e-6, 1.0), p)


class TestProcessModel:
    def test_negative_rejected(self):
        with pytest.raises(InvariantError):
            ProcessModel(etch_bias=-1e-9)

    def test_defaults(self):
        p = ProcessModel()
        assert p.etch_bias == 10e-9
        assert p.min_drawn_gap == 80e-9
        assert p.release_enlargement_rate == pytest.approx(40e-9 / 1.19e-6, rel=1e-15)

    def test_round_trip(self):
        p = ProcessModel(etch_bias=12e-9, min_drawn_gap=60e-9)
        assert process_model_from_dict(p.to_dict()) == p

    def test_units_in_dict(self):
        p = process_model_from_dict({"etch_bias": "12 nm", "min_drawn_gap": "60 nm"})
        assert p.etch_bias == pytest.approx(12e-9, rel=1e-15)

    def test_unknown_field(self):
        with pytest.raises(SchemaError):
            process_model_from_dict({"etch_speed": 1.0})


class TestFabConstraints:
    def test_gap_floor_failure_named(self, ref_beam):
        t = Transducer(gap=50e-9, bias_voltage=5, drive_voltage=0.1,
                       electrode_area=4e-12)
        report = check_fab_constraints(ref_beam, t)
        assert not report.passed
        failing = [r.name for r in report.rules if not r.passed]
        assert failing == ["min_drawn_gap"]

    def test_compliant_design(self, ref_beam, ref_transducer):
        p = ProcessModel()
        report = check_fab_constraints(ref_beam, ref_transducer, p)
        assert report.passed
        tunnel = release_tunnel_depth(ref_beam)
        assert report.released_gap == pytest.approx(
            released_gap(ref_transducer.gap, tunnel, p), rel=1e-15)
        assert report.single_point_calibration

    def test_tunnel_depth_conventions(self, ref_beam, ref_disk):
        assert release_tunnel_depth(ref_beam) == ref_beam.width / 2
        assert release_tunnel_depth(ref_disk) == ref_disk.radius

    @pytest.mark.parametrize("geometry", [
        BeamGeometry(10e-6, 2 * 1.19e-6, 0.4e-6), DiskGeometry(1.19e-6, 0.4e-6)],
        ids=["beam", "disk"])
    def test_exact_limits_pass(self, geometry):
        # drawn gap exactly at the floor, tunnel exactly at the ceiling
        t = Transducer(gap=80e-9, bias_voltage=5, drive_voltage=0.1,
                       electrode_area=4e-12)
        p = ProcessModel(min_drawn_gap=80e-9, max_tunnel_depth=1.19e-6)
        assert release_tunnel_depth(geometry) == p.max_tunnel_depth
        assert check_fab_constraints(geometry, t, p).passed
        just_below = dataclasses.replace(t, gap=math.nextafter(80e-9, 0.0))
        failing = [r.name for r in check_fab_constraints(geometry, just_below, p).rules
                   if not r.passed]
        assert failing == ["min_drawn_gap"]
        tighter = dataclasses.replace(p, max_tunnel_depth=math.nextafter(1.19e-6, 0.0))
        failing = [r.name for r in check_fab_constraints(geometry, t, tighter).rules
                   if not r.passed]
        assert failing == ["max_tunnel_depth"]

    def test_nan_fails_both_rules(self):
        assert fab._rules_passed(math.nan, math.nan, ProcessModel()) == (False, False)

    def test_disk_tunnel_violation(self, ref_disk):
        t = Transducer(gap=100e-9, bias_voltage=5, drive_voltage=0.1,
                       electrode_area=4e-12)
        report = check_fab_constraints(ref_disk, t)  # radius 3 um > 1.19 um ceiling
        failing = [r.name for r in report.rules if not r.passed]
        assert failing == ["max_tunnel_depth"]

    def test_report_serialization(self, ref_beam, ref_transducer):
        report = check_fab_constraints(ref_beam, ref_transducer)
        d = report.to_dict()
        assert d["passed"] is True
        assert {r["name"] for r in d["rules"]} == {"min_drawn_gap", "max_tunnel_depth"}
        text = report.to_text()
        assert "fab check: PASS" in text
        assert "single-point calibration" in text


class TestAsFabricatedComposition:
    def test_rx_ratio_is_gap_ratio_fourth_power(self, ref_beam, silicon):
        rng = np.random.default_rng(13)
        p = ProcessModel()
        mode = beam_mode_result(ref_beam, silicon, 1)
        for _ in range(20):
            drawn = rng.uniform(p.min_drawn_gap, 200e-9)
            t = Transducer(gap=drawn, bias_voltage=rng.uniform(1, 10),
                           drive_voltage=0.1, electrode_area=rng.uniform(1e-12, 1e-11))
            d_rel = released_gap(drawn, release_tunnel_depth(ref_beam), p)
            t_fab = dataclasses.replace(t, gap=d_rel)
            ratio = motional_resistance(mode, t_fab, 1e4) / \
                motional_resistance(mode, t, 1e4)
            assert ratio == pytest.approx((d_rel / drawn) ** 4, rel=1e-9)
