"""Workloads of the resokit benchmark: seeded inputs, operations and checks.

Each workload turns ``--seed`` into a fixed list of operations per pass
(``ops``), runs one operation through resokit's public API (``run``) and
checks its output against the tolerances of the acceptance tests
(``check``; raises ``CheckFailed``). Passes repeat the same operations,
each named by its ``label``. The reasons for each workload are in
README.md.

Inputs are made with ``random.Random(seed)``; resokit only ever sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource

SCALES = (1.0, 0.8, 0.6, 0.4, 0.2)   # detection-comparison shrink factors
TERMINATION = 50.0                    # ohm, transmission_spectrum default
REL_EXACT = 1e-9                      # the reverify tolerance


class CheckFailed(Exception):
    """An operation's output is outside its reference tolerance."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _close(a, b, rel=REL_EXACT):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _same(a, b, path="report"):
    """Recursive equality with floats compared at REL_EXACT."""
    if isinstance(a, float) or isinstance(b, float):
        _require(isinstance(a, (int, float)) and isinstance(b, (int, float))
                 and _close(float(a), float(b)), f"{path}: {a!r} != {b!r}")
    elif isinstance(a, dict):
        _require(isinstance(b, dict) and a.keys() == b.keys(), f"{path}: keys differ")
        for k in a:
            _same(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, (list, tuple)):
        _require(isinstance(b, (list, tuple)) and len(a) == len(b),
                 f"{path}: lengths differ")
        for i, (x, y) in enumerate(zip(a, b)):
            _same(x, y, f"{path}[{i}]")
    else:
        _require(a == b, f"{path}: {a!r} != {b!r}")


def _loaded_q(circuit):
    """Q of the series RLC loaded by a termination at each port."""
    return circuit.q * circuit.r_x / (circuit.r_x + 2 * TERMINATION)


def _check_q(q_extracted, circuit):
    ref = _loaded_q(circuit)
    _require(abs(q_extracted - ref) <= 0.01 * ref,
             f"extracted Q {q_extracted:.6g} not within 1% of {ref:.6g}")


def _check_detection(curve):
    scales = [s for s, _ in curve]
    ratios = [r for _, r in curve]
    _require(all(b > a for a, b in zip(ratios, ratios[1:])),
             "i_mos/i_cap must grow as the scale drops")
    # least-squares slope of log(ratio) against log(scale)
    xs = [math.log(s) for s in scales]
    ys = [math.log(r) for r in ratios]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))
    _require(abs(slope + 1.0) <= 1e-6, f"detection log-log slope {slope!r} != -1")


def _check_candidates(candidates, profile, design, fab):
    _require(len(candidates) > 0, "optimizer returned no candidates")
    for c in candidates:
        _require(c.reverify(), "candidate fails reverify()")
        _require(design.check_spec(c, profile).passed, "candidate fails check_spec")
        _require(c.transducer.bias_voltage <= 0.8 * c.analysis.v_pi,
                 "candidate bias above 0.8 x pull-in voltage")
        _require(c.transducer.gap >= fab.ProcessModel().min_drawn_gap,
                 "candidate drawn gap below the process floor")


# ---------------------------------------------------------------------------

class Workload:
    name = ""
    tail_pct = 90          # fixed per workload so runs stay comparable
    tail_only = ()         # labels of operations left out of wall_s and ops_per_s

    def __init__(self, root, smoke=False):
        self.root = root
        self.smoke = smoke

    def make(self, seed, workdir):
        raise NotImplementedError

    def warm(self):
        """Fill process-wide caches the timed passes should find filled."""

    def ops(self, pass_index):
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def label(self, op) -> str:
        """Name of the operation, one per distinct operation: the samples of
        one name pool, wherever they fall in a pass. ``kind#index`` names
        give per-kind latencies in the detailed record."""
        raise NotImplementedError

    def check(self, op, out, state):
        pass

    def finish(self):
        """Checks deferred until after the timed phase.

        Returns (operations failed, note) pairs.
        """
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# the CLI subcommands, run by design-batch

class CliCommands:
    """The seven CLI subcommands on seeded configs, each one
    ``resokit.cli.main(argv)`` call in this process."""

    def make(self, root, seed, workdir):
        rng = random.Random(seed)
        self.workdir = workdir
        self.reports = {}            # op key -> report of its first run
        self.passed = {}             # op key -> runs that passed check()
        configs = {}
        for name in ("beam", "mos_beam", "oscillator_bounds"):
            with open(os.path.join(root, "configs", name + ".json")) as f:
                configs[name] = json.load(f)

        def scale(cfg, section, key, lo, hi, unit, factor=1.0):
            value = _parse_si(cfg[section][key]) * rng.uniform(lo, hi)
            cfg[section][key] = f"{value / factor:.6g} {unit}"

        beam = configs["beam"]
        for key in ("length", "width", "thickness"):
            scale(beam, "geometry", key, 0.95, 1.05, "um", 1e-6)
        scale(beam, "transducer", "gap", 0.95, 1.05, "nm", 1e-9)
        scale(beam, "transducer", "bias_voltage", 0.9, 1.0, "V")
        beam["q"] = round(beam["q"] * rng.uniform(0.8, 1.2))
        mos = json.loads(json.dumps(beam))
        mos["transducer"]["detection"] = "mos"
        mos["transducer"]["mos"] = dict(configs["mos_beam"]["transducer"]["mos"])
        mos["transducer"]["mos"]["bias_drain_current"] = f"{rng.uniform(5, 20):.6g} uA"
        bounds = configs["oscillator_bounds"]
        bounds["grid_points"] = 3   # a small search: optimize-sweep covers the optimizer
        # lower bounds stay: the best designs sit on the smallest gap
        for key, (lo, hi) in list(bounds["bounds"].items()):
            if key != "bias_voltage":
                bounds["bounds"][key] = [lo, _rescale(hi, rng.uniform(0.97, 1.03))]

        self.paths = {}
        for name, cfg in (("beam", beam), ("mos_beam", mos), ("bounds", bounds)):
            self.paths[name] = os.path.join(workdir, name + ".json")
            with open(self.paths[name], "w") as f:
                json.dump(cfg, f, indent=2)
        drawn = f"{rng.uniform(80, 120):.4g} nm"
        tunnel = f"{rng.uniform(0.3, 1.19):.4g} um"
        p = self.paths
        ops = [
            ("analyze-beam", ["analyze", "--config", p["beam"]], 0),
            ("fem-beam", ["fem", "--config", p["beam"]], 0),
            ("respond-beam", ["respond", "--config", p["beam"]], 0),
            ("compare-detection", ["compare-detection", "--config", p["mos_beam"]], 0),
            ("check-beam", ["check", "--config", p["beam"], "--profile", "oscillator-n2"], 1),
            ("optimize", ["optimize", "--profile", "oscillator-n2", "--bounds", p["bounds"]], 0),
            ("gap", ["gap", "--drawn", drawn, "--tunnel", tunnel], 0),
        ]
        self.ops = ops
        self.configs = {"beam": beam, "mos_beam": mos, "bounds": bounds}
        self.gap_args = (drawn, tunnel)

    def run(self, op):
        from resokit import cli

        key, args, _ = op
        report_path = os.path.join(self.workdir, key + ".out.json")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(args + ["--json", report_path])
        return rc, report_path, err.getvalue()

    def check(self, op, out):
        key, _, expected_rc = op
        rc, report_path, err = out
        if rc != expected_rc:
            raise CheckFailed(f"{key}: exit code {rc}, expected {expected_rc}: {err[-300:]}")
        with open(report_path) as f:
            report = json.load(f)
        if key in self.reports:
            _same(report, self.reports[key], key)
        else:
            self.reports[key] = report
        self.passed[key] = self.passed.get(key, 0) + 1

    def finish(self):
        """Compare each distinct CLI report with in-process values."""
        failures = []
        for key, report in self.reports.items():
            try:
                self._verify(key, report)
            except Exception as exc:   # a failed check must not stop the others
                failures.append((self.passed[key], f"{key}: {type(exc).__name__}: {exc}"))
        return failures

    def _verify(self, key, report):
        from resokit import analytic, core, design, fab, fem, transduction, units

        cfgs = self.configs
        if key in ("analyze-beam", "fem-beam", "respond-beam", "check-beam"):
            geometry, material, transducer, q = _design(cfgs["beam"])
        if key == "analyze-beam":
            f_an = analytic.beam_mode_frequency(geometry, material, 1)
            f_fem = fem.solve_modes(fem.assemble_beam(geometry, material, 64), 1)[0][0]
            _same(report, {"kind": "beam", "analytic_hz": f_an, "fem_hz": f_fem,
                           "delta_pct": (f_fem - f_an) / f_an * 100.0}, key)
            _require(abs(report["delta_pct"]) < 1.0, "beam FEM not within 1% at 64 elements")
        elif key == "fem-beam":
            modes = fem.solve_modes(fem.assemble_beam(geometry, material, 64), 4)
            _same(report, {"modes": [{"mode": i + 1, "frequency_hz": f}
                                     for i, (f, _) in enumerate(modes)]}, key)
        elif key == "respond-beam":
            mode = analytic.beam_mode_result(geometry, material)
            circuit = transduction.equivalent_circuit(mode, transducer, q)
            q_ext = transduction.extract_q(transduction.transmission_spectrum(circuit))
            _same(report, {"f0_hz": circuit.f0, "r_x_ohm": circuit.r_x,
                           "q_configured": q, "q_extracted": q_ext, "points": 2001,
                           "termination_ohm": TERMINATION}, key)
            _check_q(q_ext, circuit)
        elif key == "compare-detection":
            geometry, material, transducer, q = _design(cfgs["mos_beam"])
            scales = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2]
            curve = transduction.detection_comparison(geometry, material, transducer,
                                                      q, scales)
            _same(report, {"curve": [{"scale": s, "ratio": r} for s, r in curve]}, key)
            _check_detection(curve)
        elif key == "check-beam":
            profile = design.profile_by_name("oscillator-n2")
            candidate = design.DesignCandidate.analyze(
                geometry, transducer, material, q, fab.ProcessModel(),
                tuning_v_range=profile.dc_voltage_range)
            expected = design.check_spec(candidate, profile).to_dict()
            _same(report, expected, key)
            _require(not expected["passed"], "beam unexpectedly passes oscillator-n2")
        elif key == "optimize":
            bcfg = cfgs["bounds"]
            profile = design.profile_by_name("oscillator-n2")
            candidates = design.optimize(
                profile, "beam", bcfg["bounds"], material=core.load_material(bcfg["material"]),
                grid_points=bcfg["grid_points"], max_results=bcfg["max_results"])
            _same(report, {"profile": profile.name,
                           "candidates": [c.to_dict() for c in candidates]}, key)
            _check_candidates(candidates, profile, design, fab)
        elif key == "gap":
            drawn, tunnel = (units.parse_quantity(v) for v in self.gap_args)
            _same(report, {"drawn_gap_m": drawn, "tunnel_depth_m": tunnel,
                           "released_gap_m": fab.released_gap(drawn, tunnel),
                           "single_point_calibration": True}, key)
        else:
            raise CheckFailed(f"no reference for {key}")


def _design(cfg):
    """(geometry, material, transducer, q) of a beam design config, through core."""
    from resokit import core, units

    return (core.beam_geometry_from_dict(cfg["geometry"]), core.load_material(cfg["material"]),
            core.transducer_from_dict(cfg["transducer"]), units.parse_quantity(cfg["q"]))


_SI = {"um": 1e-6, "nm": 1e-9, "um2": 1e-12, "V": 1.0, "mV": 1e-3, "uA": 1e-6}


def _parse_si(value):
    if isinstance(value, (int, float)):
        return float(value)
    num, unit = value.split()
    return float(num) * _SI[unit]


def _rescale(value, factor):
    if isinstance(value, (int, float)):
        return value * factor
    num, unit = value.split()
    return f"{float(num) * factor:.6g} {unit}"


# ---------------------------------------------------------------------------
# fem-converge

class FemConverge(Workload):
    """Mesh refinement of a seeded disk and beam, each checked against analytic."""

    name = "fem-converge"
    tail_pct = 90
    SMALL = (("disk", 8), ("disk", 12), ("beam", 64), ("beam", 128), ("beam", 256),
             ("beam", 512))

    def make(self, seed, workdir):
        from resokit import core

        rng = random.Random(seed)
        self.material = core.Material(youngs_modulus=rng.uniform(130e9, 190e9),
                                      density=rng.uniform(2200.0, 2400.0),
                                      poisson_ratio=rng.uniform(0.20, 0.30))
        radius = rng.uniform(2e-6, 6e-6)
        self.disk = core.DiskGeometry(radius=radius, thickness=rng.uniform(0.1, 0.25) * radius)
        axis = rng.choice(list(core.VibrationAxis))
        self.beam = core.BeamGeometry(length=rng.uniform(8e-6, 20e-6),
                                      width=rng.uniform(0.3e-6, 1e-6),
                                      thickness=rng.uniform(0.3e-6, 1e-6),
                                      vibration_axis=axis)
        divisors = (8, 12) if self.smoke else (8, 12, 16, 20)
        elements = (64, 128) if self.smoke else (128, 256, 512, 1024)
        ladder = [("disk", d) for d in divisors] + [("beam", n) for n in elements]
        # The rungs under ~0.3 s run again after each rung above 0.8 s, so
        # they get as many samples as the large ones get time (README.md,
        # "Steadiness"); the samples of a rung pool under its label.
        small = [op for op in ladder if op in self.SMALL]
        self._ops = []
        for op in ladder:
            self._ops.append(op)
            if op not in self.SMALL:
                self._ops += small

    def warm(self):
        from resokit import analytic, fem

        self.f_disk = analytic.disk_wineglass_frequency(self.disk, self.material, 2)
        self.f_beam = analytic.beam_mode_frequency(self.beam, self.material, 1)
        fem.disk_modal_fem(self.disk, self.material,
                           fem.mesh_disk(self.disk, self.disk.radius / 6))
        fem.solve_modes(fem.assemble_beam(self.beam, self.material, 16), 4)

    def ops(self, pass_index):
        return self._ops

    def label(self, op):
        return f"disk-R/{op[1]}" if op[0] == "disk" else f"beam-{op[1]}el"

    def run(self, op):
        from resokit import fem

        kind, size = op
        if kind == "disk":
            mesh = fem.mesh_disk(self.disk, self.disk.radius / size)
            return fem.disk_modal_fem(self.disk, self.material, mesh)
        system = fem.assemble_beam(self.beam, self.material, size)
        return fem.solve_modes(system, 4)

    def check(self, op, out, state):
        kind, size = op
        if kind == "disk":
            pair = [m for m in out if m.mode_order == 2]
            _require(len(pair) > 0, f"R/{size}: no angular-order-2 mode")
            delta = abs(pair[0].frequency - self.f_disk) / self.f_disk
            _require(delta < 0.05, f"R/{size}: disk FEM {delta:.2%} from analytic")
            deltas = state.setdefault("disk_delta", {})
            deltas[size] = delta
            ladder = [deltas[d] for d in sorted(deltas)]
            _require(all(b < a for a, b in zip(ladder, ladder[1:])),
                     f"R/{size}: delta {delta:.3e} does not shrink as the mesh refines: "
                     f"{sorted(deltas.items())}")
        else:
            delta = abs(out[0][0] - self.f_beam) / self.f_beam
            _require(delta < 0.01, f"{size} elements: beam FEM {delta:.2%} from analytic")


# ---------------------------------------------------------------------------
# optimize-sweep

_BEAM_BOUNDS = {"length": (2e-6, 30e-6), "width": (0.2e-6, 1e-6),
                "thickness": (0.4e-6, 4e-6), "gap": (80e-9, 200e-9)}
_DISK_BOUNDS = {"radius": (2e-6, 40e-6), "thickness": (0.4e-6, 2e-6),
                "gap": (80e-9, 200e-9)}
_FILTERS = ("filter-wimax", "filter-wifi", "filter-dvbh", "filter-gsm-egsb-tx",
            "filter-gsm-egsb-rx", "filter-gsm-dsc-tx", "filter-gsm-dsc-rx")


class OptimizeSweep(Workload):
    """design.optimize over a seeded mix of feasible and infeasible searches."""

    name = "optimize-sweep"
    tail_pct = 75

    def make(self, seed, workdir):
        from resokit import core

        rng = random.Random(seed)

        def bounds(table):
            # lower bounds stay: the best designs sit on the smallest gap
            out = {k: [f"{lo * 1e6:.6g} um", f"{hi * rng.uniform(0.97, 1.03) * 1e6:.6g} um"]
                   for k, (lo, hi) in table.items()}
            out["bias_voltage"] = [1.2, 5.0]
            return out

        # (profile, family, grid, feasible?): half of the searches succeed.
        # Beam slots are fixed, so a pass costs the same for every seed;
        # disk searches fail on the tunnel-depth rule whatever the profile.
        # Small grids keep each search near 0.1 s, so a run gets many
        # samples of each (see README.md, "Steadiness").
        plan = [("oscillator-n1", "beam", 4, True), ("oscillator-n2", "beam", 4, True),
                ("oscillator-n1", "beam", 5, True), ("oscillator-n2", "beam", 5, True),
                ("vco", "beam", 6, False), ("filter-wifi", "beam", 7, False),
                (f"oscillator-n{rng.randint(1, 4)}", "disk", 7, False),
                (rng.choice(_FILTERS), "disk", 6, False)]
        if self.smoke:
            plan = [("oscillator-n2", "beam", 4, True), (rng.choice(_FILTERS), "disk", 5, False)]
        rng.shuffle(plan)
        self._ops = []
        for profile, family, grid, feasible in plan:
            material = core.load_material(rng.choice(("silicon", "polysilicon")))
            table = _BEAM_BOUNDS if family == "beam" else _DISK_BOUNDS
            self._ops.append((profile, family, grid, feasible, bounds(table), material))

    def warm(self):
        from resokit import analytic, core

        for op in self._ops:
            analytic.disk_wineglass_frequency(core.DiskGeometry(5e-6, 1e-6), op[5])

    def ops(self, pass_index):
        return self._ops

    def label(self, op):
        return f"{op[0]}/{op[1]}/grid{op[2]}"

    def run(self, op):
        from resokit import design
        from resokit.errors import InfeasibleDesignError

        profile, family, grid, _, bounds, material = op
        try:
            return design.optimize(design.profile_by_name(profile), family, bounds,
                                   material=material, grid_points=grid)
        except InfeasibleDesignError as exc:
            return exc

    def check(self, op, out, state):
        from resokit import design, fab
        from resokit.errors import InfeasibleDesignError

        profile, family, grid, feasible, _, _ = op
        what = f"{profile}/{family}/grid {grid}"
        if not feasible:
            _require(isinstance(out, InfeasibleDesignError),
                     f"{what}: expected no feasible design")
            axes = 3 if family == "disk" else 4   # every parameter but length/radius
            _require(sum(out.binding_constraints.values()) == grid ** axes,
                     f"{what}: binding-constraint counts do not cover the grid")
            return
        _require(not isinstance(out, Exception), f"{what}: {out}")
        _check_candidates(out, design.profile_by_name(profile), design, fab)


# ---------------------------------------------------------------------------
# design-batch

_PROFILES = ("oscillator-n1", "oscillator-n2", "oscillator-n3", "oscillator-n4",
             "vco") + _FILTERS


class DesignBatch(Workload):
    """Many small single designs through analyze, spec, circuit, spectrum and
    Q, then the seven CLI subcommands, then one cold disk."""

    name = "design-batch"
    tail_pct = 99
    designs_per_pass = 63
    tail_only = ("cold-disk",)

    def make(self, seed, workdir):
        from resokit import core

        rng = random.Random(seed)
        self._cold_rng = random.Random(seed * 7919 + 1)
        self._seen_nu = set()
        presets = [core.load_material("silicon"), core.load_material("polysilicon")]

        # inline materials reuse the presets' Poisson ratios, whose disk roots
        # setup has cached; only _cold_disk brings a new one
        def material():
            if rng.random() < 0.5:
                return rng.choice(presets)
            return core.Material(youngs_modulus=rng.uniform(120e9, 180e9),
                                 density=rng.uniform(2200.0, 2500.0),
                                 poisson_ratio=rng.choice(presets).poisson_ratio)

        count = 7 if self.smoke else self.designs_per_pass
        designs = [self._make_one(rng, material(), i % 3) for i in range(count)]
        self._designs = [(f"{d[0]}#{i}",) + d for i, d in enumerate(designs)]
        self._presets = presets
        self.cli = CliCommands()
        self.cli.make(self.root, seed, workdir)
        self._commands = [("cli-" + op[0], "cli") + op for op in self.cli.ops]

    @staticmethod
    def _make_one(rng, material, kind):
        """kind 0: in-plane beam, 1: out-of-plane beam, 2: disk."""
        from resokit import core

        q = rng.uniform(2e3, 1e5)
        profile = rng.choice(_PROFILES)
        if kind == 2:
            radius = rng.uniform(2e-6, 12e-6)
            geom = core.DiskGeometry(radius=radius, thickness=rng.uniform(0.4e-6, 1.5e-6))
            area = math.pi * radius / 2.0 * geom.thickness
            tr = core.Transducer(gap=rng.uniform(80e-9, 200e-9),
                                 bias_voltage=rng.uniform(2.0, 10.0),
                                 drive_voltage=0.1, electrode_area=area)
            return ("disk", geom, tr, material, q, profile)
        axis = core.VibrationAxis.IN_PLANE if kind == 0 else core.VibrationAxis.OUT_OF_PLANE
        geom = core.BeamGeometry(length=rng.uniform(6e-6, 30e-6),
                                 width=rng.uniform(0.3e-6, 1.5e-6),
                                 thickness=rng.uniform(0.4e-6, 2e-6), vibration_axis=axis)
        face = geom.thickness if kind == 0 else geom.width
        mos = core.MosParams(bias_drain_current=rng.uniform(5e-6, 20e-6))
        tr = core.Transducer(gap=rng.uniform(80e-9, 200e-9), bias_voltage=rng.uniform(1.5, 8.0),
                             drive_voltage=0.1, electrode_area=geom.length * face,
                             detection=core.DetectionKind.MOS, mos=mos)
        return ("beam", geom, tr, material, q, profile)

    def _cold_disk(self):
        """A disk whose Poisson ratio no earlier operation has used."""
        from resokit import core

        rng = self._cold_rng
        nu = rng.uniform(0.15, 0.35)
        while nu in self._seen_nu:
            nu = rng.uniform(0.15, 0.35)
        self._seen_nu.add(nu)
        material = core.Material(youngs_modulus=rng.uniform(120e9, 180e9),
                                 density=rng.uniform(2200.0, 2500.0), poisson_ratio=nu)
        return ("cold-disk",) + self._make_one(rng, material, 2)

    def warm(self):
        from resokit import analytic, core, fem

        for mat in self._presets:
            analytic.disk_mode_result(core.DiskGeometry(5e-6, 1e-6), mat)
        beam = core.BeamGeometry(10e-6, 0.5e-6, 0.5e-6)
        fem.solve_modes(fem.assemble_beam(beam, mat, 64), 1)
        analytic.beam_mode_result(beam, mat)

    def ops(self, pass_index):
        return self._designs + self._commands + [self._cold_disk()]

    def label(self, op):
        return op[0]

    def run(self, op):
        from resokit import analytic, design, fem, transduction

        if op[1] == "cli":
            return self.cli.run(op[2:])
        _, kind, geom, tr, material, q, profile_name = op
        profile = design.profile_by_name(profile_name)
        v_range = profile.dc_voltage_range or (0.0, tr.bias_voltage)
        candidate = design.DesignCandidate.analyze(geom, tr, material, q,
                                                   tuning_v_range=v_range)
        report = design.check_spec(candidate, profile)
        mode = (analytic.beam_mode_result(geom, material) if kind == "beam"
                else analytic.disk_mode_result(geom, material))
        circuit = transduction.equivalent_circuit(mode, tr, q)
        q_ext = transduction.extract_q(transduction.transmission_spectrum(circuit))
        out = {"candidate": candidate, "report": report, "mode": mode,
               "circuit": circuit, "q_extracted": q_ext}
        if kind == "beam":
            out["f_fem"] = fem.solve_modes(fem.assemble_beam(geom, material, 64), 1)[0][0]
            out["curve"] = transduction.detection_comparison(geom, material, tr, q, SCALES)
        return out

    def check(self, op, out, state):
        kind = op[1]
        if kind == "cli":
            self.cli.check(op[2:], out)
            return
        f = out["mode"].frequency
        _require(_close(out["candidate"].analysis.frequency, f),
                 "candidate frequency differs from the analytic mode")
        _require(_close(out["circuit"].f0, f), "circuit f0 differs from the mode frequency")
        _require(len(out["report"].criteria) == 5, "spec report must list 5 criteria")
        _check_q(out["q_extracted"], out["circuit"])
        if kind == "beam":
            _require(abs(out["f_fem"] - f) / f < 0.01, "beam FEM not within 1% at 64 elements")
            _check_detection(out["curve"])

    def finish(self):
        return self.cli.finish()


WORKLOADS = {w.name: w for w in (FemConverge, OptimizeSweep, DesignBatch)}
