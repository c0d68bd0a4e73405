"""Command-line front end.

Subcommands: analyze, fem, respond, compare-detection, check, optimize, gap.
Exit codes: 0 success/pass, 1 domain failure (spec fail, infeasible), 2
usage or config error. Commands are thin adapters over the library; numeric
results are identical to direct calls.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import analytic, design, fab, fem, transduction
from .core import (BeamGeometry, Material, _check_keys, _load_json_file,
                   _write_json, beam_geometry_from_dict, disk_geometry_from_dict,
                   load_material, material_from_dict, transducer_from_dict)
from .errors import (InfeasibleDesignError, InvariantError, ResokitError,
                     SchemaError, UnitError, UnknownPresetError)
from .units import parse_quantity

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _material(cfg: dict) -> Material:
    """A design or bounds config's material: preset, file, inline object or silicon."""
    spec = cfg.get("material", "silicon")
    return material_from_dict(spec) if isinstance(spec, dict) else load_material(spec)


def _config(path: str, parse):
    """parse(the JSON object in the config file at path), for every kind of
    config file: a value that is not a quantity (UnitError) or that no input
    can have (InvariantError) is a config error naming the file."""
    cfg = _load_json_file(path)
    try:
        return parse(cfg)
    except (InvariantError, UnitError) as exc:
        raise SchemaError(f"{path}: {exc}") from None


def _design(args, needs_transducer: bool = False):
    """(geometry, material, transducer or None, q) of the design config
    args.config; SchemaError if the command needs a transducer it lacks."""
    def parse(cfg):
        kind = cfg.get("kind")
        if kind not in ("beam", "disk"):
            raise SchemaError(f"design config: kind must be 'beam' or 'disk', got {kind!r}")
        if "geometry" not in cfg:
            raise SchemaError("design config: missing 'geometry' object")
        _check_keys(cfg, {"kind", "geometry"},
                    {"schema_version", "material", "transducer", "q"}, "design config")
        geometry = (beam_geometry_from_dict(cfg["geometry"]) if kind == "beam"
                    else disk_geometry_from_dict(cfg["geometry"]))
        material = _material(cfg)
        transducer = transducer_from_dict(cfg["transducer"]) if "transducer" in cfg else None
        q = parse_quantity(cfg.get("q", 1e4))
        if needs_transducer and transducer is None:
            raise SchemaError(f"{args.command} needs a transducer section in the config")
        return geometry, material, transducer, q
    return _config(args.config, parse)


def _load_profile(spec: str) -> design.SpecProfile:
    """--profile: a built-in profile name, else a profile JSON file."""
    try:
        return design.profile_by_name(spec)
    except UnknownPresetError:
        if not os.path.isfile(spec):
            raise
    return _config(spec, design.profile_from_dict)


def _write(write, *args):
    """write(*args), whose last argument is an output path from the command
    line; a path that cannot be written is a usage error naming it."""
    try:
        write(*args)
    except OSError as exc:
        raise SchemaError(f"cannot write {args[-1]}: {exc.strerror or exc}") from None


def _emit(report: dict, json_path: str | None):
    if json_path:
        _write(_write_json, report, json_path)


def _disk_mesh(args, geometry):
    """The disk mesh at --target-edge, by default radius/16."""
    target = geometry.radius / 16.0 if args.target_edge is None else args.target_edge
    return fem.mesh_disk(geometry, target)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_analyze(args) -> int:
    geometry, material, _, _ = _design(args)

    if isinstance(geometry, BeamGeometry):
        f_analytic = analytic.beam_mode_frequency(geometry, material, 1)
        sys_ = fem.assemble_beam(geometry, material, args.elements)
        f_fem = fem.solve_modes(sys_, 1)[0][0]
        kind = "beam"
    else:
        f_analytic = analytic.disk_wineglass_frequency(geometry, material, 2)
        mesh = _disk_mesh(args, geometry)
        modes = fem.disk_modal_fem(geometry, material, mesh, n_modes=2)
        pair = [m for m in modes if m.mode_order == 2]
        if not pair:
            raise ResokitError("no angular-order-2 mode found in FEM results")
        f_fem = pair[0].frequency
        kind = "disk"

    delta_pct = (f_fem - f_analytic) / f_analytic * 100.0
    report = {"kind": kind, "analytic_hz": f_analytic, "fem_hz": f_fem,
              "delta_pct": delta_pct}
    print(f"{kind} modal analysis")
    print(f"  analytic_hz: {f_analytic!r}")
    print(f"  fem_hz: {f_fem!r}")
    print(f"  delta_pct: {delta_pct!r}")
    _emit(report, args.json)
    return EXIT_OK


def _cmd_fem(args) -> int:
    geometry, material, _, _ = _design(args)

    if isinstance(geometry, BeamGeometry):
        sys_ = fem.assemble_beam(geometry, material, args.elements)
        modes = fem.solve_modes(sys_, args.modes)
        rows = [{"mode": i + 1, "frequency_hz": f} for i, (f, _) in enumerate(modes)]
        if args.modes_csv:
            _write(fem.export_modes_csv, sys_, modes, args.modes_csv)
        mesh = sys_.mesh
    else:
        mesh = _disk_mesh(args, geometry)
        sys_, modes, results = fem.solve_disk(geometry, material, mesh,
                                              n_modes=args.modes)
        rows = [{"mode": i + 1, "frequency_hz": m.frequency,
                 "angular_order": m.mode_order} for i, m in enumerate(results)]
        if args.modes_csv:
            _write(fem.export_modes_csv, sys_, modes, args.modes_csv)
    if args.mesh_out:
        _write(fem.export_mesh, mesh, args.mesh_out)

    for row in rows:
        extra = f"  n={row['angular_order']}" if "angular_order" in row else ""
        print(f"mode {row['mode']}: {row['frequency_hz']!r} Hz{extra}")
    _emit({"modes": rows}, args.json)
    return EXIT_OK


def _cmd_respond(args) -> int:
    geometry, material, transducer, q = _design(args, needs_transducer=True)
    mode = design._mode_for(geometry, material)
    circuit = transduction.equivalent_circuit(mode, transducer, q)
    spectrum = transduction.transmission_spectrum(
        circuit, termination=args.termination, points=args.points)
    q_extracted = transduction.extract_q(spectrum)
    if args.csv:
        _write(spectrum.to_csv, args.csv)
    if args.circuit_json:
        _write(transduction.circuit_to_json, circuit, args.circuit_json)
    report = {"f0_hz": circuit.f0, "r_x_ohm": circuit.r_x, "q_configured": q,
              "q_extracted": q_extracted, "points": args.points,
              "termination_ohm": args.termination}
    print(f"f0: {circuit.f0!r} Hz")
    print(f"R_x: {circuit.r_x!r} ohm")
    print(f"Q extracted: {q_extracted!r} (configured {q!r})")
    _emit(report, args.json)
    return EXIT_OK


def _curve_to_csv(curve, path):
    with open(path, "w") as f:
        f.write("scale,i_mos_over_i_cap\n")
        for s, r in curve:
            f.write(f"{s!r},{r!r}\n")


def _cmd_compare_detection(args) -> int:
    geometry, material, transducer, q = _design(args, needs_transducer=True)
    if not isinstance(geometry, BeamGeometry):
        raise SchemaError("compare-detection supports beam designs")
    curve = transduction.detection_comparison(geometry, material, transducer, q,
                                              args.scales)
    if args.csv:
        _write(_curve_to_csv, curve, args.csv)
    for s, r in curve:
        print(f"scale {s:g}: i_mos/i_cap = {r!r}")
    _emit({"curve": [{"scale": s, "ratio": r} for s, r in curve]}, args.json)
    return EXIT_OK


def _load_process(path: str | None) -> fab.ProcessModel:
    if path is None:
        return fab.ProcessModel()
    return _config(path, fab.process_model_from_dict)


def _cmd_check(args) -> int:
    geometry, material, transducer, q = _design(args, needs_transducer=True)
    profile = _load_profile(args.profile)
    process = _load_process(args.process)
    candidate = design.DesignCandidate.analyze(
        geometry, transducer, material, q, process,
        tuning_v_range=profile.dc_voltage_range)
    report = design.check_spec(candidate, profile, freq_tol=args.freq_tol)
    print(report.to_text())
    _emit(report.to_dict(), args.json)
    return EXIT_OK if report.passed else EXIT_DOMAIN


def _cmd_optimize(args) -> int:
    def parse(bcfg):
        if bcfg.get("family") not in ("beam", "disk"):
            raise SchemaError("bounds config: family must be 'beam' or 'disk'")
        if "bounds" not in bcfg:
            raise SchemaError("bounds config: missing 'bounds' object")
        _check_keys(bcfg, {"family", "bounds"},
                    {"schema_version", "material", "assumed_q", "grid_points", "max_results"},
                    "bounds config")
        return bcfg, _material(bcfg)
    bcfg, material = _config(args.bounds, parse)
    profile = _load_profile(args.profile)
    process = _load_process(args.process)
    assumed_q = bcfg.get("assumed_q")
    try:
        candidates = design.optimize(
            profile, bcfg["family"], bcfg["bounds"], process=process, material=material,
            assumed_q=None if assumed_q is None else parse_quantity(assumed_q),
            grid_points=bcfg.get("grid_points", 7),
            max_results=bcfg.get("max_results", 10))
    except (SchemaError, UnitError) as exc:   # every value optimize checks is the bounds file's
        raise SchemaError(f"{args.bounds}: {exc}") from None
    ranked = [c.to_dict() for c in candidates]
    for i, c in enumerate(candidates):
        print(f"#{i + 1}: R_x = {c.analysis.r_x!r} ohm, "
              f"f = {c.analysis.frequency!r} Hz")
    _emit({"profile": profile.name, "candidates": ranked}, args.json)
    return EXIT_OK


def _cmd_gap(args) -> int:
    process = _load_process(args.process)
    drawn = parse_quantity(args.drawn)
    tunnel = parse_quantity(args.tunnel)
    released = fab.released_gap(drawn, tunnel, process)
    report = {"drawn_gap_m": drawn, "tunnel_depth_m": tunnel,
              "released_gap_m": released,
              "single_point_calibration": True}
    print(f"drawn gap:    {drawn * 1e9:.3f} nm")
    print(f"tunnel depth: {tunnel * 1e6:.4f} um")
    print(f"released gap: {released * 1e9:.3f} nm (single-point calibration)")
    _emit(report, args.json)
    return EXIT_OK


def _arg(convert, valid, expected: str):
    """argparse type: convert(text), rejected unless valid (exit 2, one line)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


def _int_at_least(lo: int, most: int | None = None):
    """argparse type: an integer >= lo, and <= most if given."""
    at_least = _arg(int, lambda n: n >= lo, f"an integer >= {lo}")
    return at_least if most is None else _arg(at_least, lambda n: n <= most,
                                              f"an integer <= {most}")


# a length or resistance: a finite quantity > 0 (parse_quantity refuses inf)
_positive_quantity = _arg(parse_quantity, lambda x: x > 0, "a positive quantity")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="resokit",
        description="Electrostatic MEMS resonator design and analysis toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="analytic vs FEM modal frequencies")
    a.add_argument("--config", required=True, help="design config JSON")
    a.add_argument("--elements", type=_int_at_least(2, fem._MAX_ELEMENTS), default=64,
                   help="beam FEM elements")
    a.add_argument("--target-edge", type=_positive_quantity, default=None,
                   help="disk mesh target edge (default radius/16)")
    a.add_argument("--json", default=None, help="write JSON report here")
    a.set_defaults(func=_cmd_analyze)

    f = sub.add_parser("fem", help="FEM modal analysis with optional exports")
    f.add_argument("--config", required=True)
    f.add_argument("--elements", type=_int_at_least(2, fem._MAX_ELEMENTS), default=64)
    f.add_argument("--target-edge", type=_positive_quantity, default=None)
    f.add_argument("--modes", type=_int_at_least(1), default=4)
    f.add_argument("--mesh-out", default=None, help="write mesh text file")
    f.add_argument("--modes-csv", default=None, help="write mode shapes CSV")
    f.add_argument("--json", default=None)
    f.set_defaults(func=_cmd_fem)

    r = sub.add_parser("respond", help="transmission spectrum and extracted Q")
    r.add_argument("--config", required=True)
    r.add_argument("--termination", type=_positive_quantity, default=50.0)
    r.add_argument("--points", type=_int_at_least(3), default=2001)
    r.add_argument("--csv", default=None, help="write spectrum CSV here")
    r.add_argument("--circuit-json", default=None,
                   help="write the equivalent circuit as a JSON record")
    r.add_argument("--json", default=None)
    r.set_defaults(func=_cmd_respond)

    cd = sub.add_parser("compare-detection", help="MOS vs capacitive current ratio")
    cd.add_argument("--config", required=True)
    cd.add_argument("--scales", type=_arg(
        lambda s: [float(v) for v in s.split(",")],
        lambda v: (v[0] == 1 and all(0 < s <= 1 for s in v)
                   and all(b < a for a, b in zip(v, v[1:]))),
        "comma-separated scales from 1, strictly descending within (0, 1]"),
        default="1,0.9,0.8,0.7,0.6,0.5,0.4,0.3,0.2")
    cd.add_argument("--csv", default=None)
    cd.add_argument("--json", default=None)
    cd.set_defaults(func=_cmd_compare_detection)

    c = sub.add_parser("check", help="check a design against a spec profile")
    c.add_argument("--config", required=True)
    c.add_argument("--profile", required=True,
                   help="built-in profile name or profile JSON file")
    c.add_argument("--process", default=None, help="process model JSON")
    c.add_argument("--freq-tol", default=0.005,
                   type=_arg(float, lambda x: 0 <= x < math.inf, "a finite number >= 0"))
    c.add_argument("--json", default=None)
    c.set_defaults(func=_cmd_check)

    o = sub.add_parser("optimize", help="search the design space for a profile")
    o.add_argument("--profile", required=True,
                   help="built-in profile name or profile JSON file")
    o.add_argument("--bounds", required=True, help="bounds config JSON")
    o.add_argument("--process", default=None)
    o.add_argument("--json", default=None)
    o.set_defaults(func=_cmd_optimize)

    g = sub.add_parser("gap", help="release-process gap correction")
    g.add_argument("--drawn", required=True, help="drawn gap, e.g. '80 nm'")
    g.add_argument("--tunnel", required=True, help="tunnel depth, e.g. '1.19 um'")
    g.add_argument("--process", default=None)
    g.add_argument("--json", default=None)
    g.set_defaults(func=_cmd_gap)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # a bad argument (2) or --help (0)
        return exc.code
    try:
        return args.func(args)
    except (SchemaError, UnitError, UnknownPresetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleDesignError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ResokitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
