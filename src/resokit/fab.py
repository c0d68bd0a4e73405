"""Release-process gap corrections and manufacturability checks.

The gap drawn on the layout widens twice: once during the trench etch
(etch_bias) and once during the sacrificial release, where the enlargement
grows with the tunnel depth the etch has to travel. The default enlargement
rate is calibrated from a single measured point (40 nm of enlargement over
a 1.19 um tunnel), so reports flag it as a single-point calibration.

Process reference constants kept for documentation only (not used in any
computation): channel doping ~5e15 at/cm3, source/drain/gate doping floor
~3e18 at/cm3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .core import Transducer, _check_keys, _geometry_family, _quantities, _Record
from .errors import FabConstraintError, InvariantError

# single-point calibration: 90 nm post-etch gap measured 130 nm after a
# 1.19 um deep release
_CAL_ENLARGEMENT = 40e-9      # m
_CAL_TUNNEL_DEPTH = 1.19e-6   # m


@dataclass(frozen=True)
class ProcessModel(_Record):
    """Gap-correction parameters. Lengths in m; rate is m per m of tunnel."""

    etch_bias: float = 10e-9
    release_enlargement_rate: float = _CAL_ENLARGEMENT / _CAL_TUNNEL_DEPTH
    min_drawn_gap: float = 80e-9
    max_tunnel_depth: float = _CAL_TUNNEL_DEPTH

    def __post_init__(self):
        for name in ("etch_bias", "release_enlargement_rate",
                     "min_drawn_gap", "max_tunnel_depth"):
            if not 0 <= getattr(self, name) < math.inf:
                raise InvariantError(f"{name} must be finite and >= 0")


def process_model_from_dict(d: dict) -> ProcessModel:
    known = [f.name for f in fields(ProcessModel)]
    _check_keys(d, set(), {*known, "schema_version"}, "process model")
    return ProcessModel(**_quantities(d, known))


# kernels for floats or arrays (see analytic)

def _tunnel_depth(family: str, dims):
    """Lateral distance the release etch travels under the structure: half
    the width of a beam (etched from both sides), the radius of a disk.
    dims maps the geometry's field names to values."""
    return dims["width"] / 2.0 if family == "beam" else dims["radius"]


def _released_gap(drawn_gap, tunnel_depth, p: ProcessModel):
    return drawn_gap + p.etch_bias + p.release_enlargement_rate * tunnel_depth


def _rules_passed(drawn_gap, tunnel_depth, p: ProcessModel):
    """(min_drawn_gap, max_tunnel_depth) passed; a NaN fails both."""
    return drawn_gap >= p.min_drawn_gap, tunnel_depth <= p.max_tunnel_depth


def released_gap(drawn_gap: float, tunnel_depth: float,
                 p: ProcessModel = ProcessModel()) -> float:
    """As-fabricated gap: drawn + etch_bias + rate * tunnel_depth."""
    if not (math.isfinite(drawn_gap) and math.isfinite(tunnel_depth)):
        raise InvariantError(
            f"drawn gap {drawn_gap!r} and tunnel depth {tunnel_depth!r} must be finite")
    gap_ok, tunnel_ok = _rules_passed(drawn_gap, tunnel_depth, p)
    if not gap_ok:
        raise FabConstraintError(
            f"min_drawn_gap: drawn gap {drawn_gap:.3g} m below floor "
            f"{p.min_drawn_gap:.3g} m")
    if not tunnel_ok:
        raise FabConstraintError(
            f"max_tunnel_depth: tunnel {tunnel_depth:.3g} m exceeds ceiling "
            f"{p.max_tunnel_depth:.3g} m")
    if tunnel_depth < 0:
        raise FabConstraintError("tunnel depth must be >= 0")
    return _released_gap(drawn_gap, tunnel_depth, p)


def release_tunnel_depth(geometry) -> float:
    """Lateral distance the release etch must travel under the structure."""
    return _tunnel_depth(_geometry_family(geometry), vars(geometry))


@dataclass(frozen=True)
class FabRule(_Record):
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class FabReport(_Record):
    rules: tuple
    drawn_gap: float
    released_gap: float
    tunnel_depth: float
    single_point_calibration: bool = True

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rules)

    def to_dict(self) -> dict:
        return {"passed": self.passed, **super().to_dict()}

    def to_text(self) -> str:
        lines = [f"fab check: {'PASS' if self.passed else 'FAIL'}"]
        for r in self.rules:
            lines.append(f"  [{'pass' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
        lines.append(f"  drawn gap    {self.drawn_gap * 1e9:.2f} nm")
        lines.append(f"  released gap {self.released_gap * 1e9:.2f} nm"
                     " (single-point calibration)")
        return "\n".join(lines)


def check_fab_constraints(geometry, transducer: Transducer,
                          p: ProcessModel = ProcessModel()) -> FabReport:
    """Rule-by-rule manufacturability report; failures are entries, not errors.

    The transducer gap is treated as the drawn gap; the released (corrected)
    gap is reported for use in as-fabricated analysis.
    """
    tunnel = release_tunnel_depth(geometry)
    gap_ok, tunnel_ok = _rules_passed(transducer.gap, tunnel, p)
    rules = (
        FabRule("min_drawn_gap", gap_ok,
                f"drawn {transducer.gap * 1e9:.2f} nm vs floor "
                f"{p.min_drawn_gap * 1e9:.2f} nm"),
        FabRule("max_tunnel_depth", tunnel_ok,
                f"tunnel {tunnel * 1e6:.3f} um vs ceiling "
                f"{p.max_tunnel_depth * 1e6:.3f} um"),
    )
    return FabReport(rules=rules, drawn_gap=transducer.gap,
                     released_gap=_released_gap(transducer.gap, tunnel, p),
                     tunnel_depth=tunnel)
