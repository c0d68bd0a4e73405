"""Quantity parsing with unit suffixes.

Internally everything is SI. Config files may write dimensioned fields
either as plain numbers (already SI) or as strings ``"<number> <suffix>"``
(space optional), e.g. ``"10 um"``, ``"90nm"``, ``"38.8 MHz"``, ``"5 V"``.
"""

import math
import re

from .errors import UnitError

# suffix -> multiplier to SI
_SUFFIXES = {
    # length
    "m": 1.0, "mm": 1e-3, "um": 1e-6, "µm": 1e-6, "nm": 1e-9,
    # area
    "m2": 1.0, "mm2": 1e-6, "um2": 1e-12, "µm2": 1e-12, "nm2": 1e-18,
    # frequency
    "Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9,
    # voltage
    "V": 1.0, "mV": 1e-3, "uV": 1e-6,
    # current
    "A": 1.0, "mA": 1e-3, "uA": 1e-6, "nA": 1e-9,
    # resistance
    "ohm": 1.0, "kohm": 1e3, "Mohm": 1e6,
    # capacitance
    "F": 1.0, "pF": 1e-12, "fF": 1e-15, "aF": 1e-18,
    # pressure / modulus
    "Pa": 1.0, "kPa": 1e3, "MPa": 1e6, "GPa": 1e9,
}

_QUANTITY_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*([a-zA-Zµ0-9]*)\s*$")


def parse_quantity(value) -> float:
    """The finite SI value of a number or a '<number> <suffix>' string."""
    if isinstance(value, bool):
        raise UnitError(f"expected a quantity, got bool {value!r}")
    if isinstance(value, str):
        m = _QUANTITY_RE.match(value)
        if not m:
            raise UnitError(f"cannot parse quantity {value!r}")
        num, suffix = m.groups()
        try:
            x = float(num)
        except ValueError:
            raise UnitError(f"cannot parse number in quantity {value!r}") from None
        if suffix and suffix not in _SUFFIXES:
            raise UnitError(f"unknown unit suffix {suffix!r} in {value!r}")
        x *= _SUFFIXES.get(suffix, 1.0)
    elif isinstance(value, (int, float)):
        try:
            x = float(value)
        except OverflowError:   # an integer beyond the float range
            x = math.inf
    else:
        raise UnitError(f"expected number or quantity string, got {type(value).__name__}")
    if not math.isfinite(x):
        raise UnitError(f"quantity {value!r} is not finite")
    return x
