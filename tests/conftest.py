import numpy as np
import pytest

from resokit.core import (BeamGeometry, DiskGeometry, Transducer,
                          VibrationAxis, load_material)


@pytest.fixture(scope="session")
def silicon():
    return load_material("silicon")


@pytest.fixture(scope="session")
def ref_beam():
    # 10 x 0.46 x 0.4 um clamped-clamped beam, in-plane flexure
    return BeamGeometry(length=10e-6, width=0.46e-6, thickness=0.4e-6,
                        vibration_axis=VibrationAxis.IN_PLANE)


@pytest.fixture(scope="session")
def ref_disk():
    # 6 um diameter, 0.4 um thick disk
    return DiskGeometry(radius=3e-6, thickness=0.4e-6)


@pytest.fixture(scope="session")
def ref_transducer(ref_beam):
    # 90 nm airgap, 5 V bias, electrode on the in-plane face (L x thickness)
    return Transducer(gap=90e-9, bias_voltage=5.0, drive_voltage=0.1,
                      electrode_area=ref_beam.length * ref_beam.thickness)


def with_pow_ties(values, count=20, keep=200, exponent=2):
    """The first `keep` values plus `count` more for which libm pow (Python's
    x**exponent, np.float_power) and numpy's array x**exponent (x*x for a
    square) round differently."""
    ties = values[np.float_power(values, exponent) != values**exponent][:count]
    assert len(ties) == count
    return np.concatenate([values[:keep], ties])
