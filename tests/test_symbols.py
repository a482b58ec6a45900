import numpy as np
import pytest

from focklab import symbols
from focklab.oscillation import g_functional, mean_oscillation


def test_conj_linear_dbar_is_one():
    f = symbols.make("conj-linear")
    z = np.array([0.0, 1.0 + 2.0j, -0.5j])
    assert np.allclose(f.dbar(z), 1.0)
    assert np.allclose(f(z), np.conj(z))


def test_bump_vanishes_outside_support():
    f = symbols.make("bump", radius=1.0)
    assert f.support_radius == 1.0
    z = np.array([1.0, 2.0 + 1.0j, -1.5])
    assert np.allclose(f(z), 0.0)
    assert np.allclose(f.dbar(z), 0.0)


def test_bump_dbar_finite_differences():
    f = symbols.make("bump", radius=2.0)
    rng = np.random.default_rng(0)
    z = rng.uniform(-1.2, 1.2, 30) + 1j * rng.uniform(-1.2, 1.2, 30)
    h = 1e-6
    fd = ((f(z + h) - f(z - h)) / (2 * h)
          + 1j * (f(z + 1j * h) - f(z - 1j * h)) / (2 * h)) / 2
    assert np.max(np.abs(fd - f.dbar(z))) < 1e-6


def test_step_has_no_dbar():
    f = symbols.make("step", radius=1.0)
    assert f.dbar is None
    assert np.allclose(f(np.array([0.5, 1.5])), [1.0, 0.0])


def test_step_oscillation_oracles():
    f = symbols.make("step", radius=1.0)
    # constant inside the disk: full mean, negligible distance to analytic
    centre, jump = np.array([0.0]), np.array([1.0])
    assert abs(mean_oscillation(f, centre, 0.5, 2.0)[0] - 1.0) < 1e-10
    assert g_functional(f, centre, 0.5, 2.0, 4)[0] < 1e-8
    # the jump circle carries genuine oscillation
    assert g_functional(f, jump, 0.5, 2.0, 4)[0] > 0.1


def test_mixed_is_sum():
    fm = symbols.make("mixed", radius=2.0)
    fc = symbols.make("conj-linear")
    fb = symbols.make("bump", radius=2.0)
    z = np.array([0.3 + 0.1j, 1.5, 3.0j])
    assert np.allclose(fm(z), fc(z) + fb(z))
    assert np.allclose(fm.dbar(z), fc.dbar(z) + fb.dbar(z))


def test_holo_poly_dbar_zero():
    f = symbols.make("holo-poly", coeffs=[1.0, 0.0, 2.0])
    z = np.array([0.5, 1.0j])
    assert np.allclose(f(z), 1.0 + 2.0 * z ** 2)
    assert np.allclose(f.dbar(z), 0.0)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        symbols.make("nope")
