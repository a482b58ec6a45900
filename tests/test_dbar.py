import numpy as np
import pytest

from focklab import symbols
from focklab.dbar import (CalibrationError, DbarSolver, ZeroOneForm,
                          calibrate_orientation, dbar_fd,
                          gaussian_test_forms, hankel_via_dbar)
from focklab.fock import KernelEval, kernel
from focklab.weights import gaussian_weight


@pytest.fixture(scope="module")
def solver():
    s = DbarSolver(gaussian_weight(1.0), n_radial=60, n_angular=96)
    calibrate_orientation(s)
    return s


def test_calibration_unique_constant(solver):
    assert solver.c0 is not None
    assert abs(solver.c0 - (-1.0 / np.pi)) < 1e-12
    assert solver.calibration_residual < 1e-3


def test_calibration_idempotent(solver):
    c0 = solver.c0
    calibrate_orientation(solver)
    assert solver.c0 == c0


def test_calibration_solves_each_form_once(monkeypatch):
    s = DbarSolver(gaussian_weight(1.0), n_radial=20, n_angular=32)
    forms = gaussian_test_forms(1.0)
    calls = []
    raw_apply = DbarSolver.raw_apply

    def counted(self, omega, z):
        calls.append(omega)
        return raw_apply(self, omega, z)

    monkeypatch.setattr(DbarSolver, "raw_apply", counted)
    calibrate_orientation(s, forms, rel_tol=np.inf)
    assert len(calls) == len(forms)


def test_uncalibrated_apply_rejected():
    s = DbarSolver(gaussian_weight(1.0), n_radial=30, n_angular=48)
    omega = gaussian_test_forms(1.0)[0]
    with pytest.raises(CalibrationError):
        s.apply(omega, np.array([0.0 + 0.0j]))


def test_residual_on_gaussian_family(solver):
    rng = np.random.default_rng(11)
    z = rng.uniform(-0.8, 0.8, 12) + 1j * rng.uniform(-0.8, 0.8, 12)
    for omega in gaussian_test_forms(1.0):
        scale = float(np.max(np.abs(omega(z))))
        resid = np.abs(dbar_fd(lambda w: solver.apply(omega, w), z)
                       - omega(z))
        assert np.max(resid) <= 1e-3 * max(scale, 1.0)


def test_linearity(solver):
    a, b = gaussian_test_forms(1.0)[:2]
    combo = ZeroOneForm(lambda xi: 2.0 * a.coefficient(xi)
                        - 0.5j * b.coefficient(xi))
    z = np.array([0.3 - 0.2j, -0.6 + 0.4j])
    lhs = solver.apply(combo, z)
    rhs = 2.0 * solver.apply(a, z) - 0.5j * solver.apply(b, z)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_hankel_identity_on_kernel_span(solver, basis25, weight):
    # A_phi(g dbar f) - P A_phi(g dbar f) agrees with fg - P(fg)
    K = KernelEval(basis25)
    rule = basis25.rule
    ew2 = np.exp(-2.0 * weight.phi(rule.nodes))
    f = symbols.make("bump", radius=2.0)
    for w0 in (0.0, 0.5 + 0.3j):
        g = lambda xi: kernel(K, xi, w0)
        lhs, rhs = hankel_via_dbar(solver, f, g, K)
        num = np.sqrt(abs(rule.integrate(np.abs(lhs - rhs) ** 2 * ew2)))
        den = np.sqrt(abs(rule.integrate(np.abs(rhs) ** 2 * ew2)))
        assert num / den < 5e-2


def test_hankel_identity_requires_dbar(solver, basis25):
    K = KernelEval(basis25)
    f = symbols.make("step", radius=1.0)
    with pytest.raises(ValueError):
        hankel_via_dbar(solver, f, lambda xi: np.ones_like(xi), K)
