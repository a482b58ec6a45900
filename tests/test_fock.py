import math

import numpy as np
import pytest

from focklab.fock import (KernelEval, build_basis, default_rule_for_degree,
                          evaluate_projection, fit_kernel_estimates, kernel,
                          lp_norm, normalized_kernel, project)
from focklab.quadrature import CapabilityError
from focklab.weights import gaussian_weight


def test_monomial_normalizations(basis25):
    # c_k^2 = pi k! / alpha^{k+1} with alpha = 1
    for k in range(21):
        exact = np.pi * math.factorial(k)
        assert abs(basis25.c[k] ** 2 - exact) / exact < 1e-10


def test_closed_form_matches_basis_sum(basis25):
    Kc = KernelEval(basis25, mode="closed-form-gaussian")
    Kb = KernelEval(basis25, mode="basis-sum")
    rng = np.random.default_rng(1)
    z = rng.uniform(-1.2, 1.2, 10) + 1j * rng.uniform(-1.2, 1.2, 10)
    w = rng.uniform(-1.2, 1.2, 10) + 1j * rng.uniform(-1.2, 1.2, 10)
    a, b = kernel(Kc, z, w), kernel(Kb, z, w)
    assert np.max(np.abs(a - b) / np.abs(a)) < 1e-8


def test_kernel_closed_form_value(kernel25):
    # K(z, w) = e^{z conj(w)} / pi at alpha = 1
    z, w = 0.7 + 0.2j, -0.3 + 0.5j
    expect = np.exp(z * np.conj(w)) / np.pi
    assert abs(kernel(kernel25, z, w) - expect) < 1e-12


def test_kernel_hermitian_symmetry(kernel25):
    z, w = 1.1 - 0.4j, 0.2 + 0.9j
    assert abs(kernel(kernel25, z, w)
               - np.conj(kernel(kernel25, w, z))) < 1e-14


def test_normalized_kernel_unit_norm(kernel25, weight, basis25):
    for z0 in (0.0, 1.0 + 0.5j):
        kz = normalized_kernel(kernel25, z0)
        n = lp_norm(kz(basis25.rule.nodes), 2.0, basis25.rule, weight)
        assert abs(n - 1.0) < 1e-8


def test_projection_reproduces_basis(kernel25, basis25, weight):
    rule = basis25.rule
    for k in range(11):
        ek = rule.nodes ** k / basis25.c[k]
        co = project(kernel25, ek, rule)
        diff = evaluate_projection(kernel25, co, rule.nodes) - ek
        assert lp_norm(diff, 2.0, rule, weight) < 1e-8


def test_projection_kills_antiholomorphic(kernel25, basis25, weight):
    rule = basis25.rule
    co = project(kernel25, np.conj(rule.nodes), rule)
    # P(conj z) = 0 in F^2 at alpha = 1? No: <conj z, z^k> picks k = 0 only
    vals = evaluate_projection(kernel25, co, rule.nodes)
    # conj(z) is orthogonal to every monomial, so the projection vanishes
    assert lp_norm(vals, 2.0, rule, weight) < 1e-10


def test_kernel_norm_identity(kernel25, basis25, weight):
    # ||K(., 1)||^2 = K(1, 1)
    rule = basis25.rule
    n2 = lp_norm(kernel(kernel25, rule.nodes, 1.0), 2.0, rule, weight) ** 2
    K11 = float(np.real(kernel(kernel25, 1.0, 1.0)))
    assert abs(n2 - K11) / K11 < 1e-6


def test_kernel_estimates_bound(kernel25):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2, 2, (40, 2))
    est = fit_kernel_estimates(kernel25, pts[:, 0] + 1j * pts[:, 1])
    assert est.bound_holds
    assert est.theta > 0 and est.C1 > 0 and est.C2 > 0


def test_non_radial_weight_rejected():
    from focklab.weights import perturbed_gaussian_weight
    with pytest.raises(CapabilityError):
        build_basis(perturbed_gaussian_weight(0.05), 8,
                    default_rule_for_degree(8, 1.0))


def test_rule_matrix_is_lazy_and_reused(weight):
    basis = build_basis(weight, 12)
    assert "rule_matrix" not in vars(basis)
    K = KernelEval(basis)
    rule = basis.rule
    g = np.exp(-np.abs(rule.nodes) ** 2) * np.conj(rule.nodes)
    decay = np.exp(-2.0 * weight.phi(rule.nodes))
    for degree in (12, 7):
        co = project(K, g, degree=degree)
        E = basis.evaluate(rule.nodes, kmax=degree)
        assert np.array_equal(co, np.conj(E).T @ (rule.weights * decay * g))
        assert np.array_equal(evaluate_projection(K, co, rule.nodes), E @ co)
    assert np.array_equal(basis.rule_matrix, basis.evaluate(rule.nodes))
    with pytest.raises(ValueError):     # beyond the basis, as before
        project(K, g, degree=13)
    # any other point set is evaluated afresh, in its own shape
    z = rule.nodes[:6].reshape(2, 3).copy()
    assert np.array_equal(evaluate_projection(K, co, z),
                          (basis.evaluate(z.ravel(), kmax=7) @ co)
                          .reshape(2, 3))


def _reference_normalizations(w, degree, rule):
    """c_k, one integral per degree: the loop build_basis replaced."""
    decay = np.exp(-2.0 * w.phi(rule.nodes))
    amp2 = np.abs(rule.nodes) ** 2
    c2 = np.empty(degree + 1)
    pw = np.ones_like(amp2)
    for k in range(degree + 1):
        c2[k] = np.real(rule.integrate(pw * decay))
        if k < degree:
            pw = pw * amp2
    return np.sqrt(c2)


@pytest.mark.parametrize("degree", [0, 1, 20, 95])
def test_normalizations_equal_per_degree_loop(weight, degree):
    basis = build_basis(weight, degree)
    ref = _reference_normalizations(weight, degree, basis.rule)
    assert np.array_equal(basis.c, ref)


def _exact(v: complex):
    """(re, im, den): integers with v = (re + i im) / den exactly."""
    (a, da), (b, db) = v.real.as_integer_ratio(), v.imag.as_integer_ratio()
    den = max(da, db)               # both are powers of two
    return a * (den // da), b * (den // db), den


def test_evaluate_matches_exact_powers(weight):
    # e_k(z) = z^k / c_k against z^k in exact integer arithmetic
    basis = build_basis(weight, 95)
    rng = np.random.default_rng(11)
    z = rng.uniform(1.0, 20.0, 300) * np.exp(2j * np.pi * rng.uniform(size=300))
    E = basis.evaluate(z)
    cs = [float(c).as_integer_ratio() for c in basis.c]
    worst = 0.0
    for zi, row in zip(z, E):
        x, y, dz = _exact(complex(zi))
        px, py, dk = 1, 0, 1        # z^k = (px + i py) / dk
        for val, (cn, cd) in zip(row, cs):
            vx, vy, dv = _exact(complex(val))
            # val * c - z^k over the common denominator dv * cd * dk
            ex = vx * cn * dk - px * dv * cd
            ey = vy * cn * dk - py * dv * cd
            scale = dv * cd
            worst = max(worst, (ex * ex + ey * ey)
                        / ((px * px + py * py) * scale * scale))
            px, py, dk = px * x - py * y, px * y + py * x, dk * dz
    assert math.sqrt(worst) <= 4e-15
