import math

import numpy as np
import pytest

from checks import normalized_kernel
from focklab.fock import (build_basis, default_rule_for_degree,
                          evaluate_projection, fit_kernel_estimates, kernel,
                          lp_norm, project)
from focklab.quadrature import CapabilityError
from focklab.weights import gaussian_weight


def test_monomial_normalizations(basis25):
    # c_k^2 = pi k! / alpha^{k+1} with alpha = 1
    for k in range(21):
        exact = np.pi * math.factorial(k)
        assert abs(basis25.c[k] ** 2 - exact) / exact < 1e-10


def test_closed_form_matches_basis_sum(basis25):
    rng = np.random.default_rng(1)
    z = rng.uniform(-1.2, 1.2, 10) + 1j * rng.uniform(-1.2, 1.2, 10)
    w = rng.uniform(-1.2, 1.2, 10) + 1j * rng.uniform(-1.2, 1.2, 10)
    a = kernel(basis25, z, w)
    b = np.sum(basis25.evaluate(z) * np.conj(basis25.evaluate(w)), axis=1)
    assert np.max(np.abs(a - b) / np.abs(a)) < 1e-8


def test_kernel_closed_form_value(basis25):
    # K(z, w) = e^{z conj(w)} / pi at alpha = 1
    z, w = 0.7 + 0.2j, -0.3 + 0.5j
    expect = np.exp(z * np.conj(w)) / np.pi
    assert abs(kernel(basis25, z, w) - expect) < 1e-12


def test_kernel_hermitian_symmetry(basis25):
    z, w = 1.1 - 0.4j, 0.2 + 0.9j
    assert abs(kernel(basis25, z, w)
               - np.conj(kernel(basis25, w, z))) < 1e-14


def test_normalized_kernel_unit_norm(weight, basis25):
    for z0 in (0.0, 1.0 + 0.5j):
        kz = normalized_kernel(basis25, z0)
        n = lp_norm(kz(basis25.rule.nodes), 2.0, basis25.rule, weight)
        assert abs(n - 1.0) < 1e-8


def test_projection_reproduces_basis(basis25, weight):
    rule = basis25.rule
    for k in range(11):
        ek = rule.nodes ** k / basis25.c[k]
        co = project(basis25, ek, rule)
        diff = evaluate_projection(basis25, co, rule.nodes) - ek
        assert lp_norm(diff, 2.0, rule, weight) < 1e-8


def test_projection_kills_antiholomorphic(basis25, weight):
    rule = basis25.rule
    co = project(basis25, np.conj(rule.nodes), rule)
    # P(conj z) = 0 in F^2 at alpha = 1? No: <conj z, z^k> picks k = 0 only
    vals = evaluate_projection(basis25, co, rule.nodes)
    # conj(z) is orthogonal to every monomial, so the projection vanishes
    assert lp_norm(vals, 2.0, rule, weight) < 1e-10


def test_kernel_norm_identity(basis25, weight):
    # ||K(., 1)||^2 = K(1, 1)
    rule = basis25.rule
    n2 = lp_norm(kernel(basis25, rule.nodes, 1.0), 2.0, rule, weight) ** 2
    K11 = float(np.real(kernel(basis25, 1.0, 1.0)))
    assert abs(n2 - K11) / K11 < 1e-6


def test_lp_norm_refuses_a_power_out_of_range(basis25, weight):
    # |0.3 e^{-phi}|^1000 underflows to 0 at every node: not a norm of 0
    rule = basis25.rule
    vals = np.full(rule.nodes.shape, 0.3, dtype=complex)
    with pytest.raises(ValueError, match="1000-th power"):
        lp_norm(vals, 1000.0, rule, weight)
    assert lp_norm(np.zeros_like(vals), 1000.0, rule, weight) == 0.0
    assert lp_norm(vals, 2.0, rule, weight) > 0.0


def test_kernel_estimates_bound(basis25):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2, 2, (40, 2))
    est = fit_kernel_estimates(basis25, pts[:, 0] + 1j * pts[:, 1])
    assert est.bound_holds
    assert est.theta > 0 and est.C1 > 0 and est.C2 > 0


def test_non_radial_weight_rejected():
    from focklab.weights import perturbed_gaussian_weight
    with pytest.raises(CapabilityError):
        build_basis(perturbed_gaussian_weight(0.05), 8,
                    default_rule_for_degree(8, 1.0))


def test_projections_match_fresh_evaluation(weight):
    basis = build_basis(weight, 12)
    rule = basis.rule
    g = np.exp(-np.abs(rule.nodes) ** 2) * np.conj(rule.nodes)
    decay = np.exp(-2.0 * weight.phi(rule.nodes))
    for degree in (12, 7):
        co = project(basis, g, degree=degree)
        E = basis.evaluate(rule.nodes, kmax=degree)
        assert np.array_equal(co, np.conj(E).T @ (rule.weights * decay * g))
        assert np.array_equal(evaluate_projection(basis, co, rule.nodes),
                              E @ co)
    with pytest.raises(ValueError):     # beyond the basis
        project(basis, g, degree=13)
    # any other point set is evaluated in its own shape
    z = rule.nodes[:6].reshape(2, 3).copy()
    assert np.array_equal(evaluate_projection(basis, co, z),
                          (basis.evaluate(z.ravel(), kmax=7) @ co)
                          .reshape(2, 3))


def _reference_normalizations(w, degree, rule):
    """c_k by quadrature, one integral per degree."""
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
def test_normalizations_equal_per_degree_loop(degree):
    # the closed-form c_k against quadrature on the basis's own rule
    for alpha in (0.5, 1.0, 2.0):
        w = gaussian_weight(alpha)
        basis = build_basis(w, degree)
        ref = _reference_normalizations(w, degree, basis.rule)
        assert np.max(np.abs(basis.c - ref) / ref) <= 5e-15


def _exact(v: complex):
    """(re, im, den): integers with v = (re + i im) / den exactly."""
    (a, da), (b, db) = v.real.as_integer_ratio(), v.imag.as_integer_ratio()
    den = max(da, db)               # both are powers of two
    return a * (den // da), b * (den // db), den


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_evaluate_matches_exact_powers(alpha):
    # e_k(z) = z^k / c_k against z^k in exact integer arithmetic
    basis = build_basis(gaussian_weight(alpha), 95)
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


def _reference_evaluate(basis, z):
    """e_k(z): the same fill and running product on a row-major array,
    each column multiplied as a contiguous copy."""
    alpha = basis.weight.alpha
    E = np.empty((z.size, basis.degree + 1), dtype=complex)
    E[:, 0] = np.sqrt(alpha / np.pi)
    np.multiply(z[:, None], np.sqrt(alpha / np.arange(1, basis.degree + 1)),
                out=E[:, 1:])
    for k in range(1, basis.degree + 1):
        E[:, k] = E[:, k].copy() * E[:, k - 1].copy()
    return E


@pytest.mark.parametrize("degree", [20, 95, 160])
def test_evaluate_is_column_major_and_bit_identical(weight, degree):
    # column-major storage changes where e_k lives, not its value
    basis = build_basis(weight, degree)
    E = basis.evaluate(basis.rule.nodes)
    assert E.flags.f_contiguous
    assert np.array_equal(E, _reference_evaluate(basis, basis.rule.nodes))
