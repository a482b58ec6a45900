import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from focklab.quadrature import MAX_PLANE_ORDER, CapabilityError, ball_rule, \
    gaussian_plane_rule, polar_rule, quarter_turns


def test_plane_rule_gaussian_mass():
    # integral of e^{-|z|^2} dA = pi
    rule = gaussian_plane_rule(20, scale=1.0)
    val = rule.integrate(np.exp(-np.abs(rule.nodes) ** 2))
    assert abs(val - np.pi) < 1e-12


def test_plane_rule_polynomial_moments():
    rule = gaussian_plane_rule(30, scale=1.0)
    # int |z|^{2k} e^{-|z|^2} dA = pi * k!
    for k in range(8):
        val = rule.integrate(np.abs(rule.nodes) ** (2 * k)
                             * np.exp(-np.abs(rule.nodes) ** 2))
        exact = np.pi * math.factorial(k)
        assert abs(val - exact) / exact < 1e-12


@given(scale=st.floats(0.5, 4.0))
@settings(max_examples=20, deadline=None)
def test_plane_rule_scale_covariance(scale):
    rule = gaussian_plane_rule(15, scale=scale)
    val = rule.integrate(np.exp(-scale * np.abs(rule.nodes) ** 2))
    assert abs(val - np.pi / scale) < 1e-10


def test_ball_rule_area():
    for r in (0.5, 1.0, 2.0):
        rule = ball_rule(0.3 + 0.2j, r)
        assert abs(np.sum(rule.weights) - np.pi * r * r) < 1e-12


def test_ball_rule_shift_covariance():
    # the rule on B(c, r) is the rule on B(0, r) translated by c
    base = ball_rule(0.0, 1.0)
    moved = ball_rule(2.0 - 1.0j, 1.0)
    assert np.array_equal(moved.weights, base.weights)
    assert np.array_equal(moved.nodes, base.nodes + (2.0 - 1.0j))
    a = base.integrate(np.abs(base.nodes) ** 2)
    b = moved.integrate(np.abs(moved.nodes - (2.0 - 1.0j)) ** 2)
    assert abs(a - b) < 1e-12


def test_ball_rule_holomorphic_mean_value():
    # mean of a holomorphic function over a disk is its center value
    rule = ball_rule(0.5 + 0.5j, 1.0)
    val = rule.integrate(rule.nodes ** 3) / np.pi
    assert abs(val - (0.5 + 0.5j) ** 3) < 1e-12


def test_plane_rule_rejects_bad_order():
    with pytest.raises(ValueError):
        gaussian_plane_rule(0)


def test_plane_rule_order_cap():
    # the cap is the last order whose largest node keeps exp(2 u^2) finite
    hermgauss = np.polynomial.hermite.hermgauss
    assert hermgauss(MAX_PLANE_ORDER)[0][-1] <= 18.5 \
        < hermgauss(MAX_PLANE_ORDER + 1)[0][-1]
    assert np.all(np.isfinite(gaussian_plane_rule(MAX_PLANE_ORDER).weights))
    with pytest.raises(CapabilityError):
        gaussian_plane_rule(MAX_PLANE_ORDER + 1)


def test_plane_rule_memoised_read_only():
    rule = gaussian_plane_rule(12, scale=2.0)
    assert gaussian_plane_rule(12, scale=2.0) is rule
    for arr in (rule.nodes, rule.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0
        with pytest.raises(ValueError):
            arr *= 2.0


def test_polar_rule_memoised_read_only():
    rule = polar_rule(0.0, 3.0, 60, 96)
    assert polar_rule(0.0, 3.0, 60, 96) is rule
    assert ball_rule(0.0, 0.5) is ball_rule(0.0, 0.5)
    assert polar_rule(0.0, 3.0, 60, 90) is not rule
    for arr in (rule.nodes, rule.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("inner,outer", [(0.0, 1.0), (2.0, 3.0),
                                         (4.0, 5.0), (0.5, 3.5)])
def test_annulus_rule_integrates_radial_monomials(inner, outer):
    # n_radial Gauss-Legendre nodes on [inner, outer] integrate
    # rho^k rho d rho exactly for k + 1 <= 2 n_radial - 1
    n = 6
    rule = polar_rule(0.0, outer, n, 8, inner)
    r = np.abs(rule.nodes)
    assert np.all((inner < r) & (r < outer))
    for k in range(2 * n - 1):
        exact = 2 * np.pi * (outer ** (k + 2) - inner ** (k + 2)) / (k + 2)
        assert abs(np.sum(rule.weights * r ** k) - exact) <= 1e-13 * exact


def test_disc_rule_is_the_annulus_rule_at_inner_radius_zero():
    # the disc rule of Gauss-Legendre on [0, r], as it was formed before
    # the inner radius, bit for bit, and so every ball rule
    for center, r, n_radial, n_angular in ((0.0, 3.0, 60, 96),
                                           (0.3 - 0.2j, 0.5, 8, 16),
                                           (1.5j, 2.0, 22, 83)):
        t, wt = np.polynomial.legendre.leggauss(n_radial)
        rho = 0.5 * r * (t + 1.0)
        wrho = 0.5 * r * wt * rho
        theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
        nodes = center + rho[:, None] * np.exp(1j * theta)[None, :]
        weights = wrho[:, None] * np.full(n_angular,
                                          2.0 * np.pi / n_angular)[None, :]
        for rule in (polar_rule(center, r, n_radial, n_angular),
                     polar_rule(center, r, n_radial, n_angular, 0.0)):
            assert np.array_equal(rule.nodes, nodes.ravel())
            assert np.array_equal(rule.weights, weights.ravel())
    assert np.array_equal(ball_rule(0.3, 0.5).nodes,
                          polar_rule(0.3, 0.5, 22, 83, 0.0).nodes)


@pytest.mark.parametrize("inner,outer", [(-0.5, 1.0), (1.0, 1.0),
                                         (2.0, 1.0), (0.0, 0.0)])
def test_polar_rule_refuses_bad_radii(inner, outer):
    with pytest.raises(ValueError, match="radii"):
        polar_rule(0.0, outer, 4, 8, inner)


def test_quarter_turns_of_closed_and_open_node_sets():
    z = np.array([0.5 + 0.25j, 2.0])
    closed = np.concatenate([z, 1j * z, -z, -1j * z, [0.0]])
    rotations = quarter_turns(closed)
    assert rotations.shape == (4, 3) and not rotations.flags.writeable
    for r in range(4):
        assert np.array_equal(closed[rotations[r, :2]], 1j ** r * z)
    assert np.all(rotations[:, 2] == 8)
    # a missing rotation, a repeated node, or a shifted copy is not closed
    for nodes in (closed[1:], np.append(closed, z[0]), closed + 0.5,
                  np.array([0.5]), np.array([0.0, 0.0])):
        assert quarter_turns(nodes) is None
