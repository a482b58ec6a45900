import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from focklab.quadrature import ball_rule, gaussian_plane_rule


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
