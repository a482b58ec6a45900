import dataclasses

import numpy as np
import pytest

from checks import finite_difference_check
from focklab.weights import (certify_weight, gaussian_weight,
                             perturbed_gaussian_weight)


def test_gaussian_alpha_property():
    w = gaussian_weight(2.5)
    assert w.alpha == 2.5
    assert w.m == w.M == 2.5


def test_gaussian_phi_and_grad():
    w = gaussian_weight(1.0)
    z = 1.0 + 2.0j
    assert abs(w.phi(z) - 2.5) < 1e-15
    assert abs(w.grad(z) - 0.5 * np.conj(z)) < 1e-15


def test_certification_passes(probes):
    rep = certify_weight(gaussian_weight(1.0), probes, tol=1e-8)
    assert rep.passed
    assert abs(rep.eig_min - 1.0) < 1e-10
    assert abs(rep.eig_max - 1.0) < 1e-10


def test_perturbed_certification(probes):
    w = perturbed_gaussian_weight(0.1)
    rep = certify_weight(w, probes, tol=1e-6)
    assert rep.passed
    # Hessian eigenvalues are {1 - 0.1 sin(x), 1}
    assert rep.eig_min >= 0.9 - 1e-12
    assert rep.eig_max <= 1.1 + 1e-12


def test_finite_difference_consistency():
    for w in (gaussian_weight(1.0), perturbed_gaussian_weight(0.1)):
        for z in (0.3 + 0.7j, -1.2 + 0.4j):
            assert finite_difference_check(w, z) < 1e-6


def test_bad_alpha_rejected():
    with pytest.raises(ValueError):
        gaussian_weight(-1.0)


def test_weights_memoised_per_parameter():
    # one model per value, whichever way the value is passed
    w = gaussian_weight(1.0)
    assert gaussian_weight(1.0) is w
    assert gaussian_weight() is w and gaussian_weight(alpha=1) is w
    assert gaussian_weight(2.0) is not w
    assert perturbed_gaussian_weight(0.1) is perturbed_gaussian_weight()
    assert perturbed_gaussian_weight(0.2) is not perturbed_gaussian_weight()


def test_weight_compares_by_identity_and_params_are_read_only():
    w = gaussian_weight(1.0)
    with pytest.raises(TypeError):
        w.params["alpha"] = 2.0
    assert w.params == {"alpha": 1.0}
    copy = dataclasses.replace(w)
    assert copy != w and copy.params == w.params
    assert len({w, gaussian_weight(1.0), copy}) == 2
