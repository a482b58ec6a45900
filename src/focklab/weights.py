"""Admissible weights: C^2 functions on C with uniform real-Hessian bounds.

All evaluators are vectorized over complex numpy arrays.  The complex
gradient follows the holomorphic convention d/dz = (d/dx - i d/dy)/2, so
for the Gaussian weight (alpha/2)|z|^2 the gradient is (alpha/2)*conj(z).

A `WeightModel` is immutable (its `params` are a read-only mapping) and
hashes by identity, like a quadrature `Rule`.  The built-in weights are
memoised per parameter (`gaussian_weight` by alpha,
`perturbed_gaussian_weight` by eps), so a process shares one model per
value, and a dbar certificate keyed by it is computed once.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np


class WeightEvaluationError(RuntimeError):
    """Non-finite weight data at a probe point."""


@dataclass(frozen=True, eq=False)
class WeightModel:
    """Weight phi with declared ellipticity bounds 0 < m <= M."""

    phi: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]       # complex gradient
    hessian: Callable[[complex], np.ndarray]       # real 2x2 at a point
    m: float
    M: float
    kind: str = "custom"
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not (0 < self.m <= self.M):
            raise ValueError("bounds must satisfy 0 < m <= M")
        object.__setattr__(self, "params",
                           MappingProxyType(dict(self.params)))

    @property
    def alpha(self) -> float:
        """Gaussian decay rate for quadrature sizing (uses the lower bound)."""
        if self.kind == "gaussian":
            return self.params["alpha"]
        return self.m


@dataclass(frozen=True)
class CertificationReport:
    passed: bool
    eig_min: float
    eig_max: float
    worst_violation: float


def gaussian_weight(alpha: float = 1.0) -> WeightModel:
    """phi(z) = (alpha/2)|z|^2 with m = M = alpha; one model per alpha."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return _gaussian_weight(float(alpha))


@lru_cache(maxsize=32)
def _gaussian_weight(alpha: float) -> WeightModel:
    def phi(z):
        return 0.5 * alpha * np.abs(z) ** 2

    def grad(z):
        return 0.5 * alpha * np.conj(z)

    def hessian(z):
        return alpha * np.eye(2)

    return WeightModel(phi, grad, hessian, m=alpha, M=alpha,
                       kind="gaussian", params={"alpha": alpha})


def perturbed_gaussian_weight(eps: float = 0.1) -> WeightModel:
    """phi(z) = |z|^2/2 + eps*sin(Re z); Hessian diag(1 - eps*sin(x), 1).
    One model per eps."""
    if not 0 <= eps < 1:
        raise ValueError("eps must lie in [0, 1)")
    return _perturbed_gaussian_weight(float(eps))


@lru_cache(maxsize=32)
def _perturbed_gaussian_weight(eps: float) -> WeightModel:
    def phi(z):
        return 0.5 * np.abs(z) ** 2 + eps * np.sin(np.real(z))

    def grad(z):
        return 0.5 * np.conj(z) + 0.5 * eps * np.cos(np.real(z))

    def hessian(z):
        x = np.real(z)
        return np.array([[1.0 - eps * np.sin(x), 0.0], [0.0, 1.0]])

    return WeightModel(phi, grad, hessian, m=1.0 - eps, M=1.0 + eps,
                       kind="perturbed-gaussian", params={"eps": eps})


def certify_weight(w: WeightModel, probes, tol: float) -> CertificationReport:
    """Check the Hessian spectrum lies in [m - tol, M + tol] at every probe."""
    probes = np.atleast_1d(np.asarray(probes, dtype=complex))
    if probes.size == 0:
        raise ValueError("probe set must be non-empty")
    if tol <= 0:
        raise ValueError("tol must be positive")
    lo, hi = np.inf, -np.inf
    worst = 0.0
    for z in probes:
        val = w.phi(np.asarray(z))
        H = np.asarray(w.hessian(complex(z)), dtype=float)
        if not (np.all(np.isfinite(H)) and np.isfinite(val)):
            raise WeightEvaluationError(f"non-finite weight data at z={z}")
        eigs = np.linalg.eigvalsh(0.5 * (H + H.T))
        lo = min(lo, eigs[0])
        hi = max(hi, eigs[-1])
        worst = max(worst, w.m - eigs[0], eigs[-1] - w.M)
    return CertificationReport(passed=worst <= tol, eig_min=float(lo),
                               eig_max=float(hi),
                               worst_violation=float(worst))
