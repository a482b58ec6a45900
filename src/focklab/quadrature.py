"""Quadrature rules over the complex plane and over Euclidean disks.

All integrals are taken against planar Lebesgue measure dA on C ~ R^2.
A `Rule` is a set of nodes with weights.  Plane rules target integrands
with Gaussian decay e^{-alpha|z|^2}; ball rules are polar product rules
on B(center, r), whose weights do not depend on the center.
"""

from dataclasses import dataclass

import numpy as np

# exp(2 * hmax^2) must stay below DBL_MAX; hermgauss nodes grow like
# sqrt(2*order), so this caps the per-axis order.
_MAX_HERMITE_NODE = 18.5


class CapabilityError(RuntimeError):
    """Requested computation exceeds what the rule can do stably."""


@dataclass(frozen=True)
class Rule:
    """Nodes/weights approximating the integral of g dA."""

    nodes: np.ndarray          # complex, shape (N,)
    weights: np.ndarray        # positive reals, shape (N,)

    def integrate(self, values: np.ndarray) -> complex:
        """Sum values (sampled at self.nodes) against the weights."""
        values = np.asarray(values)
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite integrand samples")
        return np.sum(self.weights * values)


def gaussian_plane_rule(order: int, scale: float = 1.0) -> Rule:
    """Tensor Gauss-Hermite rule adapted to the weight e^{-scale*|z|^2}.

    Exact (to roundoff) for z^a conj(z)^b e^{-scale|z|^2} with
    a + b <= 2*order - 1.  Weights absorb e^{+scale|x|^2} so the rule
    integrates plain dA integrals of decaying integrands.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if scale <= 0:
        raise ValueError("scale must be positive")
    u, wu = np.polynomial.hermite.hermgauss(order)
    if u[-1] > _MAX_HERMITE_NODE:
        raise CapabilityError(
            f"plane rule order {order} too large for stable weights")
    x = u / np.sqrt(scale)
    # 1-d weights for integral of g(x) dx with g ~ e^{-scale x^2}
    w1 = wu * np.exp(u ** 2) / np.sqrt(scale)
    nodes = (x[:, None] + 1j * x[None, :]).ravel()
    weights = (w1[:, None] * w1[None, :]).ravel()
    return Rule(nodes=nodes, weights=weights)


def ball_rule(center: complex, r: float, order: int = 40) -> Rule:
    """Gauss-Legendre (radial) x trapezoidal (angular) rule on B(center,r).

    Exact for polynomials in (Re w, Im w) of total degree <= order.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    n_rad = max(order // 2 + 2, 4)
    n_ang = 2 * order + 3
    t, wt = np.polynomial.legendre.leggauss(n_rad)
    rho = 0.5 * r * (t + 1.0)
    wrho = 0.5 * r * wt * rho          # polar Jacobian
    theta = 2.0 * np.pi * np.arange(n_ang) / n_ang
    wtheta = 2.0 * np.pi / n_ang
    nodes = center + rho[:, None] * np.exp(1j * theta)[None, :]
    weights = (wrho[:, None] * np.full(n_ang, wtheta)[None, :])
    return Rule(nodes=nodes.ravel(), weights=weights.ravel())
