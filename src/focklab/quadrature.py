"""Quadrature rules over the complex plane and over Euclidean disks.

All integrals are taken against planar Lebesgue measure dA on C ~ R^2.
A `Rule` is a set of nodes with weights, both read-only, so one rule can
be shared by every caller; rules compare and hash by identity.  Plane
rules target integrands with Gaussian decay e^{-alpha|z|^2}, are
memoised per (order, scale) and are exactly invariant under z -> iz,
node for node and weight for weight (hermgauss symmetrises its nodes
and weights).  Polar rules are Gauss-Legendre x trapezoid product rules
on B(center, r), or on an annulus about the center (the approximants
transform their Cauchy-Pompeiu form f_1 dbar sigma_t on the annulus
where the cutoff sigma_t ramps), whose weights do not depend on the
center, memoised per (center, r, grid, inner); ball rules are polar
rules sized by a polynomial degree.

The quarter-turn orbit map lives here too: `quarter_turns` finds, for a
node array closed under z -> iz, the index of each rotation i^r z of its
nodes in Q = {Re z > 0, Im z >= 0}, and `_quarter` splits an invariant
rule into its quarter and those rotations.  The Hankel Grams sum over
the quarter of the plane rule.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

# The largest per-axis plane-rule order.  The weights carry exp(u^2) at
# the hermgauss nodes u, and exp(2 u^2) must stay below DBL_MAX, so
# max |u| <= 18.5; max |u| grows like sqrt(2*order) and first passes 18.5
# at order 184.  Checked before hermgauss, whose cost grows like order^3.
MAX_PLANE_ORDER = 183
# The order of every ball rule: exact for polynomials of total degree
# <= BALL_ORDER in (Re w, Im w).
BALL_ORDER = 40


class CapabilityError(RuntimeError):
    """Requested computation exceeds what the rule can do stably."""


@dataclass(frozen=True, eq=False)
class Rule:
    """Nodes/weights approximating the integral of g dA."""

    nodes: np.ndarray          # complex, shape (N,)
    weights: np.ndarray        # positive reals, shape (N,)

    def __post_init__(self):
        for name in ("nodes", "weights"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def integrate(self, values: np.ndarray) -> complex:
        """Sum values (sampled at self.nodes) against the weights."""
        values = np.asarray(values)
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite integrand samples")
        return np.sum(self.weights * values)


@lru_cache(maxsize=32)
def gaussian_plane_rule(order: int, scale: float = 1.0) -> Rule:
    """Tensor Gauss-Hermite rule adapted to the weight e^{-scale*|z|^2}.

    Exact (to roundoff) for z^a conj(z)^b e^{-scale|z|^2} with
    a + b <= 2*order - 1.  Weights absorb e^{+scale|x|^2} so the rule
    integrates plain dA integrals of decaying integrands.  Memoised: calls
    with equal arguments return the same rule.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if scale <= 0:
        raise ValueError("scale must be positive")
    if order > MAX_PLANE_ORDER:
        raise CapabilityError(
            f"plane rule order {order} too large for stable weights "
            f"(cap {MAX_PLANE_ORDER})")
    u, wu = np.polynomial.hermite.hermgauss(order)
    x = u / np.sqrt(scale)
    # 1-d weights for integral of g(x) dx with g ~ e^{-scale x^2}
    w1 = wu * np.exp(u ** 2) / np.sqrt(scale)
    nodes = (x[:, None] + 1j * x[None, :]).ravel()
    weights = (w1[:, None] * w1[None, :]).ravel()
    return Rule(nodes=nodes, weights=weights)


@lru_cache(maxsize=32)
def polar_rule(center: complex, r: float, n_radial: int,
               n_angular: int, inner: float = 0.0) -> Rule:
    """Gauss-Legendre (radial) x trapezoidal (angular) rule on the annulus
    inner <= |z - center| <= r, the disc B(center, r) at inner = 0.

    The radial rule is Gauss-Legendre on [inner, r], so its nodes lie
    strictly inside the annulus; at inner = 0 the rule is the disc rule
    bit for bit.  The weights carry the polar Jacobian rho and do not
    depend on the center.  Node (k, l), at index k * n_angular + l, is
    rho_k e^{i theta_l} with theta_l = 2 pi l / n_angular, and every node
    of ring k has the same weight.  Memoised: calls with equal arguments
    return the same rule.
    """
    if not 0 <= inner < r:
        raise ValueError("radii must satisfy 0 <= inner < r")
    t, wt = np.polynomial.legendre.leggauss(n_radial)
    rho = inner + 0.5 * (r - inner) * (t + 1.0)
    wrho = 0.5 * (r - inner) * wt * rho          # polar Jacobian
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    wtheta = 2.0 * np.pi / n_angular
    nodes = center + rho[:, None] * np.exp(1j * theta)[None, :]
    weights = (wrho[:, None] * np.full(n_angular, wtheta)[None, :])
    return Rule(nodes=nodes.ravel(), weights=weights.ravel())


def ball_rule(center: complex, r: float) -> Rule:
    """Polar rule on B(center, r), exact for polynomials in (Re w, Im w)
    of total degree <= BALL_ORDER."""
    return polar_rule(center, r, BALL_ORDER // 2 + 2, 2 * BALL_ORDER + 3)


def quarter_turns(nodes: np.ndarray) -> Optional[np.ndarray]:
    """The quarter-turn orbit map of a node array closed under z -> iz:
    (4, n_Q) holds the index in nodes of i^r z for each node z in
    Q = {Re z > 0, Im z >= 0}, r = 0..3, with the origin, if a node, last
    and its own index in every row, so the rows together take every node
    once and the origin four times.  None when some i^r z is not a node
    or a node repeats."""
    nodes = np.asarray(nodes)
    inside = np.flatnonzero((nodes.real > 0) & (nodes.imag >= 0))
    origin = np.flatnonzero(nodes == 0)
    if len(nodes) != 4 * len(inside) + len(origin):
        return None
    # complex arrays sort by real part, then imaginary part
    order = np.argsort(nodes)
    ranked = nodes[order]
    if np.any(ranked[1:] == ranked[:-1]):
        return None
    z = nodes[inside]
    # i^r z exactly: a rotation by i only swaps and negates parts
    turns = np.stack([z, -z.imag + 1j * z.real, -z, z.imag - 1j * z.real])
    at = np.minimum(np.searchsorted(ranked, turns), len(nodes) - 1)
    if not np.all(ranked[at] == turns):
        return None
    rotations = np.concatenate([order[at], np.tile(origin, (4, 1))], axis=1)
    rotations.flags.writeable = False
    return rotations


@lru_cache(maxsize=32)
def _quarter(rule: Rule) -> tuple:
    """(quarter, rotations) of a rule invariant under z -> iz: rotations
    is quarter_turns(rule.nodes), and quarter the Rule of its first row's
    nodes with their weights, the origin's, if a node, cut to a quarter.
    Memoised per rule (rules hash by identity); a rule that is not
    invariant, node for node and weight for weight, is refused."""
    rotations = quarter_turns(rule.nodes)
    weights = rule.weights
    if rotations is None or np.any(weights[rotations]
                                   != weights[rotations[0]]):
        raise ValueError("the rule is not invariant under z -> iz")
    nodes = rule.nodes[rotations[0]]
    quarter = Rule(nodes=nodes,
                   weights=np.where(nodes == 0, 0.25, 1.0)
                   * weights[rotations[0]])
    return quarter, rotations
