"""Reproducing-kernel engine for the Gaussian Fock space F^2_phi (n = 1).

focklab builds one weight, phi = (alpha/2)|z|^2, whose orthonormal basis
and kernel are known in closed form (Zhu, Analysis on Fock Spaces, GTM
263, 2012): e_k(z) = z^k / c_k with c_k^2 = pi k! / alpha^{k+1}, and
K(z, w) = (alpha/pi) exp(alpha z conj(w)), fixed by the reproducing
property P e_k = e_k with dv = dA.

c_k is the running product c_0 = sqrt(pi/alpha), c_k = c_{k-1}
sqrt(k/alpha), within 7e-16 relative of the exact value up to k = 170,
and e_k the recursion e_0 = sqrt(alpha/pi), e_k = e_{k-1} z sqrt(alpha/k):
one fill of a column-major array, then each column multiplied in place
by the one before it, so each e_k, and each block of consecutive degrees,
is contiguous on the points.  Neither overflows on any plane rule up to
MAX_PLANE_ORDER, so the degree is capped by the rules alone: a Hankel
Gram at degree D integrates on order D + margin + 13, hence D <= 160 at
margin 10.  Any other weight is refused.
"""

from dataclasses import dataclass

import numpy as np

from .quadrature import CapabilityError, Rule, gaussian_plane_rule
from .weights import WeightModel


R0_CANDIDATES = (0.25, 0.5, 1.0)   # near-diagonal radii tried for C2


@dataclass(frozen=True)
class FockBasis:
    weight: WeightModel
    degree: int
    c: np.ndarray              # normalization constants, shape (degree+1,)
    rule: Rule

    def evaluate(self, z, kmax: int | None = None) -> np.ndarray:
        """Matrix e_k(z): shape (len(z), kmax+1)."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        kmax = self.degree if kmax is None else kmax
        if kmax > self.degree:
            raise ValueError(f"kmax {kmax} exceeds the basis degree "
                             f"{self.degree}")
        alpha = self.weight.alpha
        E = np.empty((kmax + 1, z.size), dtype=complex).T
        E[:, 0] = np.sqrt(alpha / np.pi)
        np.multiply(z[:, None], np.sqrt(alpha / np.arange(1, kmax + 1)),
                    out=E[:, 1:])
        # the running product, one contiguous column at a time: cumprod
        # along the column-major degree axis strides across the points
        for k in range(1, kmax + 1):
            E[:, k] *= E[:, k - 1]
        return E


@dataclass(frozen=True)
class KernelEstimates:
    theta: float
    C1: float
    C2: float
    r0: float
    fit_residual: float
    bound_holds: bool


def default_rule_for_degree(degree: int, alpha: float,
                            margin: int = 6) -> Rule:
    """Plane rule exact for the Gram integrands of a degree-`degree` basis.

    The reference density is e^{-2 phi} = e^{-alpha |z|^2} for the
    Gaussian weight, hence scale = alpha.
    """
    return gaussian_plane_rule(degree + margin, scale=alpha)


def build_basis(w: WeightModel, degree: int,
                rule: Rule | None = None) -> FockBasis:
    """Closed-form monomial basis of the Gaussian weight."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if w.kind != "gaussian":
        raise CapabilityError(
            f"the Fock basis is built for the Gaussian weight only, "
            f"not {w.kind!r}")
    if rule is None:
        rule = default_rule_for_degree(degree, w.alpha)
    c = np.empty(degree + 1)
    c[0] = np.sqrt(np.pi / w.alpha)
    c[1:] = np.sqrt(np.arange(1, degree + 1) / w.alpha)
    return FockBasis(weight=w, degree=degree, c=np.cumprod(c, out=c),
                     rule=rule)


def kernel(basis: FockBasis, z, w) -> np.ndarray:
    """Bergman kernel K(z, w) in closed form; broadcasts over arrays."""
    alpha = basis.weight.alpha
    return (alpha / np.pi) * np.exp(alpha * np.asarray(z, dtype=complex)
                                    * np.conj(np.asarray(w, dtype=complex)))


def lp_norm(vals, p: float, rule: Rule, w: WeightModel) -> float:
    """Weighted norm ( integral |f e^{-phi}|^p dA )^{1/p} from the
    samples vals of f on the rule's nodes.  A largest |f e^{-phi}|^p that
    overflows, or underflows to 0 while f is not 0, raises ValueError."""
    if p < 1:
        raise ValueError("p must be >= 1")
    vals = np.asarray(vals)
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite integrand samples")
    integrand = np.abs(vals * np.exp(-w.phi(rule.nodes))) ** p
    top = np.max(integrand)
    if not np.isfinite(top) or (top == 0 and np.any(vals)):
        raise ValueError(f"the largest sample's {p:g}-th power is {top:g}")
    return float(np.real(rule.integrate(integrand)) ** (1.0 / p))


def project(basis: FockBasis, vals, rule: Rule | None = None,
            degree: int | None = None) -> np.ndarray:
    """Coefficients <g, e_k> of the Bergman projection in the basis, from
    the samples vals of g on the rule's nodes."""
    rule = basis.rule if rule is None else rule
    degree = basis.degree if degree is None else degree
    decay = np.exp(-2.0 * basis.weight.phi(rule.nodes))
    E = basis.evaluate(rule.nodes, kmax=degree)
    return np.conj(E).T @ (rule.weights * decay * np.asarray(vals))


def evaluate_projection(basis: FockBasis, coeffs: np.ndarray,
                        z) -> np.ndarray:
    """Evaluate sum coeffs_k e_k at points z."""
    E = basis.evaluate(np.ravel(z), kmax=len(coeffs) - 1)
    return (E @ coeffs).reshape(np.shape(z))


def fit_kernel_estimates(basis: FockBasis, probes) -> KernelEstimates:
    """Fit the off-diagonal decay and near-diagonal lower bound constants.

    Least squares of log|K(z,w)| - phi(z) - phi(w) against
    -theta |z-w| + log C1, then C1 lifted so the upper bound holds on the
    probe set; C2 is the worst near-diagonal ratio over |z-w| <= r0, the
    best r0 of R0_CANDIDATES.
    """
    probes = np.asarray(probes, dtype=complex)
    if probes.size == 0:
        raise ValueError("probe set must be non-empty")
    z = probes[:, None]
    w = probes[None, :]
    phi = basis.weight.phi
    logterm = np.log(np.abs(kernel(basis, z, w))) - phi(z) - phi(w)
    dist = np.abs(z - w)
    mask = dist > 1e-9
    if not mask.any():
        raise ValueError("no two probes lie more than 1e-9 apart, so the "
                         "decay rate cannot be fitted")
    A = np.stack([-dist[mask], np.ones(mask.sum())], axis=1)
    sol, *_ = np.linalg.lstsq(A, logterm[mask], rcond=None)
    theta, logC1 = float(sol[0]), float(sol[1])
    resid = float(np.max(np.abs(A @ sol - logterm[mask])))
    # lift C1 until the bound holds everywhere probed
    logC1_bound = float(np.max(logterm + theta * dist))
    C1 = float(np.exp(max(logC1, logC1_bound)))
    best_c2, best_r0 = 0.0, R0_CANDIDATES[0]
    for r0 in R0_CANDIDATES:
        near = dist <= r0
        if near.any():
            c2 = float(np.exp(np.min(logterm[near])))
            if c2 > best_c2:
                best_c2, best_r0 = c2, r0
    holds = bool(np.all(logterm <= np.log(C1) - theta * dist + 1e-9))
    return KernelEstimates(theta=theta, C1=C1, C2=best_c2, r0=best_r0,
                           fit_residual=resid, bound_holds=holds)
