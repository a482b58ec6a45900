"""Reproducing-kernel engine for the weighted Fock space F^2_phi (n = 1).

Monomials are orthogonal under any radial weight, so the truncated
orthonormal basis is e_k(z) = z^k / c_k with c_k^2 = integral of
|z|^{2k} e^{-2 phi} dA.  For the Gaussian weight phi = (alpha/2)|z|^2 the
kernel has the closed form K(z, w) = (alpha/pi) exp(alpha z conj(w)),
fixed by the reproducing property P e_k = e_k with dv = dA.

z^k is formed as a running product along the degree axis (one complex
multiply per entry), and the D+1 integrals c_k^2 from one array of the
running products |z|^{2k} with one row-wise sum.  A basis evaluates e_k on its
own rule's nodes at most once: the matrix is cached on first use, and
`project`/`evaluate_projection` on that rule read it (or a column slice
of it) instead of building it again.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .quadrature import CapabilityError, Rule, gaussian_plane_rule
from .weights import WeightModel


R0_CANDIDATES = (0.25, 0.5, 1.0)   # near-diagonal radii tried for C2


class DegreeTooLowError(RuntimeError):
    """Kernel truncation artifact (e.g. K(z,z) <= 0)."""


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
        E = np.empty((z.size, kmax + 1), dtype=complex)
        E[:, :1] = 1.0
        E[:, 1:] = z[:, None]
        np.cumprod(E, axis=1, out=E)
        return np.divide(E, self.c[:kmax + 1], out=E)

    @cached_property
    def rule_matrix(self) -> np.ndarray:
        """e_k on `rule.nodes`, shape (len(nodes), degree+1); built lazily."""
        return self.evaluate(self.rule.nodes)

    def _matrix(self, z, kmax: int) -> np.ndarray:
        """e_k at the points of z (raveled) for k <= kmax.

        Read from `rule_matrix` when z is the rule's own node array.
        """
        if z is self.rule.nodes and kmax <= self.degree:
            return self.rule_matrix[:, :kmax + 1]
        return self.evaluate(np.ravel(z), kmax=kmax)


@dataclass(frozen=True)
class KernelEval:
    basis: FockBasis
    mode: str = "closed-form-gaussian"   # or "basis-sum"

    def __post_init__(self):
        if self.mode not in ("closed-form-gaussian", "basis-sum"):
            raise ValueError(f"unknown kernel mode {self.mode!r}")
        if self.mode == "closed-form-gaussian" and self.basis.weight.kind != "gaussian":
            raise CapabilityError("closed form requires a Gaussian weight")


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
    """Quadrature-normalized monomial basis; weight must be radial."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if not is_radial(w):
        raise CapabilityError(
            "basis construction supports radial weights only")
    if rule is None:
        rule = default_rule_for_degree(degree, w.alpha)
    decay = np.exp(-2.0 * w.phi(rule.nodes))
    # row k holds |z|^{2k} on the nodes, as a running product; one
    # contiguous row multiply per degree (np.cumprod along axis 0 strides
    # across rows and measured twice as slow)
    amp2 = np.abs(rule.nodes) ** 2
    pw = np.empty((degree + 1, amp2.size))
    pw[0] = 1.0
    for k in range(1, degree + 1):
        np.multiply(pw[k - 1], amp2, out=pw[k])
    pw *= decay
    if not np.all(np.isfinite(pw)):
        raise ValueError("non-finite integrand samples")
    pw *= rule.weights
    # row-wise pairwise sums, as `rule.integrate` takes them one row at a time
    c2 = np.sum(pw, axis=1)
    if np.any(c2 <= 0) or not np.all(np.isfinite(c2)):
        raise CapabilityError(
            "normalization constants underflow; lower the degree")
    return FockBasis(weight=w, degree=degree, c=np.sqrt(c2), rule=rule)


def is_radial(w: WeightModel) -> bool:
    """True if phi is constant on three sample circles about 0."""
    if w.kind == "gaussian":
        return True
    radii = np.array([0.3, 1.1, 2.4])
    angles = np.exp(1j * np.linspace(0.0, 2 * np.pi, 7)[:-1])
    vals = w.phi(radii[:, None] * angles[None, :])
    return bool(np.max(np.abs(vals - vals[:, :1])) < 1e-12)


def kernel(K: KernelEval, z, w) -> np.ndarray:
    """Bergman kernel K(z, w); broadcasts over arrays."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if K.mode == "closed-form-gaussian":
        alpha = K.basis.weight.alpha
        return (alpha / np.pi) * np.exp(alpha * z * np.conj(w))
    zf, wf = np.broadcast_arrays(z, w)
    ez = K.basis.evaluate(zf.ravel())
    ew = K.basis.evaluate(wf.ravel())
    return np.sum(ez * np.conj(ew), axis=1).reshape(zf.shape)


def normalized_kernel(K: KernelEval, z: complex):
    """k_z = K(., z) / sqrt(K(z, z)) as a vectorized evaluator."""
    kzz = np.real(kernel(K, z, z))
    if kzz <= 0:
        raise DegreeTooLowError(f"K(z,z) <= 0 at z={z}: truncation artifact")
    root = np.sqrt(kzz)
    return lambda w: kernel(K, np.asarray(w, dtype=complex), z) / root


def lp_norm(vals, p: float, rule: Rule, w: WeightModel) -> float:
    """Weighted norm ( integral |f e^{-phi}|^p dA )^{1/p} from the
    samples vals of f on the rule's nodes."""
    if p < 1:
        raise ValueError("p must be >= 1")
    vals = np.asarray(vals)
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite integrand samples")
    integrand = np.abs(vals * np.exp(-w.phi(rule.nodes))) ** p
    return float(np.real(rule.integrate(integrand)) ** (1.0 / p))


def project(K: KernelEval, vals, rule: Rule | None = None,
            degree: int | None = None) -> np.ndarray:
    """Coefficients <g, e_k> of the Bergman projection in the basis, from
    the samples vals of g on the rule's nodes."""
    basis = K.basis
    rule = basis.rule if rule is None else rule
    degree = basis.degree if degree is None else degree
    decay = np.exp(-2.0 * basis.weight.phi(rule.nodes))
    E = basis._matrix(rule.nodes, degree)
    return np.conj(E).T @ (rule.weights * decay * np.asarray(vals))


def evaluate_projection(K: KernelEval, coeffs: np.ndarray, z) -> np.ndarray:
    """Evaluate sum coeffs_k e_k at points z."""
    E = K.basis._matrix(z, len(coeffs) - 1)
    return (E @ coeffs).reshape(np.shape(z))


def fit_kernel_estimates(K: KernelEval, probes) -> KernelEstimates:
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
    phi = K.basis.weight.phi
    logterm = np.log(np.abs(kernel(K, z, w))) - phi(z) - phi(w)
    dist = np.abs(z - w)
    mask = dist > 1e-9
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
