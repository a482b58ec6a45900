"""Truncated Hankel operators, singular spectra, and the Berezin layer.

The Gram of the Hankel images is
    G_{jk} = <f e_j, f e_k>_{2phi} - sum_{m<=D'} <f e_j, e_m> conj(<f e_k, e_m>),
with the projection truncated at D' = D + margin.  Singular values are
square roots of its eigenvalues; compactness and essential-norm questions
are read off the tail of the spectrum.  One basis matrix E on the rule
and one projection M = E^H (w f E) serve both projection degrees of the
margin-stability check: the Gram at D' is formed on the first D'+1
columns of E and rows of M, the one at D'+5 on all of them.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .fock import FockBasis, KernelEval, build_basis, \
    default_rule_for_degree, evaluate_projection, lp_norm, \
    normalized_kernel, project
from .lattice import Lattice
from .oscillation import g_functional
from .quadrature import Rule, ball_rule
from .symbols import Symbol

PSD_TOL = 1e-10
# a series counts as convergent when the last quartile of its terms (in
# tail order) carries under TAIL_THRESHOLD of its total
TAIL_THRESHOLD = 1e-3
# the essential-norm plateau must move by at most this share of itself
# across its window
SLOPE_THRESHOLD = 0.05


class NumericalConsistencyError(RuntimeError):
    """PSD violation beyond tolerance in a Gram matrix."""


@dataclass(frozen=True)
class HankelGram:
    basis: FockBasis
    matrix: np.ndarray
    margin: int
    stability_shift: float     # top-10 singular move when margin grows by 5


@dataclass(frozen=True)
class SingularSpectrum:
    values: np.ndarray         # non-increasing, nonnegative
    degree: int
    projection_degree: int
    stability_shift: float = np.nan


@dataclass(frozen=True)
class SchattenGauge:
    """Gauge h; h(0) = 0 and monotonicity are enforced on a grid.

    Midpoint convexity of h(sqrt(.)) is recorded in `sqrt_convex` rather
    than enforced: the gauges p < 2 are still useful as comparison
    functionals even though they sit outside the theorem's hypothesis.
    """
    h: Callable[[np.ndarray], np.ndarray]
    sqrt_convex: bool = field(init=False, default=True)

    def __post_init__(self):
        t = np.linspace(0.0, 4.0, 41)
        vals = self.h(t)
        if abs(float(self.h(np.asarray(0.0)))) > 1e-12:
            raise ValueError("gauge must satisfy h(0) = 0")
        if np.any(np.diff(vals) < -1e-12):
            raise ValueError("gauge must be increasing")
        g = self.h(np.sqrt(t))
        mid = self.h(np.sqrt((t[:-2] + t[2:]) / 2.0))
        convex = not np.any(mid > (g[:-2] + g[2:]) / 2.0 + 1e-10)
        object.__setattr__(self, "sqrt_convex", bool(convex))


def power_gauge(p: float) -> SchattenGauge:
    if p <= 0:
        raise ValueError("power gauge needs p > 0")
    return SchattenGauge(h=lambda t: np.asarray(t, dtype=float) ** p)


def _coefficients(E: np.ndarray, wFE: np.ndarray) -> np.ndarray:
    """M = E^H (w f e_j): the projections of every f e_j, j <= D, onto the
    columns of E, with the weights w already applied to wFE."""
    return np.conj(E).T @ wFE


def _gram_once(FE: np.ndarray, wE: np.ndarray, E: np.ndarray,
               M: np.ndarray) -> np.ndarray:
    """Gram of (I - P) f e_j, j <= D, with P onto the columns of E.

    FE holds f e_j on the nodes, wE the rule weights times the decay and
    M = _coefficients(E, wE FE).
    """
    # residual form of (I - P): Gram of pointwise residuals is PSD by
    # construction and avoids the cancellation of <fe_j, fe_k> - M M^H
    # R and conj(R) reuse their inputs' buffers: at high degree this
    # Gram sets the peak memory of a run
    EM = E @ M
    R = np.subtract(FE, EM, out=EM)
    wR = wE[:, None] * R
    G = np.conj(R, out=R).T @ wR
    return 0.5 * (G + np.conj(G).T)


def sampled_hankel_gram(samples: np.ndarray, basis: FockBasis, margin: int,
                        rule: Rule,
                        stability_check: bool = True) -> HankelGram:
    """Hankel Gram of the symbol whose values on `rule.nodes` are `samples`."""
    if not np.all(np.isfinite(samples)):
        raise ValueError("symbol evaluation failed on the plane rule")
    Dp = basis.degree + margin
    big = build_basis(basis.weight, Dp + 5, rule)
    E = big.evaluate(rule.nodes, kmax=Dp + 5 if stability_check else Dp)
    wE = rule.weights * np.exp(-2.0 * big.weight.phi(rule.nodes))
    FE = samples[:, None] * E[:, :basis.degree + 1]
    # the projection at D' is the leading D'+1 rows of the one at D'+5
    M = _coefficients(E, wE[:, None] * FE)
    G = _gram_once(FE, wE, E[:, :Dp + 1], M[:Dp + 1])
    shift = np.nan
    if stability_check:
        G2 = _gram_once(FE, wE, E, M)
        s1 = _singular_from_gram(G)
        s2 = _singular_from_gram(G2)
        shift = float(np.max(np.abs(s1[:10] - s2[:10])))
    return HankelGram(basis=basis, matrix=G, margin=margin,
                      stability_shift=shift)


def build_hankel_gram(f: Symbol, basis: FockBasis,
                      margin: int = 10) -> HankelGram:
    """Hankel Gram matrix of f with a margin-stability certificate."""
    # sized for the largest Gram integrand (degree ~ 2*(D+margin+5) plus
    # low-order symbol growth)
    rule = default_rule_for_degree(basis.degree + margin + 5,
                                   basis.weight.alpha, margin=8)
    return sampled_hankel_gram(f(rule.nodes), basis, margin, rule)


def _singular_from_gram(G: np.ndarray) -> np.ndarray:
    eigs = np.linalg.eigvalsh(G)
    trace = float(np.trace(np.real(G)))
    if eigs[0] < -PSD_TOL * max(trace, 1.0):
        raise NumericalConsistencyError(
            f"Gram not PSD: min eigenvalue {eigs[0]:.3e} vs trace {trace:.3e}")
    return np.sqrt(np.clip(eigs, 0.0, None))[::-1]


def singular_spectrum(G: HankelGram) -> SingularSpectrum:
    return SingularSpectrum(values=_singular_from_gram(G.matrix),
                            degree=G.basis.degree,
                            projection_degree=G.basis.degree + G.margin,
                            stability_shift=G.stability_shift)


_ZERO_TOTAL = 1e-8


def _tail_convergent(total: float, terms: np.ndarray) -> bool:
    """Convergence flag of a series of nonnegative terms in tail order."""
    k = len(terms)
    tail = float(np.sum(terms[3 * k // 4:]))
    ratio = tail / total if total > 0 else 0.0
    # a numerically-zero total is trivially summable, whatever its tail
    return total <= _ZERO_TOTAL or ratio < TAIL_THRESHOLD


def schatten_sum(values: np.ndarray, gauge: SchattenGauge) -> tuple:
    """(sum of h(s) over the singular values s, tail-convergence flag)."""
    terms = gauge.h(values)
    total = float(np.cumsum(terms)[-1])
    return total, _tail_convergent(total, terms)


def hankel_on_kernel(f: Symbol, z: complex, q: float,
                     K: KernelEval) -> float:
    """||H_f(k_z)||_{q,phi} via projection of f * k_z."""
    rule = K.basis.rule
    kz = normalized_kernel(K, z)
    g = f(rule.nodes) * kz(rule.nodes)
    coeffs = project(K, g, rule)
    resid = g - evaluate_projection(K, coeffs, rule.nodes)
    return lp_norm(resid, q, rule, K.basis.weight)


@dataclass(frozen=True)
class EssentialNormEstimate:
    estimate: float
    slope: float
    window: tuple
    reliable: bool


def essential_norm_tail(S: SingularSpectrum) -> EssentialNormEstimate:
    """Plateau (median) of s_k over the window [D/2, 3D/4]."""
    lo, hi = S.degree // 2, 3 * S.degree // 4 + 1
    if hi - lo < 2 or hi > len(S.values):
        raise ValueError("spectrum too short for the plateau window")
    seg = S.values[lo:hi]
    est = float(np.median(seg))
    slope = float(np.polyfit(np.arange(lo, hi), seg, 1)[0])
    reliable = abs(slope) * (hi - lo) <= max(SLOPE_THRESHOLD * est,
                                             SLOPE_THRESHOLD * 1e-2)
    return EssentialNormEstimate(estimate=est, slope=slope,
                                 window=(lo, hi), reliable=reliable)


def _density_on(density, nodes: np.ndarray) -> np.ndarray:
    """The density at the nodes, checked nonnegative."""
    if density is None:
        return np.ones(nodes.shape)
    dens = np.asarray(density(nodes), dtype=float)
    if np.any(dens < 0):
        raise ValueError("measure density must be nonnegative")
    return dens


def berezin_transform(density, K: KernelEval, z: complex) -> float:
    """mu~(z) = integral |k_z|^2 e^{-2phi} dmu, dmu = density dA (dA for
    density None)."""
    phi = K.basis.weight.phi
    kz = normalized_kernel(K, z)
    rule = K.basis.rule
    integrand = np.abs(kz(rule.nodes)) ** 2 * np.exp(
        -2.0 * phi(rule.nodes)) * _density_on(density, rule.nodes)
    return float(np.real(rule.integrate(integrand)))


@lru_cache(maxsize=8)
def _origin_ball(r: float) -> Rule:
    """ball_rule(0, r); its nodes shifted by z are those of ball_rule(z, r),
    with the same weights."""
    return ball_rule(0, r)


def measure_average(density, z: complex, r: float) -> float:
    """mu^_r(z) = mu(B(z, r)) / |B(z, r)|, dmu = density dA (dA for
    density None)."""
    if r <= 0:
        raise ValueError("r must be positive")
    base = _origin_ball(r)
    dens = _density_on(density, base.nodes + z)
    return float(np.real(base.integrate(dens)) / (np.pi * r ** 2))


@dataclass(frozen=True)
class SchattenVerdict:
    c: float
    integral_value: float
    integral_convergent: bool
    sum_value: float
    sum_convergent: bool

    @property
    def agree(self) -> bool:
        return self.integral_convergent == self.sum_convergent


def schatten_h_criterion(f: Symbol, gauges: Sequence[SchattenGauge],
                         r: float, d: int, L: Lattice, S: SingularSpectrum,
                         c_grid=(0.5, 1.0, 2.0)
                         ) -> list[list[SchattenVerdict]]:
    """Compare finiteness proxies of the G-integral and the s_k-sum.

    The integral side is a lattice Riemann sum of h(c G_{2,r}(f)); its
    convergence flag looks at the contribution of the outer radial
    quartile of lattice cells, mirroring the tail flag of the sum side.
    G_{2,r}(f) is computed once and shared by every gauge; the result
    holds one verdict list (over `c_grid`) per gauge, in order.
    """
    G = g_functional(f, L.points, r, 2.0, d)
    order = np.argsort(np.abs(L.points))
    out = []
    for gauge in gauges:
        verdicts = []
        for c in c_grid:
            terms = np.asarray(gauge.h(c * G)) * L.cell_area
            total = float(np.sum(terms))
            sum_total, sum_conv = schatten_sum(c * S.values, gauge)
            verdicts.append(SchattenVerdict(
                c=float(c), integral_value=total,
                integral_convergent=_tail_convergent(total, terms[order]),
                sum_value=sum_total, sum_convergent=sum_conv))
        out.append(verdicts)
    return out
