"""Truncated Hankel operators, singular spectra, and the Berezin layer.

The Gram of the Hankel images is
    G_{jk} = <f e_j, f e_k>_{2phi} - sum_{m<=D'} <f e_j, e_m> conj(<f e_k, e_m>),
with the projection truncated at D' = D + margin.  Singular values are
square roots of its eigenvalues; compactness and essential-norm questions
are read off the tail of the spectrum.  A HankelGram is the one result
type: the matrix with its singular values and its two certificates,
which the essential-norm tail, the Schatten criterion and the approximant
gap all read.  One evaluation of the basis matrix E and one projection
M = E^H (w f E) serve both projection degrees of the margin-stability
check: the Gram at D' is formed from one residual on the first D'+1
columns of E and rows of M, the one at D'+5 from it by an exact rank-5
update in the five extra columns (least-squares updating, Golub & Van
Loan, Matrix Computations, 6.5).

Every product runs on the plane rule's quarter (quadrature._quarter):
its nodes in Q = {Re z > 0, Im z >= 0} and, for odd orders, the origin
with a quarter of its weight.  The rule is invariant under z -> iz, the
weight is radial and e_j(i^r z) = i^{rj} e_j(z).  The samples, the
symbol's values on the rule's nodes, are gathered as F_r = f(i^r z),
z in Q, and split into four rotation characters
Psi_s = (1/4) sum_r i^{rs} F_r; the residual at i^r z is
sum_c i^{rc} R^(c)(z) with
    R^(c)_j = Psi_{(j-c) mod 4} e_j - sum_{m = c mod 4} e_m M_{mj},
so G = sum_c R^(c)H W4 R^(c) on Q, W4 being four times its weights times
e^{-2phi}, and M splits into the blocks M^(c) of rows m = c mod 4.  A
character that is exactly zero at every node of Q, as three of them are
for f = conj(z)^k g(|z|^2), contributes exact zeros, so its columns are
never formed: R^(c) then has the columns of class c + s alone and G is
block-diagonal by j mod 4 (conj-linear, conj-gaussian, bump, step and
holo-poly z; mixed, holo-poly 1 + z and translates keep all four).
_grams lays the columns out once, in one plan per class c: the (s, k)
of each live character s, R^(c) seeing the columns j = k, k + 4, ... of
class k = c + s; their degrees j; and M^(c)'s p projection rows m <= D'
and extra rows past D'.  Both of its passes read the plans: M, then the
residual Grams and the update's two small products.  Each is a sum over
node blocks of about GRAM_BLOCK_BYTES of E on Q, the one array that
scales with the rule, so every other temporary holds one block.

The kernel layer (the kernel norms ||H_f k_z||, the Berezin transform and
the ball averages) returns one value per point, each point computed
alone against work shared per call, and samples no kernel: the Weyl
operators U_z g = g(. - z) e^{alpha . conj(z) - alpha|z|^2/2} are
isometries of every L^q_phi that commute with P, and k_z = sqrt(alpha/pi)
U_z 1 (Zhu, Analysis on Fock Spaces, GTM 263, 2012), so a point z samples
f or the density on the rule's nodes shifted by z.  The kernel norms take
a family of symbols and points of any shape, and form E, E^H and the
decay weights once.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .fock import FockBasis, build_basis, default_rule_for_degree, lp_norm
from .fock import project  # noqa: F401 (perfbench/layers.py hooks it)
from .lattice import Lattice
from .oscillation import g_functional  # noqa: F401 (hooked by perfbench)
from .quadrature import Rule, _quarter, ball_rule
from .symbols import Symbol
from .weights import WeightModel

PSD_TOL = 1e-10
# a series counts as convergent when the last quartile of its terms (in
# tail order) carries under TAIL_THRESHOLD of its total
TAIL_THRESHOLD = 1e-3
# the essential-norm plateau must move by at most this share of itself
# across its window
SLOPE_THRESHOLD = 0.05
# a node block of the Gram products takes the rows of the basis matrix E
# that hold about this many bytes (1,024 nodes at D = 80, where E has 96
# columns); each temporary built from a block holds at most as many
GRAM_BLOCK_BYTES = 3 << 19
# a Gram is reliable when neither truncation moves its top by more
SHIFT_TOL = 1e-3


class NumericalConsistencyError(RuntimeError):
    """PSD violation beyond tolerance in a Gram matrix."""


@dataclass(frozen=True)
class HankelGram:
    """The Gram of H_f at one degree, its singular spectrum and the
    certificates of its two truncations, projection and domain."""
    degree: int                # of the Hankel images f e_j, j <= degree
    margin: int
    matrix: np.ndarray
    stability_shift: float     # top-10 singular move when margin grows by 5
    values: np.ndarray         # singular values: non-increasing, >= 0

    @property
    def projection_degree(self) -> int:
        return self.degree + self.margin

    @cached_property
    def degree_shift(self) -> float:
        """s_0 minus the s_0 of the leading (D-1) x (D-1) block, the
        degree-(D-2) Gram at the same projection degree: >= 0 by Cauchy
        interlacing (roundoff clipped), s_0 itself for an empty block."""
        block = self.matrix[:self.degree - 1, :self.degree - 1]
        top = np.sqrt(max(np.linalg.eigvalsh(block)[-1], 0.0)) \
            if block.size else 0.0
        return max(float(self.values[0]) - top, 0.0)

    @property
    def reliable(self) -> bool:
        return max(self.stability_shift, self.degree_shift) <= SHIFT_TOL


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


def _node_blocks(E: np.ndarray) -> list:
    """Row slices of E that hold about GRAM_BLOCK_BYTES each."""
    step = max(1, GRAM_BLOCK_BYTES // (E.itemsize * E.shape[1]))
    return [slice(a, a + step) for a in range(0, len(E), step)]


def _characters(samples: np.ndarray) -> tuple:
    """(Psi, live): Psi_s = (1/4) sum_r i^{rs} F_r, s = 0..3, from the
    samples F_r = f(i^r z) on the quarter nodes z, shape (4, n), and the
    s whose Psi_s is not exactly zero at every node.  The butterflies pair
    r with r + 2 first, so a symbol with f(iz) = i^{-s} f(z) at every
    node leaves exact zeros in the other three characters."""
    F0, F1, F2, F3 = samples
    Ap, Am = F0 + F2, F0 - F2
    Bp, Bm = F1 + F3, 1j * (F1 - F3)
    Psi = 0.25 * np.stack([Ap + Bp, Am + Bm, Ap - Bp, Am - Bm])
    return Psi, [s for s in range(4) if np.any(Psi[s])]


def _images(Psi: np.ndarray, E: np.ndarray, b: slice, classes: list,
            degree: int) -> np.ndarray:
    """Psi_s e_j on the nodes b, for the columns j <= degree of each
    (s, k) in classes, class after class."""
    cols = [E[b, k:degree + 1:4] for _, k in classes]
    out = np.empty((len(E[b]), sum(c.shape[1] for c in cols)),
                   dtype=complex, order="F")
    a = 0
    for (s, _), col in zip(classes, cols):
        np.multiply(Psi[s, b, None], col, out=out[:, a:a + col.shape[1]])
        a += col.shape[1]
    return out


def _grams(samples: np.ndarray, weight: WeightModel, degree: int,
           margin: int, rule: Rule) -> tuple:
    """Grams of (I - P) f e_j, j <= degree, with P onto the first D'+1
    columns of E, D' = degree + margin, and with P onto all D'+6 of them,
    f being `samples` on the rule's nodes."""
    D, Dp = degree, degree + margin
    quarter, rotations = _quarter(rule)
    E = build_basis(weight, Dp + 5, rule).evaluate(quarter.nodes)
    # each quarter node stands for its four rotations
    w4 = 4.0 * quarter.weights * np.exp(-2.0 * weight.phi(quarter.nodes))
    Psi, live = _characters(samples[rotations])
    # the plan of class c (module docstring): its (s, k), j, p and x
    plans = []
    for c in range(4):
        classes = [(s, (c + s) % 4) for s in live]
        j = np.array([i for _, k in classes for i in range(k, D + 1, 4)], int)
        p = len(range(c, Dp + 1, 4))
        plans.append((classes, j, p, np.arange(c, E.shape[1], 4)[p:]
                      - (Dp + 1)))
    # M^(c) = E_c^H (w4 Psi_{j-c} e_j) for the j of class c, the others
    # being exact zeros; the projection at D' is its first p rows
    M = [np.zeros((p + len(x), len(j)), dtype=complex) for _, j, p, x in plans]
    wPsi = w4 * Psi
    for b in _node_blocks(E):
        for c, (classes, _, _, _) in enumerate(plans):
            M[c] += np.conj(E[b, c::4]).T @ _images(wPsi, E, b, classes, D)
    del wPsi
    # residual form of (I - P): Gram of pointwise residuals is PSD by
    # construction and avoids the cancellation of <fe_j, fe_k> - M M^H.
    # R2 = R - Ex Mx on any rule, so G2 = G - C - C^H + Mx^H X Mx with
    # C = S Mx, S = R^H W Ex and X = Ex^H W Ex: no second residual.  Ex's
    # columns of class c meet only R^(c), so each sum splits by class
    sums = [[np.zeros((len(j), len(j)), dtype=complex),
             np.zeros((len(j), len(x)), dtype=complex),
             np.zeros((len(x), len(x)), dtype=complex)]
            for _, j, _, x in plans]
    for b in _node_blocks(E):
        for c, (classes, _, p, _) in enumerate(plans):
            Ec = E[b, c::4]
            R = _images(Psi, E, b, classes, D)
            R -= Ec[:, :p] @ M[c][:p]
            wR = w4[b, None] * R
            wEx = w4[b, None] * Ec[:, p:]
            # R^H is R.T once R holds conj(R)
            np.conj(R, out=R)
            RR, RX, XX = sums[c]
            RR += R.T @ wR
            RX += R.T @ wEx
            XX += np.conj(Ec[:, p:]).T @ wEx
            del R, wR, wEx
    nx = E.shape[1] - Dp - 1
    G = np.zeros((D + 1, D + 1), dtype=complex)
    S = np.zeros((D + 1, nx), dtype=complex)
    X = np.zeros((nx, nx), dtype=complex)
    Mx = np.zeros((nx, D + 1), dtype=complex)
    for c, (_, j, p, x) in enumerate(plans):
        G[np.ix_(j, j)] += sums[c][0]
        S[np.ix_(j, x)] = sums[c][1]
        X[np.ix_(x, x)] = sums[c][2]
        Mx[np.ix_(x, j)] = M[c][p:]
    C = S @ Mx
    G2 = G - C - np.conj(C).T + np.conj(Mx).T @ (X @ Mx)
    return 0.5 * (G + np.conj(G).T), 0.5 * (G2 + np.conj(G2).T)


def sampled_hankel_gram(samples: np.ndarray, weight: WeightModel,
                        degree: int, margin: int, rule: Rule) -> HankelGram:
    """Hankel Gram of the symbol whose values on `rule.nodes` are `samples`."""
    samples = np.asarray(samples)
    if samples.shape != rule.nodes.shape:
        raise ValueError("samples must be the symbol on the rule's nodes")
    if not np.all(np.isfinite(samples)):
        raise ValueError("symbol evaluation failed on the plane rule")
    G, G2 = _grams(samples, weight, degree, margin, rule)
    s1, s2 = _singular_from_gram(G), _singular_from_gram(G2)
    shift = float(np.max(np.abs(s1[:10] - s2[:10])))
    return HankelGram(degree=degree, margin=margin, matrix=G,
                      stability_shift=shift, values=s1)


def build_hankel_gram(f: Symbol, weight: WeightModel, degree: int,
                      margin: int = 10) -> HankelGram:
    """Hankel Gram matrix of f with a margin-stability certificate."""
    # sized for the largest Gram integrand (degree ~ 2*(D+margin+5) plus
    # low-order symbol growth)
    rule = default_rule_for_degree(degree + margin + 5, weight.alpha,
                                   margin=8)
    return sampled_hankel_gram(f(rule.nodes), weight, degree, margin, rule)


def _singular_from_gram(G: np.ndarray) -> np.ndarray:
    eigs = np.linalg.eigvalsh(G)
    trace = float(np.trace(np.real(G)))
    if eigs[0] < -PSD_TOL * max(trace, 1.0):
        raise NumericalConsistencyError(
            f"Gram not PSD: min eigenvalue {eigs[0]:.3e} vs trace {trace:.3e}")
    return np.sqrt(np.clip(eigs, 0.0, None))[::-1]


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


def _at_points(value, z) -> np.ndarray:
    """value(p) at each point p of the 1-D array z.  Work shared by the
    points is done once by the caller; each point keeps O(nodes) memory
    however many points there are."""
    return np.array([value(p) for p in z])


def hankel_on_kernel(family, z, q: float, basis: FockBasis) -> np.ndarray:
    """||H_f(k_z)||_{q,phi} = sqrt(alpha/pi) ||(I - P) f(. + z)||_{q,phi}
    for each symbol f of the sequence `family` at each point of z, of any
    shape; the result has a leading member axis.  Each (symbol, point)
    samples f on the shifted nodes and is projected alone, so its norm is
    its one-member, one-point value bit for bit: one product over all
    points would sum in another order."""
    rule = basis.rule
    E = basis.evaluate(rule.nodes)
    EH = np.conj(E).T
    wd = rule.weights * np.exp(-2.0 * basis.weight.phi(rule.nodes))
    root = np.sqrt(basis.weight.alpha / np.pi)

    def norms(p):
        return [root * lp_norm(g - E @ (EH @ (wd * g)), q, rule, basis.weight)
                for g in (f(rule.nodes + p) for f in family)]
    out = _at_points(norms, np.ravel(z))
    return out.T.reshape((len(family),) + np.shape(z))


@dataclass(frozen=True)
class EssentialNormEstimate:
    estimate: float
    slope: float
    window: tuple
    reliable: bool


def essential_norm_tail(S: HankelGram) -> EssentialNormEstimate:
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


def berezin_transform(density, basis: FockBasis, z) -> np.ndarray:
    """mu~(z) = (alpha/pi) integral e^{-alpha|u|^2} dmu(u + z) at each point
    of the 1-D array z, dmu = density dA (dA for density None)."""
    rule = basis.rule
    w = (basis.weight.alpha / np.pi * rule.weights
         * np.exp(-2.0 * basis.weight.phi(rule.nodes)))
    return _at_points(
        lambda p: np.sum(w * _density_on(density, rule.nodes + p)), z)


def measure_average(density, z, r: float) -> np.ndarray:
    """mu^_r(z) = mu(B(z, r)) / |B(z, r)| at each point of the 1-D array z,
    dmu = density dA (dA for density None)."""
    if r <= 0:
        raise ValueError("r must be positive")
    base = ball_rule(0, r)     # shifted by z: ball_rule(z, r), same weights
    return _at_points(lambda p: np.real(base.integrate(
        _density_on(density, base.nodes + p))) / (np.pi * r ** 2), z)


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


def schatten_h_criterion(G: np.ndarray, gauges: Sequence[SchattenGauge],
                         L: Lattice, S: HankelGram,
                         c_grid=(0.5, 1.0, 2.0)
                         ) -> list[list[SchattenVerdict]]:
    """Compare finiteness proxies of the G-integral and the s_k-sum.

    G holds G_{2,r}(f) at the lattice points L.points, computed once by
    the caller and shared by every gauge.  The integral side is a lattice
    Riemann sum of h(c G); its convergence flag looks at the contribution
    of the outer radial quartile of lattice cells, mirroring the tail flag
    of the sum side.  The result holds one verdict list (over `c_grid`)
    per gauge, in order.
    """
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
