"""Mean oscillation and integral-distance-to-analytic functionals.

The distance functional at a point is the normalized L^q(B(z, r))
distance from f to holomorphic functions on the ball, approximated from
above by least squares over polynomials of degree <= d in (w - z).
q = 2 is an exact projection; q != 2 uses iteratively reweighted least
squares, which converges since the problem is convex for q >= 1.  The
ball rule integrates the fit's Gram, of total degree 2d, exactly only
while 2d <= BALL_ORDER, so d is capped at MAX_DEGREE.

One engine fits every centre: ida_distance, g_functional and
mean_oscillation take a 1-D array of centres and return arrays, one entry
(a fit's one row) per centre.  The ball rule B(z, r) is the rule on
B(0, r) translated by z with unchanged weights, so in the local variable
u = w - z the weighted disk Vandermonde A = sqrt(w) (u/r)^j is the same
at every centre: it is QR-factored and condition-checked once per call.
Symbol samples are taken FIT_BLOCK centres at a time (_samples), which
bounds the working set; q = 2 fits a block in one product with
A^+ diag(sqrt(w)).  ida_distance adds the residual pass that G needs;
fit_coefficients, for callers that read no G, stops at the coefficients,
bit for bit those of ida_distance.  For q != 2 the q = 2 fit is the
start, in one pass over the centres: each block is sampled once.  A
centre whose q = 2 residual is exactly 0 at every node keeps it: its L^q
objective is 0, the least for every q.  The other centres of the block,
with their samples and q = 2 fits, join a plain pending list; as soon as
it holds IRLS_BATCH centres, and after the last block, its first
IRLS_BATCH columns in centre order are concatenated into one batch, which
the IRLS refits together (see _irls), each centre stopping at its own
iteration, so no more than one batch and one block are pending.  The IRLS
is in correction form: each step solves for the update from the true
residual the step before formed, one batched solve per step, damped to
the step 1/(q - 1) for q > 2, and a centre's last step is refined once on
its own residual.  Its weighted Grams are formed from their upper
triangle and mirrored (see _gram), and certified by Cholesky and a norm
bound from the step's own solve, with the eigenvalues only near the cap
(see _certified_solve).  Mean oscillation samples the symbol in blocks of
FIT_BLOCK centres as well, one row of means per member of a symbol whose
samples carry a leading member axis.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .lattice import Lattice
from .quadrature import BALL_ORDER, Rule, ball_rule
from .symbols import Symbol

IRLS_ITERS = 25
IRLS_TOL = 1e-8
# the largest fit degree d whose Gram (total degree 2d) the ball rule
# integrates exactly; past it conj(u) aliases with high powers of u
MAX_DEGREE = BALL_ORDER // 2
COND_CAP = 1e12
# a refined normal-equation solve errs by about (cond(W V)^2 eps)^2, within
# the cond(W V) eps of a QR solve while cond(W V)^3 eps <= 1
GRAM_COND_CAP = np.finfo(float).eps ** (-1.0 / 3.0)     # 1.65e5
FIT_BLOCK = 16             # centres per block of symbol samples
# centres per IRLS batch: the one-pass fit holds one batch at a time, so
# this bounds the IRLS working set.  On fits-spectra (2-core Xeon,
# OpenBLAS) peak RSS read 56.5 MB at 32 centres, 58.0 MB at 48 and 67.3 MB
# at 143.  A multiple of 4: the BLAS kernels take a product's columns 4 at
# a time and the rest in another summation order, so a fit's last digits
# depend on its place in its batch; at 35 g-profile functional.q=1's G
# moved, at 32 every tools/digests.py line kept its bytes
IRLS_BATCH = 32


class DegreeCapError(RuntimeError):
    """Local polynomial basis too ill-conditioned at the requested degree."""


class IRLSWarning(UserWarning):
    """Centres that used up IRLS_ITERS unsettled; raised once per call."""


@dataclass(frozen=True)
class LocalApproximation:
    """One fit per centre z_i."""
    coeffs: np.ndarray         # (n, d+1): coefficients of (w - z_i)^j
    residual: np.ndarray       # (n,): G_{q,r}(f)(z_i), approximated from above


def _samples(f: Symbol, base: Rule, block: np.ndarray) -> np.ndarray:
    """F[..., k, i] = f(base.nodes[k] + block[i]): the symbol samples on
    B(block[i], r)."""
    F = f(base.nodes[:, None] + block[None, :])
    if not np.all(np.isfinite(F)):
        raise ValueError("non-finite integrand samples")
    return F


def mean_oscillation(f: Symbol, z, r: float, q: float) -> np.ndarray:
    """( |B(z,r)|^{-1} integral_B |f|^q dA )^{1/q} at each point of the
    1-D array z.  A symbol whose samples carry a leading member axis (the
    f2 of a decomposition family) gets one row of means per member."""
    if q < 1:
        raise ValueError("q must be >= 1")
    centres = np.asarray(z, dtype=complex)
    base = ball_rule(0.0, r)
    means = [_lq_mean(np.abs(_samples(f, base, centres[lo:lo + FIT_BLOCK])),
                      base, r, q)
             for lo in range(0, len(centres), FIT_BLOCK)]
    return np.concatenate(means, axis=-1) if means else np.empty(0)


def _local_fit(r: float, d: int):
    """(base, V, pinv) of the degree-d fits on balls of radius r: the ball
    rule on B(0, r), the Vandermonde V = (u/r)^j in u = w - z, and
    (sw V)^+ diag(sw), sw = sqrt(base.weights); DegreeCapError past
    MAX_DEGREE or when the weighted Vandermonde's cond exceeds COND_CAP."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    if d > MAX_DEGREE:
        raise DegreeCapError(f"degree {d} exceeds {MAX_DEGREE}: the "
                             f"order-{BALL_ORDER} ball rule would alias "
                             f"the fit")
    base = ball_rule(0.0, r)
    # columns (u/r)^j in u = w - z keep the Vandermonde well conditioned
    V = (base.nodes[:, None] / r) ** np.arange(d + 1)[None, :]
    sw = np.sqrt(base.weights)
    Q, R = np.linalg.qr(sw[:, None] * V)
    if np.linalg.cond(R) > COND_CAP:
        raise DegreeCapError(f"disk Vandermonde ill-conditioned at degree {d}")
    return base, V, np.linalg.solve(R, Q.conj().T) * sw


def fit_coefficients(f: Symbol, z, r: float, d: int = 6) -> np.ndarray:
    """The (n, d+1) coefficients of the q = 2 fits at the points of the
    1-D array z, without their residual: ida_distance(f, z, r, 2, d).coeffs
    bit for bit, for callers that do not read G."""
    base, V, pinv = _local_fit(r, d)
    centres = np.asarray(z, dtype=complex)
    coeffs = np.empty((len(centres), d + 1), dtype=complex)
    for lo in range(0, len(centres), FIT_BLOCK):
        blk = slice(lo, lo + FIT_BLOCK)
        coeffs[blk] = (pinv @ _samples(f, base, centres[blk])).T
    coeffs /= r ** np.arange(d + 1)
    return coeffs


def ida_distance(f: Symbol, z, r: float, q: float = 2.0,
                 d: int = 6) -> LocalApproximation:
    """Best degree-d holomorphic polynomial fit to f on B(z, r) at each
    point of the 1-D array z."""
    if q < 1:
        raise ValueError("q must be >= 1")
    base, V, pinv = _local_fit(r, d)
    centres = np.asarray(z, dtype=complex)
    coeffs = np.empty((len(centres), d + 1), dtype=complex)
    residual = np.empty(len(centres))

    P = _gram_columns(V) if q != 2.0 else None
    pending, held = [], 0  # (index, F, C) of the moving columns to refit
    unsettled = []         # last relative change of each unsettled IRLS fit
    for lo in range(0, len(centres), FIT_BLOCK):
        blk = slice(lo, lo + FIT_BLOCK)
        F = _samples(f, base, centres[blk])
        C = pinv @ F
        res = np.abs(F - V @ C)
        coeffs[blk] = C.T
        residual[blk] = _lq_mean(res, base, r, q)
        if q != 2.0:
            # a zero residual is already the least L^q objective
            cols = np.flatnonzero(np.any(res, axis=0))
            pending.append((lo + cols, F[:, cols], C[:, cols]))
            held += len(cols)
        # only the moving columns stay alive through their IRLS
        del F, C, res
        while held >= IRLS_BATCH or (held and lo + FIT_BLOCK >= len(centres)):
            batch = [np.concatenate(a, axis=-1) for a in zip(*pending)]
            pending = [[a[..., IRLS_BATCH:] for a in batch]]
            held = len(pending[0][0])
            idx, F, C = (a[..., :IRLS_BATCH] for a in batch)
            C, change = _irls(F, V, P, C, base, r, q)
            unsettled.append(change)
            coeffs[idx] = C.T
            residual[idx] = _lq_mean(np.abs(F - V @ C), base, r, q)
    if unsettled and (late := np.concatenate(unsettled)).size:
        warnings.warn(
            f"IRLS did not settle at {late.size} of {len(centres)} "
            f"centres in {IRLS_ITERS} iterations (largest last relative "
            f"change {np.max(late):.3g})", IRLSWarning, stacklevel=2)
    coeffs /= r ** np.arange(d + 1)
    return LocalApproximation(coeffs=coeffs, residual=residual)


def _gram_columns(V):
    """P[n, t] = conj(V[n, i]) V[n, j] over the upper triangle i <= j of
    the Gram, pairs in np.triu_indices order, so that w^T P holds the upper
    triangle of V^H diag(w) V; its diagonal columns |V|^2 are exactly real."""
    i, j = np.triu_indices(V.shape[1])
    P = np.empty((len(V), len(i)), dtype=complex)
    np.multiply(V.conj()[:, i], V[:, j], out=P)
    P.imag[:, i == j] = 0.0
    return P


def _gram(W2, P, k):
    """The Grams V^H diag(W2[:, c]) V of the columns c of W2, shape (b, k,
    k): one real product with P's upper triangle, mirrored, so each is
    exactly Hermitian."""
    i, j = np.triu_indices(k)
    U = (W2.T @ P.view(float)).view(complex)
    N = np.empty((len(U), k, k), dtype=complex)
    N[:, i, j] = U
    N[:, j, i] = U.conj()
    return N


def _certify(N):
    """DegreeCapError unless every Hermitian N of the stack has
    lam_min * cap^2 > lam_max, cap = min(COND_CAP, GRAM_COND_CAP): cond(W V)
    below both caps, decided on the eigenvalues."""
    lam = np.linalg.eigvalsh(N)
    if not np.all(lam[:, 0] * min(COND_CAP, GRAM_COND_CAP) ** 2
                  > lam[:, -1]):
        raise DegreeCapError(
            f"disk Vandermonde ill-conditioned at degree {N.shape[-1] - 1}")


def _certified_solve(N, b):
    """N^{-1} b for each Gram of the stack N (b, k, k) and row of b, with
    _certify's decision at a fraction of its cost.  A stack that Cholesky
    finds definite is bounded by ||N||_F ||N^{-1}||_F >= lam_max / lam_min,
    N^{-1} read from the same LU solve as the step (the first column of
    solve(N, [b | I]) is solve(N, b)); only Grams whose bound reaches half
    the cap^2, a margin far wider than the rounding of either side, or
    overflows, and every Gram of a stack that Cholesky refuses, take the
    eigenvalues.  A passed bound implies _certify passes, so its decision
    is unchanged."""
    k = N.shape[-1]
    try:
        np.linalg.cholesky(N)
    except np.linalg.LinAlgError:
        _certify(N)
    B = np.empty((len(N), k, k + 1), dtype=complex)
    B[:, :, 0] = b
    B[:, :, 1:] = np.eye(k)
    X = np.linalg.solve(N, B)
    with np.errstate(over="ignore", invalid="ignore"):
        bound2 = (np.square(N.view(float)).sum(axis=(1, 2))
                  * np.square(X[:, :, 1:].view(float)).sum(axis=(1, 2)))
        doubtful = ~(bound2 < (min(COND_CAP, GRAM_COND_CAP) ** 2 / 2) ** 2)
    if doubtful.any():
        _certify(N[doubtful])
    return X[:, :, 0]


def _irls(F, V, P, C, base, r, q):
    """IRLS from the q = 2 fits C (d+1, b) of one batch of centres, pooled
    across sample blocks; returns the fits and the last relative change of
    each centre left unsettled.

    Each step solves for the update from the true residual that the step
    before formed: N_k delta = V^H W_k^2 (f - V c_k), with the Gram
    N_k = (W_k V)^H (W_k V) of every active centre formed by one real
    product with the upper triangle P (see _gram), and takes
    c_{k+1} = c_k + s delta, where s = 1/(q - 1) for q > 2 (the Newton
    step along the residual) and 1 otherwise.  Each step's right-hand side
    is the refinement of the solve before it; a centre's last step, settled
    or at IRLS_ITERS, is refined once on its own true residual.  Each
    step's solve certifies cond(W V) below COND_CAP and GRAM_COND_CAP, else
    DegreeCapError (see _certified_solve).  A centre leaves the active set
    once its L^q residual settles: it changes by at most IRLS_TOL of
    itself, or by at most its roundoff, eps times the L^q mean of |f| on
    the centre's ball."""
    k = V.shape[1]                 # d + 1 coefficients
    Vh = V.conj()
    s = 1.0 / (q - 1.0) if q > 2.0 else 1.0
    roundoff = np.finfo(float).eps * _lq_mean(np.abs(F), base, r, q)
    prev = np.full(F.shape[1], np.inf)
    late = np.empty(0)             # the changes of the unsettled centres
    active = np.arange(F.shape[1])
    Fa, Ca = F, C
    R = V @ Ca                     # the true residual f - V c of each fit
    np.subtract(Fa, R, out=R)
    W2 = np.abs(R)
    for it in range(1, IRLS_ITERS + 1):
        np.maximum(W2, 1e-12, out=W2)
        W2 **= q - 2.0
        W2 *= base.weights[:, None]
        N = _gram(W2, P, k)
        R *= W2
        b = R.T @ Vh
        Ca += s * _certified_solve(N, b).T
        np.matmul(V, Ca, out=R)
        np.subtract(Fa, R, out=R)
        res = np.abs(R)
        cur = _lq_mean(res, base, r, q)
        step = np.abs(prev[active] - cur)
        prev[active] = cur
        out = step <= np.maximum(IRLS_TOL * cur, roundoff[active])
        if it == IRLS_ITERS:
            late = (step / np.maximum(cur, roundoff[active]))[~out]
            out[:] = True
        if not out.any():
            W2 = res
            continue
        # the leaving centres' last step, refined on its own true residual:
        # V^H W_k^2 (f - V (c_k + delta)) = V^H W_k^2 r_{k+1} - (1 - s) b_k
        if out.all():
            Ro, W2o = R, W2
        else:
            Ro, W2o = R[:, out], W2[:, out]
        Ro *= W2o
        g = Ro.T @ Vh
        if s != 1.0:
            g -= (1.0 - s) * b[out]
        C[:, active[out]] = Ca[:, out] + np.linalg.solve(
            N[out], g[:, :, None])[:, :, 0].T
        del Ro, W2o, W2
        keep = ~out
        active = active[keep]
        if active.size == 0:
            break
        # one array at a time, so no two copies of one are alive at once
        Fa = Fa[:, keep]
        R = R[:, keep]
        W2 = res[:, keep]
        del res
        Ca = Ca[:, keep]
    return C, late


def _lq_mean(absvals, base: Rule, r, q) -> np.ndarray:
    """( |B|^{-1} integral_B |v|^q dA )^{1/q} per column of |v| samples
    on the ball rule `base` of radius r (nodes on the second-last axis)."""
    area = np.pi * r ** 2
    return (base.weights @ absvals ** q / area) ** (1.0 / q)


def g_functional(f: Symbol, z, r: float, q: float = 2.0, d: int = 6) -> np.ndarray:
    """G_{q,r}(f) at each point of the 1-D array z."""
    return ida_distance(f, z, r, q, d).residual


def ida_norm(f: Symbol, s: float, q: float, r: float, L: Lattice,
             d: int = 6) -> float:
    """||G_{q,r}(f)||_{L^s} over the lattice (max for s = inf)."""
    if s != np.inf and s < 1:
        raise ValueError("s must be in [1, inf]")
    G = g_functional(f, L.points, r, q, d)
    if s == np.inf:
        return float(np.max(G))
    total = np.sum(G ** s) * L.cell_area
    # boundary ring check: outermost cells should not carry the mass
    margin = 2 * L.step
    interior = L.window.contains(L.points, margin)
    boundary_part = np.sum(G[~interior] ** s) * L.cell_area
    if total > 0 and boundary_part / total > 0.01:
        warnings.warn("window too small: boundary cells contribute > 1% "
                      "of the IDA norm", stacklevel=2)
    return float(total ** (1.0 / s))
