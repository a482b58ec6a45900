"""Mean oscillation and integral-distance-to-analytic functionals.

The distance functional at a point is the normalized L^q(B(z, r))
distance from f to holomorphic functions on the ball, approximated from
above by least squares over polynomials of degree <= d in (w - z).
q = 2 is an exact projection; q != 2 uses iteratively reweighted least
squares, which converges since the problem is convex for q >= 1.

One engine fits every centre.  The ball rule B(z, r) is the rule on
B(0, r) translated by z with unchanged weights, so in the local variable
u = w - z the weighted disk Vandermonde sqrt(w) (u/r)^j is the same at
every centre: it is built and condition-checked once per (r, d) and
call.  Symbol samples are taken FIT_BLOCK centres at a time, which bounds
the working set; q = 2 is one least-squares solve with a right-hand side
per centre of the block, and the IRLS refits all still-active centres of
a block together, each centre stopping at its own iteration.  Mean
oscillation samples the symbol in the same blocks.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .lattice import Lattice
from .quadrature import BallRule, ball_rule
from .symbols import Symbol

IRLS_ITERS = 25
IRLS_TOL = 1e-8
COND_CAP = 1e12
FIT_BLOCK = 16             # centres per block of symbol samples


class DegreeCapError(RuntimeError):
    """Local polynomial basis too ill-conditioned at the requested degree."""


@dataclass(frozen=True)
class LocalApproximation:
    """One fit per centre: scalar fields for a scalar centre, else arrays
    with the centres' shape (coeffs gains a trailing degree axis)."""
    center: complex | np.ndarray
    radius: float
    degree: int
    coeffs: np.ndarray         # coefficients of (w - center)^j
    residual: float | np.ndarray   # approximates G_{q,r}(f)(center) from above

    def evaluate(self, z) -> np.ndarray:
        """The fitted polynomial at z, which broadcasts against center."""
        u = np.asarray(z, dtype=complex) - self.center
        return np.polynomial.polynomial.polyval(
            u, np.moveaxis(self.coeffs, -1, 0), tensor=False)


@dataclass(frozen=True)
class RadialProfile:
    sample_points: np.ndarray
    values: np.ndarray
    functional: str
    meta: dict

    @property
    def shell_radii(self) -> np.ndarray:
        return np.unique(np.round(np.abs(self.sample_points), 9))

    def shell_max(self, radius: float) -> float:
        mask = np.isclose(np.abs(self.sample_points), radius)
        return float(np.max(self.values[mask]))

    def final_shell_max(self) -> float:
        return self.shell_max(self.shell_radii[-1])

    def trend_slope(self) -> float:
        """Least-squares slope of shell maxima against shell radius."""
        radii = self.shell_radii
        maxima = np.array([self.shell_max(r) for r in radii])
        if len(radii) < 2:
            return 0.0
        return float(np.polyfit(radii, maxima, 1)[0])


def _blocks(f: Symbol, base: BallRule, centres: np.ndarray):
    """(slice, F) per block of FIT_BLOCK centres, with F[k, i] =
    f(base.nodes[k] + centre i) the symbol samples on B(centre, r)."""
    for lo in range(0, len(centres), FIT_BLOCK):
        block = centres[lo:lo + FIT_BLOCK]
        F = f(base.nodes[:, None] + block[None, :])
        if not np.all(np.isfinite(F)):
            raise ValueError("non-finite integrand samples")
        yield slice(lo, lo + len(block)), F


def mean_oscillation(f: Symbol, z, r: float, q: float):
    """( |B(z,r)|^{-1} integral_B |f|^q dA )^{1/q} at each point of z
    (a float for scalar z)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    zs = np.asarray(z, dtype=complex)
    centres = zs.ravel()
    base = ball_rule(0.0, r)
    out = np.empty(len(centres))
    for blk, F in _blocks(f, base, centres):
        out[blk] = _lq_mean(np.abs(F), base, q)
    return float(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


def ida_distance(f: Symbol, z, r: float, q: float = 2.0,
                 d: int = 6) -> LocalApproximation:
    """Best degree-d holomorphic polynomial fit to f on B(z, r) at each
    point of z; scalar z gives scalar center and residual."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    if q < 1:
        raise ValueError("q must be >= 1")
    zs = np.asarray(z, dtype=complex)
    centres = zs.ravel()
    base = ball_rule(0.0, r)
    # columns (u/r)^j in u = w - z keep the Vandermonde well conditioned
    V = (base.nodes[:, None] / r) ** np.arange(d + 1)[None, :]
    sw = np.sqrt(base.weights)
    A = sw[:, None] * V
    if np.linalg.cond(A) > COND_CAP:
        raise DegreeCapError(f"disk Vandermonde ill-conditioned at degree {d}")
    coeffs = np.empty((len(centres), d + 1), dtype=complex)
    residual = np.empty(len(centres))
    for blk, F in _blocks(f, base, centres):
        C, *_ = np.linalg.lstsq(A, sw[:, None] * F, rcond=None)
        if q != 2.0:
            C = _irls(F, V, sw, C, base, q)
        coeffs[blk] = C.T
        residual[blk] = _lq_mean(np.abs(F - V @ C), base, q)
    coeffs /= r ** np.arange(d + 1)
    if zs.ndim == 0:
        return LocalApproximation(center=complex(zs), radius=float(r),
                                  degree=d, coeffs=coeffs[0],
                                  residual=float(residual[0]))
    return LocalApproximation(center=zs, radius=float(r), degree=d,
                              coeffs=coeffs.reshape(zs.shape + (d + 1,)),
                              residual=residual.reshape(zs.shape))


def _irls(F, V, sw, C, base, q) -> np.ndarray:
    """IRLS from the q = 2 fits C (d+1, b) of one block.

    Every still-active centre is refitted at once: the stacked
    [W V | W f] is reduced by an R-only QR, whose last column holds
    Q^H (W f), and cond(W V) is read from the leading (d+1)^2 block of R.
    A centre leaves the active set at the iteration where its residual
    settles."""
    k = V.shape[1]                 # d + 1 coefficients
    prev = np.full(F.shape[1], np.inf)
    active = np.arange(F.shape[1])
    res = np.abs(F - V @ C)
    for _ in range(IRLS_ITERS):
        Fa = F[:, active]
        W = sw[:, None] * np.maximum(res, 1e-12) ** ((q - 2.0) / 2.0)
        # each centre's matrix transposed and C-ordered, so the QR reads
        # it in LAPACK's column order without a strided copy
        M = np.empty((len(active), k + 1, len(sw)), dtype=complex)
        np.multiply(W.T[:, None, :], V.T[None, :, :], out=M[:, :k])
        np.multiply(W.T, Fa.T, out=M[:, k])
        R = np.linalg.qr(M.transpose(0, 2, 1), mode="r")
        s = np.linalg.svd(R[:, :k, :k], compute_uv=False)
        if np.any(s[:, 0] > COND_CAP * s[:, -1]):
            raise DegreeCapError(
                f"disk Vandermonde ill-conditioned at degree {k - 1}")
        C[:, active] = np.linalg.solve(R[:, :k, :k], R[:, :k, k:])[:, :, 0].T
        res = np.abs(Fa - V @ C[:, active])
        cur = _lq_mean(res, base, q)
        done = np.abs(prev[active] - cur) <= IRLS_TOL * np.maximum(cur, 1e-30)
        prev[active] = cur
        active, res = active[~done], res[:, ~done]
        if active.size == 0:
            break
    return C


def _lq_mean(absvals, base: BallRule, q) -> np.ndarray:
    """( |B|^{-1} integral_B |v|^q dA )^{1/q} per column of |v| samples."""
    return (base.weights @ absvals ** q / base.area) ** (1.0 / q)


def g_functional(f: Symbol, z, r: float, q: float = 2.0, d: int = 6) -> np.ndarray:
    """G_{q,r}(f) sampled at points z, as an array of at least one entry."""
    return ida_distance(f, np.atleast_1d(np.asarray(z, dtype=complex)),
                        r, q, d).residual


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
    interior = np.array([L.window.contains(p, margin) for p in L.points])
    boundary_part = np.sum(G[~interior] ** s) * L.cell_area
    if total > 0 and boundary_part / total > 0.01:
        warnings.warn("window too small: boundary cells contribute > 1% "
                      "of the IDA norm", stacklevel=2)
    return float(total ** (1.0 / s))


def vda_profile(f: Symbol, q: float, r: float, d: int, shells,
                n_angles: int = 12) -> RadialProfile:
    """Per-shell samples of G_{q,r}(f); the limsup surrogate."""
    shells = np.asarray(shells, dtype=float)
    if np.any(np.diff(shells) <= 0):
        raise ValueError("shells must be strictly increasing")
    angles = np.exp(2j * np.pi * np.arange(n_angles) / n_angles)
    pts = (shells[:, None] * angles[None, :]).ravel()
    vals = g_functional(f, pts, r, q, d)
    return RadialProfile(sample_points=pts, values=vals, functional="G",
                         meta={"q": q, "r": r, "d": d})


def m_profile(f: Symbol, q: float, r: float, shells,
              n_angles: int = 12) -> RadialProfile:
    """Per-shell samples of the mean oscillation M_{q,r}(f)."""
    shells = np.asarray(shells, dtype=float)
    angles = np.exp(2j * np.pi * np.arange(n_angles) / n_angles)
    pts = (shells[:, None] * angles[None, :]).ravel()
    vals = mean_oscillation(f, pts, r, q)
    return RadialProfile(sample_points=pts, values=vals, functional="M",
                         meta={"q": q, "r": r})
