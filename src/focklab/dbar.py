"""Weighted dbar-solution operator in dimension one.

With omega = w(xi) d(conj xi), the n = 1 reduction of the weighted
integral solution operator is

    u(z) = C0 * integral  e^{2 grad(phi)(xi) (z - xi)} w(xi) / (xi - z) dA(xi),

where the orientation constant C0 = -1/pi is a theorem: dbar(1/(pi z))
= delta_0 (Cauchy-Pompeiu; Hormander, An Introduction to Complex Analysis
in Several Variables, Thm 1.2.2), and the weight factor is 1 at xi = z
for every phi.  `calibrate_orientation` only certifies a solver's grid by
the finite-difference residual of dbar u = w over a family of test forms.
A `DbarSolver` is a frozen value that hashes by (weight, n_radial,
n_angular), the weight by identity, so the residual is memoised per
solver, once per process; the tolerance is checked on every call.
The |xi - z|^{-1} singularity is absorbed by integrating in polar
coordinates centered at z, where the Jacobian cancels it exactly;
`_polar_sum` is that one sum.  A form is the `symbols.Symbol` of its
coefficient w, compact iff its support_radius is set (else of Gaussian
decay); its dbar field is not read.  The nodes and the kernel depend
only on the point and the grid, so A_phi always takes a form family (a
sequence of forms sharing one support radius; one form is passed as
[omega]) in one kernel pass per chunk of points: the certificate and the
dbar check each solve their three test forms in one call.

Compact forms (those with a support radius) have a cheaper solution, the
Cauchy transform C(w)(z) = C0 * integral w(xi) / (xi - z) dA(xi), with
the same C0 since the weight factor is 1 at xi = z.  C(w) - A_phi(w) is
entire of exponential type, and the Hankel operator vanishes on such
functions, so both give the same H_psi; but C(w) = O(1/z) off the
support, so truncated projections represent it.  By Cauchy-Pompeiu
(Thm 1.2.1 there) C(dbar g) = g for every g in C^1_c, which lets the
approximants trade C(sigma dbar f) for sigma f - C(f dbar sigma), a
form on the annulus where the cutoff sigma ramps; a compact form's
support is the annulus inner_radius <= |xi| <= support_radius (a disc
at inner radius 0).  `cauchy_transform` evaluates C in Laurent modes
(Daripa, SIAM J. Sci. Stat. Comput. 13, 1992): one FFT per ring of a
polar rule over the annulus gives the angular modes of w, and
1/(xi - z) expands in powers of z/xi or xi/z on each circle, so every
point takes one sum over the modes of radial integrals, with no
singular kernel and no dependence on the weight or on a solver's grid.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .quadrature import polar_rule
from .symbols import Symbol
from .weights import WeightModel

FD_STEP = 1e-3
# a Gaussian-decay form is integrated out to this many 1/sqrt(alpha)
GAUSSIAN_REACH = 8.0

# the orientation constant: dbar(1/(pi z)) = delta_0
C0 = -1.0 / np.pi
# a solver whose relative dbar residual on the test family exceeds this
# is refused
CALIBRATION_TOL = 1e-2

# Each polar sum of A_phi calls its field on about OMEGA_CHUNK nodes at a
# time, which bounds the solver's memory.
OMEGA_CHUNK = 1024
# cauchy_transform's (radial, angular) grid.  On thm12-report's ramp
# forms (D = 20 plane nodes, t = 2, 4, 5) against a 64 x 512 grid,
# conj-linear and mixed read <= 3.7e-6 max|psi| and step 4.5e-5; 24 x 192
# and 32 x 256 read 1.4e-4 and 8.8e-5 on step at t = 4, whose f_1, glued
# from C^1 bumps, has an algebraic angular tail.
CAUCHY_GRID = (32, 288)


class DecayError(RuntimeError):
    """Form decay cannot be certified against the kernel growth."""


class CalibrationError(RuntimeError):
    """The solver's grid does not solve the dbar equation to tolerance."""


@dataclass(frozen=True)
class DbarSolver:
    weight: WeightModel
    n_radial: int
    n_angular: int

    def raw_apply(self, forms, z) -> np.ndarray:
        """The integral without C0 for each form of the family `forms`
        (a sequence sharing one support_radius) at each point of z, of
        any shape; the result has a leading form axis.  The nodes and the
        kernel are formed once per chunk of points and applied to every
        form, and each form's row equals its one-form family's bit for
        bit."""
        radii = {form.support_radius for form in forms}
        if len(radii) != 1:
            raise ValueError(f"a form family needs one support radius, "
                             f"got {sorted(radii, key=str)}")
        radius, = radii
        if radius is not None:
            reach = radius + 0.25
        else:
            reach = GAUSSIAN_REACH / np.sqrt(self.weight.alpha)
        grad = self.weight.grad

        def field(zc, xi):
            kernel = np.exp(2.0 * grad(xi) * (zc - xi))
            out = np.empty((len(forms),) + kernel.shape, dtype=complex)
            for row, form in zip(out, forms):
                np.multiply(kernel, form(xi), out=row)
            return out

        zs = np.asarray(z, dtype=complex).ravel()
        out = _polar_sum(field, zs, np.abs(zs) + reach,
                         (self.n_radial, self.n_angular))
        return out.reshape((len(forms),) + np.shape(z))

    def apply(self, forms, z) -> np.ndarray:
        """A_phi(omega) at z for each form omega of the family `forms` (see
        raw_apply)."""
        for form in forms:
            self._certify_decay(form)
        return C0 * self.raw_apply(forms, z)

    def _certify_decay(self, omega: Symbol):
        """Check the kernel-weighted integrand has died out at the reach."""
        if omega.support_radius is not None:
            return
        ring = (GAUSSIAN_REACH / np.sqrt(self.weight.alpha)
                * np.exp(2j * np.pi * np.arange(16) / 16))
        weighted = np.abs(np.exp(-2.0 * self.weight.grad(ring) * ring)
                          * omega(ring))
        near = np.max(np.abs(omega(0.1 * ring))) + 1e-30
        if np.max(weighted) > 1e-8 * near:
            raise DecayError("kernel-weighted form does not decay within "
                             "the configured reach; refusing the integral")


def _polar_sum(field, zs: np.ndarray, radius, grid) -> np.ndarray:
    """sum field(z, xi) dA(xi) / (xi - z) on B(z, radius) about each z in
    the flat array zs (radius: one or one per point).  With xi = z + R p
    on the unit polar_rule(0, 1, *grid), dA / (xi - z) = R w / p: the
    Jacobian in w cancels the singularity.  field gets (points, 1) and
    (points, nodes) arrays, about OMEGA_CHUNK nodes and at least one point
    a call, and returns (..., points, nodes) values; the sum has field's
    leading axes then zs's (with no points, one empty chunk still gives
    those axes)."""
    unit = polar_rule(0.0, 1.0, *grid)
    p = unit.nodes
    coef = unit.weights / p
    R = np.broadcast_to(radius, zs.shape)
    step = max(1, OMEGA_CHUNK // len(p))
    sums = []
    for a in range(0, max(len(zs), 1), step):
        zc = zs[a:a + step, None]
        sums.append(field(zc, zc + R[a:a + step, None] * p) @ coef)
    return R * np.concatenate(sums, axis=-1)


def cauchy_transform(omega: Symbol, z) -> np.ndarray:
    """C0 * integral omega(xi) / (xi - z) dA(xi) for a compact form, at z
    of any shape: one solution of dbar u = omega, which differs from
    A_phi(omega) by an entire function.

    omega is sampled in one call on the CAUCHY_GRID polar rule over its
    support a <= |xi| <= R (a = inner_radius, R = support_radius), and an
    FFT per ring gives its modes c_m(rho).  In Laurent series,
    C(omega)(z) = 2 pi C0 [sum_{m >= 1} int_{max(|z|, a)}^R
    - sum_{m <= 0} int_a^{min(|z|, R)}] c_m(rho) (z/rho)^{m-1} d rho,
    each power of modulus at most 1 on its range.  Points in the hole or
    outside take whole-interval sums in ratio form, (z/a)^{m-1}
    (a/rho)^{m-1} or (R/z)^{1-m} (rho/R)^{1-m}; points on the annulus
    resample c_m barycentrically onto Gauss-Legendre nodes of [|z|, R]
    and [a, |z|], once per distinct radius.  Every sum over m is a
    polynomial in z/a, R/z or z/|z|, taken by Horner's rule.
    """
    if omega.support_radius is None:
        raise DecayError("the Cauchy transform needs a compactly "
                         "supported form")
    R, a = omega.support_radius, omega.inner_radius
    n_r, n_t = CAUCHY_GRID
    polyval = np.polynomial.polynomial.polyval
    rule = polar_rule(0.0, R, n_r, n_t, a)
    rho = rule.nodes[::n_t].real
    # 2 pi times the Gauss-Legendre weights of d rho on [a, R]
    drho = rule.weights[::n_t] * n_t / rho
    c = np.fft.fftshift(np.fft.fft(omega(rule.nodes).reshape(n_r, n_t)),
                        axes=1) / n_t
    # column i of `up` is mode m = i + 1, of power (z/rho)^i, and of
    # `down` mode m = -i, of power (rho/z)^(i + 1)
    up, down = c[:, n_t // 2 + 1:], c[:, n_t // 2::-1]
    e_up, e_down = np.arange(up.shape[1]), np.arange(1, down.shape[1] + 1)
    zs = np.asarray(z, dtype=complex).ravel()
    r = np.abs(zs)
    out = np.empty(zs.shape, dtype=complex)
    hole, far = r < a, r >= R
    ring = ~(hole | far)
    out[hole] = polyval(zs[hole] / a, drho @ ((a / rho[:, None]) ** e_up
                                              * up))
    w = R / zs[far]
    out[far] = -w * polyval(w, drho @ ((rho[:, None] / R) ** e_down * down))
    s, at = np.unique(r[ring], return_inverse=True)
    x, v = np.polynomial.legendre.leggauss(n_r)
    # the barycentric weights of Gauss-Legendre nodes (Wang & Xiang, SIAM
    # J. Sci. Comput. 34, 2012)
    lam = (-1.0) ** np.arange(n_r) * np.sqrt((1.0 - x ** 2) * v)
    hi = s[:, None] + 0.5 * (R - s)[:, None] * (x + 1.0)
    lo = a + 0.5 * (s - a)[:, None] * (x + 1.0)
    above = _radial_sums(hi, np.pi * (R - s)[:, None] * v, s[:, None] / hi,
                         e_up, up, rho, lam)
    below = _radial_sums(lo, np.pi * (s - a)[:, None] * v,
                         np.divide(lo, s[:, None], out=np.zeros_like(lo),
                                   where=lo > 0), e_down, down, rho, lam)
    # (z/rho)^(m-1) = (|z|/rho)^(m-1) u^(m-1) with u = z/|z|
    u = np.exp(1j * np.angle(zs[ring]))
    out[ring] = (polyval(u, above[:, at], tensor=False)
                 - u.conj() * polyval(u.conj(), below[:, at], tensor=False))
    out *= C0
    return out.reshape(np.shape(z))


def _radial_sums(y, w, ratio, e, modes, rho, lam) -> np.ndarray:
    """(mode, radius) array of sum_j w_j ratio_j^e c(y_j) for each radius
    (a row of the nodes y, weights w and ratios) and each mode column
    c of modes, sampled at rho, with power e: c is resampled from rho to
    y barycentrically (weights lam), a point on a node reading it.  The
    resampling matrices are formed for every radius at once, and the
    modes are summed one radius at a time, which keeps each (node, mode)
    array to one radius's."""
    d = y[..., None] - rho
    hit = d == 0
    d[hit] = 1.0
    b = lam / d
    on = hit.any(-1)
    b[on] = hit[on]
    b /= b.sum(-1, keepdims=True)
    sums = np.empty((len(e), len(y)), dtype=complex)
    for k, (bk, wk, rk) in enumerate(zip(b, w, ratio)):
        sums[:, k] = (wk[:, None] * rk[:, None] ** e * (bk @ modes)).sum(0)
    return sums


def dbar_fd(u: Callable[[np.ndarray], np.ndarray], z,
            h: float = FD_STEP) -> np.ndarray:
    """Central finite-difference dbar = (d/dx + i d/dy)/2 of a field, from
    one call of u on the stacked stencil z + (h, -h, ih, -ih).  u's
    result may carry leading axes (a form family's), which the result
    keeps."""
    z = np.asarray(z, dtype=complex)
    steps = np.array([h, -h, 1j * h, -1j * h]).reshape((4,) + (1,) * z.ndim)
    right, left, up, down = np.moveaxis(u(z + steps), -1 - z.ndim, 0)
    ux = (right - left) / (2 * h)
    uy = (up - down) / (2 * h)
    return 0.5 * (ux + 1j * uy)


def gaussian_test_forms(alpha: float = 1.0) -> list[Symbol]:
    """Gaussian-modulated coefficients with distinct angular structure."""
    return [
        Symbol(lambda xi: np.exp(-alpha * np.abs(xi) ** 2)),
        Symbol(lambda xi: np.conj(xi) * np.exp(-alpha * np.abs(xi) ** 2)),
        Symbol(lambda xi: (1.0 + 0.5 * np.real(xi))
               * np.exp(-0.8 * alpha * np.abs(xi) ** 2)),
    ]


def calibrate_orientation(solver: DbarSolver) -> float:
    """The relative residual of dbar u = w over the solver's test family.

    One raw solve of gaussian_test_forms on a 5 x 5 probe grid, scaled by
    C0; the worst over the family of max|dbar u - w| relative to max|w|.
    The residual is memoised per solver (equal solvers share it); a
    residual above CALIBRATION_TOL raises CalibrationError on every call.
    """
    residual = _residual(solver)
    if residual > CALIBRATION_TOL:
        raise CalibrationError(
            f"C0 = -1/pi misses the dbar residual tolerance "
            f"{CALIBRATION_TOL:g} at relative residual {residual:.3e}")
    return residual


@lru_cache(maxsize=32)
def _residual(solver: DbarSolver) -> float:
    forms = gaussian_test_forms(solver.weight.alpha)
    g = np.linspace(-1.2, 1.2, 5)
    probes = (g[:, None] + 1j * g[None, :]).ravel()
    raw = dbar_fd(lambda z: solver.raw_apply(forms, z), probes)
    return max(float(np.max(np.abs(C0 * raw_dbar - w)))
               / (float(np.max(np.abs(w))) + 1e-30)
               for raw_dbar, w in zip(raw, [f(probes) for f in forms]))
