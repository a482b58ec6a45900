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
`_polar_sum` is that one sum, for A_phi and for the singular patch of
the Cauchy transform.  A form is the `symbols.Symbol` of its
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
at inner radius 0).  `cauchy_apply` samples w in one call on a polar
rule over that annulus and splits the kernel
with a floating cutoff chi(|xi - z| / PATCH_RADIUS) (Bruno & Kunyansky,
J. Comput. Phys. 169, 2001): the smooth part (1 - chi)/(xi - z) is one
sum against the shared samples at every point, the singular part
chi/(xi - z) a small polar patch about each point near the support.
The smooth kernel K obeys K(i d) = -i K(d), and when n_angular % 4 == 0
a quarter-turn maps the support rule onto itself (the angle index
l -> l + n_angular/4 in each ring), so on points closed under z -> iz
(a plane rule's nodes; quadrature.quarter_turns) the sum is
psi(i^s z) = i^{-s} sum K(xi - z) (w omega)(i^s xi): kernel rows are
formed at the quarter's points only and multiplied by the four
index-rotated copies of the samples at once.  Other points, and grids
with n_angular % 4 != 0, take the same loop with one rotation.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .quadrature import polar_rule, quarter_turns
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

# The Cauchy engine splits its kernel with the floating cutoff
# chi = (1 - |xi - z|^2 / PATCH_RADIUS^2)^CUTOFF_POWER: the singular part
# goes on a PATCH_GRID (radial x angular) polar patch about z.  Set by a
# convergence sweep: on a smooth radial form these values are within
# 1e-7 of the closed form at the default 60 x 96 support rule, where
# exp(-u/(1-u)) reached only 5e-5.  Each polar sum (A_phi, the singular
# patches) calls its field on about OMEGA_CHUNK nodes at a time, and
# kernel blocks hold about KERNEL_BYTES (one point's row at least), which
# bounds the engine's memory; 256 KiB blocks stay in cache and ran 4x
# faster than 1 MiB ones.
PATCH_RADIUS = 0.5
PATCH_GRID = (8, 16)
CUTOFF_POWER = 8
OMEGA_CHUNK = 1024
KERNEL_BYTES = 1 << 18


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

    def cauchy_apply(self, omega: Symbol, z) -> np.ndarray:
        """C0 * integral omega(xi) / (xi - z) dA(xi) for a compact form.

        One solution of dbar u = omega; it differs from A_phi(omega) by an
        entire function.  omega is sampled in one call on an n_radial x
        n_angular polar rule over its support, the annulus
        omega.inner_radius <= |xi| <= omega.support_radius (a disc at
        inner radius 0), for the smooth part of the kernel, which is formed
        at one point of each quarter-turn orbit of z (see the module
        docstring); points within PATCH_RADIUS of the support,
        inner - PATCH_RADIUS < |z| < R + PATCH_RADIUS, add the singular
        part.  The patches reach past the support, where omega must read
        0.
        """
        if omega.support_radius is None:
            raise DecayError("the Cauchy transform needs a compactly "
                             "supported form")
        zs = np.asarray(z, dtype=complex).ravel()
        R, inner = omega.support_radius, omega.inner_radius
        rule = polar_rule(0.0, R, self.n_radial, self.n_angular, inner)
        xi = rule.nodes
        wom = rule.weights * omega(xi)
        # kernel rows are formed at orbits[0] only, and column s of the
        # product, against i^{-s} (w omega)(i^s xi), lands at orbits[s]:
        # one rotation in general, four on points closed under z -> iz
        # when the rule turns with them
        orbits = quarter_turns(zs) if self.n_angular % 4 == 0 else None
        if orbits is None:
            orbits, columns = np.arange(zs.size)[None, :], wom
        else:
            rings = wom.reshape(self.n_radial, self.n_angular)
            turn = self.n_angular // 4
            columns = np.stack([(-1j) ** s * np.roll(rings, -s * turn, 1)
                                .ravel() for s in range(4)], axis=1)
        out = np.empty(zs.shape, dtype=complex)
        step = max(1, KERNEL_BYTES // (16 * len(xi)))
        for a in range(0, orbits.shape[1], step):
            rows = orbits[:, a:a + step]
            block = (_smooth_kernel(xi[None, :] - zs[rows[0], None])
                     @ columns).reshape(rows.shape[1], -1)
            # s = 0 last: an odd-order rule's origin is in every row
            for s in reversed(range(len(rows))):
                out[rows[s]] = block[:, s]
        r = np.abs(zs)
        near = np.flatnonzero((r > inner - PATCH_RADIUS)
                              & (r < R + PATCH_RADIUS))
        if near.size:
            out[near] += _polar_sum(lambda zc, pts: omega(pts), zs[near],
                                    PATCH_RADIUS, PATCH_GRID, cutoff=True)
        out *= C0
        return out.reshape(np.shape(z))

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


def _polar_sum(field, zs: np.ndarray, radius, grid,
               cutoff: bool = False) -> np.ndarray:
    """sum field(z, xi) dA(xi) / (xi - z) on B(z, radius) about each z in
    the flat array zs (radius: one or one per point).  With xi = z + R p
    on the unit polar_rule(0, 1, *grid), dA / (xi - z) = R w / p: the
    Jacobian in w cancels the singularity.  With cutoff, w / p carries
    (1 - |p|^2)^CUTOFF_POWER.  field gets (points, 1) and (points, nodes)
    arrays, about OMEGA_CHUNK nodes and at least one point a call, and
    returns (..., points, nodes) values; the sum has field's leading axes
    then zs's (with no points, one empty chunk still gives those axes)."""
    unit = polar_rule(0.0, 1.0, *grid)
    p = unit.nodes
    coef = unit.weights / p
    if cutoff:
        coef *= (1.0 - np.abs(p) ** 2) ** CUTOFF_POWER
    R = np.broadcast_to(radius, zs.shape)
    step = max(1, OMEGA_CHUNK // len(p))
    sums = []
    for a in range(0, max(len(zs), 1), step):
        zc = zs[a:a + step, None]
        sums.append(field(zc, zc + R[a:a + step, None] * p) @ coef)
    return R * np.concatenate(sums, axis=-1)


def _smooth_kernel(d: np.ndarray) -> np.ndarray:
    """(1 - chi)/d on the offsets d = xi - z, with u = |d|^2/PATCH_RADIUS^2
    and chi = (1 - u)^CUTOFF_POWER on u < 1, 0 beyond.  It is
    conj(d)/PATCH_RADIUS^2 times 1/u off the patch and times the
    polynomial sum_{k < CUTOFF_POWER} (1 - u)^k on it, so it is smooth
    (and 0 at d = 0) while chi has CUTOFF_POWER - 1 derivatives."""
    u = (d.real ** 2 + d.imag ** 2) / PATCH_RADIUS ** 2
    g = 1.0 / np.maximum(u, 1.0)
    inside = u < 1.0
    v = 1.0 - u[inside]
    s = np.ones_like(v)
    for _ in range(CUTOFF_POWER - 1):
        s *= v
        s += 1.0
    g[inside] = s
    g *= 1.0 / PATCH_RADIUS ** 2
    return np.conj(d) * g


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
