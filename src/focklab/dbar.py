"""Weighted dbar-solution operator in dimension one.

With omega = w(xi) d(conj xi), the n = 1 reduction of the weighted
integral solution operator is

    u(z) = c0 * integral  e^{2 grad(phi)(xi) (z - xi)} w(xi) / (xi - z) dA(xi),

where the orientation constant c0 is never assumed: it is calibrated once
against the finite-difference residual of the solution property
dbar u = w over a family of test forms.  The |xi - z|^{-1} singularity is
absorbed by integrating in polar coordinates centered at z, where the
Jacobian cancels it exactly.

Compact forms have a cheaper solution, the Cauchy transform
C(w)(z) = c0 * integral w(xi) / (xi - z) dA(xi), with the same c0 since
the weight factor is 1 at xi = z.  C(w) - A_phi(w) is entire of
exponential type, and the Hankel operator vanishes on such functions, so
both give the same H_psi; but C(w) = O(1/z) off the support, so truncated
projections represent it.  `cauchy_apply` samples w once on a polar rule
over its support and splits the kernel with a floating cutoff
chi(|xi - z| / PATCH_RADIUS) (Bruno & Kunyansky, J. Comput. Phys. 169,
2001): the smooth part (1 - chi)/(xi - z) is one sum against the shared
samples at every point, the singular part chi/(xi - z) a small polar
patch about each point near the support.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .fock import KernelEval, evaluate_projection, project
from .quadrature import polar_rule
from .symbols import Symbol
from .weights import WeightModel

FD_STEP = 1e-3
# a Gaussian-decay form is integrated out to this many 1/sqrt(alpha)
GAUSSIAN_REACH = 8.0

# candidate orientation constants: signs times the usual Cauchy-transform
# normalizations (1, 1/pi, 1/(2pi)) and their imaginary rotations
C0_CANDIDATES = tuple(s * m for s in (1.0, -1.0, 1j, -1j)
                      for m in (1.0, 1.0 / np.pi, 1.0 / (2 * np.pi)))

# The Cauchy engine splits its kernel with the floating cutoff
# chi = (1 - |xi - z|^2 / PATCH_RADIUS^2)^CUTOFF_POWER: the singular part
# goes on a PATCH_GRID (radial x angular) polar patch about z.  Set by a
# convergence sweep: on a smooth radial form these values are within
# 1e-7 of the closed form at the default 60 x 96 support rule, where
# exp(-u/(1-u)) reached only 5e-5.  Forms are sampled OMEGA_CHUNK points
# at a time and kernel blocks hold about KERNEL_BYTES (one point's row at
# least), which bounds the engine's memory; 256 KiB blocks stay in cache
# and ran 4x faster than 1 MiB ones.
PATCH_RADIUS = 0.5
PATCH_GRID = (8, 16)
CUTOFF_POWER = 8
OMEGA_CHUNK = 1024
KERNEL_BYTES = 1 << 18


class DecayError(RuntimeError):
    """Form decay cannot be certified against the kernel growth."""


class CalibrationError(RuntimeError):
    """No candidate orientation constant solves the dbar equation."""


@dataclass(frozen=True)
class ZeroOneForm:
    """(0,1)-form w(xi) d(conj xi); evaluator vectorized over arrays."""
    coefficient: Callable[[np.ndarray], np.ndarray]
    decay: str = "gaussian"            # gaussian | compact
    support_radius: Optional[float] = None

    def __post_init__(self):
        if self.decay not in ("gaussian", "compact"):
            raise ValueError(f"unknown decay tag {self.decay!r}")
        if self.decay == "compact" and self.support_radius is None:
            raise ValueError("compact forms must declare a support radius")

    def __call__(self, xi):
        return self.coefficient(np.asarray(xi, dtype=complex))


@dataclass
class DbarSolver:
    weight: WeightModel
    n_radial: int = 90
    n_angular: int = 128
    c0: Optional[complex] = None
    calibration_residual: Optional[float] = field(default=None)

    def _polar_template(self):
        t, wt = np.polynomial.legendre.leggauss(self.n_radial)
        theta = 2.0 * np.pi * np.arange(self.n_angular) / self.n_angular
        return t, wt, np.exp(1j * theta)

    def raw_apply(self, omega: ZeroOneForm, z) -> np.ndarray:
        """The integral with c0 = 1, batched over evaluation points."""
        zs = np.atleast_1d(np.asarray(z, dtype=complex))
        if omega.decay == "compact":
            reach = omega.support_radius + 0.25
        else:
            reach = GAUSSIAN_REACH / np.sqrt(self.weight.alpha)
        t, wt, phase = self._polar_template()
        grad = self.weight.grad
        out = np.empty(zs.shape, dtype=complex)
        for i, zp in enumerate(zs):
            R = abs(zp) + reach
            rho = 0.5 * R * (t + 1.0)
            wrho = 0.5 * R * wt
            xi = zp + rho[:, None] * phase[None, :]
            vals = (np.exp(2.0 * grad(xi) * (zp - xi)) * omega(xi)
                    * np.conj(phase)[None, :])
            out[i] = np.sum((wrho[:, None] * (2 * np.pi / self.n_angular))
                            * vals)
        return out.reshape(np.shape(z)) if np.ndim(z) else out[0]

    def _calibrated_c0(self) -> complex:
        if self.c0 is None:
            raise CalibrationError(
                "orientation constant not set: run calibrate_orientation")
        return self.c0

    def apply(self, omega: ZeroOneForm, z) -> np.ndarray:
        """A_phi(omega) at z; requires a completed calibration."""
        c0 = self._calibrated_c0()
        self._certify_decay(omega)
        return c0 * self.raw_apply(omega, z)

    def cauchy_apply(self, omega: ZeroOneForm, z) -> np.ndarray:
        """c0 * integral omega(xi) / (xi - z) dA(xi) for a compact form.

        One solution of dbar u = omega; it differs from A_phi(omega) by an
        entire function.  omega is sampled once on a polar rule over its
        support, of the solver's n_radial x n_angular size; the smooth
        part (1 - chi)/(xi - z) of the kernel is summed against those
        shared samples at every point, and points within PATCH_RADIUS of
        the support add chi/(xi - z) on a polar patch about themselves,
        where the Jacobian cancels the singularity.
        """
        c0 = self._calibrated_c0()
        if omega.decay != "compact":
            raise DecayError("the Cauchy transform needs a compactly "
                             "supported form")
        zs = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
        R = omega.support_radius
        rule = polar_rule(0.0, R, self.n_radial, self.n_angular)
        xi = rule.nodes
        wom = rule.weights * _sample(omega, xi)
        out = np.empty(zs.shape, dtype=complex)
        step = max(1, KERNEL_BYTES // (16 * len(xi)))
        for a in range(0, len(zs), step):
            out[a:a + step] = _smooth_kernel(
                xi[None, :] - zs[a:a + step, None]) @ wom
        near = np.flatnonzero(np.abs(zs) < R + PATCH_RADIUS)
        if near.size:
            patch = polar_rule(0.0, PATCH_RADIUS, *PATCH_GRID)
            p = patch.nodes
            chi = (1.0 - np.abs(p) ** 2 / PATCH_RADIUS ** 2) ** CUTOFF_POWER
            coef = patch.weights * chi / p
            pts = zs[near, None] + p[None, :]
            out[near] += _sample(omega, pts.ravel()).reshape(pts.shape) @ coef
        out *= c0
        return out.reshape(np.shape(z)) if np.ndim(z) else out[0]

    def _certify_decay(self, omega: ZeroOneForm):
        """Check the kernel-weighted integrand has died out at the reach."""
        if omega.decay == "compact":
            return
        ring = (GAUSSIAN_REACH / np.sqrt(self.weight.alpha)
                * np.exp(2j * np.pi * np.arange(16) / 16))
        weighted = np.abs(np.exp(-2.0 * self.weight.grad(ring) * ring)
                          * omega(ring))
        near = np.max(np.abs(omega(0.1 * ring))) + 1e-30
        if np.max(weighted) > 1e-8 * near:
            raise DecayError("kernel-weighted form does not decay within "
                             "the configured reach; refusing the integral")


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


def _sample(omega: ZeroOneForm, xi: np.ndarray) -> np.ndarray:
    """omega on the flat node array xi, OMEGA_CHUNK nodes at a time."""
    return np.concatenate([omega(xi[a:a + OMEGA_CHUNK])
                           for a in range(0, len(xi), OMEGA_CHUNK)])


def dbar_fd(u: Callable[[np.ndarray], np.ndarray], z,
            h: float = FD_STEP) -> np.ndarray:
    """Central finite-difference dbar = (d/dx + i d/dy)/2 of a field."""
    z = np.asarray(z, dtype=complex)
    ux = (u(z + h) - u(z - h)) / (2 * h)
    uy = (u(z + 1j * h) - u(z - 1j * h)) / (2 * h)
    return 0.5 * (ux + 1j * uy)


def gaussian_test_forms(alpha: float = 1.0) -> list[ZeroOneForm]:
    """Gaussian-modulated coefficients with distinct angular structure."""
    return [
        ZeroOneForm(lambda xi: np.exp(-alpha * np.abs(xi) ** 2)),
        ZeroOneForm(lambda xi: np.conj(xi) * np.exp(-alpha * np.abs(xi) ** 2)),
        ZeroOneForm(lambda xi: (1.0 + 0.5 * np.real(xi))
                    * np.exp(-0.8 * alpha * np.abs(xi) ** 2)),
    ]


def calibrate_orientation(solver: DbarSolver, forms=None,
                          rel_tol: float = 1e-2) -> complex:
    """Pick c0 from the candidate set by the dbar-residual oracle.

    The winner must reproduce dbar u = w within `rel_tol` relative to
    max|w| over the family on a 5 x 5 probe grid, else calibration fails
    loudly.
    """
    if forms is None:
        forms = gaussian_test_forms(solver.weight.alpha)
    g = np.linspace(-1.2, 1.2, 5)
    probes = (g[:, None] + 1j * g[None, :]).ravel()
    # raw solution is linear in c0: compute once, scale per candidate
    stencil = np.concatenate([probes + FD_STEP, probes - FD_STEP,
                              probes + 1j * FD_STEP, probes - 1j * FD_STEP])
    solved = []
    for omega in forms:
        raw = solver.raw_apply(omega, stencil).reshape(4, -1)
        solved.append(((raw[0] - raw[1]) / (2 * FD_STEP)
                       + 1j * (raw[2] - raw[3]) / (2 * FD_STEP),
                       omega(probes)))
    residuals = {}
    for c0 in C0_CANDIDATES:
        worst = 0.0
        for raw_2dbar, w in solved:
            dbar_u = c0 * 0.5 * raw_2dbar
            scale = float(np.max(np.abs(w))) + 1e-30
            worst = max(worst, float(np.max(np.abs(dbar_u - w))) / scale)
        residuals[c0] = worst
    winner = min(residuals, key=residuals.get)
    if residuals[winner] > rel_tol:
        raise CalibrationError(
            f"no orientation candidate meets the residual tolerance; "
            f"best {winner} at relative residual {residuals[winner]:.3e}")
    solver.c0 = winner
    solver.calibration_residual = residuals[winner]
    return winner


def hankel_via_dbar(solver: DbarSolver, f: Symbol, g, K: KernelEval):
    """Evaluator for A_phi(g dbar f) - P(A_phi(g dbar f)) on rule nodes.

    Returns (lhs values, rhs values) on the rule nodes, where the rhs is
    the direct Hankel definition f*g - P(f*g).
    """
    if f.dbar is None:
        raise ValueError("symbol lacks an analytic dbar evaluator")
    if not callable(g):
        raise TypeError("g must be a callable kernel-span evaluator")
    rule = K.basis.rule
    gv = g(rule.nodes)
    decay = "compact" if f.support_radius is not None else "gaussian"
    omega = ZeroOneForm(lambda xi: g(xi) * f.dbar(xi), decay=decay,
                        support_radius=f.support_radius)
    u = solver.apply(omega, rule.nodes)
    lhs = u - evaluate_projection(K, project(K, u, rule), rule.nodes)
    fg = f(rule.nodes) * gv
    rhs = fg - evaluate_projection(K, project(K, fg, rule), rule.nodes)
    return lhs, rhs
