"""Weighted dbar-solution operator in dimension one.

With omega = w(xi) d(conj xi), the n = 1 reduction of the weighted
integral solution operator is

    u(z) = c0 * integral  e^{2 grad(phi)(xi) (z - xi)} w(xi) / (xi - z) dA(xi),

where the orientation constant c0 is never assumed: it is calibrated once
against the finite-difference residual of the solution property
dbar u = w over a family of test forms.  The |xi - z|^{-1} singularity is
absorbed by integrating in polar coordinates centered at z, where the
Jacobian cancels it exactly.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .fock import KernelEval, evaluate_projection, project
from .symbols import Symbol
from .weights import WeightModel

FD_STEP = 1e-3
# a Gaussian-decay form is integrated out to this many 1/sqrt(alpha)
GAUSSIAN_REACH = 8.0

# candidate orientation constants: signs times the usual Cauchy-transform
# normalizations (1, 1/pi, 1/(2pi)) and their imaginary rotations
C0_CANDIDATES = tuple(s * m for s in (1.0, -1.0, 1j, -1j)
                      for m in (1.0, 1.0 / np.pi, 1.0 / (2 * np.pi)))


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

    def apply(self, omega: ZeroOneForm, z) -> np.ndarray:
        """A_phi(omega) at z; requires a completed calibration."""
        if self.c0 is None:
            raise CalibrationError(
                "orientation constant not set: run calibrate_orientation")
        self._certify_decay(omega)
        return self.c0 * self.raw_apply(omega, z)

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
