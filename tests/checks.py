"""Checks that only the tests use: lattice covering and nearest-point
distances, central differences of a weight's declared derivatives, and
the Hankel identity through the dbar solver."""

import numpy as np

from focklab.dbar import DbarSolver
from focklab.fock import FockBasis, evaluate_projection, project
from focklab.lattice import Lattice, _grid_coords, cell_index
from focklab.symbols import Symbol
from focklab.weights import WeightModel


class WindowError(ValueError):
    """Query point outside the safe (margin-shrunk) window."""


def covering_multiplicity(L: Lattice, z: complex, factor: float) -> int:
    """Number of lattice points a with |z - a| < factor * r."""
    radius = factor * L.r
    if not L.window.contains(complex(z), margin=radius):
        raise WindowError(f"point {z} too close to the window boundary "
                          f"for radius {radius}")
    return int(np.count_nonzero(np.abs(L.points - z) < radius))


def nearest_distance(L: Lattice, z) -> np.ndarray:
    """Distance from each query point to the nearest lattice point.

    On a rectangular grid the nearest point rounds each coordinate to the
    nearest grid line, clamped to the window (as cell_index does).
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if len(L.points) == 0:
        raise ValueError("lattice has no points")
    idx, _ = cell_index(L, *map(np.rint, _grid_coords(L, z)))
    return np.abs(z - L.points[idx])


def finite_difference_check(w: WeightModel, z: complex, h: float = 1e-4) -> float:
    """Max deviation of declared gradient/Hessian from central differences."""
    if h <= 0:
        raise ValueError("step must be positive")
    z = complex(z)

    def p(x, y):
        return float(w.phi(np.asarray(complex(x, y))))

    x, y = z.real, z.imag
    fx = (p(x + h, y) - p(x - h, y)) / (2 * h)
    fy = (p(x, y + h) - p(x, y - h)) / (2 * h)
    grad_fd = 0.5 * (fx - 1j * fy)
    dev = abs(grad_fd - complex(w.grad(np.asarray(z))))

    f0 = p(x, y)
    hxx = (p(x + h, y) - 2 * f0 + p(x - h, y)) / h ** 2
    hyy = (p(x, y + h) - 2 * f0 + p(x, y - h)) / h ** 2
    hxy = (p(x + h, y + h) - p(x + h, y - h)
           - p(x - h, y + h) + p(x - h, y - h)) / (4 * h ** 2)
    H_fd = np.array([[hxx, hxy], [hxy, hyy]])
    dev_h = np.max(np.abs(H_fd - np.asarray(w.hessian(z), dtype=float)))
    return float(max(dev, dev_h))


def hankel_via_dbar(solver: DbarSolver, f: Symbol, g,
                    basis: FockBasis):
    """Evaluator for A_phi(g dbar f) - P(A_phi(g dbar f)) on rule nodes.

    Returns (lhs values, rhs values) on the rule nodes, where the rhs is
    the direct Hankel definition f*g - P(f*g).
    """
    if f.dbar is None:
        raise ValueError("symbol lacks an analytic dbar evaluator")
    if not callable(g):
        raise TypeError("g must be a callable kernel-span evaluator")
    rule = basis.rule

    def residual(v):
        """(I - P) v on the rule nodes."""
        return v - evaluate_projection(basis, project(basis, v, rule),
                                       rule.nodes)

    omega = Symbol(lambda xi: g(xi) * f.dbar(xi),
                   support_radius=f.support_radius)
    u, = solver.apply([omega], rule.nodes)
    return residual(u), residual(f(rule.nodes) * g(rule.nodes))
