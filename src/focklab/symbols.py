"""Built-in symbol families with their analytic dbar data.

Every evaluator is vectorized over complex arrays.  Families without a
classical dbar derivative (the disk indicator) carry dbar=None and only
exercise the mean-oscillation machinery.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Symbol:
    evaluator: Callable[[np.ndarray], np.ndarray]
    dbar: Optional[Callable[[np.ndarray], np.ndarray]] = None
    support_radius: Optional[float] = None   # None => entire plane
    # a compact symbol vanishes off inner_radius <= |z| <= support_radius
    inner_radius: float = 0.0

    def __call__(self, z):
        return self.evaluator(np.asarray(z, dtype=complex))


def _holo_poly(coeffs=(0.0, 1.0)) -> Symbol:
    coeffs = np.asarray(coeffs, dtype=complex)
    return Symbol(
        evaluator=lambda z: np.polynomial.polynomial.polyval(z, coeffs),
        dbar=lambda z: np.zeros(np.shape(z), dtype=complex))


def _conj_linear() -> Symbol:
    return Symbol(
        evaluator=lambda z: np.conj(z),
        dbar=lambda z: np.ones(np.shape(z), dtype=complex))


def _conj_gaussian(beta=1.0) -> Symbol:
    beta = float(beta)
    return Symbol(
        evaluator=lambda z: np.conj(z) * np.exp(-beta * np.abs(z) ** 2),
        dbar=lambda z: (1.0 - beta * np.abs(z) ** 2)
        * np.exp(-beta * np.abs(z) ** 2))


def _bump(radius=1.0) -> Symbol:
    R = float(radius)

    def f(z):
        rho2 = np.abs(z) ** 2
        body = (1.0 - rho2 / R ** 2) ** 2
        return np.where(rho2 < R ** 2, body, 0.0).astype(complex)

    def db(z):
        rho2 = np.abs(z) ** 2
        body = (-2.0 / R ** 2) * (1.0 - rho2 / R ** 2) * z
        return np.where(rho2 < R ** 2, body, 0.0).astype(complex)

    return Symbol(evaluator=f, dbar=db, support_radius=R)


def _step(radius=1.0) -> Symbol:
    R = float(radius)
    return Symbol(
        evaluator=lambda z: (np.abs(z) < R).astype(complex),
        dbar=None, support_radius=R)


def _mixed(radius=1.0) -> Symbol:
    bump = _bump(radius)
    return Symbol(
        evaluator=lambda z: np.conj(z) + bump.evaluator(z),
        dbar=lambda z: 1.0 + bump.dbar(z))


# Built-in families: id -> (constructor, parameter names).  The config
# validates symbol.id against this table and reads each parameter from
# the key symbol.<parameter>, which declares its type and domain.
FAMILIES = {
    "holo-poly": (_holo_poly, ("coeffs",)),
    "conj-linear": (_conj_linear, ()),
    "conj-gaussian": (_conj_gaussian, ("beta",)),
    "bump": (_bump, ("radius",)),
    "step": (_step, ("radius",)),
    "mixed": (_mixed, ("radius",)),
}


def make(family_id: str, **params) -> Symbol:
    """Construct a symbol from one of the built-in families."""
    if family_id not in FAMILIES:
        raise ValueError(f"unknown symbol family {family_id!r}")
    return FAMILIES[family_id][0](**params)
