import dataclasses

import numpy as np
import pytest

from checks import hankel_via_dbar
from focklab import dbar, symbols
from focklab.approximant import compact_approximant, dbar_cutoff, \
    ramp_form, smooth_cutoff
from focklab.dbar import (CalibrationError, DbarSolver, DecayError,
                          calibrate_orientation, cauchy_transform, dbar_fd,
                          gaussian_test_forms)
from focklab.decomposition import Decomposition, build_partition, \
    decompose
from focklab.fock import build_basis, default_rule_for_degree, \
    kernel
from focklab.lattice import Window, build_lattice
from focklab.quadrature import polar_rule
from focklab.symbols import Symbol
from focklab.weights import gaussian_weight, perturbed_gaussian_weight


@pytest.fixture(scope="module")
def solver():
    return DbarSolver(gaussian_weight(1.0), n_radial=60, n_angular=96)


# the orientation constants a search would try: signs times the usual
# Cauchy-transform normalizations (1, 1/pi, 1/(2 pi)) and their imaginary
# rotations
CANDIDATES = tuple(s * m for s in (1.0, -1.0, 1j, -1j)
                   for m in (1.0, 1.0 / np.pi, 1.0 / (2 * np.pi)))


def _candidate_residuals(s):
    """calibrate_orientation's residual for each of CANDIDATES in place of
    C0, from one raw solve of the test family."""
    forms = gaussian_test_forms(s.weight.alpha)
    g = np.linspace(-1.2, 1.2, 5)
    probes = (g[:, None] + 1j * g[None, :]).ravel()
    raw = dbar_fd(lambda z: s.raw_apply(forms, z), probes)
    ws = [f(probes) for f in forms]
    return {c: max(float(np.max(np.abs(c * raw_dbar - w)))
                   / (float(np.max(np.abs(w))) + 1e-30)
                   for raw_dbar, w in zip(raw, ws)) for c in CANDIDATES}


def test_calibration_unique_constant():
    # C0 = -1/pi is a theorem, not a search: on every weight and fine grid
    # it meets the tolerance and every other candidate is far off
    assert dbar.C0 in CANDIDATES
    for weight in (gaussian_weight(1.0), gaussian_weight(0.5),
                   perturbed_gaussian_weight()):
        for grid in ((60, 96), (20, 32)):
            s = DbarSolver(weight, *grid)
            residuals = _candidate_residuals(s)
            assert residuals[dbar.C0] <= dbar.CALIBRATION_TOL
            assert all(r >= 0.4 for c, r in residuals.items()
                       if c != dbar.C0)


@pytest.mark.parametrize("grid", [(10, 16), (1, 1), (60, 2)])
def test_calibration_refuses_coarse_grids(grid):
    with pytest.raises(CalibrationError):
        calibrate_orientation(DbarSolver(gaussian_weight(1.0), *grid))


def test_calibration_matches_reference_bit_for_bit(solver):
    # the certificate must not move C0 or the 60 x 96 residual at all
    assert isinstance(dbar.C0, float) and dbar.C0 == -1.0 / np.pi
    assert calibrate_orientation(solver) == 8.245927790425177e-07


def test_solver_is_frozen(solver):
    assert [f.name for f in dataclasses.fields(DbarSolver)] == [
        "weight", "n_radial", "n_angular"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        solver.n_radial = 1


def test_calibration_is_one_family_solve(monkeypatch):
    # one raw_apply for the three forms, and one kernel (one gradient
    # evaluation) per chunk of points for the whole family
    weight = gaussian_weight(1.0)
    grads = []

    def grad(xi):
        grads.append(np.shape(xi))
        return weight.grad(xi)

    s = DbarSolver(dataclasses.replace(weight, grad=grad), n_radial=20,
                   n_angular=32)
    calls = _count_raw_apply(monkeypatch)
    calibrate_orientation(s)
    assert calls == [(3, (4, 25))]
    # 20 x 32 = 640 nodes: one point a chunk, the 4 x 25 stencil points
    assert grads == [(1, 640)] * 100


def _count_raw_apply(monkeypatch):
    """The (family size, points shape) of every raw_apply call from now."""
    calls = []
    raw_apply = DbarSolver.raw_apply

    def counted(self, forms, z):
        calls.append((len(forms), np.shape(z)))
        return raw_apply(self, forms, z)

    monkeypatch.setattr(DbarSolver, "raw_apply", counted)
    return calls


def test_calibration_memoised_per_solver(monkeypatch):
    # equal solvers (same weight object, same grid) share one solve; a
    # replaced weight is a new key and solves again, to the same value
    weight = gaussian_weight(1.0)
    assert DbarSolver(weight, 20, 32) == DbarSolver(weight, 20, 32)
    assert hash(DbarSolver(weight, 20, 32)) == hash(DbarSolver(weight, 20,
                                                               32))
    first = calibrate_orientation(DbarSolver(weight, 20, 32))
    calls = _count_raw_apply(monkeypatch)
    assert calibrate_orientation(DbarSolver(weight, 20, 32)) == first
    assert calls == []
    copy = DbarSolver(dataclasses.replace(weight), 20, 32)
    assert copy != DbarSolver(weight, 20, 32)
    assert calibrate_orientation(copy) == first
    assert calls == [(3, (4, 25))]


def test_refused_grid_raises_on_every_call(monkeypatch):
    s = DbarSolver(gaussian_weight(1.0), 10, 16)
    with pytest.raises(CalibrationError):
        calibrate_orientation(s)
    calls = _count_raw_apply(monkeypatch)
    for _ in range(2):
        with pytest.raises(CalibrationError):
            calibrate_orientation(DbarSolver(gaussian_weight(1.0), 10, 16))
    assert calls == []


def test_tolerance_checked_on_memoised_residual(solver, monkeypatch):
    residual = calibrate_orientation(solver)
    monkeypatch.setattr(dbar, "CALIBRATION_TOL", 0.5 * residual)
    with pytest.raises(CalibrationError):
        calibrate_orientation(solver)


def test_failed_solve_is_not_memoised(monkeypatch):
    s = DbarSolver(dataclasses.replace(gaussian_weight(1.0)), 20, 32)

    def failing(self, forms, z):
        raise MemoryError("out of memory")

    with monkeypatch.context() as m:
        m.setattr(DbarSolver, "raw_apply", failing)
        with pytest.raises(MemoryError):
            calibrate_orientation(s)
    reference = calibrate_orientation(DbarSolver(gaussian_weight(1.0), 20,
                                                 32))
    calls = _count_raw_apply(monkeypatch)
    assert calibrate_orientation(s) == reference
    assert len(calls) == 1


def _stencil(z, h=dbar.FD_STEP):
    return z + np.array([h, -h, 1j * h, -1j * h])[:, None]


def _compact_family():
    bump = _radial_form()
    return [bump,
            Symbol(lambda xi: np.conj(xi) * bump(xi),
                   support_radius=RADIAL_R),
            Symbol(lambda xi: (1.0 + 0.5j * xi) * bump(xi),
                   support_radius=RADIAL_R)]


@pytest.mark.parametrize("grid", [(60, 96), (10, 16)])
def test_family_equals_per_form_calls(solver, grid):
    # on 10 x 16 nodes a chunk holds six points, on 60 x 96 one
    s = DbarSolver(solver.weight, *grid)
    g = np.linspace(-1.2, 1.2, 5)
    probes = (g[:, None] + 1j * g[None, :]).ravel()
    cases = [(gaussian_test_forms(1.0), _stencil(probes)),
             (_compact_family(), np.linspace(-2.5, 2.5, 13) + 0.3j)]
    for forms, z in cases:
        raw = s.raw_apply(forms, z)
        solved = s.apply(forms, z)
        assert raw.shape == solved.shape == (len(forms),) + z.shape
        for omega, raw_row, row in zip(forms, raw, solved):
            assert np.array_equal(raw_row, s.raw_apply([omega], z)[0])
            assert np.array_equal(row, s.apply([omega], z)[0])
        fd = dbar_fd(lambda w: s.raw_apply(forms, w), z)
        for omega, row in zip(forms, fd):
            assert np.array_equal(
                row, dbar_fd(lambda w: s.raw_apply([omega], w), z)[0])
    forms = _compact_family()
    assert np.array_equal(s.raw_apply(forms, 0.3j),
                          s.raw_apply(forms, np.array([0.3j]))[:, 0])
    assert s.raw_apply(forms[:1], np.array([0.3j])).shape == (1, 1)


def test_mixed_support_radii_refused(solver):
    gaussian = gaussian_test_forms(1.0)[0]
    z = np.array([0.2 + 0.1j])
    for forms in ([gaussian, _radial_form()],
                  [_radial_form(),
                   Symbol(_radial_form(), support_radius=3.0)]):
        with pytest.raises(ValueError, match="support radius"):
            solver.raw_apply(forms, z)
        with pytest.raises(ValueError, match="support radius"):
            solver.apply(forms, z)


def test_dbar_fd_evaluates_field_once():
    calls = []

    def u(w):
        calls.append(np.shape(w))
        return np.conj(w) ** 2 + w ** 3

    z = np.array([0.3 - 0.2j, -0.6 + 0.4j, 1.1j])
    d = dbar_fd(u, z)
    assert calls == [(4, 3)]
    assert np.max(np.abs(d - 2.0 * np.conj(z))) < 1e-5


# --- raw_apply against one polar rule per point, built in a loop ---

def _reference_raw_apply(solver, omega, z):
    """(the integrals, the sums of the absolute values of their terms)"""
    if omega.support_radius is not None:
        reach = omega.support_radius + 0.25
    else:
        reach = dbar.GAUSSIAN_REACH / np.sqrt(solver.weight.alpha)
    t, wt = np.polynomial.legendre.leggauss(solver.n_radial)
    phase = np.exp(2j * np.pi * np.arange(solver.n_angular)
                   / solver.n_angular)
    grad = solver.weight.grad
    out = np.empty(len(z), dtype=complex)
    size = np.empty(len(z))
    for i, zp in enumerate(z):
        R = abs(zp) + reach
        rho = 0.5 * R * (t + 1.0)
        wrho = 0.5 * R * wt
        xi = zp + rho[:, None] * phase[None, :]
        vals = (np.exp(2.0 * grad(xi) * (zp - xi)) * omega(xi)
                * np.conj(phase)[None, :])
        terms = (wrho[:, None] * (2 * np.pi / solver.n_angular)) * vals
        out[i], size[i] = np.sum(terms), np.sum(np.abs(terms))
    return out, size


RAW_POINTS = {
    "near": np.array([0.0, 0.05 + 0.02j, -0.3 + 0.1j, 0.2j]),
    "far": np.array([4.0 + 3.0j, -7.0 + 0.5j, 9.0j]),
    "outside-support": np.array([2.02 + 0.0j, -1.5 - 1.4j, 0.1 + 2.05j]),
}


@pytest.mark.parametrize("where", sorted(RAW_POINTS))
def test_raw_apply_equals_per_point_reference(solver, where):
    z = RAW_POINTS[where]
    # relative to the terms' size: far out the kernel weight makes them
    # much larger than the integral, and at 0 the integrals vanish
    for omega in gaussian_test_forms(1.0) + [_radial_form()]:
        ref, size = _reference_raw_apply(solver, omega, z)
        got, = solver.raw_apply([omega], z)
        assert np.all(np.abs(got - ref) <= 1e-13 * size)


def test_raw_apply_chunking_invariant(monkeypatch):
    # on a 10 x 16 rule each field call gets six points; at OMEGA_CHUNK
    # = 7 it gets one
    s = DbarSolver(gaussian_weight(1.0), n_radial=10, n_angular=16)
    z = np.linspace(-1.5, 2.5, 13) + 0.3j
    omega = gaussian_test_forms(1.0)[1]
    whole, = s.raw_apply([omega], z)
    monkeypatch.setattr(dbar, "OMEGA_CHUNK", 7)
    chunked, = s.raw_apply([omega], z)
    assert np.all(np.abs(chunked - whole) <= 1e-14 * np.abs(whole))
    assert s.raw_apply([omega], z[4])[0] == chunked[4]


def test_residual_on_gaussian_family(solver):
    rng = np.random.default_rng(11)
    z = rng.uniform(-0.8, 0.8, 12) + 1j * rng.uniform(-0.8, 0.8, 12)
    for omega in gaussian_test_forms(1.0):
        scale = float(np.max(np.abs(omega(z))))
        resid = np.abs(dbar_fd(lambda w: solver.apply([omega], w)[0], z)
                       - omega(z))
        assert np.max(resid) <= 1e-3 * max(scale, 1.0)


def test_linearity(solver):
    a, b = gaussian_test_forms(1.0)[:2]
    combo = Symbol(lambda xi: 2.0 * a.evaluator(xi)
                   - 0.5j * b.evaluator(xi))
    z = np.array([0.3 - 0.2j, -0.6 + 0.4j])
    lhs, = solver.apply([combo], z)
    ua, ub = solver.apply([a, b], z)
    rhs = 2.0 * ua - 0.5j * ub
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_hankel_identity_on_kernel_span(solver, basis25, weight):
    # A_phi(g dbar f) - P A_phi(g dbar f) agrees with fg - P(fg)
    rule = basis25.rule
    ew2 = np.exp(-2.0 * weight.phi(rule.nodes))
    f = symbols.make("bump", radius=2.0)
    for w0 in (0.0, 0.5 + 0.3j):
        g = lambda xi: kernel(basis25, xi, w0)
        lhs, rhs = hankel_via_dbar(solver, f, g, basis25)
        num = np.sqrt(abs(rule.integrate(np.abs(lhs - rhs) ** 2 * ew2)))
        den = np.sqrt(abs(rule.integrate(np.abs(rhs) ** 2 * ew2)))
        assert num / den < 5e-2


def test_hankel_identity_requires_dbar(solver, basis25):
    f = symbols.make("step", radius=1.0)
    with pytest.raises(ValueError):
        hankel_via_dbar(solver, f, lambda xi: np.ones_like(xi), basis25)


# --- the Cauchy engine for compact forms -------------------------------

RADIAL_R = 2.0


def _radial_form():
    # omega(rho) = (1 - rho^2/R^2)^3 cos(2 rho) on B(0, R)
    return Symbol(
        lambda xi: (np.clip(1.0 - np.abs(xi) ** 2 / RADIAL_R ** 2, 0.0, None)
                    ** 3 * np.cos(2.0 * np.abs(xi))),
        support_radius=RADIAL_R)


def _radial_exact(z):
    """u(z) = (2/z) int_0^|z| omega(rho) rho d rho, by a fine Gauss rule."""
    x, wx = np.polynomial.legendre.leggauss(200)
    out = []
    for zz in np.atleast_1d(z):
        top = min(abs(zz), RADIAL_R)
        rho = 0.5 * top * (x + 1.0)
        vals = (1.0 - rho ** 2 / RADIAL_R ** 2) ** 3 * np.cos(2.0 * rho) * rho
        out.append(2.0 / zz * 0.5 * top * np.sum(wx * vals))
    return np.array(out)


def test_cauchy_apply_radial_closed_form():
    omega = _radial_form()
    inside = np.array([0.05 + 0.02j, 0.7 - 0.4j, -1.1 + 0.9j, 1.6j])
    edge = np.array([1.95 + 0.1j, -2.1 + 0.0j, 0.3 - 2.3j, 2.45])
    far = np.array([4.0 + 3.0j, -7.0 + 0.5j, 20.0j])
    node = polar_rule(0.0, RADIAL_R, *dbar.CAUCHY_GRID).nodes[[5, 1000]]
    for z in (inside, edge, far, node):
        u = cauchy_transform(omega, z)
        assert np.max(np.abs(u - _radial_exact(z))) <= 1e-12
    scalar = cauchy_transform(omega, 0.7 - 0.4j)
    assert np.ndim(scalar) == 0
    assert abs(scalar - cauchy_transform(omega, inside)[1]) <= 1e-14


def test_cauchy_apply_dbar_residual():
    omega = _radial_form()
    rng = np.random.default_rng(5)
    z = rng.uniform(-1.3, 1.3, 10) + 1j * rng.uniform(-1.3, 1.3, 10)
    resid = np.abs(dbar_fd(lambda w: cauchy_transform(omega, w), z)
                   - omega(z))
    assert np.max(resid) <= 1e-3 * float(np.max(np.abs(omega(z))))


def test_cauchy_apply_samples_the_support_rule_in_one_call():
    # the CAUCHY_GRID support nodes are the form's only call
    omega = _radial_form()
    calls = []

    def recorded(xi):
        calls.append(np.array(xi))
        return omega(xi)

    wrapped = Symbol(recorded, support_radius=RADIAL_R)
    nodes = default_rule_for_degree(20, 1.0).nodes
    psi = cauchy_transform(wrapped, nodes)
    rule = polar_rule(0.0, RADIAL_R, *dbar.CAUCHY_GRID)
    assert len(calls) == 1 and np.array_equal(calls[0], rule.nodes)
    assert np.array_equal(psi, cauchy_transform(omega, nodes))


def test_cauchy_apply_rejections():
    with pytest.raises(DecayError):
        cauchy_transform(gaussian_test_forms(1.0)[0], np.array([0.5]))


def _annular_c1_form(t):
    """(g, dbar g) for g = h(rho) (conj(xi)^2 + xi^3 / 2 + 1) with
    h = ((rho - t)(t + 1 - rho))^2 on t <= rho <= t + 1, 0 off it: C^1
    with compact support, and dbar g = h'(rho) xi / (2 rho) (...) +
    2 h conj(xi) carries the angular modes -1, 1 and 4."""
    def h(xi):
        u = np.clip(np.abs(xi) - t, 0.0, 1.0)
        return (u * (1.0 - u)) ** 2, 2.0 * u * (1.0 - u) * (1.0 - 2.0 * u)

    def poly(xi):
        return np.conj(xi) ** 2 + 0.5 * xi ** 3 + 1.0

    def g(xi):
        return h(xi)[0] * poly(xi)

    def dbar_g(xi):
        value, slope = h(xi)
        return (slope * xi / (2.0 * np.maximum(np.abs(xi), t)) * poly(xi)
                + 2.0 * value * np.conj(xi))

    return g, Symbol(dbar_g, support_radius=t + 1.0, inner_radius=t)


@pytest.mark.parametrize("t", [2.0, 4.0])
def test_cauchy_transform_inverts_dbar_on_an_annular_c1_form(t):
    # Cauchy-Pompeiu: C(dbar g) = g for g in C^1_c, in the hole, on the
    # annulus (its edges and the rule's radii among them) and outside.
    # The modes are exact, so only roundoff is left: 2e-15 max|g|
    # measured, where the singular-patch engine this replaced read 1.1e-3
    # (t = 2) and 6.7e-3 (t = 4)
    g, omega = _annular_c1_form(t)
    n_r, n_t = dbar.CAUCHY_GRID
    radii = polar_rule(0.0, t + 1.0, n_r, n_t, t).nodes[::n_t].real
    turn = np.exp(2j * np.pi * np.random.default_rng(0).random(6))
    z = np.concatenate([
        np.outer([0.0, 0.3, t - 0.5, t, t + 0.37, t + 0.9, t + 1.0,
                  t + 1.5, 3.0 * (t + 1.0)], turn).ravel(),
        radii[[0, 5, n_r - 1]] * turn[:3], [t, t + 1.0]])
    assert np.max(np.abs(cauchy_transform(omega, z) - g(z))) \
        <= 1e-12 * np.max(np.abs(g(z)))


def test_approximant_gap_converged_under_grid_doubling(solver, monkeypatch):
    # thm12-report's default t = 2 row: conj-linear, lattice.r = 1, D = 20
    f = symbols.make("conj-linear")
    basis = build_basis(solver.weight, 20, default_rule_for_degree(20, 1.0))
    D = decompose(f, build_partition(build_lattice(0.0, 1.0,
                                                   Window.square(5.0))))
    base = compact_approximant(f, D, 2.0, basis, 10)
    monkeypatch.setattr(dbar, "CAUCHY_GRID",
                        tuple(2 * n for n in dbar.CAUCHY_GRID))
    doubled = compact_approximant(f, D, 2.0, basis, 10)
    assert abs(doubled.values[0] - base.values[0]) < 1e-6
    assert base.reliable and abs(base.values[0] - 1.0) <= 0.05


def _thm12_decomposition(family):
    """thm12-report's partition for t <= 5: lattice.r = 1 on the square
    of half-width 5 + 1 + 2 lattice.r."""
    f = symbols.make(family)
    L = build_lattice(0.0, 1.0, Window.square(8.0))
    return f, decompose(f, build_partition(L))


@pytest.mark.parametrize("degree", [20, 30])
def test_approximant_certified_exactly_when_converged(solver, degree):
    # conj-linear's converged gap is ||H_f||_e = 1 at every t (D = 40 and
    # 60 read 1.000000 up to t = 4); a row is certified exactly when its
    # gap is within 1e-3 of it, and an uncertified row is stopped by its
    # degree shift, not by its margin shift
    f, D = _thm12_decomposition("conj-linear")
    basis = build_basis(solver.weight, degree,
                        default_rule_for_degree(degree, 1.0))
    for t in (2.0, 3.0, 4.0, 5.0):
        S = compact_approximant(f, D, t, basis, 10)
        assert S.degree_shift >= 0.0
        assert S.reliable == (abs(S.values[0] - 1.0) <= 1e-3), (t, S.values[0])
        assert S.stability_shift <= 1e-3


def test_approximant_certifies_a_converged_compact_gap(solver):
    # bump at t = 4: the degree-20 gap is certified and agrees with the
    # degree-40 gap
    f, D = _thm12_decomposition("bump")
    gaps = {}
    for degree in (20, 40):
        basis = build_basis(solver.weight, degree,
                            default_rule_for_degree(degree, 1.0))
        gaps[degree] = compact_approximant(f, D, 4.0, basis, 10)
    assert gaps[20].reliable
    assert abs(gaps[20].values[0] - gaps[40].values[0]) <= 1e-4


def test_approximant_needs_a_positive_cutoff_radius():
    with pytest.raises(ValueError, match="t must be positive"):
        compact_approximant(symbols.make("conj-linear"), None, 0.0, None)


def test_approximant_reads_f1_on_the_ramp_annulus_only(solver, monkeypatch):
    # psi_t by Cauchy-Pompeiu: no dbar f_1 and no f_2 are sampled, and
    # f_1 is read strictly inside t < |xi| < t + 1, where dbar sigma_t
    # does not vanish
    points = []
    f1 = Decomposition.f1

    def recorded(self, z):
        points.append(np.abs(np.ravel(z)))
        return f1(self, z)

    def refused(self, z):
        raise AssertionError("compact_approximant sampled dbar f_1 or f_2")

    f, D = _thm12_decomposition("mixed")
    basis = build_basis(solver.weight, 20, default_rule_for_degree(20, 1.0))
    monkeypatch.setattr(Decomposition, "f1", recorded)
    monkeypatch.setattr(Decomposition, "dbar_f1", refused)
    monkeypatch.setattr(Decomposition, "f2", refused)
    for t in (2.0, 4.0):
        points.clear()
        compact_approximant(f, D, t, basis, 10)
        r = np.concatenate(points)
        assert r.size == np.prod(dbar.CAUCHY_GRID)
        assert np.all((t < r) & (r < t + 1.0)), t


def test_dbar_cutoff_is_the_derivative_of_the_cutoff():
    # dbar sigma_t against a central difference on the ramp, and 0 off it
    rng = np.random.default_rng(3)
    z = rng.uniform(2.05, 2.95, 20) * np.exp(2j * np.pi * rng.random(20))
    fd = dbar_fd(lambda w: smooth_cutoff(2.0, w), z, h=1e-5)
    assert np.max(np.abs(dbar_cutoff(2.0, z) - fd)) <= 1e-8
    off = np.array([0.0, 1.0, -2.0, 3.0j, 4.0 - 1.0j])
    assert np.array_equal(dbar_cutoff(2.0, off), np.zeros(5, complex))


# on a modal grid twice CAUCHY_GRID each way the two forms of psi_t agree
# to 2.2e-4 max|psi| on these six cases, and at CAUCHY_GRID to 1.1e-3:
# the disc form sigma_t dbar f_1 has a kink at |xi| = t inside its radial
# rule
IDENTITY_TOL = 3e-4


@pytest.mark.parametrize("family", ["conj-linear", "mixed", "step"])
def test_cauchy_pompeiu_identity_on_the_plane_rule(monkeypatch, family):
    # C(sigma_t dbar f_1) = sigma_t f_1 - C(f_1 dbar sigma_t): sigma_t f_1
    # is C^1 with compact support
    monkeypatch.setattr(dbar, "CAUCHY_GRID",
                        tuple(2 * n for n in dbar.CAUCHY_GRID))
    _, D = _thm12_decomposition(family)
    nodes = default_rule_for_degree(20, 1.0).nodes
    for t in (2.0, 4.0):
        disc = Symbol(lambda xi: smooth_cutoff(t, xi) * D.dbar_f1(xi),
                      support_radius=t + 1.0)
        psi = cauchy_transform(disc, nodes)
        pompeiu = (smooth_cutoff(t, nodes) * D.f1(nodes)
                   - cauchy_transform(ramp_form(t, D), nodes))
        assert (np.max(np.abs(psi - pompeiu))
                <= IDENTITY_TOL * np.max(np.abs(psi))), t
