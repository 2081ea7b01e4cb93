"""Oracles the tests share and the package does not run: constant-coefficient
systems, the geodesic equation phi'' and a fine fixed-step RK4 flow of
it (its samples and its turning time), the boundary solutions in arc
time with the geodesic carried along, integrated by scipy's DOP853,
the direct route's ladder of one mode alone, the 2x2 odd-even
reduction with a general first level, the geodesic quadratures and
samples with one integrand call per level and
rates that take phi, the root by a bisection that integrates every
midpoint, the boundary solutions as functions of t (scipy's DOP853
interpolant), the dense restricted boundary form of a twist and its
counted row, the nine kernel fields by their closed-length formulas, the
closed-length system of a builder on [0, T] and its positivity sweep for
a mode-l block, the half closed length of an even-q family,
inverse iteration for the eigenfunctions of a scalar operator,
sign-change counts, the Sturm oscillation ladder and the
periodic/antiperiodic interlacing pattern."""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from otsuki import edwards, eigencount, geodesic, spectral
from otsuki.eigencount import BandOperator, eigenvalues_in
from otsuki.errors import (AmbiguousClassificationError, NumericalError,
                           ValidationError)
from otsuki.sl import BoundaryCondition, SLSystem, roots_of_unity_ladder
from otsuki.surface import (_q_entries, _weight, _weight_prime,
                            fourier_block_system)

ZERO_FLOOR_REL = 1e-8       # samples below this fraction of the max count as 0
INTERLACING_SLACK = 1e-8


def constant_system(dim, length, weight, potential, bc):
    """Constant-coefficient system; the calibration cases live here."""
    q = np.asarray(potential, dtype=float)

    def weights(t):
        return np.full(np.shape(t), float(weight))

    def potentials(t):
        if dim == 1:
            return np.full(np.shape(t), float(q))
        return np.tile(q, (len(t), 1))

    return SLSystem(dim=dim, length=length, bc=bc, weight=weights,
                    potential=potentials)


def phi_ddot(c, cphi, sphi, phid):
    """phi'' on the geodesic of momentum c at (cos phi, sin phi, phi'):
    the geodesic equation, which the package never steps."""
    return (sphi / cphi) * phid * phid \
        - c * c * sphi / (8.0 * math.pi ** 4 * cphi ** 7)


def rk4(y0, y1, y2, c, h, steps):
    """Fixed-step RK4 for (phi, phidot, theta) with step h.

    Returns the state and its derivatives (phi, phidot, theta, phidotdot,
    thetadot) after ``steps`` steps.  phi'' is ``phi_ddot`` and theta' the
    package's formula.  Plain floats in and out: this is the hot loop of
    every flow oracle.
    """
    theta_dot = geodesic._theta_dot

    def rhs(phi, phid):
        cphi, sphi = math.cos(phi), math.sin(phi)
        return phi_ddot(c, cphi, sphi, phid), theta_dot(c, cphi)

    h2, h6 = h / 2.0, h / 6.0
    a1, t1 = rhs(y0, y1)
    for _ in range(steps):
        v2 = y1 + h2 * a1
        a2, t2 = rhs(y0 + h2 * y1, v2)
        v3 = y1 + h2 * a2
        a3, t3 = rhs(y0 + h2 * v2, v3)
        v4 = y1 + h * a3
        a4, t4 = rhs(y0 + h * v3, v4)
        y0 += h6 * (y1 + 2 * v2 + 2 * v3 + v4)
        y1 += h6 * (a1 + 2 * a2 + 2 * a3 + a4)
        y2 += h6 * (t1 + 2 * t2 + 2 * t3 + t4)
        a1, t1 = rhs(y0, y1)
    return y0, y1, y2, a1, t1


def flow_turning(family, steps):
    """The flow's turning time next to ``family.T`` and its theta there.

    ``steps`` RK4 steps of the geodesic equation from (b, 0, 0) over
    [0, T], then one Newton step on phidot = 0; theta at the corrected time
    follows to second order in the (tiny) shift.
    """
    _, phid, theta, phidd, thd = rk4(family.b, 0.0, 0.0, family.c,
                                     family.T / steps, steps)
    dT = -phid / phidd
    return family.T + dT, theta + thd * dT


def rk4_samples(family, n, steps):
    """(phi, phidot, theta) on sample_trajectory's (n+1)-node grid by
    fixed-step RK4 of the geodesic equation, with at least ``steps`` steps
    over the half period.

    theta does not feed back into the flow, so it restarts from 0 on each
    grid interval and the increments are summed afterwards: one long
    accumulation of theta would carry rounding of ~1e-12 at 2^17 steps.
    """
    per_node = -(-steps // n)
    h = family.T / (n * per_node)
    out = np.empty((3, n + 1))
    out[:, 0] = family.b, 0.0, 0.0
    phi, phidot = family.b, 0.0
    for i in range(1, n + 1):
        phi, phidot, dtheta, _, _ = rk4(phi, phidot, 0.0, family.c, h,
                                        per_node)
        out[:, i] = phi, phidot, dtheta
    out[2] = np.cumsum(out[2])
    return out


def direct_twisted_counts(l, traj, n):
    """(rows, dirichlet) of the direct route at mode l, its ladder alone:
    the (2q, 2) array of (negative, zero) of the omega-twisted mode-l block
    on [0, T], row r for omega = exp(i pi r / q), and the negative count
    of the Dirichlet mode-l block when the zone is empty on both meshes,
    else None.  The Dirichlet block is the twisted operator with node 0
    deleted, so the ladder's reductions count it for free; the pipeline
    counts the ladders of modes 1 and 2 as one stack, each row as alone."""
    return next(spectral._ladders([partial(fourier_block_system, l)], traj,
                                  n, 0.0))


def inertia_d2_reduction_general(d11, d12, d22, e, sigma):
    """``eigencount._inertia_d2_reduction`` as it was before its first
    level was written for the couplings e I: every level, the first too,
    is the general one, which multiplies by the zero couplings u12 = u21 =
    0 there.  The bit oracle of the first level."""
    _kept, _joined = eigencount._kept, eigencount._joined
    _negatives = eigencount._negatives
    shape = (len(sigma), len(d11))
    a11, a12, a22 = (d11 - sigma[:, None], np.broadcast_to(d12, shape),
                     d22 - sigma[:, None])
    u11 = u22 = np.broadcast_to(e, (len(sigma), len(e)))
    u12 = u21 = np.zeros_like(u11)
    neg = np.zeros(len(sigma), dtype=int)
    ok = np.ones(len(sigma), dtype=bool)
    while a11.shape[1] > 2:
        h = (a11.shape[1] - 1) // 2
        odd, even = slice(1, 2 * h, 2), slice(0, 2 * h, 2)
        p11, p12, p22 = a11[:, odd], a12[:, odd], a22[:, odd]
        det = p11 * p22 - p12 * p12
        count, regular = _negatives(p11, det)
        neg += count.sum(axis=1)
        ok &= regular.all(axis=1)
        r = -1.0 / det
        n11, n12, n22 = p22 * r, p12 / det, p11 * r
        l11, l12, l21, l22 = (u[:, even] for u in (u11, u12, u21, u22))
        r11, r12, r21, r22 = (u[:, odd] for u in (u11, u12, u21, u22))
        g11, g12 = l11 * n11 + l12 * n12, l11 * n12 + l12 * n22
        g21, g22 = l21 * n11 + l22 * n12, l21 * n12 + l22 * n22
        h11, h12 = r11 * n11 + r21 * n12, r11 * n12 + r21 * n22
        h21, h22 = r12 * n11 + r22 * n12, r12 * n12 + r22 * n22
        a11 = _kept(a11, g11 * l11 + g12 * l12, h11 * r11 + h12 * r21)
        a12 = _kept(a12, g11 * l21 + g12 * l22, h11 * r12 + h12 * r22)
        a22 = _kept(a22, g21 * l21 + g22 * l22, h21 * r12 + h22 * r22)
        u11, u12, u21, u22 = (_joined(new, u) for new, u in (
            (g11 * r11 + g12 * r21, u11), (g11 * r12 + g12 * r22, u12),
            (g21 * r11 + g22 * r21, u21), (g21 * r12 + g22 * r22, u22)))
    det = a11[:, 0] * a22[:, 0] - a12[:, 0] * a12[:, 0]
    count, regular = _negatives(a11[:, 0], det)
    return neg + count, ok & regular, (
        a22[:, 0] / det, -a12[:, 0] / det, a11[:, 0] / det,
        u11[:, 0], u12[:, 0], u21[:, 0], u22[:, 0],
        a11[:, 1], a12[:, 1], a22[:, 1])


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


def composite_gauss_per_level(f, a, b, panels):
    """``quadrature._composite_gauss`` as it was when every level of
    ``adaptive_gauss`` made its own integrand call."""
    edges = np.linspace(a, b, panels + 1)
    lo = edges[:-1, None]
    hi = edges[1:, None]
    half = 0.5 * (hi - lo)
    x = lo + half * (_GL_NODES[None, :] + 1.0)
    vals = f(x.ravel()).reshape(panels, 48)
    return float(np.sum(vals @ _GL_WEIGHTS * half[:, 0]))


def adaptive_gauss_per_level(f, a, b):
    """``quadrature.adaptive_gauss`` with one integrand call per level, the
    first two too, on nodes built afresh each call: the bit oracle of the
    shared first call."""
    prev = composite_gauss_per_level(f, a, b, 1)
    panels = 2
    for _ in range(14):
        cur = composite_gauss_per_level(f, a, b, panels)
        if abs(cur - prev) < 1e-13:
            return cur
        prev = cur
        panels *= 2
    raise NumericalError("quadrature did not converge")


def regular_factors_phi(u, b):
    """(phi, kernel) of ``geodesic._regular_factors``, with cos phi left
    for the rates to take again."""
    w = 0.25 * math.pi + 0.5 * u
    phi = -b * np.sin(u)
    quart = np.cos(phi) ** 2 + math.cos(b) ** 2
    x = 2.0 * b / math.pi
    sincs = np.sinc(x * np.sin(w) ** 2) * np.sinc(x * np.cos(w) ** 2)
    return phi, 1.0 / np.sqrt(sincs * quart)


def time_rate_phi(phi, kernel):
    return geodesic.TWO_PI * np.cos(phi) ** 3 * kernel


def angle_rate_phi(phi, kernel, b):
    return math.cos(b) ** 2 * kernel / np.cos(phi)


def half_period_per_level(b):
    return adaptive_gauss_per_level(
        lambda u: time_rate_phi(*regular_factors_phi(u, b)),
        -math.pi / 2, math.pi / 2)


def rotation_angle_per_level(b):
    return adaptive_gauss_per_level(
        lambda u: angle_rate_phi(*regular_factors_phi(u, b), b),
        -math.pi / 2, math.pi / 2)


def _time_map_phi(b, lo, u):
    half = 0.5 * (u - lo)
    x = (lo + half)[:, None] + half[:, None] * geodesic._map_nodes
    phi, kernel = regular_factors_phi(x, b)
    weights = geodesic._map_weights
    return (time_rate_phi(phi, kernel) @ weights * half,
            angle_rate_phi(phi, kernel, b) @ weights * half)


def sample_trajectory_phi(family, n, increments=True):
    """(phi, phidot, theta) of ``geodesic.sample_trajectory`` for b < 0,
    every rate taking cos phi again from phi.  With ``increments`` false
    every Newton step integrates its whole partial panel again: the
    sampler as it was before later steps took only their increment."""
    b, panels = family.b, geodesic._MAP_PANELS
    grid = np.linspace(0.0, family.T, n + 1)
    edges = np.linspace(-math.pi / 2, math.pi / 2, panels + 1)
    dt, dth = _time_map_phi(b, edges[:-1], edges[1:])
    t_edge = np.concatenate(([0.0], np.cumsum(dt)))
    th_edge = np.concatenate(([0.0], np.cumsum(dth)))
    slope = 1.0 / time_rate_phi(*regular_factors_phi(edges, b))
    k = np.clip(np.searchsorted(t_edge, grid, side="right") - 1,
                0, panels - 1)
    lo, t_lo = edges[k], t_edge[k]
    span = t_edge[k + 1] - t_lo
    z = (grid - t_lo) / span
    u = (lo * (1.0 + 2.0 * z) * (1.0 - z) ** 2
         + edges[k + 1] * z * z * (3.0 - 2.0 * z)
         + span * z * (1.0 - z) * (slope[k] * (1.0 - z) - slope[k + 1] * z))

    def rates(u):
        phi, kernel = regular_factors_phi(u, b)
        return time_rate_phi(phi, kernel), angle_rate_phi(phi, kernel, b)

    t_part, th_part = _time_map_phi(b, lo, u)
    rate, arate = rates(u)
    for _ in range(geodesic._NEWTON_STEPS):
        du = (grid - t_lo - t_part) / rate
        u = u + du
        step = np.abs(du).max()
        if step < geodesic._NEWTON_TOL:
            break
        if increments and step <= geodesic._INCREMENT_STEP:
            mid_rate, mid_arate = rates(u - 0.5 * du)
            next_rate, next_arate = rates(u)
            t_part = t_part + du / 6.0 * (rate + 4.0 * mid_rate + next_rate)
            th_part = th_part + du / 6.0 * (arate + 4.0 * mid_arate
                                            + next_arate)
            rate, arate = next_rate, next_arate
        else:
            t_part, th_part = _time_map_phi(b, lo, u)
            rate, arate = rates(u)
    theta = th_edge[k] + th_part + arate * du
    phi, kernel = regular_factors_phi(u, b)
    phid = -b * np.cos(u) / time_rate_phi(phi, kernel)
    phi[0], phid[0], theta[0] = b, 0.0, 0.0
    return phi, phid, theta


def solve_parameter_bisect(p, q):
    """``geodesic.solve_parameter`` as it was when the bisection integrated
    every midpoint and ``GeodesicFamily.from_b`` integrated Xi at the root
    again: the bit and quadrature-count oracle of the replayed bisection."""
    rotation = geodesic.RotationNumber(p, q)
    target = p * math.pi / q
    hi = -1e-8
    fhi = geodesic.rotation_angle(hi) - target
    delta = math.pi / 2 - 1.0
    lo = -1.0
    flo = geodesic.rotation_angle(lo) - target
    while flo > 0:
        delta /= 2.0
        lo = -math.pi / 2 + delta
        flo = geodesic.rotation_angle(lo) - target
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        fm = geodesic.rotation_angle(mid) - target
        if fm < 0:
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    b = lo if abs(flo) <= abs(fhi) else hi
    return replace(geodesic.GeodesicFamily.from_b(b), rotation=rotation)


# the tolerance at which scipy's DOP853 integrates the boundary solutions
ODE_RTOL = 1e-11


def fundamental_rhs(l, c):
    """y' = f(t, y) of the four fundamental lambda = 0 solutions of mode l,
    in arc time t, on the family of momentum c, as scipy's ``solve_ivp``
    calls it: the state is the geodesic (phi, phi') followed by the rows of
    Y = [H | H'], and (p H')' = H Q_l gives Y' = Y A with A = [[0, Q_l /
    p], [I, -p'/p I]].  The package integrates the same solutions in the
    time-map variable u instead, where phi is closed-form."""
    def f(t, y):
        phi, phid = y[:2]
        cphi, sphi = math.cos(phi), math.sin(phi)
        p = _weight(cphi)
        q11, q12, q22 = _q_entries(l, c, cphi, sphi, phid)
        A = np.eye(4, k=-2)
        A[0, 2], A[0, 3], A[1, 2], A[1, 3] = q11 / p, q12 / p, q12 / p, q22 / p
        A[2, 2] = A[3, 3] = -_weight_prime(cphi, sphi, phid) / p
        return np.concatenate(([phid, phi_ddot(c, cphi, sphi, phid)],
                               (y[2:].reshape(4, 4) @ A).ravel()))
    return f


def dop853_solutions(l, family, rtol=ODE_RTOL, dense_output=False):
    """scipy's DOP853 integration of ``fundamental_rhs`` over [0, T] from
    (phi, phi') = (b, 0) and Y = I: the tests' oracle for the package's
    integrator."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    y0 = np.concatenate(([family.b, 0.0], np.eye(4).ravel()))
    sol = solve_ivp(fundamental_rhs(l, family.c), (0.0, family.T), y0,
                    method="DOP853", rtol=rtol, atol=1e-12,
                    dense_output=dense_output)
    assert sol.success, sol.message
    return sol


def boundary_psi(sols, traj):
    """psi(i, t), the values of psi_i (boundary data e_i) of
    ``edwards.boundary_solutions`` at times t, shape (2, len(t)), from the
    dense interpolant of scipy's DOP853 integration of the same solutions
    in arc time."""
    sol = dop853_solutions(sols.l, traj.family, dense_output=True)

    def psi(i, t):
        Y = sol.sol(np.atleast_1d(t))[2:].reshape(4, 4, -1)
        return np.tensordot(sols.coeffs[:, i], Y[:, :2], axes=1)

    return psi


def restricted_form(a, omega):
    """The boundary form ``a`` restricted to the omega-twist subspace, as
    the dense Hermitian 2x2 matrix whose entries ``edwards.aggregate_roots``
    reads off s = Re(omega)."""
    omega = complex(omega)
    s2 = omega + omega.conjugate()           # 2 Re(omega)
    d = omega - omega.conjugate()            # 2i Im(omega)
    return np.array([
        [2.0 * a[0, 0] + s2.real * a[0, 2], d * a[0, 3]],
        [-d * a[0, 3], 2.0 * a[1, 1] - s2.real * a[1, 3]],
    ], dtype=complex)


def dense_twisted_row(data, q, r):
    """(negative, zero) of twist omega_r of the 2q-th roots of unity from
    ``np.linalg.eigvalsh`` of ``restricted_form``, with the zero tolerance
    and the root rule of ``edwards.aggregate_roots``: the oracle of its
    rows."""
    omega = roots_of_unity_ladder(q)[r]
    A = restricted_form(data.a, omega)
    eigs = np.linalg.eigvalsh(A)
    tau = edwards.FORM_TOL_REL * max(np.abs(A).max(), 1e-30)
    zero = int(np.sum(np.abs(eigs) <= tau))
    if zero and not any(abs(omega.real - root) <= edwards.ROOT_TOL
                        for root in data.poly.roots):
        raise AmbiguousClassificationError(
            f"dense form singular at Re(omega)={omega.real:.6f}")
    return data.dirichlet.negative + int(np.sum(eigs < -tau)), zero


def full_period_grid(traj):
    """Uniform grid over [0, t0) whose nodes fold onto trajectory nodes."""
    return np.arange(2 * traj.family.rotation.q * traj.n) * (traj.family.T / traj.n)


def closed_length_fields(traj):
    """(h1, h2) of the nine kernel fields on ``full_period_grid``, in id
    order, by their closed-length formulas in (phi, phi', theta) from
    ``Trajectory.at``: the oracle of the [0, T) profiles of
    ``surface.kernel_fields``."""
    phi, phid, theta = traj.at(full_period_grid(traj))
    cphi, sphi = np.cos(phi), np.sin(phi)
    ctheta, stheta = np.cos(theta), np.sin(theta)
    thd = geodesic._theta_dot(traj.family.c, cphi)
    zero = np.zeros_like(phi)
    w2 = geodesic.TWO_PI * cphi ** 2 * phid
    sc, ss = sphi * ctheta, sphi * stheta
    pair1 = sc, geodesic.TWO_PI * cphi * (sc * phid + stheta * cphi * thd)
    pair2 = ss, geodesic.TWO_PI * cphi * (ss * phid - ctheta * cphi * thd)
    return [(cphi * np.sin(2 * theta), zero), (cphi * np.cos(2 * theta), zero),
            (zero, w2), pair1, pair1, pair2, pair2, (cphi, w2), (cphi, w2)]


def closed_length_system(build, traj, bc):
    """``build(traj, bc)`` stretched from [0, T] to the closed length
    t0 = 2qT: the reference problem that the twist ladders on [0, T] split
    into 2q twisted problems."""
    return replace(build(traj, bc), length=traj.family.t0)


def closed_length_positive(l, traj, mesh):
    """True when the periodic mode-l block over the closed length t0 = 2qT
    has no eigenvalue at or below zero, counted on the meshes ``mesh`` and
    2 ``mesh``: the sweep that the pointwise bound of
    ``spectral.verify_high_l_positive`` replaces."""
    system = closed_length_system(partial(fourier_block_system, l), traj,
                                  BoundaryCondition.periodic())
    return spectral.spectrum_counts(system, mesh) == (0, 0)


def half_length_system(build, traj, bc):
    """``closed_length_system(build, traj, bc)`` cut to the half closed
    length t0/2, on which the symmetry classes of an even-q family are
    counted."""
    return replace(closed_length_system(build, traj, bc),
                   length=0.5 * traj.family.t0)


def zero_count(samples, antiperiodic=False):
    """Sign changes of a sampled function over one period.

    Nodes that are exactly zero (below the relative floor) are treated as
    single crossings, not two.  With ``antiperiodic`` the wrap from the
    last sample back to the first picks up an extra sign flip.
    """
    f = np.asarray(samples, dtype=float)
    if len(f) < 256:
        raise ValidationError("need at least 256 samples per period")
    scale = np.abs(f).max()
    if scale == 0.0 or not np.isfinite(scale):
        raise ValidationError("function is identically zero (or invalid)")
    s = np.sign(np.where(np.abs(f) <= ZERO_FLOOR_REL * scale, 0.0, f)).astype(int)
    signs = s[s != 0]
    if len(signs) == 0:
        raise ValidationError("function sits below the noise floor everywhere")
    flips = int(np.sum(signs[1:] != signs[:-1]))
    last_to_first = signs[-1] != (-signs[0] if antiperiodic else signs[0])
    return flips + int(last_to_first)


INVERSE_ITERATIONS = 4
INVERSE_ITERATION_SEED = 1234


def _thomas_band(d, e, rhs):
    m = len(d)
    c = [0.0] * m
    x = [0.0] * m
    beta = d[0]
    x[0] = rhs[0] / beta
    for j in range(1, m):
        c[j] = e[j - 1] / beta
        beta = d[j] - e[j - 1] * c[j]
        x[j] = (rhs[j] - e[j - 1] * x[j - 1]) / beta
    for j in range(m - 2, -1, -1):
        x[j] -= c[j + 1] * x[j + 1]
    return x


def _solve_scalar(op: BandOperator, sigma: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (A - sigma I) x = rhs for a scalar band/cyclic operator."""
    d = (op.diag - sigma).tolist()
    e = op.off.tolist()
    b = rhs.tolist()
    if not op.cyclic:
        return np.array(_thomas_band(d, e, b))
    w = complex(op.wrap_mult[0])
    if w.imag != 0.0:
        raise NumericalError("scalar solves support real wrap multipliers only")
    alpha = op.wrap_off * w.real
    m = len(d)
    # rank-one split of the corner entries (Sherman-Morrison)
    gamma = -d[0] if d[0] != 0.0 else 1.0
    dmod = list(d)
    dmod[0] = d[0] - gamma
    dmod[m - 1] = d[m - 1] - alpha * alpha / gamma
    y = _thomas_band(dmod, e, b)
    u = [0.0] * m
    u[0] = gamma
    u[m - 1] = alpha
    z = _thomas_band(dmod, e, u)
    vy = y[0] + alpha / gamma * y[m - 1]
    vz = z[0] + alpha / gamma * z[m - 1]
    fac = vy / (1.0 + vz)
    return np.array([yj - fac * zj for yj, zj in zip(y, z)])


def scalar_eigenfunctions(op: BandOperator, lam: float,
                          count: int = 1) -> list[np.ndarray]:
    """Inverse iteration at a converged eigenvalue; returns orthonormal vectors.

    For a (near-)degenerate pair request count=2; the iteration deflates
    against vectors already found.
    """
    if op.dim != 1:
        raise NumericalError("inverse iteration implemented for scalar operators")
    rng = np.random.default_rng(INVERSE_ITERATION_SEED)
    shift = lam + 1e-9 * max(1.0, abs(lam))
    found: list[np.ndarray] = []
    for _ in range(count):
        x = rng.standard_normal(op.m)
        for v in found:
            x -= (v @ x) * v
        for _ in range(INVERSE_ITERATIONS):
            x = _solve_scalar(op, shift, x)
            for v in found:
                x -= (v @ x) * v
            nrm = np.linalg.norm(x)
            if not np.isfinite(nrm) or nrm == 0.0:
                shift += 1e-8 * max(1.0, abs(lam))
                x = rng.standard_normal(op.m)
                continue
            x /= nrm
        found.append(x)
    return found


def spectrum_with_eigenfunctions(system, cutoff, n):
    """``spectrum_below(system, cutoff, n)`` and an eigenfunction on mesh n
    for each listed eigenvalue, by inverse iteration at the mesh-n
    eigenvalue; a (near-)degenerate group shares one shift and is deflated."""
    summary = spectral.spectrum_below(system, cutoff, n)
    op = system.operator(n)
    # the mesh-n eigenvalues that the listing extrapolates, in its order
    lam = eigenvalues_in(op, spectral._floor(system, n), cutoff + spectral.ZONE,
                         tol=1e-9)
    gap = 1e-6 * (max(1.0, float(np.abs(lam).max())) if len(lam) else 1.0)
    groups = []
    for v in lam[:len(summary.eigenvalues)]:
        if groups and v - groups[-1][-1] < gap:
            groups[-1].append(v)
        else:
            groups.append([v])
    vecs = []
    for group in groups:
        vecs.extend(scalar_eigenfunctions(op, float(np.mean(group)),
                                          count=len(group)))
    return summary, vecs


def oscillation_index(summary, eigenfunctions):
    """Assign Sturm indices to a scalar spectrum from eigenfunction zeros.

    Position k in the sorted periodic spectrum must carry 2*ceil(k/2)
    zeros (0 for the ground state); the antiperiodic ladder is
    2*floor(k/2) + 1.  A mismatch signals an under-resolved mesh.
    """
    if len(eigenfunctions) != len(summary.eigenvalues):
        raise ValidationError("oscillation indexing needs one eigenfunction "
                              "per eigenvalue")
    if summary.bc not in ("periodic", "antiperiodic"):
        raise ValidationError("oscillation indexing needs a (anti)periodic problem")
    anti = summary.bc == "antiperiodic"
    rows = []
    for k, (lam, fn) in enumerate(zip(summary.eigenvalues, eigenfunctions)):
        z = zero_count(fn, antiperiodic=anti)
        expected = (2 * ((k + 1) // 2)) if not anti else (2 * (k // 2) + 1)
        if z != expected:
            raise NumericalError(
                f"eigenfunction {k} has {z} zeros, oscillation ladder expects "
                f"{expected}; refine the mesh")
        rows.append({"index": k, "eigenvalue": float(lam), "zeros": z})
    return rows


def check_interlacing(periodic_eigs, antiperiodic_eigs):
    """Pattern lam_0 < mu_1 <= mu_2 < lam_1 <= lam_2 < mu_3 <= mu_4 < ...

    The ground state opens the periodic ladder, then (anti)periodic pairs
    alternate; within a pair only <= is required.  Truncated tails of
    either list are fine - the pattern is checked as far as both reach.
    """
    lam = list(periodic_eigs)
    mu = list(antiperiodic_eigs)
    seq = [("p", lam[0])]
    i, j = 1, 0
    next_pair_antiperiodic = True
    while True:
        src, idx = (mu, j) if next_pair_antiperiodic else (lam, i)
        if idx + 1 >= len(src):
            break
        kind = "a" if next_pair_antiperiodic else "p"
        seq.append((kind, src[idx]))
        seq.append((kind, src[idx + 1]))
        if next_pair_antiperiodic:
            j += 2
        else:
            i += 2
        next_pair_antiperiodic = not next_pair_antiperiodic
    for (ka, a), (kb, b) in zip(seq, seq[1:]):
        top = b + INTERLACING_SLACK
        if not ((a <= top) if ka == kb else (a < top)):
            return False
    return True
