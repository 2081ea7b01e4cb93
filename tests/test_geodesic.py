import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (flow_turning, half_period_per_level, rk4_samples,
                     rotation_angle_per_level, sample_trajectory_phi,
                     solve_parameter_bisect)
from otsuki import geodesic, quadrature
from otsuki.errors import DomainError, NumericalError, ValidationError
from otsuki.geodesic import (CLIFFORD_HALF_PERIOD, CLIFFORD_ROTATION,
                             GeodesicFamily, RotationNumber, half_period,
                             metric_coefficients, rotation_angle,
                             sample_trajectory, solve_parameter)

# Regression values computed at build time with an independent adaptive
# quadrature oracle (QUADPACK on the desingularized integrand, abs/rel
# tolerance 1e-13, successive refinements stable to < 1e-12).
T_AT_MINUS_03 = 13.805846723339497
XI_AT_MINUS_03 = 2.1961487733805254
B_STAR_23 = -0.6585659592776205
T_STAR_23 = 13.319087974657092


def test_metric_at_equator():
    E, G = metric_coefficients(0.0)
    assert E == pytest.approx(4 * math.pi ** 2, abs=1e-14)
    assert G == pytest.approx(4 * math.pi ** 2, abs=1e-14)


def test_metric_at_pi_third():
    E, G = metric_coefficients(math.pi / 3)
    assert E == pytest.approx(math.pi ** 2, rel=1e-14)
    assert G == pytest.approx(math.pi ** 2 / 4, rel=1e-14)


@pytest.mark.parametrize("phi", [math.pi / 2, -math.pi / 2, 2.0])
def test_metric_degenerates_at_poles(phi):
    with pytest.raises(DomainError):
        metric_coefficients(phi)


def test_half_period_regression():
    assert half_period(-0.3) == pytest.approx(T_AT_MINUS_03, abs=5e-12)


def test_rotation_angle_regression():
    assert rotation_angle(-0.3) == pytest.approx(XI_AT_MINUS_03, abs=5e-12)


def test_clifford_limits():
    assert abs(half_period(-1e-4) - CLIFFORD_HALF_PERIOD) < 1e-2
    assert abs(rotation_angle(-1e-4) - CLIFFORD_ROTATION) < 1e-3


def test_polar_limit_direction():
    # toward the pole the rotation angle descends to pi/2 from above
    val = rotation_angle(-1.52)
    assert math.pi / 2 < val < math.pi / 2 + 0.02


def test_half_period_bounded_on_ladder():
    for b in np.linspace(-1.5, -0.01, 40):
        assert 0.0 < half_period(float(b)) < CLIFFORD_HALF_PERIOD


def test_rotation_angle_strictly_increasing_ladder():
    ladder = np.linspace(-1.5, -0.01, 100)
    vals = [rotation_angle(float(b)) for b in ladder]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_domain_errors():
    for b in (0.0, 0.3, -math.pi / 2, -2.0):
        with pytest.raises(DomainError):
            half_period(b)
        with pytest.raises(DomainError):
            rotation_angle(b)


class TestSolveParameter:
    def test_family_23(self, fam23):
        assert fam23.b == pytest.approx(B_STAR_23, abs=1e-9)
        assert fam23.T == pytest.approx(T_STAR_23, abs=1e-9)
        assert abs(fam23.Xi - 2 * math.pi / 3) < 1e-10
        assert fam23.c == pytest.approx(2 * math.pi * math.cos(fam23.b) ** 2,
                                        rel=1e-15)
        assert fam23.t0 == pytest.approx(6 * fam23.T, rel=1e-15)

    def test_parameters_are_plain_floats(self, fam23):
        # the flow oracle runs on Python floats; numpy scalars would slow it
        for value in (fam23.b, fam23.c, fam23.T, fam23.Xi):
            assert type(value) is float

    def test_excluded_boundary_ratio(self):
        with pytest.raises(ValidationError):
            solve_parameter(1, 2)

    @pytest.mark.parametrize("p,q", [(3, 4), (2, 4), (1, 1), (0, 3), (-2, 3)])
    def test_inadmissible(self, p, q):
        with pytest.raises(ValidationError):
            solve_parameter(p, q)

    def test_non_integers(self):
        with pytest.raises(ValidationError):
            solve_parameter(2.0, 3)

    def test_rotation_number_invariants(self, fam58):
        assert fam58.rotation.p == 5 and fam58.rotation.q == 8
        assert 0.5 < 5 / 8 < math.sqrt(2) / 2

    @pytest.mark.parametrize("p,q", [(2, 3), (5, 9), (7, 10), (70, 99),
                                     (408, 577)])
    def test_closing_condition_exact(self, p, q):
        target = p * math.pi / q
        assert abs(solve_parameter(p, q).Xi - target) <= 2 * math.ulp(target)

    @pytest.mark.parametrize("p,q", [(2, 3), (5, 9), (7, 10), (70, 99)])
    def test_flow_closes_at_returned_family(self, p, q):
        # a fresh integration at the returned b turns at the returned T
        # and has rotated by p pi / q there
        fam = solve_parameter(p, q)
        T, theta = flow_turning(fam, 2 ** 15)
        assert abs(theta - p * math.pi / q) <= 5e-14
        assert abs(T - fam.T) <= 5e-13

    @pytest.mark.parametrize("p,q", [(26, 51), (51, 101)])
    def test_near_pole_families_close(self, p, q):
        # this close to the pole 2^15 RK4 steps miss p pi / q by 1e-10 and
        # 3e-9; 2^19 resolve the family, up to the rounding of that many steps
        fam = solve_parameter(p, q)
        T, theta = flow_turning(fam, 2 ** 19)
        assert abs(theta - p * math.pi / q) <= 2e-13
        assert abs(T - fam.T) <= 1e-12

    def test_no_time_stepping(self, monkeypatch):
        # T, Xi and the samples all come from quadratures
        def refuse(*args):
            raise AssertionError("the geodesic flow was stepped")

        monkeypatch.setattr(geodesic, "_phi_ddot", refuse)
        solve_parameter(4, 7)
        fam = GeodesicFamily.from_b(-0.3)
        assert sample_trajectory(fam, 256).conservation_drift() < 1e-14


class TestTrajectory:
    def test_needs_minimum_grid(self, fam23):
        with pytest.raises(ValidationError):
            sample_trajectory(fam23, 32)

    def test_conservation(self, fam23):
        traj = sample_trajectory(fam23, 1024)
        assert traj.conservation_drift() < 1e-10

    def test_endpoint_values(self, traj23, fam23):
        assert abs(traj23.phi[-1] + fam23.b) < 1e-8
        assert abs(traj23.phidot[-1]) < 1e-8
        assert abs(traj23.theta[-1] - fam23.Xi) < 1e-8

    def test_initial_conditions(self, traj23, fam23):
        assert traj23.phi[0] == fam23.b
        assert traj23.phidot[0] == 0.0
        assert traj23.theta[0] == 0.0

    def test_latitude_band(self, traj23, fam23):
        assert np.all(traj23.phi >= fam23.b - 1e-12)
        assert np.all(traj23.phi <= -fam23.b + 1e-12)

    def test_theta_matches_quadrature(self, traj23, fam23):
        # the sampled angle at T against the adaptive quadrature of Xi
        assert abs(traj23.theta[-1] - rotation_angle(fam23.b)) < 1e-8

    def test_at_reproduces_nodes(self, traj23):
        phi, phid, theta = traj23.at(traj23.grid[:-1])
        assert np.allclose(phi, traj23.phi[:-1], rtol=0, atol=1e-13)
        assert np.allclose(phid, traj23.phidot[:-1], rtol=0, atol=1e-13)
        assert np.allclose(theta, traj23.theta[:-1], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("t", [math.nan, [0.1, math.nan], math.inf,
                                   [-math.inf]],
                             ids=["nan", "nan-in-array", "inf", "-inf-in-array"])
    @pytest.mark.parametrize("b", [None, -0.5], ids=["2/3", "open"])
    def test_at_rejects_non_finite_times(self, traj23, b, t):
        # closed (2/3) and open (b = -0.5) families alike, scalar or array
        traj = traj23 if b is None else sample_trajectory(
            GeodesicFamily.from_b(b), 256)
        with pytest.raises(DomainError):
            traj.at(t if np.isscalar(t) else np.array(t))

    def test_json_dict(self, traj23, fam23):
        doc = traj23.to_json_dict()
        assert set(doc) == {"b", "c", "T", "Xi", "n", "phi", "phidot", "theta"}
        assert doc["n"] == 1024
        assert len(doc["phi"]) == 1025
        assert doc["b"] == fam23.b

    def test_clifford_trajectory(self, clifford_traj):
        assert np.all(clifford_traj.phi == 0.0)
        assert clifford_traj.conservation_drift() < 1e-14
        assert clifford_traj.theta[-1] == pytest.approx(CLIFFORD_ROTATION,
                                                        rel=1e-15)


def _max_errors(traj, ref):
    return [float(np.abs(got - want).max())
            for got, want in zip((traj.phi, traj.phidot, traj.theta), ref)]


class TestQuadratureSampler:
    """The samples invert the quadrature time map; a finer fixed-step RK4
    of the geodesic equation is the independent reference."""

    @pytest.mark.parametrize("family,n", [
        ((2, 3), 1024), ((5, 9), 1024), ((7, 10), 1024), ((70, 99), 1024),
        ((5, 9), 171), (-0.05, 1024), (-1e-6, 1024)])
    def test_matches_fine_flow(self, family, n):
        fam = (GeodesicFamily.from_b(family) if isinstance(family, float)
               else solve_parameter(*family))
        errors = _max_errors(sample_trajectory(fam, n),
                             rk4_samples(fam, n, 2 ** 16))
        assert max(errors) <= 1e-12

    def test_matches_fine_flow_near_pole(self):
        # this close to the pole 2^15 RK4 steps are themselves off by 2e-10
        fam = GeodesicFamily.from_b(-1.4)
        errors = _max_errors(sample_trajectory(fam, 1024),
                             rk4_samples(fam, 1024, 2 ** 19))
        assert max(errors) <= 1e-9

    def test_stalled_inversion_raises(self, monkeypatch, fam23):
        monkeypatch.setattr(geodesic, "_NEWTON_TOL", 0.0)
        with pytest.raises(NumericalError):
            sample_trajectory(fam23, 256)


class TestFrozenBits:
    """The quadratures share one integrand call between their first two
    levels, and the rates take cos phi as the kernel computed it; the bits
    are those of one call per level and of rates that take phi, under the
    same Newton steps."""

    @pytest.mark.parametrize("b", [-1e-8, -0.3, -1.0, -1.5, -1.565, -1.5707])
    def test_quadratures(self, b):
        assert half_period(b) == half_period_per_level(b)
        assert rotation_angle(b) == rotation_angle_per_level(b)

    @pytest.mark.parametrize("p,q", [(5, 9), (4, 7), (3, 5), (5, 8), (2, 3),
                                     (7, 10), (12, 17), (50, 99)])
    def test_solve_parameter(self, p, q, monkeypatch):
        got = solve_parameter(p, q)
        monkeypatch.setattr(geodesic, "half_period", half_period_per_level)
        monkeypatch.setattr(geodesic, "rotation_angle",
                            rotation_angle_per_level)
        want = solve_parameter(p, q)
        assert (got.b, got.c, got.T, got.Xi) == (want.b, want.c, want.T,
                                                 want.Xi)

    @pytest.mark.parametrize("p,q", [(2, 3), (5, 9)])
    @pytest.mark.parametrize("n", [1024, 4096])
    def test_samples(self, p, q, n):
        traj = sample_trajectory(solve_parameter(p, q), n)
        want = sample_trajectory_phi(traj.family, n)
        for got, ref in zip((traj.phi, traj.phidot, traj.theta), want):
            assert np.array_equal(got, ref)


# every admissible p/q with q <= 60, and three convergents of sqrt(2)/2,
# where Xi is flat in b and the certified bracket wide
ROOT_FAMILIES = [(p, q) for q in range(3, 61) for p in range(q // 2 + 1, q)
                 if math.gcd(p, q) == 1 and p / q < math.sqrt(2) / 2] \
    + [(408, 577), (2378, 3363), (13860, 19601)]
README_FAMILIES = [(5, 9), (4, 7), (3, 5), (5, 8), (2, 3), (7, 10)]


@pytest.fixture
def quadratures(monkeypatch):
    """A list whose length counts the adaptive quadratures run since."""
    calls = []

    def counted(*args):
        calls.append(args)
        return quadrature.adaptive_gauss(*args)

    monkeypatch.setattr(geodesic, "adaptive_gauss", counted)
    return calls


class TestReplayedBisection:
    """The bisection integrates only its midpoints between two points where
    the sign of Xi - p pi / q is certain, and reads every other sign off
    monotonicity: the root is the one of the bisection that integrates
    every midpoint, from fewer quadratures."""

    def test_same_root_from_no_more_quadratures(self, quadratures):
        moved, dearer = [], []
        for p, q in ROOT_FAMILIES:
            quadratures.clear()
            got = solve_parameter(p, q)
            spent = len(quadratures)
            quadratures.clear()
            want = solve_parameter_bisect(p, q)
            if (got.b, got.c, got.T, got.Xi) != (want.b, want.c, want.T,
                                                 want.Xi):
                moved.append((p, q))
            if spent > len(quadratures):
                dearer.append((p, q, spent, len(quadratures)))
        assert len(ROOT_FAMILIES) == 230
        assert not moved and not dearer

    def test_readme_families_take_few_quadratures(self, quadratures):
        # 345 when every midpoint was integrated, and Xi again at the root
        for p, q in README_FAMILIES:
            solve_parameter(p, q)
        assert len(quadratures) <= 170

    def test_each_quadrature_runs_once(self, monkeypatch):
        # Xi at the root is the bisection's own quadrature, and T is
        # integrated there alone
        seen = []
        for name in ("rotation_angle", "half_period"):
            def recorded(b, f=getattr(geodesic, name), name=name):
                seen.append((name, b))
                return f(b)
            monkeypatch.setattr(geodesic, name, recorded)
        fam = solve_parameter(5, 9)
        assert len(seen) == len(set(seen))
        assert [b for name, b in seen if name == "half_period"] == [fam.b]
        assert ("rotation_angle", fam.b) in seen
        assert fam.Xi == rotation_angle(fam.b)

    @pytest.mark.parametrize("p,q", [(2, 3), (7, 10), (30, 59), (408, 577)])
    def test_root_does_not_rest_on_the_secant_steps(self, p, q, monkeypatch):
        # with no secant step every midpoint is integrated, on the same path
        want = solve_parameter(p, q)
        monkeypatch.setattr(geodesic, "_SECANT_STEPS", 0)
        got = solve_parameter(p, q)
        assert (got.b, got.T, got.Xi) == (want.b, want.T, want.Xi)

    def test_certified_points_hold_their_sign(self):
        target = 2 * math.pi / 3
        lo, hi = geodesic._certified_bracket(
            rotation_angle, target, -1.0, -1e-8)
        assert rotation_angle(lo) - target < -geodesic._SIGN_MARGIN
        assert rotation_angle(hi) - target > geodesic._SIGN_MARGIN
        # a few offsets 2 margin / (dXi/db) apart
        slope = (rotation_angle(hi) - rotation_angle(lo)) / (hi - lo)
        assert hi - lo <= 16.0 * geodesic._SIGN_MARGIN / slope


class TestIncrementalNewton:
    """After the first Newton step of the sampler, which integrates each
    node's partial panel, the partial sums add only the integral over the
    step."""

    @pytest.mark.parametrize("p,q", [(2, 3), (5, 9)])
    def test_kernel_points_per_node(self, p, q, monkeypatch):
        fam = solve_parameter(p, q)
        points = []
        factors = geodesic._regular_factors

        def counted(u, b):
            points.append(np.size(u))
            return factors(u, b)

        monkeypatch.setattr(geodesic, "_regular_factors", counted)
        sample_trajectory(fam, 4096)
        # 15 when every Newton step integrated its whole partial panel
        assert sum(points) / 4097 <= 11.0

    @pytest.mark.parametrize("p,q", [(2, 3), (5, 9)])
    @pytest.mark.parametrize("n", [1024, 4096])
    def test_samples_agree_with_whole_panel_steps(self, p, q, n):
        traj = sample_trajectory(solve_parameter(p, q), n)
        want = sample_trajectory_phi(traj.family, n, increments=False)
        for got, ref in zip((traj.phi, traj.phidot, traj.theta), want):
            assert np.abs(got - ref).max() <= 1e-14

    def test_long_steps_integrate_the_whole_panel(self, fam23, monkeypatch):
        # no step is short enough for the increment rule: the samples are
        # those of whole-panel steps, bit for bit
        monkeypatch.setattr(geodesic, "_INCREMENT_STEP", 0.0)
        traj = sample_trajectory(fam23, 1024)
        want = sample_trajectory_phi(fam23, 1024, increments=False)
        for got, ref in zip((traj.phi, traj.phidot, traj.theta), want):
            assert np.array_equal(got, ref)


class TestExtendedEvaluation:
    def test_half_period_antiperiodicity(self, traj23, fam23):
        t = np.linspace(0.0, fam23.t0 - fam23.T - 0.001, 257)
        p0, d0, th0 = traj23.at(t)
        p1, d1, th1 = traj23.at(t + fam23.T)
        assert np.abs(p1 + p0).max() < 1e-10
        assert np.abs(d1 + d0).max() < 1e-10
        assert np.abs(th1 - th0 - 2 * math.pi / 3).max() < 1e-9

    def test_closes_up_to_rotation(self, traj23, fam23):
        _, _, th_end = traj23.at(fam23.t0 * (1 - 1e-13))
        assert abs(th_end - 4 * math.pi) < 1e-8

    def test_phi_zeros_at_half_junctions(self, traj23, fam23):
        q = fam23.rotation.q
        for d in range(2 * q):
            phi, _, _ = traj23.at((2 * d + 1) / 2 * fam23.T)
            assert abs(phi) < 1e-9

    def test_sign_change_counts(self, traj23, fam23):
        q = fam23.rotation.q
        t = np.arange(6 * 1024) * (fam23.T / 1024)
        phi, phid, _ = traj23.at(t)
        for f in (phi, phid):
            s = np.sign(f[np.abs(f) > 1e-9 * np.abs(f).max()])
            flips = int((s[1:] != s[:-1]).sum()) + int(s[-1] != s[0])
            assert flips == 2 * q

    def test_domain_error_beyond_t0(self, traj23, fam23):
        with pytest.raises(DomainError):
            traj23.at(fam23.t0 * 1.5)
        with pytest.raises(DomainError):
            traj23.at(-1.0)

    def test_repeated_array_is_served_read_only(self, traj23, fam23):
        t = np.linspace(0.0, fam23.t0 - 0.01, 301)
        first = traj23.at(t)
        again = traj23.at(t.copy())
        # a fresh trajectory of the family samples the same values itself
        fresh = sample_trajectory(fam23, traj23.n).at(t)
        for a, b, c in zip(first, again, fresh):
            assert np.array_equal(a, b) and np.array_equal(a, c)
            assert b is not c and not b.flags.writeable
            with pytest.raises(ValueError):
                b[0] = 0.0
        # scalar calls are evaluated, not served
        assert traj23.at(float(t[7])) == tuple(float(a[7]) for a in first)

    def test_interpolation_between_nodes(self, traj23, fam23):
        # compare the cubic interpolant against a finer trajectory
        fine = sample_trajectory(fam23, 4096)
        t = np.linspace(0.013, fam23.T - 0.013, 97)
        for a, b in zip(traj23.at(t), fine.at(t)):
            assert np.abs(np.asarray(a) - np.asarray(b)).max() < 1e-10


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=-1.4, max_value=-0.05))
def test_family_invariants_property(b):
    fam = GeodesicFamily.from_b(b)
    assert math.pi / 2 < fam.Xi < CLIFFORD_ROTATION
    assert 0.0 < fam.T < CLIFFORD_HALF_PERIOD
    assert fam.c == pytest.approx(2 * math.pi * math.cos(b) ** 2, rel=1e-15)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-1.5, max_value=-0.01))
def test_metric_positive_property(phi):
    E, G = metric_coefficients(phi)
    assert E > 0 and G > 0
    assert G == pytest.approx(E * math.cos(phi) ** 2, rel=1e-12)


def test_rotation_number_validation():
    with pytest.raises(ValidationError):
        RotationNumber(4, 6)
    RotationNumber(7, 10)
