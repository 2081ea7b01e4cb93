import cmath
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from helpers import (boundary_psi, dense_twisted_row, direct_twisted_counts,
                     fundamental_rhs, fundamental_rhs_matmul, restricted_form,
                     returning)
from otsuki import edwards, eigencount, spectral, surface
from otsuki.cli import run_cli
from otsuki.edwards import (BoundarySolutions, aggregate_roots, boundary_form,
                            boundary_solutions, det_polynomial,
                            dirichlet_negative_count, gram_matrix,
                            roots_of_unity_ladder)
from otsuki.errors import (AmbiguousClassificationError,
                           EdwardsInapplicableError, NumericalError,
                           ValidationError)
from otsuki.eigencount import eigenvalues_in
from otsuki.geodesic import solve_parameter
from otsuki.pipeline import compute_index, family_trajectory, report_document
from otsuki.sl import BoundaryCondition, SLSystem
from otsuki.spectral import LOCATE_TOL
from otsuki.surface import fourier_block_system

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)

# repr of the boundary form of mode l at n = 512: every entry of a, then
# P_coeffs, then roots (s1 and s2 are the l = 1 roots)
PINNED_FORMS = {
    (2, 3, 1): [
        "5.258110024887683", "3.464258530735432", "7.714659356504562",
        "6.441493770203909", "3.464258530735432", "4.8655959758756975",
        "6.441493770203909", "2.903297191393264", "7.714659356504562",
        "6.441493770203909", "5.258110024887683", "3.464258530735432",
        "6.441493770203909", "2.903297191393264", "3.464258530735432",
        "4.8655959758756975", "76.37957259712124", "89.08223781186888",
        "-63.63601205508239", "-1.666309718459531", "0.49999999999920014"],
    (2, 3, 2): [
        "3.38318174481976", "-5.041905874406536", "-3.383181744820967",
        "-2.648503597186493", "-5.041905874406536", "6.932349582232794",
        "-2.648503597186493", "-2.2415838844886995", "-3.383181744820967",
        "-2.648503597186493", "3.38318174481976", "-5.041905874406536",
        "-2.648503597186493", "-2.2415838844886995", "-5.041905874406536",
        "6.932349582232794", "-2.2764574927089853", "-63.47885151137166",
        "65.75530900403633", "-28.884927223407235", "0.9999999999993476"],
    (5, 9, 1): [
        "1.996158998988034", "-3.350677042282931", "2.354674979631352",
        "2.3114007027795394", "-3.350677042282931", "2.5392119176304284",
        "2.3114007027795394", "2.2159283836637753", "2.354674979631352",
        "2.3114007027795394", "1.996158998988034", "-3.350677042282931",
        "2.3114007027795394", "2.2159283836637753", "-3.350677042282931",
        "2.5392119176304284", "0.4991283485668525", "6.2226935450506495",
        "-1.0956099563764283", "-12.640769235768413", "0.17364817779229733"],
    (5, 9, 2): [
        "4.338103402660366", "-7.638257509492064", "-4.338103403003793",
        "-4.255348135459823", "-7.638257509492064", "4.852080601949769",
        "-4.255348135459823", "-4.174858117470716", "-4.338103403003793",
        "-4.255348135459823", "4.338103402660366", "-7.638257509492064",
        "-4.255348135459823", "-4.174858117470716", "-7.638257509492064",
        "4.852080601949769", "-0.011913809985344415", "-11.75144466377209",
        "11.763358461357043", "-987.3716710452322", "0.9999999989469021"],
}

# right-hand-side evaluations of the mode-l integration, as scipy's DOP853
# counts them (TestStepper)
PINNED_NFEV = {(2, 3, 1): 530, (2, 3, 2): 518, (5, 9, 1): 1070,
               (5, 9, 2): 1094}


def _clifford_A1(s):
    r6 = SQRT6 / 2 * math.pi
    r2 = SQRT2 / 2 * math.pi
    return np.diag([4 * SQRT3 * math.pi / math.sin(r6) * (math.cos(r6) - s),
                    4 * math.pi / math.sin(r2) * (math.cos(r2) + s)])


def _clifford_A2(s):
    return np.diag([4 * SQRT2 * (1 - s),
                    4 * SQRT2 * math.pi / math.sinh(math.pi)
                    * (math.cosh(math.pi) + s)])


class TestDirichlet:
    def test_clifford_counts(self, clifford_traj):
        d1 = dirichlet_negative_count(1, clifford_traj, n=1024)
        d2 = dirichlet_negative_count(2, clifford_traj, n=1024)
        assert d1.negative == 1
        assert d2.negative == 0
        assert d1.margin > 0.5 and d2.margin > 0.5

    def test_family23_counts_stable(self, traj23):
        a = dirichlet_negative_count(1, traj23, n=512)
        b = dirichlet_negative_count(1, traj23, n=1024)
        assert a.negative == b.negative == 1
        assert abs(a.margin - b.margin) < 1e-3


class TestFundamentalSolutions:
    def test_boundary_values_reproduced(self, traj23):
        sols = boundary_solutions(1, traj23)
        psi = boundary_psi(sols, traj23)
        eye = np.eye(4)
        for i in range(4):
            at0 = psi(i, 0.0)[:, 0]
            atT = psi(i, sols.T)[:, 0]
            assert np.abs(np.concatenate([at0, atT]) - eye[i]).max() < 1e-10

    def test_clifford_closed_forms(self, clifford_traj):
        sols = boundary_solutions(1, clifford_traj)
        psi = boundary_psi(sols, clifford_traj)
        T = clifford_traj.family.T
        ts = np.linspace(0, T, 23)
        psi1 = psi(0, ts)
        expect1 = np.sin(SQRT3 * (T - ts) / (2 * math.pi)) \
            / math.sin(SQRT6 / 2 * math.pi)
        assert np.abs(psi1[0] - expect1).max() < 1e-8
        assert np.abs(psi1[1]).max() < 1e-12
        psi4 = psi(3, ts)
        expect4 = np.sin(ts / (2 * math.pi)) / math.sin(SQRT2 / 2 * math.pi)
        assert np.abs(psi4[1] - expect4).max() < 1e-8
        assert np.abs(psi4[0]).max() < 1e-12

    def test_rhs_reads_the_formula_homes(self, fam23, monkeypatch):
        # p, p' and Q_l on the state's Python floats come from the formulas
        # that sample them on grids, each called once per evaluation
        y = np.concatenate(([0.5 * fam23.b, 0.3],
                            np.random.default_rng(2).normal(size=16)))
        rhs = returning(fundamental_rhs(2, fam23.c))
        want = rhs(0.0, y)
        calls = []
        for name in ("_weight", "_weight_prime", "_q_entries"):
            home = getattr(surface, name)
            assert getattr(edwards, name) is home

            def recorded(*args, name=name, home=home):
                calls.append(name)
                return home(*args)

            monkeypatch.setattr(edwards, name, recorded)
        got = rhs(0.0, y)
        assert sorted(calls) == ["_q_entries", "_weight", "_weight_prime"]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("l", [1, 2, 3])
    @pytest.mark.parametrize("p,q", [(2, 3), (5, 9)])
    def test_rhs_writes_the_bits_of_matmul(self, p, q, l):
        # into its own row of a stage array, and there only, the in-place
        # right-hand side writes what a new A and np.matmul return, to the
        # bit, with one A kept across the calls as an integration keeps it
        fam = solve_parameter(p, q)
        rng = np.random.default_rng(100 * p + 10 * q + l)
        A = edwards._A_CONSTANT.copy()
        for _ in range(200):
            y = np.concatenate(([rng.uniform(-1.0, 1.0) * fam.b, rng.normal()],
                                rng.normal(size=16)))
            K = rng.normal(size=(13, 18))
            before = K.copy()
            s = rng.integers(13)
            edwards._fundamental_rhs(y, K[s], l, fam.c, A)
            assert np.array_equal(K[s], fundamental_rhs_matmul(y, l, fam.c))
            others = np.arange(13) != s
            assert np.array_equal(K[others], before[others])

    def test_no_sweep(self, traj23, count_sweeps):
        # the solutions are the ODE alone: the Dirichlet count that gates
        # them is ``boundary_form``'s
        boundary_solutions(1, traj23)
        assert count_sweeps == [] and count_sweeps.calls == []
        assert not hasattr(edwards, "inertia")

    def test_condition_recorded(self, traj23):
        sols = boundary_solutions(2, traj23)
        assert 1.0 <= sols.condition < 1e10


def _nan_from(t_nan):
    """y' = -y, until a right-hand side that is NaN from t_nan on, as
    fun(t, y, out)."""
    def fun(t, y, out):
        if t < t_nan:
            np.negative(y, out=out)
        else:
            out.fill(np.nan)
    return fun


class TestStepper:
    """``edwards.solve_ivp`` against scipy's DOP853, its oracle."""

    @pytest.mark.parametrize("l", [1, 2])
    @pytest.mark.parametrize("p,q", [(5, 9), (4, 7), (3, 5), (5, 8), (2, 3),
                                     (7, 10), (12, 17), (70, 99), (10, 19)])
    def test_steps_match_scipy(self, p, q, l):
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        fam = solve_parameter(p, q)
        y0 = np.concatenate(([fam.b, 0.0], np.eye(4).ravel()))
        rhs = fundamental_rhs(l, fam.c)
        want = solve_ivp(returning(rhs), (0.0, fam.T), y0, method="DOP853",
                         rtol=edwards.ODE_RTOL, atol=1e-12)
        got = edwards.solve_ivp(rhs, (0.0, fam.T), y0, rtol=edwards.ODE_RTOL,
                                atol=1e-12)
        assert want.success and got.success
        assert np.array_equal(got.y, want.y[:, -1])
        assert got.nfev == want.nfev

    def test_nan_fails_as_scipy_does(self):
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        y0 = np.array([1.0, 2.0])
        want = solve_ivp(returning(_nan_from(0.5)), (0.0, 1.0), y0,
                         method="DOP853", rtol=edwards.ODE_RTOL, atol=1e-12)
        got = edwards.solve_ivp(_nan_from(0.5), (0.0, 1.0), y0,
                                rtol=edwards.ODE_RTOL, atol=1e-12)
        assert not want.success and not got.success
        assert got.message == want.message
        assert got.nfev == want.nfev
        assert np.array_equal(got.y, want.y[:, -1])

    def test_forward_only(self):
        with pytest.raises(ValidationError, match="forward"):
            edwards.solve_ivp(_nan_from(0.5), (1.0, 0.0), np.ones(2),
                              rtol=edwards.ODE_RTOL, atol=1e-12)

    def test_failed_integration_raises(self, traj23, monkeypatch):
        rhs = edwards._fundamental_rhs
        calls = []

        def nan_after_40(y, out, l, c, A):
            calls.append(1)
            rhs(y, out, l, c, A)
            if len(calls) > 40:
                out.fill(np.nan)

        monkeypatch.setattr(edwards, "_fundamental_rhs", nan_after_40)
        with pytest.raises(NumericalError,
                           match="integration failed: Required step size"):
            boundary_solutions(1, traj23)


class TestGramMatrix:
    def test_symmetries_before_enforcement(self, traj23):
        # raw boundary-term matrix, rebuilt without the averaging step
        sols = boundary_solutions(1, traj23)
        p0, pT = sols.p_ends
        raw = np.zeros((4, 4))
        for j in range(4):
            raw[0, j] = -p0 * sols.psi_prime_0[0, j]
            raw[1, j] = -p0 * sols.psi_prime_0[1, j]
            raw[2, j] = pT * sols.psi_prime_T[0, j]
            raw[3, j] = pT * sols.psi_prime_T[1, j]
        scale = np.abs(raw).max()
        assert np.abs(raw - raw.T).max() / scale < 1e-8
        swap = raw[np.ix_([2, 3, 0, 1], [2, 3, 0, 1])]
        assert np.abs(raw - swap).max() / scale < 1e-8

    def test_enforced_exactly(self, traj23):
        a = gram_matrix(boundary_solutions(2, traj23))
        assert np.array_equal(a, a.T)
        swap = a[np.ix_([2, 3, 0, 1], [2, 3, 0, 1])]
        assert np.array_equal(a, swap)

    def test_clifford_channels_decoupled(self, clifford_traj):
        a = gram_matrix(boundary_solutions(1, clifford_traj))
        assert abs(a[0, 3]) < 1e-9
        assert abs(a[0, 1]) < 1e-9


class TestPinnedForms:
    @pytest.mark.parametrize("p,q,l", sorted(PINNED_FORMS))
    def test_forms_pinned(self, p, q, l):
        # the form to the bit: how the ODE right-hand side evaluates p, p'
        # and Q_l must not move it
        traj = family_trajectory(solve_parameter(p, q), 512)
        data = boundary_form(l, traj, n=512)
        got = [repr(float(v)) for v in data.a.ravel()]
        got += [repr(float(v)) for v in data.poly.coeffs + data.poly.roots]
        assert got == PINNED_FORMS[(p, q, l)]

    @pytest.mark.parametrize("p,q,l", sorted(PINNED_NFEV))
    def test_step_count_pinned(self, p, q, l, monkeypatch):
        # the step count of TestStepper's scipy oracle, read through the
        # binding perfbench reads, so that it is checked without scipy
        solve_ivp, seen = edwards.solve_ivp, []

        def counted(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            seen.append(sol.nfev)
            return sol

        monkeypatch.setattr(edwards, "solve_ivp", counted)
        boundary_solutions(l, family_trajectory(solve_parameter(p, q), 512))
        assert seen == [PINNED_NFEV[(p, q, l)]]


class TestTwistedForm:
    # the dense restricted form of the tests' oracle
    def test_real_twist_is_diagonal(self, traj23):
        a = gram_matrix(boundary_solutions(1, traj23))
        A1 = restricted_form(a, 1.0 + 0j)
        assert A1[0, 1] == 0 and A1[1, 0] == 0
        Am = restricted_form(a, -1.0 + 0j)
        assert Am[0, 0] == pytest.approx(2 * a[0, 0] - 2 * a[0, 2], rel=1e-14)
        assert Am[1, 1] == pytest.approx(2 * a[1, 1] + 2 * a[1, 3], rel=1e-14)

    def test_hermitian_for_complex_twists(self, traj23):
        a = gram_matrix(boundary_solutions(1, traj23))
        for k in range(8):
            om = cmath.exp(1j * (0.3 + k))
            A = restricted_form(a, om)
            assert np.abs(A - A.conj().T).max() < 1e-13

    def test_determinant_matches_polynomial(self, traj23):
        a = gram_matrix(boundary_solutions(1, traj23))
        poly = det_polynomial(a)
        for k in range(12):
            om = cmath.exp(1j * 0.5 * k)
            A = restricted_form(a, om)
            det = float((A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]).real)
            assert det == pytest.approx(poly(om.real), rel=1e-10, abs=1e-8)


def _form(a11, a13, a14, a22, a24):
    """A symmetric 4x4 form with the entries that ``det_polynomial`` reads
    (numbered from 1), and 0 elsewhere."""
    a = np.zeros((4, 4))
    for (i, j), v in {(0, 0): a11, (0, 2): a13, (0, 3): a14, (1, 1): a22,
                      (1, 3): a24}.items():
        a[i, j] = a[j, i] = v
    return a


class TestDegenerateDeterminant:
    # P(s) = c2 s^2 + c1 s + c0 with c2 = 4(a14^2 - a13 a24), c1 = 4(a13
    # a22 - a11 a24), c0 = 4(a11 a22 - a14^2); P_1's leading coefficient
    # crosses zero near b = -pi/2, so the linear case is reachable
    def test_linear_determinant_has_one_root(self):
        poly = det_polynomial(_form(a11=2.0, a13=1.0, a14=1.0, a22=0.0,
                                    a24=1.0))
        assert poly.coeffs == (0.0, -8.0, -4.0)
        assert poly.s1 is None and poly.s2 == -0.5

    def test_negative_discriminant_has_no_root(self):
        poly = det_polynomial(_form(a11=2.0, a13=0.0, a14=1.0, a22=2.0,
                                    a24=0.0))
        assert poly.coeffs == (4.0, 0.0, 12.0)
        assert poly.roots == () and poly.s1 is None and poly.s2 is None

    @pytest.mark.parametrize("a11,message", [
        (1.0, "degree-0 determinant"), (0.0, "det polynomial vanishes")])
    def test_constant_determinant_is_refused(self, a11, message):
        # c1 = c2 = 0: P is a constant, or vanishes
        with pytest.raises(NumericalError, match=message):
            det_polynomial(_form(a11=a11, a13=0.0, a14=0.0, a22=1.0,
                                 a24=0.0))

    @pytest.mark.parametrize("q", [2, 3, 8])
    def test_rootless_form_has_no_zero_twist(self, q, traj23):
        # A00 = A11 = 4 and |A01|^2 = 4(1 - s^2): every twist's eigenvalues
        # lie in [2, 6], far from zero, and P(s) = 4 s^2 + 12 has no root
        a = _form(a11=2.0, a13=0.0, a14=1.0, a22=2.0, a24=0.0)
        data = dataclasses.replace(boundary_form(1, traj23, n=512), a=a,
                                   poly=det_polynomial(a))
        rows = aggregate_roots(data, q)
        assert rows.shape == (2 * q, 2)
        assert rows[:, 1].tolist() == [0] * (2 * q)
        assert rows[:, 0].tolist() == [data.dirichlet.negative] * (2 * q)


class TestCliffordForms:
    def test_mode1_matches_closed_form(self, clifford_traj):
        data = boundary_form(1, clifford_traj, n=1024)
        for k in range(16):
            om = cmath.exp(1j * k * math.pi / 8)
            A = restricted_form(data.a, om)
            assert np.abs(A - _clifford_A1(om.real)).max() < 1e-6

    def test_mode2_matches_closed_form(self, clifford_traj):
        data = boundary_form(2, clifford_traj, n=1024)
        for k in range(16):
            om = cmath.exp(1j * k * math.pi / 8)
            A = restricted_form(data.a, om)
            assert np.abs(A - _clifford_A2(om.real)).max() < 1e-6

    def test_mode1_roots(self, clifford_traj):
        data = boundary_form(1, clifford_traj, n=1024)
        assert data.poly.s1 == pytest.approx(math.cos(SQRT6 / 2 * math.pi),
                                             abs=1e-8)
        assert data.poly.s2 == pytest.approx(-math.cos(SQRT2 / 2 * math.pi),
                                             abs=1e-8)

    def test_mode2_roots(self, clifford_traj):
        data = boundary_form(2, clifford_traj, n=1024)
        assert data.poly.s1 == pytest.approx(-math.cosh(math.pi), abs=1e-6)
        assert data.poly.s2 == pytest.approx(1.0, abs=1e-10)


class TestRootIdentities:
    @pytest.mark.parametrize("pq", [(2, 3), (5, 8)])
    def test_s2_is_minus_cos(self, pq, traj23, traj58):
        p, q = pq
        traj = traj23 if q == 3 else traj58
        data = boundary_form(1, traj, n=1024)
        assert abs(data.poly.s2 + math.cos(p * math.pi / q)) < 1e-6

    @pytest.mark.parametrize("q", [3, 8])
    def test_unit_root_of_mode2(self, q, traj23, traj58):
        traj = traj23 if q == 3 else traj58
        data = boundary_form(2, traj, n=1024)
        assert abs(data.poly(1.0)) < 1e-8 * data.poly.scale


class TestTwistedCounts:
    # q = 2 twists by omega = 1, i, -1, -i (r = 0..3)
    def test_clifford_mode2_unit_twist(self, clifford_traj):
        data = boundary_form(2, clifford_traj, n=1024)
        assert aggregate_roots(data, 2)[0].tolist() == [0, 1]

    def test_clifford_mode1_index_ladder(self, clifford_traj):
        # index of the restricted form steps 2 -> 1 -> 0 as Re(omega)
        # crosses the polynomial roots, shifting the count accordingly
        data = boundary_form(1, clifford_traj, n=1024)
        dirich = data.dirichlet.negative
        above_s2, between, below_s1, _ = aggregate_roots(data, 2).tolist()
        assert below_s1[0] == dirich + 2           # omega = -1: Re < s1
        assert between[0] == dirich + 1            # omega = i: s1 <= Re < s2
        assert above_s2[0] == dirich               # omega = 1: Re >= s2
        assert (below_s1[1], between[1], above_s2[1]) == (0, 0, 0)

    def test_oracle_equivalence_spot(self, traj23):
        data = boundary_form(1, traj23, n=1024)
        rows, _ = direct_twisted_counts(1, traj23, 1024)
        edwards_rows = aggregate_roots(data, 3)
        for r in (0, 1, 3):
            assert edwards_rows[r].tolist() == rows[r].tolist()

    def test_zero_without_root_is_ambiguous(self, traj23):
        data = boundary_form(1, traj23, n=512)
        p, q = 2, 3
        assert aggregate_roots(data, q)[q - p, 1] == 1    # a genuine zero twist
        # without the polynomial roots nothing vouches for the singular
        # form, which must surface as an error rather than a count, naming
        # the first such twist: r = q - p
        rootless = dataclasses.replace(
            data, poly=dataclasses.replace(data.poly, roots=()))
        s = roots_of_unity_ladder(q)[q - p].real
        with pytest.raises(AmbiguousClassificationError,
                           match=re.escape(f"Re(omega)={s:.6f} ")):
            aggregate_roots(rootless, q)


class TestAggregation:
    def test_family23_mode1(self, traj23):
        data = boundary_form(1, traj23, n=1024)
        rows = aggregate_roots(data, 3)
        p, q = 2, 3
        assert rows[:, 1].sum() in (2, 4)
        sum_ind = rows[:, 0].sum() - 2 * q * data.dirichlet.negative
        assert 2 * p - 1 <= sum_ind <= 2 * q - 2

    def test_family23_mode2(self, traj23):
        data = boundary_form(2, traj23, n=1024)
        rows = aggregate_roots(data, 3)
        assert rows.sum(axis=0).tolist() == [0, 1]

    def test_family58_even_split(self, traj58):
        data = boundary_form(1, traj58, n=1024)
        rows = aggregate_roots(data, 8)
        p, q = 5, 8
        even_neg = rows[::2, 0].sum()
        odd_neg, odd_zero = rows[1::2].sum(axis=0)
        sum_ind_odd = odd_neg - q * data.dirichlet.negative
        assert p - 1 <= sum_ind_odd <= q - 2
        assert odd_zero in (2, 4)
        assert even_neg + odd_neg == rows[:, 0].sum()

    def test_zero_twists_hit_conjugate_pair(self, traj23):
        data = boundary_form(1, traj23, n=1024)
        carriers = np.flatnonzero(aggregate_roots(data, 3)[:, 1] > 0).tolist()
        assert carriers == [3 - 2, 3 + 2]     # r = q -+ p

    @pytest.mark.parametrize("pq", [(5, 9), (4, 7), (3, 5), (5, 8), (2, 3),
                                    (7, 10), (12, 17), (70, 99), None],
                             ids=lambda pq: "%d-%d" % pq if pq else "clifford")
    def test_rows_equal_the_dense_form(self, pq, clifford_traj):
        # the Clifford trajectory is twisted by the 16th roots of unity
        if pq is None:
            traj, q = clifford_traj, 8
        else:
            traj, q = family_trajectory(solve_parameter(*pq), 1024), pq[1]
        for l in (1, 2):
            data = boundary_form(l, traj, n=1024)
            assert aggregate_roots(data, q).tolist() == [
                list(dense_twisted_row(data, q, r)) for r in range(2 * q)]

    def test_paper_scale_rows(self):
        # 2378/3363, a convergent of sqrt(2)/2: every mode-1 zero sits at
        # r = q -+ p and mode 2's at the unit twist alone
        p, q = 2378, 3363
        traj = family_trajectory(solve_parameter(p, q), 512)
        for l, carriers in ((1, [q - p, q + p]), (2, [0])):
            data = boundary_form(l, traj, n=512)
            rows = aggregate_roots(data, q)
            assert rows.shape == (2 * q, 2)
            assert rows.dtype.kind == "i"
            assert np.flatnonzero(rows[:, 1]).tolist() == carriers
            for r in (0, 1, q - p, q, q + p, 2 * q - 1):
                assert tuple(rows[r].tolist()) == dense_twisted_row(data, q, r)


class TestApplicabilityGate:
    def test_margin_gate_raises(self, traj23, monkeypatch):
        # the recorded margin never exceeds 4, so the gate must refuse
        monkeypatch.setattr(edwards, "DIRICHLET_MARGIN", 1e2)
        with pytest.raises(EdwardsInapplicableError):
            boundary_form(1, traj23, n=512)

    def test_index_refusal_carries_the_dirichlet_reason(self, monkeypatch):
        # compute_index names the zero modes and the margin of the refusal
        # it re-raises, and chains it
        monkeypatch.setattr(edwards, "DIRICHLET_MARGIN", 1e2)
        with pytest.raises(EdwardsInapplicableError, match="margin") as info:
            compute_index(2, 3, "edwards", n=512)
        assert "rerun with method='direct'" in str(info.value)
        cause = info.value.__cause__
        assert isinstance(cause, EdwardsInapplicableError)
        assert str(cause).startswith("Dirichlet problem at l=1")

    @pytest.mark.parametrize("zone, factor, accepted", [
        pytest.param(zone, factor, accepted,
                     id=f"{factor or 'default'}-{accepted}"
                        + (f"-zone-{zone}" if zone else ""))
        for zone in (None, 1.1)
        for factor, accepted in [(None, True), (1 - 1e-6, True),
                                 (1.0, False), (1 + 1e-6, False)]])
    def test_decision_is_located_margin_above_bound(self, traj23, monkeypatch,
                                                    zone, factor, accepted):
        # the eigenvalue nearest zero lies 1.0016 from it at n = 512: the
        # default zone holds no eigenvalue (k = 0), one of half-width 1.1
        # holds it (k = 1), and either way the gate decides as the located
        # margin does, at the default bound (factor None) and around it
        if zone is not None:
            monkeypatch.setattr(spectral, "ZONE", zone)
        margin = dirichlet_negative_count(1, traj23, n=512).margin
        if factor is not None:
            monkeypatch.setattr(edwards, "DIRICHLET_MARGIN", margin * factor)
        assert accepted == (margin > edwards.DIRICHLET_MARGIN)
        system = fourier_block_system(1, traj23, BoundaryCondition.dirichlet())
        assert spectral._zone_rows(system, 512, 0.0)[0][0][2] == (zone is not None)
        if accepted:
            assert dirichlet_negative_count(1, traj23, n=512).negative == 1
        else:
            with pytest.raises(EdwardsInapplicableError):
                dirichlet_negative_count(1, traj23, n=512)

    def test_margin_located_only_when_read(self, monkeypatch):
        def unwanted(*args, **kwargs):
            raise AssertionError("margin located though nothing reads it")

        monkeypatch.setattr(edwards, "eigenvalues_in", unwanted)
        report = compute_index(2, 3, "edwards", n=512)
        assert report.flags["edwards_applicable"] == {"1": True, "2": True}

    def test_margin_is_the_located_nearest_eigenvalue(self, traj23):
        dirichlet = boundary_form(1, traj23, n=512).dirichlet
        system = fourier_block_system(1, traj23, BoundaryCondition.dirichlet())
        op = system.operator(512)
        assert np.array_equal(dirichlet.operator.diag, op.diag)
        assert np.array_equal(dirichlet.operator.off, op.off)
        lam = eigenvalues_in(op, -4.0, 4.0, tol=LOCATE_TOL, near=0.0)
        assert dirichlet.margin == float(np.abs(lam).min())

    def test_margin_pinned_59(self, capsys):
        assert run_cli(["edwards", "--p", "5", "--q", "9", "--l", "1",
                        "--n", "512"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["applicability_margin"] == 1.3714980259270306

    def test_dirichlet_check_sweeps(self, traj23, count_sweeps):
        # one count-only call per mesh, n and 2n, at the zone ends and the
        # two window shifts; the mesh-n zone is empty and covers +-reach,
        # so the gate sweeps nothing more
        dirichlet_negative_count(1, traj23, n=512)
        assert count_sweeps.calls == [4, 4]
        assert {logdet for _, _, logdet in count_sweeps} == {False}

    def test_dirichlet_gate_locates_when_the_zone_holds_eigenvalues(
            self, traj23, monkeypatch):
        # a zone of half-width 1.1 holds the eigenvalue nearest zero
        # (1.0016 at n = 512), so the gate takes no shortcut: it locates
        # the margin once, on the mesh-n operator, and the count stays
        original, located = edwards.eigenvalues_in, []

        def recorded(op, *args, **kwargs):
            located.append(op)
            return original(op, *args, **kwargs)

        monkeypatch.setattr(spectral, "ZONE", 1.1)
        monkeypatch.setattr(edwards, "eigenvalues_in", recorded)
        got = dirichlet_negative_count(1, traj23, n=512)
        assert got.negative == 1
        assert got.margin > edwards.DIRICHLET_MARGIN
        assert len(located) == 1 and located[0] is got.operator

    @staticmethod
    def _record_dirichlet_work(monkeypatch):
        """(the Dirichlet systems discretized, as (l, mesh); the 2x2 band
        operators swept; the operators whose margin is located)."""
        seen = [], [], []
        discretize, inertia = SLSystem.discretize, eigencount.inertia
        located = edwards.eigenvalues_in

        def recorded_discretize(system, n):
            if system.bc.kind == "dirichlet":
                seen[0].append((system.l, n))
            return discretize(system, n)

        def recorded_inertia(op, *shifts, **kwargs):
            if op.dim == 2 and not op.cyclic:
                seen[1].append(op)
            return inertia(op, *shifts, **kwargs)

        def recorded_located(op, *args, **kwargs):
            seen[2].append(op)
            return located(op, *args, **kwargs)

        monkeypatch.setattr(SLSystem, "discretize", recorded_discretize)
        monkeypatch.setattr(eigencount, "inertia", recorded_inertia)
        monkeypatch.setattr(spectral, "inertia", recorded_inertia)
        monkeypatch.setattr(edwards, "eigenvalues_in", recorded_located)
        return seen

    def test_both_gate_reads_the_direct_ladder(self, monkeypatch):
        # under 'both' the direct ladder of each mode, counted first, holds
        # the Dirichlet counts at its zone ends; both meshes read an empty
        # zone, so the gate sweeps and discretizes no Dirichlet operator
        want = report_document(compute_index(2, 3, "both", n=512))
        discretized, band, located = self._record_dirichlet_work(monkeypatch)
        got = report_document(compute_index(2, 3, "both", n=512))
        assert (discretized, band, located) == ([], [], [])
        want.pop("timestamp")
        got.pop("timestamp")
        assert got == want

    def test_both_gate_falls_back_when_the_zone_holds_eigenvalues(
            self, monkeypatch):
        # a zone of half-width 1.1 holds the Dirichlet eigenvalue nearest
        # zero of both modes (1.0016 at l = 1, n = 512), so the direct
        # ladder's counts at its ends read a populated zone, and the gate
        # counts the Dirichlet system itself, as when it is called alone:
        # both meshes once, and the margin located once, on mesh n
        monkeypatch.setattr(spectral, "ZONE", 1.1)
        discretized, band, located = self._record_dirichlet_work(monkeypatch)
        report = compute_index(2, 3, "both", n=512)
        assert (report.ind, report.nul) == (31, 9)
        assert discretized == [(1, 512), (1, 1024), (2, 512), (2, 1024)]
        assert {op.m for op in band} == {511, 1023}
        assert [op.m for op in located] == [511, 511]

    @staticmethod
    def _record_stacks(monkeypatch, tamper=None):
        """(mesh, shifts, keywords) of every stacked ``inertia`` call;
        ``tamper(op, counts, dirichlet)`` may replace its result."""
        stacks, inertia = [], spectral.inertia

        def recorded(op, *shifts, **kwargs):
            out = inertia(op, *shifts, **kwargs)
            if op.diag.ndim == 3:
                stacks.append((op.m, shifts, kwargs))
                if tamper is not None:
                    out = tamper(op, *out)
            return out

        monkeypatch.setattr(spectral, "inertia", recorded)
        return stacks

    def test_edwards_gate_reads_one_stacked_reduction_per_mesh(
            self, monkeypatch):
        # under 'edwards' one count-only reduction per mesh, of the stack
        # of the twisted operators of modes 1 and 2 at omega = 1, counts
        # both Dirichlet blocks at the zone ends; both meshes read an
        # empty zone, so the gate sweeps and discretizes no Dirichlet
        # operator
        want = report_document(compute_index(2, 3, "edwards", n=512))
        discretized, band, located = self._record_dirichlet_work(monkeypatch)
        stacks = self._record_stacks(monkeypatch)
        got = report_document(compute_index(2, 3, "edwards", n=512))
        assert (discretized, band, located) == ([], [], [])
        zone = spectral._zone(fourier_block_system(
            1, family_trajectory(solve_parameter(2, 3), 512),
            BoundaryCondition.dirichlet()), 512)
        assert stacks == [(m, (-zone, zone), {"logdet": False})
                          for m in (512, 1024)]
        want.pop("timestamp")
        got.pop("timestamp")
        assert got == want

    @pytest.mark.parametrize("case", ["populated", "meshes-disagree",
                                      "broke-down", "raises"])
    def test_edwards_gate_counts_alone_unless_the_stack_agrees(
            self, monkeypatch, case):
        # a populated zone (half-width 1.1 holds the Dirichlet eigenvalue
        # nearest zero of both modes), counts that change with the mesh, a
        # count that broke down, or a stacked call that raises: each gate
        # counts its Dirichlet system itself, as when it is called alone,
        # and the report stands
        def tamper(op, counts, dirichlet):
            if case == "raises":
                raise NumericalError("stacked reduction failed")
            if case == "meshes-disagree" and op.m == 1024:
                dirichlet = dirichlet + 1
            if case == "broke-down":
                dirichlet = np.where(np.arange(4) % 2, dirichlet, -1)
            return counts, dirichlet

        want = compute_index(2, 3, "edwards", n=512)
        if case == "populated":
            monkeypatch.setattr(spectral, "ZONE", 1.1)
        discretized, band, located = self._record_dirichlet_work(monkeypatch)
        stacks = self._record_stacks(monkeypatch, tamper)
        report = compute_index(2, 3, "edwards", n=512)
        assert (report.ind, report.nul) == (want.ind, want.nul) == (31, 9)
        assert [m for m, _, _ in stacks] == ([512] if case == "raises"
                                             else [512, 1024])
        assert discretized == [(1, 512), (1, 1024), (2, 512), (2, 1024)]
        assert {op.m for op in band} == {511, 1023}
        assert [op.m for op in located] == ([511, 511] if case == "populated"
                                            else [])

    @pytest.mark.parametrize("case", ["settled", "populated",
                                      "meshes-disagree", "broke-down",
                                      "all-broke-down"])
    def test_gate_counts_alone_unless_the_ends_agree(self, traj23, case,
                                                     monkeypatch,
                                                     count_sweeps):
        # the direct ladder's reductions settle the Dirichlet count only
        # when its four counts at the zone ends, both ends on both meshes,
        # agree and none broke down (-1); a populated zone (half-width 1.1
        # holds the eigenvalue nearest zero), counts that change with the
        # mesh, or one or all counts that broke down leave None.  Given
        # None the gate counts alone, sweeping what the unassisted gate
        # sweeps; given the settled count it sweeps nothing; the count and
        # the margin are the unassisted gate's either way
        inertia = spectral.inertia

        def tampered(op, *shifts, **kwargs):
            out = inertia(op, *shifts, **kwargs)
            if not op.ladder or kwargs.get("logdet", True):
                return out
            counts, dirichlet = out
            if case == "meshes-disagree" and op.m == 1024:
                dirichlet = dirichlet + 1
            if case == "broke-down" and op.m == 512:
                dirichlet = np.where(np.arange(len(dirichlet)) == 1, -1,
                                     dirichlet)
            if case == "all-broke-down":
                dirichlet = np.full_like(dirichlet, -1)
            return counts, dirichlet

        if case == "populated":
            monkeypatch.setattr(spectral, "ZONE", 1.1)
        want = dirichlet_negative_count(1, traj23, n=512)
        alone = [(sigma, logdet) for _, sigma, logdet in count_sweeps]
        monkeypatch.setattr(spectral, "inertia", tampered)
        known = direct_twisted_counts(1, traj23, 512)[1]
        assert known == (want.negative if case == "settled" else None)
        count_sweeps.clear()
        got = dirichlet_negative_count(1, traj23, 512, known)
        assert [(sigma, logdet) for _, sigma, logdet in count_sweeps] == (
            [] if case == "settled" else alone)
        assert got == want and got.margin == want.margin

    def test_dirichlet_checked_once(self, traj23, monkeypatch):
        calls = []
        original = edwards.dirichlet_negative_count

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(edwards, "dirichlet_negative_count", counted)
        boundary_form(2, traj23, n=512)
        assert calls == [2]

    def test_group_action_pairs_conjugate_spectra(self, traj23):
        # complex conjugation intertwines the omega and conj(omega) problems
        data = boundary_form(2, traj23, n=512)
        rows = aggregate_roots(data, 3)
        for r in (1, 2):     # omega_{2q - r} = conj(omega_r)
            assert rows[r].tolist() == rows[6 - r].tolist()
