"""Acceptance suite: one numbered check per shipped guarantee.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines.  Expected counts and bounds are recomputed from (p, q)
inside each test, never hard-coded as bare integers.
"""

import cmath
import math
import time
from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest

from helpers import (check_interlacing, closed_length_system,
                     direct_twisted_counts,
                     half_length_system, oscillation_index, restricted_form,
                     scalar_eigenfunctions, spectrum_with_eigenfunctions)
from otsuki.edwards import (aggregate_roots, boundary_form,
                            dirichlet_negative_count)
from otsuki.geodesic import (CLIFFORD_HALF_PERIOD, CLIFFORD_ROTATION,
                             GeodesicFamily, half_period, rotation_angle,
                             sample_trajectory, solve_parameter)
from otsuki.pipeline import bounds_check, compute_index, index_bounds
from otsuki.sl import BoundaryCondition
from otsuki.spectral import (TAU_ZERO, ladder_counts,
                             spectral_index, spectrum_below, spectrum_counts)
from otsuki.surface import kernel_fields, kernel_residuals, l0_channel_system


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d}: FAIL - {title}")
        raise
    print(f"\nACCEPTANCE {num:02d}: PASS - {title}")


@pytest.fixture(scope="module")
def headline_report():
    return compute_index(2, 3, method="both", n=4096)


def _l0_counts(traj, n, half=False):
    neg = zero = 0
    for chan in (1, 2):
        build = partial(l0_channel_system, chan)
        bc = BoundaryCondition.periodic()
        system = (half_length_system(build, traj, bc) if half
                  else closed_length_system(build, traj, bc))
        c_neg, c_zero = spectrum_counts(system, n)
        neg += c_neg
        zero += c_zero
    return neg, zero


def test_criterion_01_clifford_limits():
    with criterion(1, "degenerate-limit quadrature values"):
        start = time.monotonic()
        xi = rotation_angle(-1e-4)
        T = half_period(-1e-4)
        elapsed = time.monotonic() - start
        assert abs(xi - CLIFFORD_ROTATION) < 1e-3
        assert abs(T - CLIFFORD_HALF_PERIOD) < 1e-2
        assert elapsed < 1.0


def test_criterion_02_clifford_boundary_forms(clifford_traj):
    with criterion(2, "closed-form boundary data at b = 0"):
        start = time.monotonic()
        r6 = math.sqrt(6) / 2 * math.pi
        r2 = math.sqrt(2) / 2 * math.pi

        def A1(s):
            return np.diag([4 * math.sqrt(3) * math.pi / math.sin(r6)
                            * (math.cos(r6) - s),
                            4 * math.pi / math.sin(r2) * (math.cos(r2) + s)])

        def A2(s):
            return np.diag([4 * math.sqrt(2) * (1 - s),
                            4 * math.sqrt(2) * math.pi / math.sinh(math.pi)
                            * (math.cosh(math.pi) + s)])

        for l, closed in ((1, A1), (2, A2)):
            data = boundary_form(l, clifford_traj, n=1024)
            for k in range(16):
                om = cmath.exp(1j * k * math.pi / 8)
                assert np.abs(restricted_form(data.a, om)
                              - closed(om.real)).max() < 1e-6
        assert time.monotonic() - start < 5.0


def test_criterion_03_dirichlet_counts_near_degenerate(clifford_traj):
    with criterion(3, "Dirichlet negative counts near b = 0"):
        near = sample_trajectory(GeodesicFamily.from_b(-0.05), 1024)
        for traj in (clifford_traj, near):
            for n in (2048, 4096):
                assert dirichlet_negative_count(1, traj, n=n).negative == 1
                assert dirichlet_negative_count(2, traj, n=n).negative == 0


@pytest.mark.parametrize("p,q", [(2, 3), (5, 8), (7, 10)])
def test_criterion_04_mode0_counts(p, q, traj23, traj58, traj710):
    with criterion(4, f"mode-0 counts for {p}/{q}"):
        traj = {(2, 3): traj23, (5, 8): traj58, (7, 10): traj710}[(p, q)]
        start = time.monotonic()
        full = _l0_counts(traj, 4096)
        assert full == (2 * q + 4 * p - 1, 3)
        if q % 2 == 0:
            half = _l0_counts(traj, 4096, half=True)
            assert half == (q + 2 * p - 1, 3)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        assert _l0_counts(traj, 8192) == full     # doubling invariance


@pytest.mark.parametrize("p,q", [(2, 3), (5, 8), (7, 10)])
def test_criterion_05_root_identities(p, q, traj23, traj58, traj710):
    with criterion(5, f"determinant-polynomial roots for {p}/{q}"):
        traj = {(2, 3): traj23, (5, 8): traj58, (7, 10): traj710}[(p, q)]
        data1 = boundary_form(1, traj, n=2048)
        assert abs(data1.poly.s2 + math.cos(p * math.pi / q)) < 1e-6
        data2 = boundary_form(2, traj, n=2048)
        assert abs(data2.poly(1.0)) < 1e-8 * data2.poly.scale


def test_criterion_06_route_equivalence(traj23):
    with criterion(6, "boundary-form counts equal direct counts per twist"):
        p, q = 2, 3
        for l in (1, 2):
            data = boundary_form(l, traj23, n=2048)
            rows, _ = direct_twisted_counts(l, traj23, 2048)
            assert aggregate_roots(data, q).tolist() == rows.tolist()


def test_criterion_07_headline_index(headline_report):
    with criterion(7, "index 31 and nullity 9 for the 2/3 family"):
        start = time.monotonic()
        report = headline_report
        p, q = 2, 3
        assert report.ind == 31
        assert report.nul == 9
        assert report.ind == index_bounds(p, q)["thm_lower"]
        assert report.ind == 6 * q + 8 * p - 3
        checks = bounds_check(report)
        assert checks["thm_lower_ok"] and checks["thm_upper_ok"]
        assert checks["nul_ok"]
        # the fixture did the work; bound the residual assembly time and the
        # documented wall budget generously
        assert time.monotonic() - start < 300.0


def test_criterion_07_runtime_budget():
    with criterion(7, "headline computation fits the five-minute budget"):
        start = time.monotonic()
        compute_index(2, 3, method="both", n=4096)
        assert time.monotonic() - start < 300.0


def test_criterion_08_kernel_residuals():
    with criterion(8, "nine exact zero modes at finite-difference accuracy"):
        fam = solve_parameter(2, 3)
        per_period = 2048 // (2 * fam.rotation.q)
        values = {}
        for scale in (1, 2):
            traj = sample_trajectory(fam, per_period * scale)
            values[scale] = np.array(kernel_residuals(kernel_fields(traj),
                                                      traj))
        assert values[1].max() < 1e-6
        ratios = values[1] / values[2]
        assert np.all(ratios >= 8.0) and np.all(ratios <= 32.0)


def test_criterion_09_spectral_index(traj23, traj58, headline_report):
    with criterion(9, "spectral index values and the rough upper bound"):
        for traj, expect in ((traj23, 2 * 3 + 4 * 2 - 2),
                             (traj58, 8 + 2 * 5 - 2)):
            channel2 = ladder_counts(partial(l0_channel_system, 2), traj,
                                     4096, 0.0)
            assert spectral_index(traj, 4096, channel2) == expect
        assert headline_report.ind <= 5 * headline_report.spectral_index + 2
        other = compute_index(5, 8, method="direct", n=1024)
        assert other.ind <= 5 * other.spectral_index + 2


def test_criterion_10_oscillation_suite(traj23):
    with criterion(10, "oscillation ladder of the mode-0 problems"):
        p, q = 2, 3
        rows1 = oscillation_index(*spectrum_with_eigenfunctions(
            closed_length_system(partial(l0_channel_system, 1), traj23,
                                 BoundaryCondition.periodic()),
            0.3, 2048))
        zero_idx1 = [r["index"] for r in rows1
                     if abs(r["eigenvalue"]) <= TAU_ZERO]
        assert zero_idx1 == [4 * p - 1, 4 * p]
        rows2 = oscillation_index(*spectrum_with_eigenfunctions(
            closed_length_system(partial(l0_channel_system, 2), traj23,
                                 BoundaryCondition.periodic()),
            0.3, 2048))
        zero_idx2 = [r["index"] for r in rows2
                     if abs(r["eigenvalue"]) <= TAU_ZERO]
        assert zero_idx2 == [2 * q]
        per = spectrum_below(
            l0_channel_system(2, traj23, BoundaryCondition.periodic()),
            2.0, 1024)
        anti_system = l0_channel_system(2, traj23,
                                        BoundaryCondition.antiperiodic())
        anti = spectrum_below(anti_system, 2.0, 1024)
        assert check_interlacing(per.eigenvalues, anti.eigenvalues)
        # its zero mode is 2 pi cos^2(phi) phi'
        lam1, lam2 = anti.eigenvalues[:2]
        op = anti_system.operator(2048)
        vec = scalar_eigenfunctions(op, lam2)[0]
        phi, phid, _ = traj23.at(np.arange(op.m) * (anti_system.length / 2048))
        ref = 2.0 * math.pi * np.cos(phi) ** 2 * phid
        corr = abs(vec @ ref) / (np.linalg.norm(vec) * np.linalg.norm(ref))
        assert lam1 < 0
        assert abs(lam2) <= TAU_ZERO
        assert corr > 0.999
