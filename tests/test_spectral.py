import cmath
import math
import re
from dataclasses import replace
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (check_interlacing, closed_length_positive,
                     closed_length_system, constant_system,
                     direct_twisted_counts, full_period_grid,
                     half_length_system, oscillation_index,
                     spectrum_with_eigenfunctions, zero_count)
from otsuki import eigencount, spectral
from otsuki.errors import (AmbiguousClassificationError, NumericalError,
                           ValidationError)
from otsuki.geodesic import _phi_ddot, sample_trajectory, solve_parameter
from otsuki.pipeline import compute_index, family_trajectory, report_document
from otsuki.sl import BoundaryCondition, SLSystem, roots_of_unity_ladder
from otsuki.spectral import (TAU_ZERO, ZONE, class_counts, ladder_counts,
                             spectral_index, spectrum_below, spectrum_counts,
                             verify_high_l_positive)
from otsuki.surface import (fourier_block_system, l0_channel_system,
                            laplace_system, separated_coefficients)

SQRT2 = math.sqrt(2.0)

# (build, level) of the twist ladders that ``ladder_counts`` serves
LADDER_BUILDS = {1: (partial(fourier_block_system, 1), 0.0),
                 2: (partial(fourier_block_system, 2), 0.0),
                 "channel1": (partial(l0_channel_system, 1), 0.0),
                 "channel2": (partial(l0_channel_system, 2), 0.0),
                 "laplace0": (partial(laplace_system, 0), 2.0),
                 "laplace1": (partial(laplace_system, 1), 2.0)}

# the certificate window and its four edges on (mesh n, mesh 2n)
W = spectral._WINDOW
WINDOW_EDGES = [(-4.0 * W, 0.0), (W, 0.0), (0.0, -W), (0.0, 0.25 * W)]

README_FAMILIES = [(5, 9), (4, 7), (3, 5), (5, 8), (2, 3), (7, 10)]


def _counts_at(system, n, level):
    """The counts below and at ``level``: ``spectrum_counts`` of the system
    with its potential lowered by the level.  Only the scalar Laplace
    builds of LADDER_BUILDS count at a level other than 0."""
    assert level == 0.0 or system.dim == 1
    return spectrum_counts(
        replace(system, potential=lambda t: system.potential(t) - level), n)


@cache
def _trajectory(p, q):
    """The family's trajectory on 1024 intervals of [0, T]."""
    return sample_trajectory(solve_parameter(p, q), 1024)


def _record_sweeps(monkeypatch):
    """(op, sigma, logdet) of every shift of every inertia sweep, at both
    bindings."""
    original = eigencount.inertia
    swept = []

    def recorded(op, *shifts, logdet=True, **kwargs):
        swept.extend((op, sigma, logdet) for sigma in shifts)
        return original(op, *shifts, logdet=logdet, **kwargs)

    monkeypatch.setattr(eigencount, "inertia", recorded)
    monkeypatch.setattr(spectral, "inertia", recorded)
    return swept


def _record_locations(monkeypatch):
    """One entry per zone location (``_bisect`` on one mesh)."""
    original = spectral._bisect
    located = []

    def recorded(*args, **kwargs):
        located.append(args[1:3])
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral, "_bisect", recorded)
    return located


def _mesh_constant_system(values):
    """The periodic problem -h'' + V h on [0, 2 pi] whose constant potential
    takes the value values[n] on mesh n: its ground state is exactly that
    constant, so each mesh's zone eigenvalue is placed on its own."""
    return SLSystem(dim=1, length=2 * math.pi, bc=BoundaryCondition.periodic(),
                    weight=np.ones_like,
                    potential=lambda t: np.full(len(t), values[len(t)]))


class TestCalibration:
    def test_periodic_fourier_modes(self):
        system = constant_system(1, 2 * math.pi, 1.0, 0.0,
                                 BoundaryCondition.periodic())
        s = spectrum_below(system, 4.5, 256)
        assert np.allclose(s.eigenvalues, [0, 1, 1, 4, 4], atol=1e-7)
        assert (s.neg_count, s.zero_count) == (0, 1)

    def test_antiperiodic_fourier_modes(self):
        system = constant_system(1, 2 * math.pi, 1.0, 0.0,
                                 BoundaryCondition.antiperiodic())
        s = spectrum_below(system, 3.0, 256)
        assert np.allclose(s.eigenvalues, [0.25, 0.25, 2.25, 2.25], atol=1e-7)

    def test_degenerate_channel2_ladder(self):
        # the uncoupled channel over the formal closed length 2q sqrt(2) pi^2
        # carries the ladder 2 k^2 / q^2 - 2
        q = 3
        L = 2 * q * SQRT2 * math.pi ** 2
        system = constant_system(1, L, 4 * math.pi ** 2, -2.0,
                                 BoundaryCondition.periodic())
        s = spectrum_below(system, 0.5, 1024)
        expect = sorted(2 * k * k / q ** 2 - 2.0
                        for k in range(-q - 1, q + 2))[: len(s.eigenvalues)]
        assert np.allclose(s.eigenvalues, expect, atol=1e-6)

    def test_weight_must_be_positive(self):
        bad = constant_system(1, 1.0, -1.0, 0.0, BoundaryCondition.periodic())
        with pytest.raises(ValidationError):
            bad.discretize(128)

    def test_mesh_floor(self):
        system = constant_system(1, 1.0, 1.0, 0.0, BoundaryCondition.periodic())
        with pytest.raises(ValidationError):
            system.discretize(64)

    def test_borderline_stable_value_is_classified(self):
        # 2e-5 sits near the tau boundary but every refinement agrees it is
        # positive, so the count must come out rather than error
        system = constant_system(1, 2 * math.pi, 1.0, 2e-5,
                                 BoundaryCondition.periodic())
        assert spectrum_counts(system, 256) == (0, 0)

    @pytest.mark.parametrize("shift", [-1e-5, 1e-5])
    def test_value_at_tau_is_ambiguous(self, shift):
        # the ground state sits at the shift, on the classification
        # boundary and well inside the location error, so no class is sure
        system = constant_system(1, 2 * math.pi, 1.0, shift,
                                 BoundaryCondition.periodic())
        with pytest.raises(AmbiguousClassificationError):
            spectrum_counts(system, 256)

    def test_counts_sweep_each_point_once(self, count_sweeps):
        # the zero mode lies in the zone, which is then refined on both meshes
        system = constant_system(1, 2 * math.pi, 1.0, 0.0,
                                 BoundaryCondition.periodic())
        assert spectrum_counts(system, 256) == (0, 1)
        assert len(count_sweeps) > 4
        assert len(set(count_sweeps)) == len(count_sweeps)

    def test_borderline_unstable_value_is_ambiguous(self):
        # ground state whose extrapolated value crosses the tau boundary
        # between mesh pairs: class flips under refinement, so the counts
        # must refuse rather than guess
        A = 0.9e-5
        C = -4.0 * 256.0 ** 4 * 0.6e-5

        system = SLSystem(
            dim=1, length=2 * math.pi, bc=BoundaryCondition.periodic(),
            weight=np.ones_like,
            potential=lambda t: np.full(len(t), A + C / float(len(t)) ** 4))
        with pytest.raises(AmbiguousClassificationError):
            spectrum_counts(system, 256)

    def test_count_below_the_zone_that_moves_is_ambiguous(self):
        # -h'' + c on a circle of length 2 pi: the k = +-1 pair lies at c +
        # lam(m), lam(m) = (m / pi)^2 sin^2(pi / m) on m intervals, and c
        # puts it below -ZONE on mesh 128 and above it on mesh 256, so the
        # count below the zone changes under mesh doubling
        def lam(m):
            return (m / math.pi) ** 2 * math.sin(math.pi / m) ** 2

        c = -lam(128) - ZONE - (lam(256) - lam(128)) / 2
        system = constant_system(1, 2 * math.pi, 1.0, c,
                                 BoundaryCondition.periodic())
        with pytest.raises(AmbiguousClassificationError, match=re.escape(
                "count below -0.002 changed under mesh doubling: 3 vs 1")):
            spectrum_counts(system, 128)

    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize("potential, counts", [
        (-1.0, (0, 1)), ((-1.0, 0.0, -4.0), (1, 2))], ids=["scalar", "2x2"])
    def test_dirichlet_zone(self, potential, counts, n, monkeypatch):
        # -h'' on [0, pi] with Dirichlet ends has the eigenvalues k^2; the
        # zero of k^2 - 1 (and of k^2 - 4) drifts to -k^4 h^2 / 12 on the
        # mesh, outside the window at n = 256 and, for k = 1, inside it at
        # n = 1024, where it is certified unlocated
        located = _record_locations(monkeypatch)
        dim = 1 if np.ndim(potential) == 0 else 2
        system = constant_system(dim, math.pi, 1.0, potential,
                                 BoundaryCondition.dirichlet())
        assert spectrum_counts(system, n) == counts
        assert len(located) == (0 if (dim, n) == (1, 1024) else 2)

    @pytest.mark.parametrize("edge", range(4))
    def test_window_edges_certify_inside_and_locate_outside(self, edge,
                                                            monkeypatch):
        # the zero mode sits just inside, then just outside, one window
        # edge; the other mesh keeps it at 0.  Both sides count one zero,
        # but only inside is it certified, by the 4 end and 4 window
        # sweeps, none with log|det|; outside, the ends are swept once
        # more with log|det|, one call of two shifts per mesh
        swept = _record_sweeps(monkeypatch)
        located = _record_locations(monkeypatch)
        n = 256
        lam = np.array(WINDOW_EDGES[edge])
        outward = 1e-3 * lam        # away from 0, on the edge's mesh only
        for side, value in (("inside", lam - outward),
                            ("outside", lam + outward)):
            swept.clear()
            located.clear()
            system = _mesh_constant_system({n: value[0], 2 * n: value[1]})
            assert spectrum_counts(system, n) == (0, 1), side
            if side == "inside":
                assert len(swept) == 8 and not located
                assert not any(logdet for _, _, logdet in swept)
            else:
                assert len(swept) > 8 and len(located) == 2
                zone = max(abs(sigma) for _, sigma, _ in swept)
                ends = [(op.m, sigma) for op, sigma, logdet in swept
                        if logdet and abs(sigma) == zone]
                assert ends == [(m, s * zone) for m in (n, 2 * n)
                                for s in (-1.0, 1.0)]


class TestMode0Counts:
    def test_channel_counts_family23(self, traj23):
        p, q = 2, 3
        per_channel = {}
        for chan in (1, 2):
            system = closed_length_system(partial(l0_channel_system, chan),
                                          traj23, BoundaryCondition.periodic())
            per_channel[chan] = spectrum_counts(system, 1024)
        assert per_channel[1] == (4 * p - 1, 2)
        assert per_channel[2] == (2 * q, 1)
        total_neg = per_channel[1][0] + per_channel[2][0]
        total_zero = per_channel[1][1] + per_channel[2][1]
        assert total_neg == 2 * q + 4 * p - 1
        assert total_zero == 3

    def test_counts_stable_under_doubling(self, traj23):
        system = closed_length_system(partial(l0_channel_system, 1), traj23,
                                      BoundaryCondition.periodic())
        assert spectrum_counts(system, 512) == spectrum_counts(system, 1024)

    def test_even_q_half_length_counts(self, traj58):
        p, q = 5, 8
        neg = zero = 0
        for chan in (1, 2):
            system = half_length_system(partial(l0_channel_system, chan),
                                        traj58, BoundaryCondition.periodic())
            c_neg, c_zero = spectrum_counts(system, 1024)
            neg += c_neg
            zero += c_zero
        assert (neg, zero) == (q + 2 * p - 1, 3)

    def test_rayleigh_floor(self, traj23):
        system = fourier_block_system(1, traj23,
                                      BoundaryCondition.twisted(-1.0 + 0j))
        s = spectrum_below(system, 1.0, 512)
        q11, q12, q22 = separated_coefficients(1, traj23).T
        lam_min = np.min(0.5 * (q11 + q22)
                         - np.sqrt(0.25 * (q11 - q22) ** 2 + q12 ** 2))
        assert all(v >= lam_min - 1e-8 for v in s.eigenvalues)


class TestZeroCount:
    def test_sin_wave(self):
        t = np.linspace(0, 2 * math.pi, 600, endpoint=False)
        assert zero_count(np.sin(3 * t)) == 6

    def test_constant(self):
        assert zero_count(np.ones(300)) == 0

    def test_exact_zero_node_counted_once(self):
        t = np.linspace(0, 2 * math.pi, 512, endpoint=False)
        f = np.sin(t)            # hits 0.0 exactly at t = 0 and pi
        assert f[0] == 0.0
        assert zero_count(f) == 2

    def test_antiperiodic_wrap(self):
        t = np.linspace(0, math.pi, 400, endpoint=False)
        assert zero_count(np.cos(t), antiperiodic=True) == 1
        assert zero_count(np.sin(3 * t), antiperiodic=True) == 3

    def test_identically_zero_rejected(self):
        with pytest.raises(ValidationError):
            zero_count(np.zeros(400))

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValidationError):
            zero_count(np.sin(np.linspace(0, 6, 100)))

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(min_value=1, max_value=6),
           phase=st.floats(min_value=0.0, max_value=6.28))
    def test_trig_property(self, k, phase):
        t = np.linspace(0, 2 * math.pi, 700, endpoint=False)
        assert zero_count(np.sin(k * t + phase)) == 2 * k


class TestOscillation:
    def test_mode0_channel1_indices(self, traj23):
        p = 2
        system = closed_length_system(partial(l0_channel_system, 1), traj23,
                                      BoundaryCondition.periodic())
        rows = oscillation_index(*spectrum_with_eigenfunctions(system, 0.3, 1024))
        zero_rows = [r for r in rows if abs(r["eigenvalue"]) <= 1e-5]
        assert [r["index"] for r in zero_rows] == [4 * p - 1, 4 * p]
        assert all(r["zeros"] == 4 * p for r in zero_rows)

    def test_mode0_channel2_index(self, traj23):
        q = 3
        system = closed_length_system(partial(l0_channel_system, 2), traj23,
                                      BoundaryCondition.periodic())
        rows = oscillation_index(*spectrum_with_eigenfunctions(system, 0.3, 1024))
        zero_rows = [r for r in rows if abs(r["eigenvalue"]) <= 1e-5]
        assert [r["index"] for r in zero_rows] == [2 * q]
        assert zero_rows[0]["zeros"] == 2 * q

    def test_ground_state_nodeless(self, traj23):
        system = closed_length_system(partial(l0_channel_system, 1), traj23,
                                      BoundaryCondition.periodic())
        rows = oscillation_index(*spectrum_with_eigenfunctions(system, 0.0, 512))
        assert rows[0]["zeros"] == 0

    def test_interlacing_on_half_period(self, traj23):
        per = spectrum_below(l0_channel_system(2, traj23,
                                               BoundaryCondition.periodic()),
                             2.0, 512)
        anti = spectrum_below(
            l0_channel_system(2, traj23, BoundaryCondition.antiperiodic()),
            2.0, 512)
        assert check_interlacing(per.eigenvalues, anti.eigenvalues)

    def test_requires_eigenfunctions(self, traj23):
        system = closed_length_system(partial(l0_channel_system, 1), traj23,
                                      BoundaryCondition.periodic())
        s = spectrum_below(system, 0.0, 512)
        with pytest.raises(ValidationError):
            oscillation_index(s, [])

    def test_wrong_zero_count_is_diagnosed(self):
        from otsuki.errors import NumericalError
        from otsuki.spectral import SpectrumSummary
        t = np.linspace(0, 2 * math.pi, 512, endpoint=False)
        fake = SpectrumSummary(
            eigenvalues=[0.0], neg_count=0, zero_count=1, mesh=512,
            cutoff=1.0, bc="periodic")
        with pytest.raises(NumericalError):     # 4 zeros, ladder wants 0
            oscillation_index(fake, [np.sin(2 * t)])


def _antiperiodic_channel2(traj):
    """The half-period antiperiodic channel-2 problem: the twist r = q
    (omega = -1) of the channel-2 ladder."""
    return l0_channel_system(2, traj, BoundaryCondition.antiperiodic())


def _dense_extrapolated(system, n):
    """All eigenvalues on the meshes n and 2n by a dense solve, Richardson
    extrapolated over the lower mesh's count."""
    w1, w2 = (np.linalg.eigvalsh(system.discretize(k).to_dense())
              for k in (n, 2 * n))
    return (4.0 * w2[:len(w1)] - w1) / 3.0


class TestAntiperiodicCheck:
    """The verify row "antiperiodic l=0" reads the channel-2 ladder row
    r = q; the dense spectrum is the reference for that row."""

    def _row_matches_dense(self, traj):
        n, q = 256, traj.family.rotation.q
        row = ladder_counts(partial(l0_channel_system, 2), traj, n, 0.0)[q]
        lam = _dense_extrapolated(_antiperiodic_channel2(traj), n)
        dense = (int(np.sum(lam < -TAU_ZERO)),
                 int(np.sum(np.abs(lam) <= TAU_ZERO)))
        assert tuple(row.tolist()) == dense == (1, 1)

    def test_family23(self, traj23):
        self._row_matches_dense(traj23)

    def test_family58(self, traj58):
        self._row_matches_dense(traj58)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the zero mode "
                       "and lambda_1 ~ -b^2 = -3.6e-7 both read as zero")
    def test_family_2378_3363(self):
        traj = sample_trajectory(solve_parameter(2378, 3363), 1024)
        row = ladder_counts(partial(l0_channel_system, 2), traj, 512, 0.0)
        assert row[3363].tolist() == [1, 1]

    def test_reports_without_deciding(self):
        # at 2378/3363 lambda_1 (about -b^2 = -3.6e-7) lies inside the zero
        # class; the antiperiodic listing returns it instead of raising
        traj = sample_trajectory(solve_parameter(2378, 3363), 1024)
        listed = spectrum_below(_antiperiodic_channel2(traj), 0.5, 512)
        assert -TAU_ZERO < listed.eigenvalues[0] < 0

    def test_eigenvalues_within_stated_error_of_dense(self, traj23):
        # acceptance criterion 10 reads lambda_1 and lambda_2 off this listing
        n = 256
        system = _antiperiodic_channel2(traj23)
        listed = spectrum_below(system, 0.5, n).eigenvalues
        ref = _dense_extrapolated(system, n)[:2]
        assert len(listed) == 2
        # 5/6 of spectrum_below's 1e-9 bisection tolerance
        assert np.all(np.abs(np.array(listed) - ref) <= 5e-9 / 6.0)

    def test_mesh_disagreement_is_ambiguous(self, traj23, monkeypatch):
        n = 256
        original = spectral.eigenvalues_in

        def extra_on_doubled_mesh(op, lo, hi, **kwargs):
            lam = original(op, lo, hi, **kwargs)
            return np.append(lam, hi) if op.m == 2 * n else lam

        monkeypatch.setattr(spectral, "eigenvalues_in", extra_on_doubled_mesh)
        with pytest.raises(AmbiguousClassificationError):
            spectrum_below(_antiperiodic_channel2(traj23), 0.5, n)


@pytest.mark.parametrize("build,l,level", [
    (partial(l0_channel_system, 1), 0, 0.0),
    (partial(l0_channel_system, 2), 0, 0.0),
    (partial(laplace_system, 0), 0, 2.0),
    (partial(laplace_system, 1), 1, 2.0)],
    ids=["channel1", "channel2", "laplace0", "laplace1"])
@pytest.mark.parametrize("family", ["traj23", "traj58", "traj710"])
def test_class_rule_sums_the_ladder_to_the_closed_length_count(
        family, build, l, level, request):
    # Bloch: the closed-length problem on a mesh 2q times as fine is the
    # direct sum of the twisted problems on [0, T].  For even q the class
    # is the half length, periodic at even l and antiperiodic at odd l.
    traj = request.getfixturevalue(family)
    q, m = traj.family.rotation.q, 256
    if q % 2 == 1:
        closed = closed_length_system(build, traj,
                                      BoundaryCondition.periodic())
        mesh = 2 * q * m
    else:
        closed = half_length_system(
            build, traj, BoundaryCondition.antiperiodic() if l % 2
            else BoundaryCondition.periodic())
        mesh = q * m
    rows = ladder_counts(build, traj, m, level)
    assert class_counts(l, q, rows) == _counts_at(closed, mesh, level)


@pytest.mark.parametrize("odd", [0, 1], ids=["even_q", "odd_q"])
@settings(max_examples=40, deadline=None)
@given(half=st.integers(1, 6), l=st.integers(0, 3), data=st.data())
def test_class_counts_follow_the_parity_rule(odd, half, l, data):
    # every twist for odd q, the twists r = l (mod 2) for even q
    q = 2 * half + odd
    rows = np.array(data.draw(st.lists(
        st.tuples(st.integers(0, 50), st.integers(0, 5)),
        min_size=2 * q, max_size=2 * q)), dtype=int).reshape(2 * q, 2)
    keep = [r for r in range(2 * q) if q % 2 == 1 or r % 2 == l % 2]
    want = (sum(int(rows[r, 0]) for r in keep),
            sum(int(rows[r, 1]) for r in keep))
    got = class_counts(l, q, rows)
    assert got == want and all(type(v) is int for v in got)


def _channel2_rows(traj, n):
    return ladder_counts(partial(l0_channel_system, 2), traj, n, 0.0)


class TestSpectralIndex:
    def test_family23(self, traj23):
        p, q = 2, 3
        assert spectral_index(traj23, 1024, _channel2_rows(traj23, 1024)) \
            == 2 * q + 4 * p - 2 == 12

    def test_family58(self, traj58):
        p, q = 5, 8
        assert spectral_index(traj58, 1024, _channel2_rows(traj58, 1024)) \
            == q + 2 * p - 2 == 16

    @pytest.mark.parametrize("p,q", [(2, 3), (5, 9), (70, 99)])
    def test_channel2_potential_factors(self, p, q):
        # Q22(l = 0) + 2 = -sqrt(p) sqrt(p)'' with sqrt(p) = 2 pi cos(phi),
        # which makes channel 2 plus 2 the partner A A* of the Laplace
        # l = 0 operator A*A, A h = sqrt(p) h'
        traj = sample_trajectory(solve_parameter(p, q), 1024)
        phi, phid, _ = traj.at(traj.grid)
        phidd = _phi_ddot(traj.family.c, np.cos(phi), np.sin(phi), phid)
        root = 2.0 * math.pi * np.cos(phi)
        root_dd = -2.0 * math.pi * (np.cos(phi) * phid ** 2
                                    + np.sin(phi) * phidd)
        q22 = separated_coefficients(0, traj)[:, 2]
        assert np.abs(q22 + 2.0 + root * root_dd).max() < 1e-12

    @pytest.mark.parametrize("p,q", [(2, 3), (5, 9)])
    def test_channel2_rows_are_laplace0_rows(self, p, q):
        # the partners share their twisted spectra, shifted by 2
        traj = sample_trajectory(solve_parameter(p, q), 1024)
        assert np.array_equal(_channel2_rows(traj, 512), ladder_counts(
            partial(laplace_system, 0), traj, 512, 2.0))


def _patch_potential(monkeypatch, edit):
    """Make ``spectral`` see the potential rows (Q11, Q12, Q22) that
    ``edit`` (in place) makes of the true ones."""
    original = spectral.separated_coefficients

    def patched(l, traj, grid=None):
        Q = original(l, traj, grid)
        edit(Q)
        return Q

    monkeypatch.setattr(spectral, "separated_coefficients", patched)


def _matrices(rows):
    """The symmetric 2x2 matrices of (Q11, Q12, Q22) rows."""
    return rows[:, [[0, 1], [1, 2]]]


def _lam_min(rows):
    return np.linalg.eigvalsh(_matrices(rows))[:, 0]


class TestHighModes:
    def test_l3_positive(self, traj23):
        assert verify_high_l_positive(3, traj23)

    def test_l10_positive(self, traj23):
        assert verify_high_l_positive(10, traj23)

    def test_low_l_rejected(self, traj23):
        with pytest.raises(ValidationError):
            verify_high_l_positive(1, traj23)

    @pytest.mark.parametrize("p,q", README_FAMILIES + [(70, 99)])
    def test_agrees_with_the_closed_length_sweep(self, p, q):
        # 64 mesh nodes per half period, so the sweep samples the potential
        # as finely at 70/99 as at 2/3
        traj = _trajectory(p, q)
        assert verify_high_l_positive(3, traj)
        assert closed_length_positive(3, traj, max(512, 128 * q))

    def test_a_negative_node_fails(self, traj23, monkeypatch):
        def edit(Q):
            Q[300] = [-1e-3, 0.0, 5.0]

        _patch_potential(monkeypatch, edit)
        assert not verify_high_l_positive(3, traj23)
        with pytest.raises(NumericalError, match="positivity"):
            compute_index(2, 3, method="direct", n=512)

    def test_a_jump_above_both_ends_fails(self, traj23, monkeypatch):
        # every node stays positive definite, but between nodes 300 and
        # 301 the potential moves by more than either end's lambda_min
        def edit(Q):
            Q[301:, 2] += 100.0

        _patch_potential(monkeypatch, edit)
        Q = spectral.separated_coefficients(3, traj23)
        lam = _lam_min(Q)
        assert lam.min() > 0
        M = _matrices(Q)
        assert np.linalg.norm(M[301] - M[300], ord=2) > max(lam[300], lam[301])
        assert not verify_high_l_positive(3, traj23)

    @pytest.mark.parametrize("p,q", README_FAMILIES + [(10, 19), (30, 59)])
    def test_l3_bounds_every_higher_mode(self, p, q):
        # Q_l - Q_3 = (l - 3)/cos(phi) [((l + 3)/cos(phi)) I - 4 pi phi'
        # sigma_x] is positive definite because unit speed bounds
        # 4 pi |phi'| cos(phi) by 2
        traj = _trajectory(p, q)
        phi, phid, _ = traj.at(traj.grid)
        assert np.max(4.0 * math.pi * np.abs(phid) * np.cos(phi)) <= 2.0 + 1e-12
        Q3 = separated_coefficients(3, traj)
        for l in range(4, 13):
            lam = _lam_min(separated_coefficients(l, traj) - Q3)
            want = (l - 3) / np.cos(phi) * ((l + 3) / np.cos(phi)
                                            - 4.0 * math.pi * np.abs(phid))
            assert lam == pytest.approx(want, rel=1e-9)
            assert lam.min() > 0

    @pytest.mark.parametrize("traj", ["traj23", "traj58"])
    def test_half_period_nodes_hold_the_closed_length_minima(self, traj, request):
        # the pointwise check reads [0, T] only; over the closed length the
        # potential repeats those values (up to the rounding of the folded
        # times), so the minima of Q11 and det Q must not move
        traj = request.getfixturevalue(traj)
        minima = []
        for grid in (traj.grid, full_period_grid(traj)):
            Q = separated_coefficients(3, traj, grid)
            minima.append((Q[:, 0].min(),
                           (Q[:, 0] * Q[:, 2] - Q[:, 1] ** 2).min()))
        assert minima[0] == pytest.approx(minima[1], rel=1e-14)


class TestMode2Counts:
    def test_closed_length_ground_state_is_zero(self, traj23):
        # the mode-2 block over the full length: one zero mode, no negatives
        system = closed_length_system(partial(fourier_block_system, 2),
                                      traj23, BoundaryCondition.periodic())
        assert spectrum_counts(system, 1024) == (0, 1)

    def test_even_q_antiperiodic_class_matches_twisted_sum(self, traj58):
        # the half-length antiperiodic class must reproduce the odd-power
        # twisted sums that assemble it
        q = 8
        system = half_length_system(partial(fourier_block_system, 1), traj58,
                                    BoundaryCondition.antiperiodic())
        direct_class = spectrum_counts(system, 1024)
        rows, _ = direct_twisted_counts(1, traj58, 256)
        assert rows.shape == (2 * q, 2)
        total = [0, 0]
        for r in range(1, 2 * q, 2):
            neg, zero = rows[r].tolist()
            total[0] += neg
            total[1] += zero
        assert direct_class == tuple(total)


class TestTwistedConsistency:
    def test_multiset_union_over_roots(self, traj23, fam23):
        # eigenvalues of the closed-length problem equal the union of the
        # half-period twisted spectra, counted with multiplicity
        q = 3
        cutoff = -0.8
        full = closed_length_system(partial(fourier_block_system, 1), traj23,
                                    BoundaryCondition.periodic())
        s_full = spectrum_below(full, cutoff, 1024)
        union = []
        for r in range(2 * q):
            om = cmath.exp(1j * math.pi * r / q)
            tw = fourier_block_system(1, traj23, BoundaryCondition.twisted(om))
            union.extend(spectrum_below(tw, cutoff, 512).eigenvalues)
        union.sort()
        assert len(union) == len(s_full.eigenvalues)
        assert np.abs(np.array(union) - np.array(s_full.eigenvalues)).max() < 1e-6

    @pytest.mark.parametrize("p,q", README_FAMILIES + [(12, 17), (70, 99)])
    def test_stacked_ladders_equal_each_alone(self, p, q, monkeypatch):
        # the ladders that share a mesh, a level and a block size, mode 0's
        # channels and the mode-1 and mode-2 blocks, count as one stack,
        # one count-only call per mesh; each yields the rows and the
        # Dirichlet count of its ladder counted alone
        original, calls = spectral.inertia, []

        def recorded(op, *shifts, logdet=True):
            calls.append((op.diag.ndim - op.dim, logdet))
            return original(op, *shifts, logdet=logdet)

        for n in (512, 1024):
            traj = family_trajectory(solve_parameter(p, q), n)
            for pair in (("channel1", "channel2"), (1, 2)):
                builds = [LADDER_BUILDS[key][0] for key in pair]
                alone = [next(spectral._ladders([build], traj, n, 0.0))
                         for build in builds]
                monkeypatch.setattr(spectral, "inertia", recorded)
                calls.clear()
                stacked = list(spectral._ladders(builds, traj, n, 0.0))
                monkeypatch.undo()
                assert [c for c in calls if not c[1]] == [(1, False)] * 2
                for (rows, dirichlet), (want, want_dirichlet) in zip(
                        stacked, alone):
                    assert np.array_equal(rows, want)
                    assert dirichlet == want_dirichlet

    def test_a_stack_that_raises_counts_each_ladder_alone(self, traj23,
                                                          monkeypatch):
        # a stacked count that raises leaves each ladder to count alone in
        # its turn, where its own error would surface: the same rows
        original, sizes = spectral._counted, []

        def refused(systems, *args, **kwargs):
            sizes.append(len(systems))
            if len(systems) > 1:
                raise NumericalError("stack refused")
            return original(systems, *args, **kwargs)

        builds = [LADDER_BUILDS[l][0] for l in (1, 2)]
        want = list(spectral._ladders(builds, traj23, 512, 0.0))
        monkeypatch.setattr(spectral, "_counted", refused)
        got = list(spectral._ladders(builds, traj23, 512, 0.0))
        assert sizes == [2, 1, 1]
        assert all(np.array_equal(a[0], b[0]) and a[1] == b[1]
                   for a, b in zip(got, want))

    def test_ladder_sweeps_each_conjugate_pair_once(self, monkeypatch):
        # the twists r > q are the conjugates of 2q - r: no ladder carries
        # them, and no twist of negative imaginary part is refined alone;
        # a location sweeps the sub-ladder of the twists it locates
        q = 3
        swept = _record_sweeps(monkeypatch)
        compute_index(2, q, "direct", n=512)
        ladders = [(op.wrap_mult, logdet) for op, _, logdet in swept
                   if op.ladder]
        alone = [op.wrap_mult for op, _, _ in swept
                 if op.cyclic and not op.ladder]
        assert ladders and alone
        upper = set(roots_of_unity_ladder(q)[:q + 1].tolist())
        assert all(set(w[:, 0].tolist()) <= upper for w, _ in ladders)
        assert all(len(w) == q + 1 for w, logdet in ladders if not logdet)
        assert any(len(w) < q + 1 for w, logdet in ladders if logdet)
        assert all(complex(w[0]).imag >= 0.0 for w in alone)

    @pytest.mark.parametrize("block", [1, 2, "channel1", "laplace1"])
    def test_ladder_rows_equal_each_twist_counted_alone(self, traj23, traj58,
                                                        block):
        build, level = LADDER_BUILDS[block]
        for traj in (traj23, traj58):
            q = traj.family.rotation.q
            rows = ladder_counts(build, traj, 256, level)
            alone = [list(_counts_at(
                        build(traj, BoundaryCondition.twisted(om)), 256,
                        level))
                     for om in roots_of_unity_ladder(q)]
            assert rows.tolist() == alone
            assert rows[:, 1].any()                     # a zone was refined
            # the rows r > q are the copies of the rows 2q - r
            assert np.array_equal(rows[q + 1:], rows[q - 1:0:-1])

    @pytest.mark.parametrize("block", list(LADDER_BUILDS))
    def test_zero_modes_certified_by_eight_ladder_sweeps(
            self, traj23, traj58, traj710, block, monkeypatch):
        # every build's zone holds exact zero modes, which the four end and
        # four window sweeps of its q + 1 twist ladder settle, unlocated
        build, level = LADDER_BUILDS[block]
        swept = _record_sweeps(monkeypatch)
        for traj in (traj23, traj58, traj710):
            q = traj.family.rotation.q
            swept.clear()
            rows = ladder_counts(build, traj, 1024, level)
            assert rows[:, 1].any()
            assert len(swept) == 8
            assert all(op.ladder and len(op.wrap_mult) == q + 1
                       for op, _, _ in swept)

    def test_located_ends_are_swept_once_per_ladder(self, traj23,
                                                    monkeypatch):
        # two uncoupled free channels with multipliers (omega, -omega):
        # twist 1 in channel 1 and twist 2 in channel 2 share the
        # eigenvalue near (1/6)^2, so both twists are located (two
        # meshes each), from one log|det| sweep of the ladder's ends per
        # mesh; every twist holds one eigenvalue below the level
        def build(traj, bc):
            return constant_system(2, 2 * math.pi, 1.0, (0.0, 0.0, 0.0), bc)

        swept = _record_sweeps(monkeypatch)
        located = _record_locations(monkeypatch)
        rows = ladder_counts(build, traj23, 256, 1.0 / 36.0 + 1e-3)
        assert len(located) == 4
        assert rows.tolist() == [[1, 0]] * 6
        ends = [(op.m, op.ladder) for op, _, logdet in swept
                if logdet and op.ladder]
        assert ends == [(256, True)] * 2 + [(512, True)] * 2

    def test_ambiguity_names_the_twist(self, traj23):
        # twist 0's ground state sits at 0 on mesh n and at 0.01, outside
        # the zone, on mesh 2n; the other twists hold no zone eigenvalue
        n = 256
        system = _mesh_constant_system({n: 0.0, 2 * n: 0.01})
        message = "zone population changed under mesh doubling: 1 vs 0"
        with pytest.raises(AmbiguousClassificationError,
                           match=f"^{message}$"):
            spectrum_counts(system, n)

        def build(traj, bc):
            return replace(system, bc=bc, l=2)

        with pytest.raises(AmbiguousClassificationError,
                           match=rf"^{message} \(l = 2, twist r = 0\)$"):
            ladder_counts(build, traj23, n, 0.0)

    def test_third_mesh_runs_on_the_twist_alone(self, traj23, monkeypatch):
        # the borderline-stable ground state of twist 0 is classified again
        # on the meshes 2n and 4n; the 4n operator is built once and swept
        # for twist 0 alone, not as a ladder
        n = 256

        def build(traj, bc):
            return constant_system(1, 2 * math.pi, 1.0, 2e-5, bc)

        meshes = []
        discretize = SLSystem.discretize

        def recorded(system, k):
            meshes.append(k)
            return discretize(system, k)

        monkeypatch.setattr(SLSystem, "discretize", recorded)
        swept = _record_sweeps(monkeypatch)
        assert ladder_counts(build, traj23, n, 0.0).tolist() == [[0, 0]] * 6
        assert meshes.count(4 * n) == 1
        twist0 = BoundaryCondition.twisted(
            roots_of_unity_ladder(3)[0]).channel_multipliers(1)
        fine = [op.wrap_mult for op, _, _ in swept if op.m == 4 * n]
        assert fine and all(tuple(mult) == twist0 for mult in fine)

    def test_count_path_takes_no_log_det(self, count_sweeps):
        # at this mesh the windows certify every zone of 2/3, so no sweep
        # of the full run reads log|det|
        compute_index(2, 3, "both", n=1024)
        assert count_sweeps
        assert not any(logdet for _, _, logdet in count_sweeps)

    def test_certified_counts_equal_located_counts(self, traj23, traj58,
                                                   traj710, monkeypatch):
        # a zero window certifies nothing, so every zone is located
        def run():
            rows = [ladder_counts(build, traj, 1024, level).tolist()
                    for build, level in LADDER_BUILDS.values()
                    for traj in (traj23, traj58, traj710)]
            docs = []
            for p, q in ((2, 3), (5, 8)):
                doc = report_document(compute_index(p, q, "both", n=1024))
                doc.pop("timestamp")
                docs.append(doc)
            return rows, docs

        located = _record_locations(monkeypatch)
        certified = run()
        assert not located
        monkeypatch.setattr(spectral, "_WINDOW", 0.0)
        assert run() == certified
        assert located

    def test_empty_zones_cost_four_sweeps(self, traj23, traj58, count_sweeps):
        # the l = 3 block is positive, so no twist's zone holds eigenvalues;
        # each mesh is swept in one call, at its zone ends and its windows
        for traj in (traj23, traj58):
            q = traj.family.rotation.q
            count_sweeps.clear()
            assert direct_twisted_counts(3, traj, 256)[0].tolist() == [
                [0, 0]] * (2 * q)
            assert count_sweeps.calls == [4, 4]

    def test_twisted_eigenvector_embeds_in_closed_problem(self, traj23):
        # extend a twisted eigenvector by the per-period phases and check it
        # solves the discrete closed-length problem with the same eigenvalue
        q, m = 3, 256
        om = cmath.exp(1j * math.pi / q)
        tw = fourier_block_system(1, traj23, BoundaryCondition.twisted(om))
        op = tw.discretize(m)
        w, V = np.linalg.eigh(op.to_dense())
        lam, vec = w[0], V[:, 0]
        h1 = vec[0::2]
        h2 = vec[1::2]
        blocks = []
        for k in range(2 * q):
            blocks.append(np.stack([om ** k * h1, (-om) ** k * h2], axis=1).ravel())
        ext = np.concatenate(blocks)
        full = closed_length_system(partial(fourier_block_system, 1), traj23,
                                    BoundaryCondition.periodic())
        A = full.discretize(2 * q * m).to_dense()
        resid = np.linalg.norm(A @ ext - lam * ext) / np.linalg.norm(A @ ext)
        assert resid < 1e-10


@pytest.mark.parametrize("q", [3, 8, 17, 99])
def test_roots_of_unity_ladder_exact(q):
    ladder = roots_of_unity_ladder(q)
    assert len(ladder) == 2 * q
    assert ladder[0] == 1 and ladder[q] == -1
    if q % 2 == 0:
        assert ladder[q // 2] == 1j and ladder[3 * q // 2] == -1j
    for r in range(1, 2 * q):
        assert ladder[2 * q - r] == ladder[r].conjugate()
        assert abs(ladder[r] - cmath.exp(1j * math.pi * r / q)) <= 2e-15


@pytest.mark.parametrize("q", [3, 99, 577])
def test_roots_of_unity_ladder_kept(q):
    # the kept ladder is the one a fresh build returns, to the bit, and a
    # second call for the same q returns it again rather than a new one
    ladder = roots_of_unity_ladder(q)
    fresh = roots_of_unity_ladder.__wrapped__(q)
    assert isinstance(ladder, np.ndarray) and not ladder.flags.writeable
    assert [(w.real.hex(), w.imag.hex()) for w in ladder.tolist()] == [
        (w.real.hex(), w.imag.hex()) for w in fresh.tolist()]
    assert roots_of_unity_ladder(q) is ladder


@settings(max_examples=10, deadline=None)
@given(shift=st.floats(min_value=-2.0, max_value=2.0))
@example(shift=-1e-5)
@example(shift=1e-5)
@example(shift=-9.9999e-6)
def test_counts_consistent_with_listing(shift):
    # the ground state sits exactly at the shift
    system = constant_system(1, 5.0, 1.0, shift, BoundaryCondition.periodic())
    try:
        s = spectrum_below(system, 3.0, 256)
    except AmbiguousClassificationError:
        assert abs(abs(shift) - TAU_ZERO) < 1e-6
        return
    below = [v for v in s.eigenvalues if v < -TAU_ZERO]
    at = [v for v in s.eigenvalues if abs(v) <= TAU_ZERO]
    assert (s.neg_count, s.zero_count) == (len(below), len(at))
