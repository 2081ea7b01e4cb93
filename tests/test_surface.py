import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from helpers import closed_length_fields, closed_length_system, zero_count
from otsuki import surface
from otsuki.errors import ValidationError
from otsuki.geodesic import Trajectory, sample_trajectory, solve_parameter
from otsuki.pipeline import family_trajectory
from otsuki.sl import BoundaryCondition
from otsuki.spectral import spectrum_below
from otsuki.surface import (_weight, _weingarten, fourier_block_system,
                            frame, kernel_fields, kernel_residuals,
                            l0_channel_system, laplace_system,
                            separated_coefficients)

TWO_PI = 2 * math.pi

# kernel_residuals of the nine kernel fields, in kernel_fields order
PINNED_RESIDUALS = {
    (2, 3, 171): ["8.132227185763233e-08", "8.132227185763233e-08",
                  "3.812825152689727e-08", "4.868931804329874e-08",
                  "4.868931804329874e-08", "4.868931804329874e-08",
                  "4.868931804329874e-08", "2.974885777238911e-08",
                  "2.974885777238911e-08"],
    (2, 3, 1024): ["6.695880827022091e-11", "6.695880827022091e-11",
                   "3.386380041194245e-11", "3.9562959629225796e-11",
                   "3.9562959629225796e-11", "3.9562959629225796e-11",
                   "3.9562959629225796e-11", "2.6421996391625387e-11",
                   "2.6421996391625387e-11"],
    (5, 8, 128): ["4.943343883933877e-06", "4.943343883933877e-06",
                  "3.0949798488921148e-06", "4.759841248708282e-06",
                  "4.759841248708282e-06", "4.759841248708282e-06",
                  "4.759841248708282e-06", "2.8801044586678703e-06",
                  "2.8801044586678703e-06"],
}


class TestImmersion:
    def test_unit_norm_random(self, traj23, fam23):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = frame(rng.uniform(0, TWO_PI), rng.uniform(0, fam23.t0),
                      traj23).N
            assert abs(np.linalg.norm(x) - 1.0) < 1e-12

    def test_clifford_base_point(self, clifford_traj):
        x = frame(0.0, 0.0, clifford_traj).N
        assert np.allclose(x, [0, 0, 1, 0, 0], atol=1e-15)

    def test_even_q_shift_invariance(self, traj58, fam58):
        rng = np.random.default_rng(5)
        half = fam58.t0 / 2
        for _ in range(25):
            al = rng.uniform(0, TWO_PI)
            t = rng.uniform(0, half)
            x0 = frame(al, t, traj58).N
            x1 = frame(al + math.pi, t + half, traj58).N
            assert np.abs(x1 - x0).max() < 1e-12


class TestFrame:
    def test_orthonormal_on_grid(self, traj23, fam23):
        worst = 0.0
        for al in np.linspace(0, TWO_PI, 32, endpoint=False):
            for t in np.linspace(0, fam23.t0, 32, endpoint=False):
                G = frame(al, t, traj23).gram()
                worst = max(worst, np.abs(G - np.eye(5)).max())
        assert worst < 1e-10

    def test_samples_read_at_once_give_the_same_frames(self, traj23, fam23):
        # one traj.at call on an array of node times gives the bits of
        # one scalar call per time
        rng = np.random.default_rng(7)
        t = rng.integers(6 * traj23.n, size=24) * (fam23.T / traj23.n)
        samples = zip(*(arr.tolist() for arr in traj23.at(t)))
        for tt, sample in zip(t.tolist(), samples):
            assert sample == traj23.at(tt)
            want, got = frame(0.7, tt, traj23), frame(0.7, tt, traj23, sample)
            assert np.array_equal(want.gram(), got.gram())

    def test_first_tangent_is_scaled_alpha_derivative(self, traj23):
        al, t = 0.7, 2.31
        fp = frame(al, t, traj23)
        h = 1e-5
        xa = (frame(al + h, t, traj23).N - frame(al - h, t, traj23).N) / (2 * h)
        phi = traj23.at(t)[0]
        assert np.abs(fp.e1 - xa / math.cos(phi)).max() < 1e-8

    def test_first_normal_last_coordinate_zero(self, traj23, fam23):
        rng = np.random.default_rng(11)
        for _ in range(20):
            fp = frame(rng.uniform(0, TWO_PI), rng.uniform(0, fam23.t0), traj23)
            assert fp.n1[4] == 0.0

    def test_traceless_shape_operators(self, fam23):
        # minimality: tr A^{n} = <n, x_aa>/cos^2 + 4pi^2cos^2 <n, x_tt> = 0,
        # probed with second differences of the immersion; the t-direction
        # needs a finely sampled trajectory so interpolation curvature does
        # not pollute the second difference
        traj = sample_trajectory(fam23, 16384)
        rng = np.random.default_rng(23)
        h = 1e-3
        for _ in range(10):
            al = rng.uniform(0, TWO_PI)
            t = rng.uniform(0.1, fam23.t0 - 0.1)
            fp = frame(al, t, traj)
            x0 = frame(al, t, traj).N
            xaa = (frame(al + h, t, traj).N - 2 * x0
                   + frame(al - h, t, traj).N) / h ** 2
            xtt = (frame(al, t + h, traj).N - 2 * x0
                   + frame(al, t - h, traj).N) / h ** 2
            c2 = math.cos(traj.at(t)[0]) ** 2
            for nv in (fp.n1, fp.n2):
                tr = nv @ xaa / c2 + 4 * math.pi ** 2 * c2 * (nv @ xtt)
                assert abs(tr) < 1e-6


class TestWeingarten:
    def test_clifford_values(self, clifford_traj):
        phi = clifford_traj.at(1.0)[0]
        a11, a22 = _weingarten(clifford_traj.family.c, math.cos(phi),
                               math.sin(phi))
        assert a11 == pytest.approx(2.0, rel=1e-12)
        assert a22 == pytest.approx(0.0, abs=1e-14)

    def test_ratio_is_sin_squared(self, traj23, fam23):
        for t in np.linspace(0.1, fam23.t0 - 0.1, 17):
            phi = traj23.at(t)[0]
            a11, a22 = _weingarten(traj23.family.c, math.cos(phi),
                                   math.sin(phi))
            assert a22 == pytest.approx(math.sin(phi) ** 2 * a11, abs=1e-12)

    def test_vanishes_at_equator_crossing(self, traj23, fam23):
        phi = traj23.at(fam23.T / 2)[0]
        _, a22 = _weingarten(traj23.family.c, math.cos(phi), math.sin(phi))
        assert abs(a22) < 1e-12


class TestSeparatedCoefficients:
    def test_clifford_constant_potential(self, clifford_traj):
        for l in (0, 1, 2, 3):
            rows = separated_coefficients(l, clifford_traj)
            expect = np.array([[l * l - 4.0, 0.0], [0.0, l * l - 2.0]])
            Q = rows[:, [[0, 1], [1, 2]]]
            assert np.abs(Q - expect).max() < 1e-12
        p = _weight(np.cos(clifford_traj.at(clifford_traj.grid)[0]))
        assert np.abs(p - 4 * math.pi ** 2).max() < 1e-12

    def test_decoupled_at_l0(self, traj23):
        assert np.all(separated_coefficients(0, traj23)[:, 1] == 0.0)

    def test_rows_read_no_weight(self, traj23, monkeypatch):
        # p has its one home in _weight, and sampling Q_l never reads it
        def unwanted(phi):
            raise AssertionError("separated_coefficients evaluated p")

        want = separated_coefficients(2, traj23)
        monkeypatch.setattr(surface, "_weight", unwanted)
        assert np.array_equal(separated_coefficients(2, traj23), want)

    @pytest.mark.parametrize("build,l,column", [
        (partial(fourier_block_system, 1), 1, None),
        (partial(fourier_block_system, 2), 2, None),
        (partial(l0_channel_system, 1), 0, 0),
        (partial(l0_channel_system, 2), 0, 2)],
        ids=["1", "2", "channel1", "channel2"])
    @pytest.mark.parametrize("length", ["T", "t0"])
    def test_samplers_read_separated_coefficients(self, traj58, build, l,
                                                  column, length):
        # every system lives on [0, T], and it samples p as _weight and Q_l
        # as separated_coefficients do, bit for bit, at the nodes and half
        # nodes of the discretization; so does the closed-length oracle of
        # the tests, stretched to t0 = 2qT
        bc = BoundaryCondition.periodic()
        assert build(traj58, bc).length == traj58.family.T
        system = (build(traj58, bc) if length == "T"
                  else closed_length_system(build, traj58, bc))
        assert system.length == getattr(traj58.family, length)
        n = 256
        nodes = np.arange(n) * (system.length / n)
        half = nodes + 0.5 * (system.length / n)
        for grid in (nodes, half):
            rows = separated_coefficients(l, traj58, grid)
            if column is not None:
                rows = rows[:, column]
            assert np.array_equal(system.weight(grid),
                                  _weight(np.cos(traj58.at(grid)[0])))
            assert np.array_equal(system.potential(grid), rows)

    def test_positive_definite_at_l3(self, traj23):
        q11, q12, q22 = separated_coefficients(3, traj23).T
        det = q11 * q22 - q12 ** 2
        assert np.all(q11 > 0) and np.all(det > 0)

    def test_negative_l_rejected(self, traj23):
        with pytest.raises(ValidationError):
            separated_coefficients(-1, traj23)


class TestKernelFields:
    def test_nine_fields_with_mode_tags(self, traj23):
        fields = kernel_fields(traj23)
        assert len(fields) == 9
        assert sorted(f.l for f in fields) == [0, 0, 0, 1, 1, 1, 1, 2, 2]

    @pytest.mark.parametrize("traj", ["traj23", "traj58"])
    def test_profiles_continue_to_the_closed_length_fields(self, traj, request):
        # each [0, T) profile, continued over the 2q half periods by its
        # multipliers, has the closed-length field as its real or
        # imaginary part
        traj = request.getfixturevalue(traj)
        q = traj.family.rotation.q
        for f, oracle in zip(kernel_fields(traj), closed_length_fields(traj)):
            for h, w, want in zip((f.h1, f.h2), f.multiplier, oracle):
                continued = np.concatenate([w ** k * h for k in range(2 * q)])
                part = continued.imag if f.imag else continued.real
                assert np.abs(part - want).max() < 1e-12, f.id

    def test_wrong_twist_is_seen(self, traj23):
        # the wrap carries the twist: with field 1's multiplier conjugated,
        # or field 3's sign flip dropped, the profile no longer closes
        fields = kernel_fields(traj23)
        f1, f3 = fields[0], fields[2]
        bad = [replace(f1, multiplier=tuple(np.conj(w) for w in f1.multiplier)),
               replace(f3, multiplier=(f3.multiplier[0], 1.0))]
        assert min(kernel_residuals(bad, traj23)) > 1e-3

    def test_channel1_field_zero_count(self, fam23):
        # over [0, T) the cos(2 theta) profile turns one way, and its
        # multiplier closes the turn; over the 2q half periods it winds
        # 2p times, so its real part has 4p zeros.  The phi' field is
        # antiperiodic over T, with one zero per half period: 2q in all
        traj = sample_trajectory(fam23, 1024)
        p, q = fam23.rotation.p, fam23.rotation.q
        fields = kernel_fields(traj)
        cos2theta = next(f for f in fields if "cos(2 theta)" in f.description)
        h = cos2theta.h1
        steps = np.angle(np.append(h[1:], cos2theta.multiplier[0] * h[0]) / h)
        assert np.all(steps > 0)
        assert 2 * q * steps.sum() / TWO_PI == pytest.approx(2 * p, abs=1e-9)
        phidot_field = next(f for f in fields if f.l == 0 and "phi'" in f.description)
        assert phidot_field.multiplier[1] == -1.0
        assert zero_count(phidot_field.h2, antiperiodic=True) == 1

    def test_residuals_small(self, fam23):
        traj = sample_trajectory(fam23, 171)
        assert max(kernel_residuals(kernel_fields(traj), traj)) < 1e-6

    @pytest.mark.parametrize("p,q", [(5, 8), (5, 9), (7, 10)])
    def test_junctions_refine_at_second_order(self, p, q):
        # the per-period mesh of acceptance criterion 08; a kink at the
        # half-period junctions would stall the residual's refinement ratio
        # below 8 (the 1e-6 bound itself holds only for 2/3 and 7/10)
        fam = solve_parameter(p, q)
        per_period = 2048 // (2 * q)
        values = []
        for n in (per_period, 2 * per_period):
            traj = sample_trajectory(fam, n)
            values.append(kernel_residuals(kernel_fields(traj), traj))
        ratios = np.array(values[0]) / np.array(values[1])
        assert np.all(ratios >= 8.0) and np.all(ratios <= 32.0)

    def test_perturbed_field_rejected(self, fam23):
        traj = sample_trajectory(fam23, 171)
        f = kernel_fields(traj)[1]
        bad = replace(f, h1=f.h1 + 0.01 * np.cos(traj.phi[:-1]),
                      description="perturbed")
        assert kernel_residuals([bad], traj)[0] > 1e-3

    @pytest.mark.parametrize("p,q,n", [(2, 3, 171), (2, 3, 1024), (5, 8, 128)])
    def test_residual_values_pinned(self, p, q, n):
        # the nine residuals to the bit: how kernel_residuals samples p, p'
        # and Q_l must not move them
        traj = sample_trajectory(solve_parameter(p, q), n)
        got = [repr(r) for r in kernel_residuals(kernel_fields(traj), traj)]
        assert got == PINNED_RESIDUALS[(p, q, n)]

    def test_row_does_its_work_once(self, fam23, monkeypatch):
        # verify's row at n = 1024 reads the trajectory nodes, never
        # Trajectory.at, and computes one residual per profile (fields 1/2,
        # 4-7 and 8/9 share theirs)
        traj = family_trajectory(fam23, 1024)
        sampled, residuals = [], []
        at, residual = Trajectory.at, surface._residual

        def recorded_at(self, t):
            sampled.append(t)
            return at(self, t)

        def recorded_residual(*args):
            residuals.append(args[:3])
            return residual(*args)

        monkeypatch.setattr(Trajectory, "at", recorded_at)
        monkeypatch.setattr(surface, "_residual", recorded_residual)
        row = kernel_residuals(kernel_fields(traj), traj)
        assert not sampled
        assert len(residuals) == 4
        assert row[1] == row[0] and row[4:7] == [row[3]] * 3 and row[8] == row[7]
        assert repr(max(row)) == "5.881270211204979e-11"

    def test_row_refuses_mixed_grids(self, fam23):
        # fields sampled on another trajectory's nodes do not fit this one
        fields = kernel_fields(sample_trajectory(fam23, 171))
        traj = sample_trajectory(fam23, 172)
        with pytest.raises(ValidationError):
            kernel_residuals(fields[:1] + kernel_fields(traj)[1:], traj)

    def test_row_stays_on_the_half_period(self):
        # near sqrt(2)/2 the closed length holds 2q half periods; the row's
        # arrays hold traj.n entries and it adds no sample to the trajectory
        traj = family_trajectory(solve_parameter(70, 99), 512)
        keys = set(traj._samples)
        fields = kernel_fields(traj)
        assert all(len(h) == traj.n for f in fields for h in (f.h1, f.h2))
        kernel_residuals(fields, traj)
        assert set(traj._samples) == keys

    def test_l2_field_satisfies_unit_twist(self, fam23):
        # the mode-2 projection is invariant under the half-period shift in
        # channel 1 and flips in channel 2: its multipliers carry the
        # profile on [0, T) onto the samples one half period later
        traj = sample_trajectory(fam23, 512)
        f = next(f for f in kernel_fields(traj) if f.l == 2)
        assert f.multiplier == (1.0, -1.0)
        phi, phid, _ = traj.at(traj.family.T + traj.grid[:-1])
        w1, w2 = f.multiplier
        assert np.abs(np.cos(phi) - w1 * f.h1).max() < 1e-10
        assert np.abs(TWO_PI * np.cos(phi) ** 2 * phid - w2 * f.h2).max() < 1e-10


class TestLaplaceSystem:
    def test_clifford_constant(self, clifford_traj):
        sys0 = laplace_system(0, clifford_traj, BoundaryCondition.periodic())
        nodes = np.arange(256) * (sys0.length / 256)
        assert np.abs(sys0.weight(nodes) - 4 * math.pi ** 2).max() < 1e-14
        assert np.abs(sys0.potential(nodes)).max() < 1e-14

    def test_potential_dominates_l_squared(self, traj23):
        sys2 = closed_length_system(partial(laplace_system, 2), traj23,
                                    BoundaryCondition.periodic())
        q = sys2.potential(np.arange(512) * (sys2.length / 512))
        assert np.all(q >= 4.0 - 1e-12)

    def test_clifford_l1_ground_state(self, clifford_traj):
        sys1 = laplace_system(1, clifford_traj, BoundaryCondition.periodic())
        summary = spectrum_below(sys1, 1.5, 256)
        assert summary.eigenvalues[0] == pytest.approx(1.0, abs=1e-8)
