import cmath
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (constant_system, inertia_d2_reduction_general,
                     scalar_eigenfunctions)
from otsuki import eigencount, spectral
from otsuki.eigencount import BandOperator, eigenvalues_in, inertia
from otsuki.errors import ValidationError
from otsuki.geodesic import sample_trajectory, solve_parameter
from otsuki.pipeline import family_trajectory
from otsuki.sl import BoundaryCondition, SLSystem, roots_of_unity_ladder
from otsuki.surface import (fourier_block_system, l0_channel_system,
                            laplace_system)


def _wavy_system(dim, bc, L=7.0):
    """Nonconstant coefficients with no special structure."""

    def weight(t):
        return 2.0 + np.cos(2 * np.pi * t / L)

    def potential(t):
        q11 = np.sin(4 * np.pi * t / L) - 0.4
        if dim == 1:
            return q11
        q22 = 0.3 * np.cos(2 * np.pi * t / L) + 0.1
        q12 = 0.5 * np.sin(2 * np.pi * t / L)
        return np.stack([q11, q12, q22], axis=1)

    return SLSystem(dim=dim, length=L, bc=bc, weight=weight,
                    potential=potential)


# twist 1j: Re(omega) = 0, and the two channel multipliers (omega, -omega)
# give w1 * conj(w2) = -1
BCS = [BoundaryCondition.periodic(), BoundaryCondition.antiperiodic(),
       BoundaryCondition.twisted(cmath.exp(0.73j)),
       BoundaryCondition.twisted(1j), BoundaryCondition.dirichlet()]


def _rows(out) -> list:
    """A count-only ``inertia`` result as one (counts, Dirichlet count)
    pair per row, the Dirichlet count None for a band operator."""
    counts, dirichlet = out
    below = [None] * len(counts) if dirichlet is None else dirichlet.tolist()
    return list(zip(counts.tolist(), below))


def _alone(op, shifts) -> list:
    """``_rows`` of each shift's own count-only call, in order."""
    return [row for s in shifts for row in _rows(inertia(op, s, logdet=False))]


def _bc_id(bc):
    return "twisted_i" if bc.omega == 1j else bc.kind


@pytest.mark.parametrize("dim", [1, 2])
def test_dirichlet_rows_are_the_periodic_interior_rows(dim):
    # one stencil serves every boundary condition
    cyc = _wavy_system(dim, BoundaryCondition.periodic()).discretize(256)
    op = _wavy_system(dim, BoundaryCondition.dirichlet()).discretize(256)
    assert not op.cyclic and op.m == 255
    assert op.diag.tobytes() == cyc.diag[1:].tobytes()
    assert op.off.tobytes() == cyc.off[1:].tobytes()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("bc", BCS, ids=_bc_id)
def test_inertia_matches_dense(dim, bc):
    op = _wavy_system(dim, bc).discretize(256)
    A = op.to_dense()
    assert np.array_equal(A, A.conj().T)  # exactly self adjoint
    w = np.linalg.eigvalsh(A)
    shifts = (-3.0, -0.42, 0.0, 0.17, 2.0, 11.0)
    for sigma in shifts:
        assert inertia(op, sigma)[0] == int((w < sigma).sum())
        counts, dirichlet = inertia(op, sigma, logdet=False)
        assert counts.tolist() == [[inertia(op, sigma)[0]]]
        # only the reduction of a cyclic operator counts a Dirichlet block
        assert (dirichlet is None) == (bc.kind == "dirichlet")
    # several shifts in one call, an even or odd number, sweep each bit for bit
    for some in (shifts, shifts[1:]):
        assert inertia(op, *some) == [inertia(op, s) for s in some]
        assert _rows(inertia(op, *some, logdet=False)) == _alone(op, some)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("bc", BCS, ids=_bc_id)
def test_logdet_matches_dense(dim, bc):
    # every sweep kind: band (dirichlet), cyclic real and twisted, dim 1 and 2
    op = _wavy_system(dim, bc).discretize(256)
    A = op.to_dense()
    for sigma in (-3.0, -0.42, 0.0, 0.17, 2.0, 11.0):
        count, logdet = inertia(op, sigma)
        sign, ref = np.linalg.slogdet(A - sigma * np.eye(len(A)))
        # a Hermitian determinant is real; the complex LU of the reference
        # leaves rounding in the imaginary part of its sign (1.5e-12 at 1j)
        assert np.sign(sign.real) == (-1) ** count
        assert abs(logdet - ref) <= 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("bc", BCS, ids=_bc_id)
def test_eigenvalues_match_dense(dim, bc):
    op = _wavy_system(dim, bc).discretize(256)
    w = np.linalg.eigvalsh(op.to_dense())
    lam = eigenvalues_in(op, -1.0, 2.5, tol=1e-10)
    ref = w[(w > -1.0) & (w <= 2.5)]
    assert len(lam) == len(ref)
    assert np.abs(lam - ref).max() < 1e-8


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("bc", BCS, ids=_bc_id)
def test_refinement_sweeps_per_eigenvalue(dim, bc, count_sweeps):
    # bisection alone takes 33-37 sweeps per eigenvalue here
    op = _wavy_system(dim, bc).discretize(256)
    lam = eigenvalues_in(op, -1.0, 2.5, tol=1e-10)
    assert len(count_sweeps) <= 15 * len(lam)


def _split_system(split, bc, L=7.0):
    """Two uncoupled channels whose spectra differ by the shift ``split``."""

    def weight(t):
        return 2.0 + np.cos(2 * np.pi * t / L)

    def potential(t):
        q = np.sin(4 * np.pi * t / L) - 0.4
        return np.stack([q, np.zeros_like(q), q + split], axis=1)

    return SLSystem(dim=2, length=L, bc=bc, weight=weight,
                    potential=potential)


@pytest.mark.parametrize("bc", [BoundaryCondition.periodic(),
                                BoundaryCondition.dirichlet()],
                         ids=lambda b: b.kind)
@pytest.mark.parametrize("split", [0.0, 0.3, 3.0])
def test_clustered_eigenvalues_match_dense(split, bc):
    tol = 1e-10
    op = _split_system(split * tol, bc).discretize(256)
    w = np.linalg.eigvalsh(op.to_dense())
    lam = eigenvalues_in(op, -1.0, 2.5, tol=tol)
    ref = w[(w > -1.0) & (w <= 2.5)]
    assert len(lam) == len(ref) and len(ref) % 2 == 0
    assert np.abs(lam - ref).max() <= tol


def test_eigenvalues_next_to_a_point():
    op = _wavy_system(2, BoundaryCondition.dirichlet()).discretize(256)
    w = np.linalg.eigvalsh(op.to_dense())
    k = int((w < 0.1).sum())
    lam = eigenvalues_in(op, -4.0, 4.0, tol=1e-10, near=0.1)
    assert -4.0 < w[k - 1] and w[k] <= 4.0
    assert np.abs(lam - w[k - 1:k + 1]).max() < 1e-10
    with pytest.raises(ValidationError):
        eigenvalues_in(op, -4.0, 4.0, tol=1e-9, near=5.0)


@pytest.mark.parametrize("omega", [math.nan, complex(math.nan, 0.0), 1.5])
def test_twisted_condition_needs_unit_omega(omega):
    # NaN fails every comparison, so the check must not read as passed
    with pytest.raises(ValidationError):
        BoundaryCondition.twisted(omega)


def test_gershgorin_is_lower_bound():
    for dim in (1, 2):
        for bc in BCS:
            op = _wavy_system(dim, bc).discretize(256)
            w = np.linalg.eigvalsh(op.to_dense())
            assert op.gershgorin_lower() <= w[0] + 1e-12


def test_inverse_iteration_matches_dense():
    op = _wavy_system(1, BoundaryCondition.periodic()).discretize(512)
    A = op.to_dense()
    w, V = np.linalg.eigh(A)
    lam = eigenvalues_in(op, w[2] - 1e-4, w[2] + 1e-4, tol=1e-12)
    vec = scalar_eigenfunctions(op, float(lam[0]))[0]
    overlap = abs(vec @ V[:, 2]) / (np.linalg.norm(vec) * np.linalg.norm(V[:, 2]))
    assert overlap > 0.999999


def test_degenerate_pair_eigenfunctions():
    op = constant_system(1, 2 * np.pi, 1.0, 0.0,
                         BoundaryCondition.periodic()).discretize(512)
    lam = eigenvalues_in(op, 0.5, 1.5, tol=1e-12)
    assert len(lam) == 2
    v1, v2 = scalar_eigenfunctions(op, float(lam[0]), count=2)
    assert abs(v1 @ v2) < 1e-8
    op_apply = op.to_dense()
    for v in (v1, v2):
        resid = np.linalg.norm(op_apply @ v - lam[0] * v)
        assert resid < 1e-6


@settings(max_examples=25, deadline=None)
@given(weight=st.floats(min_value=0.5, max_value=4.0),
       pot=st.floats(min_value=-3.0, max_value=3.0),
       L=st.floats(min_value=2.0, max_value=12.0),
       anti=st.booleans(),
       cut=st.floats(min_value=0.5, max_value=30.0))
def test_constant_coefficient_counts_property(weight, pot, L, anti, cut):
    # exact spectrum: pot + weight * kappa^2 over the (anti)periodic
    # frequency ladder kappa = 2 pi (k + offset) / L
    bc = BoundaryCondition.antiperiodic() if anti else BoundaryCondition.periodic()
    op = constant_system(1, L, weight, pot, bc).discretize(256)
    offset = 0.5 if anti else 0.0
    exact = []
    k = -130
    while k <= 130:
        exact.append(pot + weight * (2 * np.pi * (k + offset) / L) ** 2)
        k += 1
    exact = np.sort(exact)[:40]
    sigma = pot + cut
    # stay away from exact eigenvalues so the discretization error cannot
    # flip the count
    if np.abs(exact - sigma).min() < 0.05 * max(1.0, abs(sigma)):
        return
    expected = int((exact < sigma).sum())
    if expected >= 35:
        return
    assert inertia(op, sigma)[0] == expected


@pytest.mark.parametrize("bc", [BoundaryCondition.periodic(),
                                BoundaryCondition.antiperiodic(),
                                BoundaryCondition.twisted(cmath.exp(0.7j))],
                         ids=["periodic", "antiperiodic", "twisted"])
@pytest.mark.parametrize("dim", [1, 2])
def test_wrap_off_is_plain_float(dim, bc):
    # the cyclic sweeps do scalar arithmetic on it, which numpy scalars slow
    op = _wavy_system(dim, bc).discretize(128)
    assert type(op.wrap_off) is float


def test_small_operator_rejected():
    op = constant_system(1, 1.0, 1.0, 0.0, BoundaryCondition.periodic())
    bad = op.discretize(128)
    tiny = type(bad)(dim=1, diag=bad.diag[:3], off=bad.off[:2],
                     wrap_off=bad.wrap_off, wrap_mult=bad.wrap_mult)
    from otsuki.errors import NumericalError
    with pytest.raises(NumericalError):
        inertia(tiny, 0.0)


@pytest.mark.parametrize("dim,bc", [
    (1, BoundaryCondition.dirichlet()), (1, BoundaryCondition.periodic()),
    (2, BoundaryCondition.dirichlet()), (2, BoundaryCondition.periodic())],
    ids=["d1-band", "d1-cyclic", "d2-band", "d2-cyclic"])
def test_a_shift_that_breaks_down_gets_its_retries(dim, bc, monkeypatch):
    # a shift that zeroes a pivot of the sweep in node order is nudged and
    # swept again, as alone, and the other shifts are swept once each; the
    # sweep meets the pivot of node 0 first, exactly 0 at sigma = Q11(0)
    # (Q12 = 0 in the split system).  The reduction that counts keeps node
    # 0 to the end, and its first level meets the pivot of node 1 as it
    # stands: it reduces all the shifts once, and that row alone takes its
    # count from the sweep in node order, whose pivots do not break down
    # there
    op = (_split_system(0.3, bc) if dim == 2 else _wavy_system(1, bc)
          ).discretize(256)
    for logdet in (True, False):
        bad = float(op.diag[int(not logdet)] if dim == 1
                    else op.diag[int(not logdet), 0])
        nudged = bad + 1e-13 * max(1.0, abs(bad))
        shifts = (0.17, bad, -0.42)
        want = [inertia(op, s) for s in shifts]
        swept = _record_kernel(op, monkeypatch)
        reduced = _record_reduction(op, monkeypatch)
        got = inertia(op, *shifts, logdet=logdet)
        monkeypatch.undo()
        assert (got if logdet else got[0].tolist()) == (
            want if logdet else [[c] for c, _ in want])
        assert swept == ([0.17, bad, nudged, -0.42] if logdet else [bad])
        assert reduced == ([] if logdet else [shifts])


def _record_kernel(op, monkeypatch):
    """The shift of every run of the operator's sweep kernel."""
    kernel, _ = eigencount._kernel(op)
    swept = []

    def recorded(*args):
        swept.append(args[-1])
        return kernel(*args)

    monkeypatch.setattr(eigencount, kernel.__name__, recorded)
    return swept


def _record_reduction(op, monkeypatch):
    """The shifts of every run of the operator's odd-even reduction."""
    name = f"_inertia_d{op.dim}_reduction"
    reduce = getattr(eigencount, name)
    swept = []

    def recorded(*args):
        swept.append(tuple(args[-1].tolist()))
        return reduce(*args)

    monkeypatch.setattr(eigencount, name, recorded)
    return swept


def test_log_det_retries_where_the_count_needs_none(monkeypatch):
    # in node order the first pivot 1e-300 makes the second -1e10 / 1e-300,
    # which overflows: log|det| is inf, and the sweep moves the shift.  The
    # reduction that counts eliminates node 0 last, so it meets no such
    # pivot and counts at the shift itself
    op = BandOperator(dim=1, diag=np.array([1e-300] + [1.0] * 9),
                      off=np.array([1e5] * 9))
    count = int((np.linalg.eigvalsh(op.to_dense()) < 0.0).sum())
    assert count == 5
    swept = _record_kernel(op, monkeypatch)
    got, ld = inertia(op, 0.0)
    assert got == count and math.isfinite(ld)
    assert swept == [0.0, 1e-13]
    monkeypatch.undo()
    swept = _record_reduction(op, monkeypatch)
    got, dirichlet = inertia(op, 0.0, logdet=False)
    assert got.tolist() == [[count]] and dirichlet is None
    assert swept == [(0.0,)]


@pytest.mark.parametrize("cyclic", [False, True])
def test_a_retry_moves_the_pivots_of_large_entries(cyclic):
    # at sigma = 0 the second pivot is 1e6 - 4e12 / 4e6 = 0 exactly; a move
    # of 1e-13 is under half an ulp of every diagonal entry, so only a
    # move of at least one ulp of 5e6 changes the pivots
    op = BandOperator(dim=1, diag=np.array([4e6, 1e6, 5e6, 5e6, 5e6, 5e6]),
                      off=np.array([-2e6, 1.0, 1.0, 1.0, 1.0]),
                      wrap_off=1.0 if cyclic else None,
                      wrap_mult=(1.0,) if cyclic else None)
    assert int((np.linalg.eigvalsh(op.to_dense()) < 0.0).sum()) == 1
    assert [inertia(op, s)[0] for s in (-1e-9, 1e-9)] == [1, 1]
    assert inertia(op, 0.0)[0] == 1
    assert inertia(op, 0.0, logdet=False)[0].tolist() == [[1]]


@pytest.mark.parametrize("dim,bc", [
    (1, BoundaryCondition.dirichlet()), (1, BoundaryCondition.periodic()),
    (2, BoundaryCondition.dirichlet()), (2, BoundaryCondition.periodic())],
    ids=["d1-band", "d1-cyclic", "d2-band", "d2-cyclic"])
def test_a_numpy_shift_reaches_the_kernel_as_a_float(dim, bc, monkeypatch):
    # the same bits either way, but a numpy scalar shift would carry its
    # type through every node of the loop
    op = _wavy_system(dim, bc).discretize(256)
    shifts = (0.25, -0.5)
    for logdet in (True, False):
        want = inertia(op, *shifts, logdet=logdet)
        swept = (_record_kernel if logdet else _record_reduction)(
            op, monkeypatch)
        got = inertia(op, *map(np.float64, shifts), logdet=logdet)
        monkeypatch.undo()
        if not logdet:
            want, got = _rows(want), _rows(got)
        assert got == want
        assert ([type(s) for s in swept] == [float, float] if logdet
                else swept == [shifts])
        one = inertia(op, np.float64(shifts[0]), logdet=logdet)
        assert (one if logdet else _rows(one)[0]) == want[0]


def _twisted_operators(build, traj, m):
    """The operator of each twist of the ladder, discretized one by one."""
    return [build(traj, BoundaryCondition.twisted(om)).discretize(m)
            for om in roots_of_unity_ladder(traj.family.rotation.q)]


def _ladder(ops):
    return replace(ops[0], wrap_mult=np.array([op.wrap_mult for op in ops]))


def _assert_counts_alone_match(ladder, ops, shifts):
    """The multi-shift ladder call sweeps each shift as alone, and its
    count-only counts are those of each twist's own sweep."""
    want = [inertia(ladder, s) for s in shifts]
    assert inertia(ladder, *shifts) == want
    counts = [[c for c, _ in out] for out in want]
    assert inertia(ladder, *shifts, logdet=False)[0].tolist() == counts
    for sigma, got in zip(shifts, counts):
        assert [inertia(op, sigma, logdet=False)[0].item() for op in ops] == got


SCALAR_SYSTEMS = {"channel1": partial(l0_channel_system, 1),
                  "channel2": partial(l0_channel_system, 2),
                  "laplace0": partial(laplace_system, 0),
                  "laplace1": partial(laplace_system, 1)}


@pytest.mark.parametrize("l", [1, 2])
@pytest.mark.parametrize("family", ["traj23", "traj58"])
def test_ladder_inertia_equals_each_twist(family, l, request):
    ops = _twisted_operators(partial(fourier_block_system, l),
                             request.getfixturevalue(family), 256)
    ladder = _ladder(ops)
    q = len(ops) // 2
    shifts = (-0.5, -2e-3, 0.0, 2e-3, 0.7)
    for sigma in shifts:
        # counts and log|det| bit for bit
        out = inertia(ladder, sigma)
        assert out == [inertia(op, sigma) for op in ops]
        # conjugate twists count alike, which ladder_counts relies on
        assert all(out[r] == out[2 * q - r] for r in range(1, q))
    _assert_counts_alone_match(ladder, ops, shifts)


@pytest.mark.parametrize("build", SCALAR_SYSTEMS)
@pytest.mark.parametrize("family", ["traj23", "traj58"])
def test_scalar_ladder_inertia_equals_each_twist(family, build, request):
    ops = _twisted_operators(SCALAR_SYSTEMS[build],
                             request.getfixturevalue(family), 256)
    ladder = _ladder(ops)
    assert ladder.dim == 1 and ladder.ladder
    q = len(ops) // 2
    shifts = (-0.5, -2e-3, 0.0, 0.7, 2.0)
    for sigma in shifts:
        out = inertia(ladder, sigma)
        assert out == [inertia(op, sigma) for op in ops]
        assert all(out[r] == out[2 * q - r] for r in range(1, q))
    _assert_counts_alone_match(ladder, ops, shifts)


def test_ladder_is_complex_and_has_no_dense_matrix(traj23):
    ops = _twisted_operators(partial(fourier_block_system, 1), traj23, 128)
    ladder = _ladder(ops)
    assert ladder.ladder and ladder.is_complex()
    real = _ladder(ops[:1])                 # omega = 1 exactly
    assert real.ladder and not real.is_complex()
    assert not ops[1].ladder
    with pytest.raises(ValidationError):
        ladder.to_dense()


@pytest.mark.parametrize("dim,failure", [
    pytest.param(2, "breakdown", id="breakdown"),
    pytest.param(2, "nan", id="nan"),
    pytest.param(1, "breakdown", id="scalar-breakdown"),
    pytest.param(1, "nan", id="scalar-nan")])
def test_ladder_sweeps_a_failed_twist_again_alone(traj58, monkeypatch, dim,
                                                  failure):
    # a twist whose last Schur complement breaks down, or whose log|det|
    # is nan, is swept again alone; log|det| comes from the sweep's
    # per-twist finish, a count from the reduction's finish, one array
    # expression per ladder.  The count-only fallback sweeps a twist again
    # only where its pivot breaks down: a nan log|det| keeps its count
    build = (partial(l0_channel_system, 1) if dim == 1
             else partial(fourier_block_system, 1))
    ops = _twisted_operators(build, traj58, 256)
    ladder = _ladder(ops)
    sigma = -0.5
    want = [inertia(op, sigma) for op in ops]
    target = ladder.wrap_mult[3].tolist()
    first = [w[0] for w in ladder.wrap_mult.tolist()]
    swept, finished, reduced = [], [], []

    def recorded(op, s, logdet=True):
        swept.append((np.asarray(op.wrap_mult).tolist(), logdet))
        return inertia(op, s, logdet=logdet)

    node_order = eigencount._node_order_counts

    def recorded_node_order(op, s):
        swept.append((np.asarray(op.wrap_mult).tolist(), False))
        return node_order(op, s)

    def fail_once(w0, tried):
        """Whether this finish of the twist with first multiplier w0 fails:
        the first of the sweep's finishes, or of the reduction's."""
        tried.append(w0)
        return w0 == target[0] and tried.count(w0) == 1

    finish = "_finish_d1" if dim == 1 else "_finish_d2_cyclic"
    original_finish = getattr(eigencount, finish)

    def flaky_finish(end, *w):
        if fail_once(w[0], finished):
            if failure == "nan":
                return original_finish(end, *w)[0], float("nan")
            raise eigencount._PivotBreakdown
        return original_finish(end, *w)

    schur = f"_schur_d{dim}"
    original_schur = getattr(eigencount, schur)

    def flaky_schur(end, w_off, w):
        b11, det = original_schur(end, w_off, w)
        fails = [fail_once(complex(w0), reduced) for w0 in w[:, 0]]
        det[:, fails] = float("nan") if failure == "nan" else 0.0
        return b11, det

    monkeypatch.setattr(eigencount, "inertia", recorded)
    monkeypatch.setattr(eigencount, "_node_order_counts", recorded_node_order)
    monkeypatch.setattr(eigencount, finish, flaky_finish)
    monkeypatch.setattr(eigencount, schur, flaky_schur)
    whole = (ladder.wrap_mult.tolist(), True)
    for logdet in (True, False):
        finished.clear()
        reduced.clear()
        swept.clear()
        got = eigencount.inertia(ladder, sigma, logdet=logdet)
        assert (got if logdet else got[0].tolist()) == (
            want if logdet else [[c for c, _ in want]])
        # a count-only call reduces the ladder, and its row, with the failed
        # twist, is swept again in node order, count-only
        again = logdet or failure == "breakdown"
        assert swept == ([] if logdet else [(whole[0], False)]) + [
            (whole[0], logdet)] + [(target, logdet)] * again
        # every twist is finished once from the shared loop, and the failed
        # one again alone; a count-only call finishes every twist once
        # from the reduction first
        assert finished == first[:4] + [target[0]] * again + first[4:]
        assert reduced == ([] if logdet else first)


def test_counts_of_cyclic_operators_skip_the_sweep(traj58, monkeypatch):
    # a count-only call on any operator, band or cyclic, one twist, a
    # ladder or a stack, at one shift or several, runs the odd-even
    # reduction and never a node loop
    def forbidden(*args):
        raise AssertionError("count-only call ran the sequential sweep")

    shifts = (-0.42, 0.0, 2.0)
    ops = [_wavy_system(dim, bc).discretize(256)
           for dim in (1, 2) for bc in BCS]
    ops += [_ladder(_twisted_operators(build, traj58, 256))
            for build in (partial(l0_channel_system, 1),
                          partial(fourier_block_system, 2))]
    stacks = [[fourier_block_system(l, traj58, bc).discretize(256)
               for l in (1, 2)] for bc in (BoundaryCondition.twisted(1.0),
                                           BoundaryCondition.dirichlet())]
    want = [inertia(op, *shifts) for op in ops]
    want_stacks = [[[c] for op in stack for c, _ in inertia(op, *shifts)]
                   for stack in stacks]
    for kernel in ("_inertia_d1", "_inertia_d2_cyclic"):
        monkeypatch.setattr(eigencount, kernel, forbidden)
    for op, end in zip(ops, want):
        got = inertia(op, *shifts, logdet=False)
        assert got[0].tolist() == [[c for c, _ in out] if op.ladder
                                   else [out[0]] for out in end]
        assert _rows(inertia(op, 0.0, logdet=False)) == _rows(got)[1:2]
    for stack, end in zip(stacks, want_stacks):
        assert inertia(_stack(stack), *shifts, logdet=False)[0].tolist() == end


REDUCTION_SYSTEMS = {**SCALAR_SYSTEMS,
                     "block1": partial(fourier_block_system, 1),
                     "block2": partial(fourier_block_system, 2)}


@pytest.mark.parametrize("p,q", [(2, 3), (5, 8), (10, 19), (30, 59), (70, 99)])
def test_reduction_counts_equal_the_sequential_sweep(p, q):
    # the counts of the sweep in node order, which a ladder takes only with
    # log|det|, are the reduction's oracle on the ladders r = 0..q of every
    # mode below l = 3; shifts far from and close to the zero modes, but
    # not on them: at an eigenvalue that is 0 up to rounding (the constants
    # at r = 0 of laplace0) the count is decided by rounding, and the two
    # orders may round apart
    traj = sample_trajectory(solve_parameter(p, q), 4096)
    shifts = (-50.0, -1.0, -1e-6, -1e-7, 1e-7, 1e-6, 1.0, 200.0)
    for build in REDUCTION_SYSTEMS.values():
        system = build(traj, BoundaryCondition.twisted(1.0))
        mults = np.array([BoundaryCondition.twisted(om).channel_multipliers(
            system.dim) for om in roots_of_unity_ladder(q)[:q + 1]])
        for m in (1024, 4096):
            ladder = replace(system.discretize(m), wrap_mult=mults)
            kernel, lists = eigencount._kernel(ladder)
            want = [[c for c, _ in eigencount._sweep(ladder, kernel, lists, s)]
                    for s in shifts]
            got = inertia(ladder, *shifts, logdet=False)
            assert got[0].tolist() == want
            # each shift is reduced as alone, each twist as alone
            assert _rows(got) == _alone(ladder, shifts)
            for r in (0, q // 2, q):
                alone = replace(ladder, wrap_mult=mults[r])
                assert _alone(alone, shifts) == [
                    ([c[r]], d) for c, d in _rows(got)]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("bc", BCS[:4], ids=_bc_id)
def test_reduction_counts_the_dirichlet_operator(dim, bc):
    # a count-only call on a cyclic operator also counts the operator with
    # node 0 deleted, the Dirichlet operator of the same mesh, at every
    # shift; the dense spectrum is the oracle.  Just above an eigenvalue
    # of either operator the count rests on the last pivots: node m-1's
    # reduced block, and node 0's
    op = _wavy_system(dim, bc).discretize(256)
    lam = np.linalg.eigvalsh(_wavy_system(dim, BoundaryCondition.dirichlet())
                             .discretize(256).to_dense())
    above = np.concatenate((lam[:4], np.linalg.eigvalsh(op.to_dense())[:4]))
    shifts = (-3.0, -0.42, 0.0, 0.17, 2.5, 40.0, *(above + 1e-6).tolist())
    got = inertia(op, *shifts, logdet=False)
    assert got[1].tolist() == [int((lam < s).sum()) for s in shifts]
    assert _rows(inertia(op, 0.17, logdet=False)) == _rows(got)[3:4]


@pytest.mark.parametrize("dim", [1, 2])
def test_a_broken_down_row_takes_node_order_counts_and_no_dirichlet_count(
        dim, monkeypatch):
    # the reduction meets the pivot of node 1 first, exactly 0 at sigma =
    # Q11(1); the twist count of that row comes from the sweep in node
    # order at the shift itself.  Node 1's pivot is one of the Dirichlet
    # operator's too, so the row has no Dirichlet count (-1)
    bc = BoundaryCondition.periodic()
    op = (_split_system(0.3, bc) if dim == 2 else _wavy_system(1, bc)
          ).discretize(256)
    bad = float(op.diag[1] if dim == 1 else op.diag[1, 0])
    dirichlet = replace(op, diag=op.diag[1:], off=op.off[1:], wrap_off=None,
                        wrap_mult=None)
    reduced = _record_reduction(op, monkeypatch)
    swept = _record_kernel(op, monkeypatch)
    got, counts = inertia(op, 0.17, bad, logdet=False)
    monkeypatch.undo()
    assert reduced == [(0.17, bad)] and swept == [bad]
    assert got.tolist() == [[inertia(op, s)[0]] for s in (0.17, bad)]
    assert counts.tolist() == [inertia(dirichlet, 0.17)[0], -1]


@pytest.mark.parametrize("cyclic", [False, True], ids=["band", "cyclic"])
def test_a_count_only_fallback_counts_at_the_shift_itself(cyclic,
                                                         monkeypatch):
    # the reduction breaks down at node 1, 0 at sigma = 0; the node-order
    # sweep of the operator, taken as cyclic, counts there: its first
    # pivot 1e-300 makes the second -1e10 / 1e-300, which overflows, so
    # log|det| is inf, which a count-only call does not read, and no
    # pivot breaks down, so the shift stays where it is
    wrap = dict(wrap_off=0.0, wrap_mult=(1.0,)) if cyclic else {}
    op = BandOperator(dim=1, diag=np.array([1e-300, 0.0] + [1.0] * 8),
                      off=np.full(9, 1e5), **wrap)
    assert int((np.linalg.eigvalsh(op.to_dense()) < 0.0).sum()) == 5
    calls, moved = [], []
    original, retry = eigencount._node_order_counts, eigencount._retry_shift

    def recorded(op, sigma):
        calls.append((op.cyclic, op.wrap_off, sigma))
        return original(op, sigma)

    def recorded_retry(*args):
        moved.append(args)
        return retry(*args)

    monkeypatch.setattr(eigencount, "_node_order_counts", recorded)
    monkeypatch.setattr(eigencount, "_retry_shift", recorded_retry)
    counts, dirichlet = eigencount.inertia(op, 0.0, logdet=False)
    assert counts.tolist() == [[5]] and moved == []
    assert (dirichlet is None) == (not cyclic)
    # the fallback sweeps the operator once, at the shift, as inertia took
    # it: a band operator as the cyclic one with no wrap
    assert calls == [(True, 0.0, 0.0)]


@pytest.mark.parametrize("stacked", [False, True], ids=["alone", "stack"])
def test_a_2x2_reduction_peaks_under_seven_arrays(traj23, stacked):
    # each row's shifted diagonal is formed once, by broadcasting, and
    # each level drops its N, G and H once its kept blocks and couplings
    # are formed: the traced peak of one reduction at m = 8192 stays
    # under 7 arrays of rows x m (9.3 before either)
    import tracemalloc

    m = 8192
    ops = [fourier_block_system(l, traj23, BoundaryCondition.twisted(1.0))
           .discretize(m) for l in (1, 2)][:1 + stacked]
    sigma = np.tile([-2e-3, 2e-3, -7.8e-6, 1.95e-6], len(ops))
    lists = (*_stack(ops).diag.T, ops[0].off, sigma)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        eigencount._inertia_d2_reduction(*lists)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 7 * len(sigma) * m * 8


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("cyclic", [False, True], ids=["band", "cyclic"])
def test_counts_where_the_reduction_breaks_down(dim, cyclic):
    # a diagonal far below the couplings: the scalar reduction's row sums
    # hold node 1's pivot, 0 at sigma = 0, only to an ulp of 2e5, and no
    # shift a few ulps of the diagonal away resolves it; the sweep in node
    # order counts there, and the count-only call takes its count.  Node
    # 1's pivot is one of the Dirichlet operator's too, which has no count
    diag = np.ones(10) if dim == 1 else np.tile([1.0, 0.0, 1.0], (10, 1))
    diag[1] = 0.0
    wrap = dict(wrap_off=1e5, wrap_mult=(1.0,) * dim) if cyclic else {}
    op = BandOperator(dim=dim, diag=diag, off=np.full(9, 1e5), **wrap)
    want = int((np.linalg.eigvalsh(op.to_dense()) < 0.0).sum())
    assert want == 5 * dim and inertia(op, 0.0)[0] == want
    counts, dirichlet = inertia(op, 0.0, logdet=False)
    assert counts.tolist() == [[want]]
    if cyclic:
        assert dirichlet.tolist() == [-1]
    else:
        assert dirichlet is None


# the six README families, and families near sqrt(2)/2 and 1/2
DIRICHLET_FAMILIES = [(5, 9), (4, 7), (3, 5), (5, 8), (2, 3), (7, 10),
                      (12, 17), (41, 58), (70, 99), (10, 19), (30, 59)]


def _stack(ops):
    """The count-only stack of operators that share the couplings and wrap."""
    return replace(ops[0], diag=np.stack([op.diag for op in ops], axis=1))


@pytest.mark.parametrize("p,q", DIRICHLET_FAMILIES)
def test_ladder_reduction_counts_the_dirichlet_block(p, q):
    # the Dirichlet gate reads the counts that a reduction makes of the
    # Dirichlet block in its own elimination order: under 'both' that of
    # the direct ladder, under 'edwards' that of the stack of both modes'
    # twisted operators at omega = 1, in its fallback that of the
    # Dirichlet operator itself; the band sweep in node order is their
    # oracle, at the zone ends, the window shifts and two more, on both
    # meshes
    omega = roots_of_unity_ladder(q)[:q + 1, None]
    mults = np.hstack((omega, -omega))
    for n in (512, 1024, 2048):
        traj = family_trajectory(solve_parameter(p, q), n)
        twisted, dirichlet = ([fourier_block_system(l, traj, bc) for l in (1, 2)]
                              for bc in (BoundaryCondition.twisted(1.0),
                                         BoundaryCondition.dirichlet()))
        zone = spectral._zone(dirichlet[0], n)
        assert {spectral._zone(s, n) for s in twisted + dirichlet} == {zone}
        shifts = (-zone, zone, *(s * spectral._WINDOW for pair
                                 in spectral._WINDOW_SHIFTS for s in pair),
                  -0.3, 0.0)
        ends = {1: set(), 2: set()}
        for k in (1, 2):
            # the node-order sweep's counts; the band operators' own
            # count-only reductions, which the gate's fallback reads, too
            want = [[c for c, _ in inertia(system.operator(k * n), *shifts)]
                    for system in dirichlet]
            for system, counts in zip(dirichlet, want):
                got = inertia(system.operator(k * n), *shifts, logdet=False)
                assert got[0][:, 0].tolist() == counts, (n, system.l, k)
            ops = [system.operator(k * n) for system in twisted]
            for l, op in zip((1, 2), ops):
                ladder = replace(op, wrap_mult=mults)
                got = inertia(ladder, *shifts, logdet=False)[1]
                assert got.tolist() == want[l - 1], (n, l, k)
                ends[l].update(want[l - 1][:2])
            got = inertia(_stack(ops), *shifts, logdet=False)[1]
            assert got.tolist() == want[0] + want[1], (n, k)
        # the gate's count: the one count at both zone ends of both meshes
        assert spectral._dirichlet_ends(traj, n) == {
            l: ends[l].pop() if len(ends[l]) == 1 else None for l in (1, 2)}


def _reduction_lists(op, diag):
    """The lists of the operator's reduction with the transposed diag."""
    return (diag, op.off, op.wrap_off) if op.dim == 1 else (*diag, op.off)


@pytest.mark.parametrize("dim", [1, 2])
def test_a_stack_reduces_each_row_as_alone(dim, traj23):
    # a row per (system, shift), each with its system's diagonal: the
    # counts, the flags, the end state and the Dirichlet counts are those
    # of the system reduced alone, to the bit
    builds = ([partial(l0_channel_system, 1), partial(l0_channel_system, 2),
               partial(laplace_system, 1)] if dim == 1
              else [partial(fourier_block_system, l) for l in (1, 2)])
    reduce = getattr(eigencount, f"_inertia_d{dim}_reduction")
    sigma = np.array([-1.0, -2e-3, -1e-6, 0.0, 1e-6, 2e-3, 3.0])
    for m in (1024, 4096):
        ops = [build(traj23, BoundaryCondition.twisted(1.0)).discretize(m)
               for build in builds]
        assert all(op.off.tobytes() == ops[0].off.tobytes()
                   and op.wrap_off == ops[0].wrap_off for op in ops)
        alone = [reduce(*_reduction_lists(op, op.diag.T), sigma)
                 for op in ops]
        # a diagonal per system, each for its run of shifts, as
        # ``inertia`` hands it over, and one per row
        diag = _stack(ops).diag.T
        for rows in (diag, np.repeat(diag, len(sigma), axis=-2)):
            got = reduce(*_reduction_lists(ops[0], rows),
                         np.tile(sigma, len(ops)))

            def flat(out):
                neg, ok, end, below = out
                return [neg, ok, *end, below]

            for got_part, *parts in zip(flat(got), *map(flat, alone)):
                assert got_part.tobytes() == np.concatenate(parts).tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_a_stack_retries_a_row_as_its_system_alone(dim, monkeypatch):
    # the reduction meets the pivot of node 1 first, exactly 0 at sigma =
    # Q11(1) of the second system: that row alone is swept in node order,
    # as its system alone, and the counts of every row are those of its
    # system alone
    bc = BoundaryCondition.periodic()
    breaking = (_split_system(0.3, bc) if dim == 2 else _wavy_system(1, bc)
                ).discretize(256)
    other = replace(breaking, diag=1e4 * _wavy_system(dim, bc)
                    .discretize(256).diag)
    bad = float(breaking.diag[1] if dim == 1 else breaking.diag[1, 0])
    shifts = (0.17, bad)
    want = [row for op in (other, breaking) for row in _alone(op, shifts)]
    stack = _stack([other, breaking])
    reduced = _record_reduction(stack, monkeypatch)
    swept = _record_kernel(breaking, monkeypatch)
    got = inertia(stack, *shifts, logdet=False)
    monkeypatch.undo()
    assert reduced == [shifts * 2] and swept == [bad]
    assert _rows(got) == want
    assert _rows(inertia(stack, bad, logdet=False)) == [want[1], want[3]]
    with pytest.raises(ValidationError):
        inertia(stack, 0.17)


@pytest.mark.parametrize("l", [1, 2])
def test_first_reduction_level_keeps_the_bits(l, traj23, traj58):
    # the first level, written for the couplings e I, leaves out only
    # products by zero: the counts, the flags and the end state of the
    # general first level, to the bit
    sigma = np.array([-1.0, -2e-3, -1e-6, 0.0, 1e-6, 2e-3])
    for traj in (traj23, traj58):
        system = fourier_block_system(l, traj, BoundaryCondition.twisted(1.0))
        for m in (1024, 4096):
            op = system.discretize(m)
            lists = (*op.diag.T, op.off, sigma)
            neg, ok, end, _ = eigencount._inertia_d2_reduction(*lists)
            want_neg, want_ok, want_end = inertia_d2_reduction_general(*lists)
            assert np.array_equal(neg, want_neg)
            assert np.array_equal(ok, want_ok) and ok.all()
            assert len(end) == len(want_end) == 10
            for got, want in zip(end, want_end):
                assert np.array_equal(got, want)


@pytest.mark.parametrize("sigma,count", [(-6.28012e-6, 1), (-6.2860e-6, 0),
                                         (-6.2745e-6, 2)])
def test_scalar_last_schur_complement_at_minus_one(sigma, count):
    # at omega = -1 the expanded form of the last Schur complement
    # cancels: at 13860/19601 (n = 512), mode-0 channel 2, between its
    # zero mode and the -b^2 mode, it read 0 below -6.28012e-6 where the
    # node-order sweep reads 1
    traj = family_trajectory(solve_parameter(13860, 19601), 512)
    op = l0_channel_system(2, traj,
                           BoundaryCondition.antiperiodic()).operator(512)
    assert op.wrap_mult == (-1.0,)
    assert inertia(op, sigma, logdet=False)[0].tolist() == [[count]]
    assert inertia(op, sigma)[0] == count
