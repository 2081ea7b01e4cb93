import contextlib
import json
import os
import pickle
import select
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from otsuki import (_helper, cli, edwards, eigencount, jsonio, pipeline,
                    spectral)
from otsuki.cli import run_cli
from otsuki.edwards import boundary_form
from otsuki.errors import (AmbiguousClassificationError,
                           EdwardsInapplicableError, NumericalError,
                           RouteDisagreementError, ValidationError)
from otsuki.pipeline import (bounds_check, cache_key, cache_load, cache_store,
                             compute_index, family_trajectory, report_document,
                             index_bounds, verify_family)
from otsuki.geodesic import Trajectory, solve_parameter
from otsuki.sl import BoundaryCondition, SLSystem
from otsuki.surface import (fourier_block_system, kernel_fields,
                            kernel_residuals, l0_channel_system)


def _changed_ladders(original, change):
    """``spectral._ladders`` with each ladder's rows replaced by
    ``change(build, traj, rows)``."""
    def ladders(builds, traj, n, level, helped=None):
        for build, (rows, dirichlet) in zip(
                builds, original(builds, traj, n, level, helped)):
            yield change(build, traj, rows), dirichlet

    return ladders


@pytest.fixture(scope="module")
def report23():
    return compute_index(2, 3, method="both", n=512)


class TestFormulas:
    @pytest.mark.parametrize("p,q", [(2, 3), (5, 8), (7, 10), (3, 5)])
    def test_index_bounds_recomputed(self, p, q):
        b = index_bounds(p, q)
        if q % 2:
            assert b["thm_lower"] == 6 * q + 8 * p - 3
            assert b["thm_upper"] == 10 * q + 4 * p - 5
        else:
            assert b["thm_lower"] == 3 * q + 4 * p - 3
            assert b["thm_upper"] == 5 * q + 2 * p - 5
        assert (b["nul_lower"], b["nul_upper"]) == (9, 13)


@pytest.mark.parametrize("n,nodes", [(512, 1024), (1024, 2048), (2048, 4096),
                                     (4096, 4096), (32768, 4096),
                                     (2**20, 4096)])
def test_family_trajectory_nodes(fam23, n, nodes):
    assert family_trajectory(fam23, n).n == nodes


@pytest.mark.parametrize("n", [0, 100, 127])
def test_family_trajectory_refuses_a_coarse_mesh(fam23, n):
    # checked before anything is sampled, counted or discretized
    with pytest.raises(ValidationError,
                       match=f"mesh too coarse: n = {n} < 128"):
        family_trajectory(fam23, n)
    assert family_trajectory(fam23, 128).n == 1024


class TestComputeIndex:
    def test_headline_small_mesh(self, report23):
        assert report23.ind == 31
        assert report23.nul == 9
        assert report23.spectral_index == 12

    def test_per_mode_counts(self, report23):
        by_l = {r.l: r for r in report23.per_mode}
        assert (by_l[0].neg, by_l[0].zero) == (13, 3)
        assert (by_l[1].neg, by_l[1].zero) == (9, 2)
        assert (by_l[2].neg, by_l[2].zero) == (0, 1)
        assert by_l[1].method == "both"

    def test_assembly_identity(self, report23):
        by_l = {r.l: r for r in report23.per_mode}
        assert report23.ind == by_l[0].neg + 2 * by_l[1].neg + 2 * by_l[2].neg
        assert report23.nul == by_l[0].zero + 2 * by_l[1].zero + 2 * by_l[2].zero

    def test_bounds_check_passes(self, report23):
        result = bounds_check(report23)
        assert result["thm_lower_ok"] and result["thm_upper_ok"]
        assert result["nul_ok"] and result["rough_upper_ok"]
        assert result["bounds"]["rough_upper"] == 5 * 12 + 2

    @pytest.mark.parametrize("p,q,mode0,index", [(2, 3, (13, 3), 12),
                                                  (5, 8, (17, 3), 16)])
    def test_bounds_check_closed_forms(self, report23, p, q, mode0, index):
        # odd q: (2q + 4p - 1, 3) and 2q + 4p - 2; even q: (q + 2p - 1, 3)
        # and q + 2p - 2
        report = report23 if (p, q) == (2, 3) else compute_index(p, q, n=512)
        check = bounds_check(report)
        assert check["mode0_ok"] and check["spectral_index_ok"]
        assert check["mode0"] == check["mode0_expected"] == list(mode0)
        assert check["spectral_index"] == check["spectral_index_expected"] \
            == index

    @pytest.mark.parametrize("moved", ["mode0", "spectral_index"])
    def test_bounds_check_flags_a_count_moved_by_one(self, report23, moved):
        # the 2378/3363 mis-count: a mode-0 eigenvalue read as a zero mode
        mode0 = report23.per_mode[0]
        if moved == "mode0":
            report = replace(report23, per_mode=(
                replace(mode0, neg=mode0.neg - 1, zero=mode0.zero + 1),
                *report23.per_mode[1:]))
        else:
            report = replace(report23,
                             spectral_index=report23.spectral_index - 1)
        check = bounds_check(report)
        assert [k for k in check if k.endswith("_ok") and not check[k]] == \
            [f"{moved}_ok"]

    def test_flags_record_root_regime(self, report23):
        assert report23.flags["s2"] == pytest.approx(0.5, abs=1e-6)
        assert report23.flags["s1_below_minus_one"] is True
        assert report23.flags["abs_s1_gt_s2"] is True
        assert report23.flags["edwards_applicable"] == {"1": True, "2": True}

    def test_determinism_modulo_timestamp(self, report23):
        second = compute_index(2, 3, method="both", n=512)
        d1 = report23.to_json_dict()
        d2 = second.to_json_dict()
        d1.pop("timestamp")
        d2.pop("timestamp")
        assert jsonio.dumps(d1) == jsonio.dumps(d2)

    def test_five_ladders_per_family(self, monkeypatch):
        # the spectral index reads Laplace l = 0 off the mode-0 channel-2
        # ladder, so it sweeps only Laplace l = 1 itself; verify counts the
        # four mode ladders and one boundary form per mode, once each, and
        # reads the rows that compute_index reads.  The ladders that share a
        # level and a block size, mode 0's channels and the mode-1 and
        # mode-2 blocks, are counted as one stack each
        original, form = spectral._ladders, pipeline.boundary_form
        built, forms, stacks = [], [], []

        def recorded(builds, traj, n, level, helped=None):
            def record(build, traj, rows):
                built.append(((build.func.__name__, build.args, level),
                              rows.tolist()))
                return rows

            stacks.append((len(builds), level))
            return _changed_ladders(original, record)(builds, traj, n, level,
                                                      helped)

        def recorded_form(l, traj, **kwargs):
            forms.append(l)
            return form(l, traj, **kwargs)

        monkeypatch.setattr(spectral, "_ladders", recorded)
        monkeypatch.setattr(pipeline, "_ladders", recorded)
        monkeypatch.setattr(pipeline, "boundary_form", recorded_form)
        compute_index(2, 3, method="direct", n=512)
        assert [key for key, _ in built] == [
            ("l0_channel_system", (1,), 0.0), ("l0_channel_system", (2,), 0.0),
            ("fourier_block_system", (1,), 0.0),
            ("fourier_block_system", (2,), 0.0),
            ("laplace_system", (1,), 2.0)]
        assert stacks == [(2, 0.0), (2, 0.0), (1, 2.0)]
        assert forms == []

        built.clear()
        report = compute_index(2, 3, method="both", n=512)
        index_ladders = built[:4]
        assert forms == [1, 2]
        built.clear()
        forms.clear()
        rows = {r["check"]: r for r in verify_family(2, 3, n=512)}
        assert built == index_ladders and forms == [1, 2]
        mode0 = report.per_mode[0]
        assert rows["l=0 counts"]["detail"].startswith(
            f"neg={mode0.neg} (expect 13), zero={mode0.zero} (expect 3)")
        assert [rec.per_omega.tolist() for rec in report.per_mode[1:]] == \
            [ladder for _, ladder in built[2:]]
        assert rows["route agreement l=1"]["ok"]
        assert rows["route agreement l=2"]["ok"]

    def test_count_only_reductions_per_family(self, monkeypatch,
                                              fresh_helper,
                                              helper_counts_all):
        # one reduction per mesh of each stack: mode 0's channels, modes 1
        # and 2 (their direct ladders, or under 'edwards' their Dirichlet
        # ends), and Laplace l = 1 alone; verify counts no spectral index.
        # The helper, forked under the patch and left every count, reduces
        # mesh 2n of each, so this process reduces mesh n alone; without a
        # helper, both
        original, meshes = eigencount._reduced_counts, []

        def counted(op, *args):
            meshes.append(op.m)
            return original(op, *args)

        monkeypatch.setattr(eigencount, "_reduced_counts", counted)
        for split in ([512], [512, 1024]):
            if split == [512, 1024]:
                monkeypatch.setattr(_helper, "_may_fork", lambda: False)
                _helper._close_helper()
            elif not _helper._may_fork():
                continue
            for method in ("both", "edwards", "direct"):
                meshes.clear()
                compute_index(2, 3, method=method, n=512)
                assert meshes == 3 * split, method
            meshes.clear()
            verify_family(2, 3, n=512)
            assert meshes == 2 * split

    @pytest.mark.parametrize("raising,form,want", [
        ({"channel 1", "channel 2"}, False, "channel 1"),
        ({"channel 2", "l = 1"}, False, "channel 2"),
        ({"l = 2"}, True, "form l = 1"),
        ({"l = 1"}, True, "l = 1"),
        ({"l = 2"}, False, "l = 2")])
    def test_errors_surface_in_ladder_order(self, monkeypatch, fresh_helper,
                                            raising, form, want):
        # a count-only call that raises on a ladder's operator, stacked or
        # alone; the first error in the order channel 1, channel 2, then
        # per mode the direct ladder and the boundary form surfaces, as
        # when each ladder was counted alone, with a helper forked under
        # the patch, whose mesh-2n counts raise too, and in process
        traj = family_trajectory(solve_parameter(2, 3), 512)
        builds = {"channel 1": partial(l0_channel_system, 1),
                  "channel 2": partial(l0_channel_system, 2),
                  "l = 1": partial(fourier_block_system, 1),
                  "l = 2": partial(fourier_block_system, 2)}
        tags = {build(traj, BoundaryCondition.twisted(1.0)).discretize(m)
                .diag.tobytes(): tag
                for tag, build in builds.items() for m in (512, 1024)}
        original, boundary = spectral.inertia, pipeline.boundary_form

        def failing(op, *shifts, logdet=True):
            parts = ([op.diag] if op.diag.ndim == op.dim
                     else [op.diag[:, j] for j in range(op.diag.shape[1])])
            for part in parts:
                if not logdet and tags.get(part.tobytes()) in raising:
                    raise NumericalError(tags[part.tobytes()])
            return original(op, *shifts, logdet=logdet)

        def failing_form(l, traj, **kwargs):
            if form and l == 1:
                raise NumericalError("form l = 1")
            return boundary(l, traj, **kwargs)

        monkeypatch.setattr(spectral, "inertia", failing)
        monkeypatch.setattr(pipeline, "boundary_form", failing_form)
        for helped in (True, False):
            if not helped:
                monkeypatch.setattr(_helper, "_may_fork", lambda: False)
                _helper._close_helper()
            with pytest.raises(NumericalError) as exc:
                compute_index(2, 3, method="both", n=512)
            assert str(exc.value) == want

    def test_unknown_method_rejected(self):
        from otsuki.errors import ValidationError
        with pytest.raises(ValidationError):
            compute_index(2, 3, method="fancy")

    def test_route_disagreement_fails_loudly(self, monkeypatch):
        def wrong(build, traj, rows):
            return rows + (1, 0) if build.func is fourier_block_system else rows

        monkeypatch.setattr(pipeline, "_ladders",
                            _changed_ladders(pipeline._ladders, wrong))
        with pytest.raises(RouteDisagreementError):
            compute_index(2, 3, method="both", n=512)

    def test_edwards_fallback_flagged(self, monkeypatch):
        import otsuki.pipeline as pipeline
        from otsuki.errors import EdwardsInapplicableError

        def refuse(l, traj, **kwargs):
            raise EdwardsInapplicableError("forced")

        monkeypatch.setattr(pipeline, "boundary_form", refuse)
        report = compute_index(2, 3, method="both", n=512)
        assert report.flags["edwards_applicable"] == {"1": False, "2": False}
        assert report.ind == 31 and report.nul == 9
        by_l = {r.l: r for r in report.per_mode}
        assert by_l[1].method == "direct"

    def test_edwards_method_raises_when_inapplicable(self, monkeypatch):
        import otsuki.pipeline as pipeline
        from otsuki.errors import EdwardsInapplicableError

        def refuse(l, traj, **kwargs):
            raise EdwardsInapplicableError("forced")

        monkeypatch.setattr(pipeline, "boundary_form", refuse)
        with pytest.raises(EdwardsInapplicableError) as info:
            compute_index(2, 3, method="edwards", n=512)
        assert str(info.value) == ("boundary-form route inapplicable at l=1: "
                                   "forced; rerun with method='direct'")


class TestHalfPeriodCounts:
    """Every count below l = 3 is a twist ladder on [0, T] at mesh n, so
    the mesh does not coarsen as q grows."""

    def test_coarse_mesh_keeps_the_mode0_zero_modes(self):
        # mode 0 = (2q + 4p - 1, 3) and ind_S = 2q + 4p - 2 at 5/9
        report = compute_index(5, 9, method="direct", n=512)
        mode0 = report.per_mode[0]
        assert (mode0.neg, mode0.zero) == (37, 3)
        assert (report.nul, report.spectral_index) == (9, 36)

    def test_coarse_mesh_is_counted(self):
        report = compute_index(4, 7, method="direct", n=512)
        assert (report.ind, report.nul, report.spectral_index) == (71, 9, 28)

    def test_near_sqrt2_over_2(self):
        report = compute_index(12, 17, method="both", n=512)
        assert (report.ind, report.nul, report.spectral_index) == (209, 9, 80)
        check = bounds_check(report)
        assert all(check[k] for k in check if k.endswith("_ok"))

    def test_nothing_discretizes_beyond_half_period(self, monkeypatch,
                                                    counts_in_process):
        # every operator lives on [0, T], and the l = 3 check sweeps none:
        # no 2x2 cyclic sweep with real wrap multipliers is left; in
        # process, so both meshes are discretized and swept here
        seen, real_2x2 = set(), []
        original = SLSystem.discretize
        original_inertia = eigencount.inertia

        def recorded(system, n):
            seen.add((system.l, system.length))
            return original(system, n)

        def recorded_inertia(op, *shifts, logdet=True, **kwargs):
            if op.cyclic and op.dim == 2 and not op.is_complex():
                real_2x2.extend((op.m, sigma, logdet) for sigma in shifts)
            return original_inertia(op, *shifts, logdet=logdet, **kwargs)

        monkeypatch.setattr(SLSystem, "discretize", recorded)
        monkeypatch.setattr(eigencount, "inertia", recorded_inertia)
        monkeypatch.setattr(spectral, "inertia", recorded_inertia)
        report = compute_index(5, 8, method="both", n=512)
        assert {l for l, _ in seen} == {0, 1, 2}
        assert max(length for _, length in seen) == report.T
        assert real_2x2 == []


README_FAMILIES = [(5, 9), (4, 7), (3, 5), (5, 8), (2, 3), (7, 10)]

needs_fork = pytest.mark.skipif(not _helper._may_fork(),
                                reason="no os.fork or os.pidfd_open, or one "
                                       "CPU only")


@pytest.fixture
def fresh_helper():
    """No helper runs when the test starts, so its first family that reads
    boundary forms forks one, which runs the patches installed then; none
    runs when it ends, so no later test meets those patches."""
    _helper._close_helper()
    yield
    _helper._close_helper()


@pytest.fixture
def forks(fresh_helper, monkeypatch):
    """The value each ``os.fork`` call returned in this process."""
    fork, pids = os.fork, []

    def recorded():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


@contextlib.contextmanager
def another_thread():
    """A second thread runs meanwhile, so no helper may be forked."""
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        yield
    finally:
        done.set()
        thread.join()


@contextlib.contextmanager
def a_thread_python_does_not_run():
    """A second thread that ``threading`` does not know of, as a library's
    own threads are: the system counts it, ``threading.active_count`` not."""
    import _thread
    import time

    held = _thread.allocate_lock()
    held.acquire()
    _thread.start_new_thread(held.acquire, ())
    while _helper._threads() < 2:
        time.sleep(0.001)
    assert threading.active_count() == 1
    try:
        yield
    finally:
        held.release()
        while _helper._threads() > 1:
            time.sleep(0.001)


@pytest.fixture
def helper_counts_all(monkeypatch):
    """This process takes no count's token, so the helper makes every count
    sent to it, however far behind it runs: the split is fixed."""
    take, parent = _helper._take_token, os.getpid()
    monkeypatch.setattr(_helper, "_take_token",
                        lambda fd: os.getpid() != parent and take(fd))


@pytest.fixture
def parent_counts_all(monkeypatch, fresh_helper):
    """A helper, forked under the patch, that takes no count's token, so
    this process makes every count itself, however early it needs it."""
    take, parent = _helper._take_token, os.getpid()
    monkeypatch.setattr(_helper, "_take_token",
                        lambda fd: os.getpid() == parent and take(fd))


@pytest.fixture
def kills(monkeypatch):
    """The SIGKILLs sent to a helper, through its handle or by its pid."""
    import signal

    sent = []
    by_handle, by_pid = signal.pidfd_send_signal, os.kill

    def through_handle(fd, sig, *args):
        sent.append("handle")
        by_handle(fd, sig, *args)

    def through_pid(pid, sig):
        sent.append("pid")
        by_pid(pid, sig)

    monkeypatch.setattr(signal, "pidfd_send_signal", through_handle)
    monkeypatch.setattr(os, "kill", through_pid)
    return sent


@pytest.fixture
def in_process(monkeypatch):
    """The modes whose boundary solutions this process integrated itself,
    as it does where no helper serves the family."""
    home, modes = edwards.boundary_solutions, []

    def recorded(l, traj):
        modes.append(l)
        return home(l, traj)

    monkeypatch.setattr(edwards, "boundary_solutions", recorded)
    return modes


def _document(report):
    return jsonio.dumps(report_document(replace(report, timestamp="")))


@pytest.fixture
def counted_on(monkeypatch):
    """The meshes of the count-only ``inertia`` calls that this process
    makes: a helper makes those of mesh 2n of the family's stacks."""
    meshes, inertia = [], spectral.inertia

    def recorded(op, *shifts, logdet=True):
        if not logdet:
            meshes.append(op.m)
        return inertia(op, *shifts, logdet=logdet)

    monkeypatch.setattr(spectral, "inertia", recorded)
    return meshes


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _only_the_idle_helper():
    """After a family the one child left is the helper: it runs, no family
    holds it, and it has written no result that was not read.  Once it is
    closed, no child is left at all."""
    helper = _helper._HELPER
    assert helper is not None and not _helper._CLAIM.locked()
    assert os.waitpid(helper.pid, os.WNOHANG) == (0, 0)
    assert select.select([helper.results], [], [], 0.05)[0] == []
    _helper._close_helper()
    assert _helper._HELPER is None
    _no_child_left()


@needs_fork
class TestBoundarySolutionsInAChild:
    """``compute_index`` and ``verify_family`` have the mesh-2n half of
    their counts made, and the boundary solutions of modes 1 and 2
    integrated ('edwards', 'both' and ``verify_family``), by one helper
    process, forked at the first family and reused, and do that work in
    process beside another thread when no helper runs."""

    @pytest.mark.parametrize("method", ["edwards", "both", "direct"])
    def test_reports_equal_the_in_process_ones(self, forks, counted_on,
                                               helper_counts_all, method):
        # every byte but the timestamp, s1 and s2 included; with a helper
        # left every count this process counts no mesh-2n operator, in
        # process it does
        helped = [_document(compute_index(p, q, method, n=512))
                  for p, q in README_FAMILIES]
        assert len(forks) == 1 and 0 not in forks
        assert counted_on and set(counted_on) == {512}
        _only_the_idle_helper()
        counted_on.clear()
        with another_thread():
            alone = [_document(compute_index(p, q, method, n=512))
                     for p, q in README_FAMILIES]
        assert len(forks) == 1 and 1024 in counted_on
        assert helped == alone
        _no_child_left()

    def test_verify_rows_equal_the_in_process_ones(self, forks, counted_on,
                                                   helper_counts_all):
        families = [(2, 3), (5, 8)]
        helped = [jsonio.dumps(verify_family(p, q, n=512))
                  for p, q in families]
        assert len(forks) == 1
        assert counted_on and set(counted_on) == {512}
        _only_the_idle_helper()
        counted_on.clear()
        with another_thread():
            alone = [jsonio.dumps(verify_family(p, q, n=512))
                     for p, q in families]
        assert len(forks) == 1 and 1024 in counted_on and helped == alone
        _no_child_left()

    def test_direct_forks_a_helper_for_its_counts_alone(self, forks,
                                                        in_process,
                                                        counted_on,
                                                        helper_counts_all):
        # it integrates no boundary solution, and is asked for none
        compute_index(2, 3, "direct", n=512)
        assert len(forks) == 1 and in_process == []
        assert set(counted_on) == {512}
        _only_the_idle_helper()

    def test_failure_in_the_child_surfaces_as_in_process(
            self, monkeypatch, forks, traj23):
        rhs = edwards._fundamental_rhs

        def nan_after_40(calls):
            def patched(y, out, l, c, A):
                calls.append(1)
                rhs(y, out, l, c, A)
                if len(calls) > 40:
                    out.fill(np.nan)
            return patched

        monkeypatch.setattr(edwards, "_fundamental_rhs", nan_after_40([]))
        with pytest.raises(NumericalError) as alone:
            edwards.boundary_solutions(1, traj23)
        parent = []
        monkeypatch.setattr(edwards, "_fundamental_rhs", nan_after_40(parent))
        with pytest.raises(NumericalError) as helped:
            compute_index(2, 3, "edwards", n=512)
        assert type(helped.value) is type(alone.value)
        assert str(helped.value) == str(alone.value)
        assert "integration failed" in str(alone.value)
        # the right-hand side ran in the helper only, which the family,
        # raising with a count result unread, killed
        assert parent == [] and len(forks) == 1
        _no_child_left()

    def test_child_without_a_result(self, monkeypatch, forks, in_process,
                                     report23):
        # a helper that ends before it writes: the parent integrates itself
        monkeypatch.setattr(_helper, "_serve",
                            lambda requests, results, *tokens: os._exit(1))
        assert _document(compute_index(2, 3, "both", n=512)) == \
            _document(report23)
        assert len(forks) == 1 and in_process == [1, 2]
        _no_child_left()

    @pytest.mark.parametrize("method", ["edwards", "both"])
    def test_the_helper_counts_mesh_2n_as_this_process_does(
            self, monkeypatch, forks, helper_counts_all, method):
        # each stack's result, as the family takes it from the helper, is
        # the count-only reduction of that stack on mesh 2n made here
        taken, take = [], _helper.Handle.take

        def recorded(handle, key, compute):
            result = take(handle, key, compute)
            if isinstance(key, tuple):
                taken.append((key, result))
            return result

        monkeypatch.setattr(_helper.Handle, "take", recorded)
        compute_index(2, 3, method, n=512)
        assert [key for key, _ in taken] == pipeline._stacks(method)
        traj = family_trajectory(solve_parameter(2, 3), 512)
        for (builds, level, ladders), got in taken:
            systems = [build(traj, BoundaryCondition.twisted(1.0))
                       for build in builds]
            ladder = spectral._ladder(traj, systems[0].dim) if ladders \
                else None
            zone = spectral._zone(systems[0], 512)
            shifts = [level - zone, level + zone]
            if ladders:     # the windows of mesh 2n
                shifts += [level + s * spectral._WINDOW
                           for s in spectral._WINDOW_SHIFTS[1]]
            want = spectral.inertia(spectral._stack(systems, 1024, ladder),
                                    *shifts, logdet=False)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        _only_the_idle_helper()

    @pytest.mark.parametrize("method", ["edwards", "both", "direct"])
    def test_the_family_counts_what_the_helper_has_not_begun(
            self, forks, kills, in_process, counted_on, parent_counts_all,
            method):
        # every count's token is the family's: it counts both meshes, the
        # helper skips them, and it serves on, killed by no family
        with another_thread():
            alone = [_document(compute_index(p, q, method, n=512))
                     for p, q in README_FAMILIES[:3]]
        _no_child_left()
        want = counted_on.copy()
        counted_on.clear()
        in_process.clear()
        helped = [_document(compute_index(p, q, method, n=512))
                  for p, q in README_FAMILIES[:3]]
        assert helped == alone and counted_on == want
        assert counted_on.count(1024) == 9
        assert len(forks) == 1 and kills == [] and in_process == []
        _only_the_idle_helper()

    def test_families_in_a_row_hand_each_count_to_one_process(
            self, forks, kills, report23):
        # the tokens go to whichever process comes first, family after
        # family, with a busy thread in this process shifting the timing:
        # every report is the in-process one, and every family reads all
        # its results, so one helper serves them all, never killed
        want = {method: _document(compute_index(2, 3, method, n=512))
                for method in ("direct", "edwards")}
        want["both"] = _document(report23)
        done = threading.Event()

        def busy():
            # short bursts, so that it does not starve the families of the
            # interpreter lock
            while not done.wait(0.001):
                sum(range(2000))

        thread = threading.Thread(target=busy)
        thread.start()
        try:
            for k in range(12):
                method = ("both", "direct", "edwards")[k % 3]
                assert _document(compute_index(2, 3, method, n=512)) == \
                    want[method]
        finally:
            done.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert len(forks) == 1 and kills == []
        _only_the_idle_helper()

    def test_child_that_ends_before_a_count_result(self, monkeypatch, forks,
                                                    in_process, counted_on,
                                                    report23):
        # a helper that answers its first request, the boundary solutions,
        # and ends: the parent counts mesh 2n itself, reaps the helper, and
        # the next family forks a fresh one
        def solutions_only(requests, results, *tokens):
            try:
                requests, results = _helper._only_descriptors(requests,
                                                              results)
                with os.fdopen(requests, "rb") as inbox, \
                        os.fdopen(results, "wb") as outbox:
                    work, calls, slots = pickle.load(inbox)
                    for result in _helper._answers(work, calls, slots):
                        outbox.write(pickle.dumps(result))
            finally:
                os._exit(0)

        monkeypatch.setattr(_helper, "_serve", solutions_only)
        assert _document(compute_index(2, 3, "both", n=512)) == \
            _document(report23)
        assert len(forks) == 1 and in_process == []
        assert counted_on.count(1024) == 3
        assert _helper._HELPER is None
        _no_child_left()
        counted_on.clear()
        assert _document(compute_index(2, 3, "both", n=512)) == \
            _document(report23)
        assert len(forks) == 2 and in_process == []
        assert counted_on.count(1024) == 3
        _no_child_left()

    @pytest.mark.parametrize("method", ["edwards", "both"])
    @pytest.mark.parametrize("where", ["ladders", "refused"])
    def test_no_child_outlives_a_family_that_reads_no_form(
            self, monkeypatch, forks, kills, helper_counts_all, method,
            where):
        # the helper makes every count, so a family that takes a count
        # reads the boundary solutions sent before it
        def failing(*args):
            raise NumericalError("forced")

        def refuse(l, traj, **kwargs):
            raise EdwardsInapplicableError("forced")

        if where == "ladders":
            monkeypatch.setattr(pipeline, "_ladders", failing)
        else:
            monkeypatch.setattr(pipeline, "boundary_form", refuse)
        fails = where == "ladders" or method == "edwards"
        with pytest.raises(NumericalError) if fails else \
                contextlib.nullcontext():
            compute_index(2, 3, method, n=512)
        with pytest.raises(NumericalError) if where == "ladders" else \
                contextlib.nullcontext():
            verify_family(2, 3, n=512)
        if where == "ladders":
            assert len(forks) == 2 and kills == ["handle", "handle"]
            _no_child_left()
            return
        # a refused family reads its solutions on the way to its counts:
        # only 'edwards', which raises before its spectral index is
        # counted, leaves a result unread; the helper that read them all
        # serves the next family
        if method == "edwards":
            assert len(forks) == 2 and kills == ["handle"]
        else:
            assert len(forks) == 1 and kills == []
        _only_the_idle_helper()

    def test_the_next_family_reads_no_stale_result(self, monkeypatch, forks,
                                                   kills, in_process):
        # 2/3, refused under 'edwards', leaves its spectral index's count
        # unread; 5/8 reads its own, from a fresh helper
        want = _document(compute_index(5, 8, "edwards", n=512))

        def refuse(l, traj, **kwargs):
            raise EdwardsInapplicableError("forced")

        monkeypatch.setattr(pipeline, "boundary_form", refuse)
        with pytest.raises(EdwardsInapplicableError):
            compute_index(2, 3, "edwards", n=512)
        monkeypatch.setattr(pipeline, "boundary_form", boundary_form)
        assert _document(compute_index(5, 8, "edwards", n=512)) == want
        assert len(forks) == 2 and kills == ["handle"] and in_process == []
        _only_the_idle_helper()

    def test_a_family_whose_mode_0_count_raises_kills_the_helper(
            self, monkeypatch, forks, kills, report23):
        # 2/3 raises at mode 0 with its count results unread; no stale
        # result reaches 5/8, which a fresh helper serves
        want = _document(compute_index(5, 8, "both", n=512))

        def failing_mode_0(build, traj, rows):
            if build in spectral._CHANNELS:
                raise AmbiguousClassificationError("forced")
            return rows

        ladders = pipeline._ladders
        monkeypatch.setattr(pipeline, "_ladders",
                            _changed_ladders(ladders, failing_mode_0))
        with pytest.raises(AmbiguousClassificationError):
            compute_index(2, 3, "both", n=512)
        assert len(forks) == 1 and kills == ["handle"]
        monkeypatch.setattr(pipeline, "_ladders", ladders)
        assert _document(compute_index(5, 8, "both", n=512)) == want
        assert _document(compute_index(2, 3, "both", n=512)) == \
            _document(report23)
        assert len(forks) == 2 and kills == ["handle"]
        _only_the_idle_helper()

    def test_no_child_outlives_a_sweep_with_a_failing_family(
            self, monkeypatch, forks, kills, tmp_path, capsys):
        def failing_at_3_5(build, traj, rows):
            if traj.family.rotation.q == 5:
                raise AmbiguousClassificationError("forced")
            return rows

        monkeypatch.setattr(pipeline, "_ladders",
                            _changed_ladders(pipeline._ladders, failing_at_3_5))
        listing = tmp_path / "families.txt"
        listing.write_text("2 3\n3 5\n5 8\n")
        assert run_cli(["sweep", "--input", str(listing), "--n", "512"]) == 2
        docs = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
        assert "ind" in docs[0] and docs[1]["error"]["message"] == "forced"
        assert (docs[2]["p"], docs[2]["q"], docs[2]["ind"]) == (5, 8, 41)
        # 2/3 forks the helper and 3/5 kills it; 5/8 forks a fresh one
        assert len(forks) == 2 and kills == ["handle"]
        _only_the_idle_helper()

    def test_no_fork_beside_another_thread(self, monkeypatch, fresh_helper,
                                           in_process, report23):
        def unwanted():
            raise AssertionError("forked beside another thread")

        monkeypatch.setattr(os, "fork", unwanted)
        with another_thread(), warnings.catch_warnings():
            warnings.simplefilter("error")
            report = compute_index(2, 3, "both", n=512)
            verify_family(2, 3, n=512)
        assert _document(report) == _document(report23)
        assert in_process == [1, 2, 1, 2]
        _no_child_left()

    def test_an_idle_helper_serves_a_family_beside_a_thread(
            self, forks, in_process, report23):
        # no fork happens then
        compute_index(5, 8, "edwards", n=512)
        with another_thread(), warnings.catch_warnings():
            warnings.simplefilter("error")
            report = compute_index(2, 3, "both", n=512)
        assert _document(report) == _document(report23)
        assert len(forks) == 1 and in_process == []
        _only_the_idle_helper()

    def test_a_claimed_helper_leaves_the_next_family_in_process(
            self, forks, in_process, report23, fam58):
        # one family at a time: that of another thread does not wait
        held = _helper.Handle()
        edwards._integrate_beside(held, fam58)
        reports = []
        thread = threading.Thread(target=lambda: reports.append(
            compute_index(2, 3, "both", n=512)))
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive() and in_process == [1, 2]
        traj = family_trajectory(fam58, 512)
        want = [edwards.boundary_solutions(l, traj) for l in (1, 2)]
        in_process.clear()
        got = [held.take(l, partial(edwards.boundary_solutions, l, traj))
               for l in (1, 2)]
        held.close()
        assert _document(reports[0]) == _document(report23)
        assert len(forks) == 1 and in_process == []
        for a, b in zip(got, want):
            assert np.array_equal(a.coeffs, b.coeffs)
            assert np.array_equal(a.psi_prime_T, b.psi_prime_T)
        _only_the_idle_helper()

    def test_child_forked_beside_a_thread_python_does_not_run_is_killed(
            self, forks, kills, report23):
        # Python 3.12+ warns of that fork; the helper may deadlock
        with a_thread_python_does_not_run(), warnings.catch_warnings():
            warnings.simplefilter("error")
            report = compute_index(2, 3, "both", n=512)
        assert _document(report) == _document(report23)
        assert len(forks) == 1 and kills == ["handle"]
        _no_child_left()

    def test_a_warning_from_the_fork_kills_the_child(self, monkeypatch,
                                                      forks, kills, report23):
        # as Python 3.12+ warns where the system counts more threads
        recorded = os.fork

        def warning():
            pid = recorded()
            if pid:
                warnings.warn("This process is multi-threaded, use of fork()"
                              " may lead to deadlocks in the child.",
                              DeprecationWarning)
            return pid

        monkeypatch.setattr(os, "fork", warning)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = compute_index(2, 3, "both", n=512)
        assert _document(report) == _document(report23)
        assert len(forks) == 1 and kills == ["handle"]
        _no_child_left()

    def test_a_child_whose_results_were_read_is_not_killed(self, forks, kills):
        # and killed at its close through its handle, never by its pid,
        # which may be another process's once the system has reaped it
        compute_index(2, 3, "edwards", n=512)
        verify_family(2, 3, n=512)
        assert len(forks) == 1 and kills == []
        _only_the_idle_helper()
        assert kills == ["handle"]

    def test_a_child_without_a_handle_is_killed_at_once(self, monkeypatch,
                                                         forks, kills,
                                                         report23):
        def unsupported(pid):
            raise OSError(38, "Function not implemented")

        monkeypatch.setattr(os, "pidfd_open", unsupported)
        assert _document(compute_index(2, 3, "both", n=512)) == \
            _document(report23)
        assert len(forks) == 1 and kills == ["pid"]
        _no_child_left()

    def test_no_fork_without_process_handles(self, monkeypatch, forks):
        monkeypatch.delattr(os, "pidfd_open")
        compute_index(2, 3, "edwards", n=512)
        assert forks == []

    def test_failed_fork_integrates_in_process(self, monkeypatch,
                                               fresh_helper, in_process,
                                               report23):
        def exhausted():
            raise BlockingIOError("fork: Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", exhausted)
        assert _document(compute_index(2, 3, "both", n=512)) == \
            _document(report23)
        assert in_process == [1, 2]

    def test_sigchld_ignored(self, monkeypatch, forks, report23):
        # the system reaps the helper itself; closing it raises nothing
        import signal

        monkeypatch.setattr(_helper, "_serve",
                            lambda requests, results, *tokens: os._exit(0))
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            report = compute_index(2, 3, "both", n=512)
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert _document(report) == _document(report23)
        assert len(forks) == 1
        _no_child_left()

    def test_no_fork_on_one_cpu(self, monkeypatch, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        compute_index(2, 3, "edwards", n=512)
        assert forks == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="no /proc/self/fd")
    def test_the_helper_holds_only_its_pipe_ends(self, forks):
        # 0-2 on /dev/null, and nothing of the parent's but the two pipes
        # and the read ends of the token pipes
        compute_index(2, 3, "edwards", n=512)
        helper = _helper._HELPER
        held = sorted(int(fd) for fd in os.listdir(f"/proc/{helper.pid}/fd"))
        assert len(helper.tokens) == _helper._TOKENS
        assert len(held) == 5 + _helper._TOKENS and held[:3] == [0, 1, 2]
        assert {os.readlink(f"/proc/{helper.pid}/fd/{fd}")
                for fd in held[:3]} == {os.devnull}
        assert {os.readlink(f"/proc/{helper.pid}/fd/{fd}")
                for fd in held[3:]} == \
            {os.readlink(f"/proc/self/fd/{fd}")
             for fd in (helper.requests, helper.results,
                        *(read for read, _ in helper.tokens))}
        _only_the_idle_helper()

    def test_the_helper_exits_at_the_end_of_its_requests(self, forks, kills):
        # as it does when its parent ends without killing it: it holds no
        # other end of its request pipe
        import signal
        import time

        compute_index(2, 3, "edwards", n=512)
        helper = _helper._HELPER
        os.close(helper.requests)
        deadline = time.monotonic() + 10.0
        while not (reaped := os.waitpid(helper.pid, os.WNOHANG))[0] \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        _helper._HELPER = None
        if not reaped[0]:
            signal.pidfd_send_signal(helper.handle, signal.SIGKILL)
            reaped = os.waitpid(helper.pid, 0)
        os.close(helper.results)
        os.close(helper.handle)
        assert os.WIFEXITED(reaped[1]) and os.WEXITSTATUS(reaped[1]) == 0
        assert kills == []
        _no_child_left()

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="no /proc")
    def test_the_helper_is_killed_at_interpreter_exit(self):
        # a process that holds the helper's request pipe open keeps its end
        # from coming, so only the exit handler ends the helper
        import signal

        script = (
            "import subprocess, sys\n"
            "from otsuki import _helper, pipeline\n"
            "pipeline.compute_index(2, 3, 'edwards', n=512)\n"
            "helper = _helper._HELPER\n"
            "keeper = subprocess.Popen(\n"
            "    [sys.executable, '-c', 'import time; time.sleep(60)'],\n"
            "    pass_fds=[helper.requests], stdout=subprocess.DEVNULL,\n"
            "    stderr=subprocess.DEVNULL)\n"
            "print(helper.pid, keeper.pid)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              env=_package_env(), capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        helper, keeper = map(int, proc.stdout.split())
        os.kill(keeper, signal.SIGKILL)
        left = os.path.exists(f"/proc/{helper}")
        if left:
            os.kill(helper, signal.SIGKILL)
        assert not left

    def test_a_call_is_made_by_the_process_that_takes_its_token(self):
        # the byte in a call's token pipe goes to one reader: the helper
        # makes the call only if it takes it, and skips it, answering None,
        # where the parent took it first
        made = []

        def work(x):
            made.append(x)
            if x == 3:
                raise NumericalError("three")
            return x

        pipes = [os.pipe() for _ in range(3)]
        try:
            for read, write in pipes:
                os.set_blocking(read, False)
                os.write(write, b"t")
            assert _helper._take_token(pipes[1][0])        # the parent's
            answers = list(_helper._answers(
                work, [(1,), (2,), (3,), (4,)],
                [read for read, _ in pipes] + [None]))
            assert answers[:2] == [1, None] and answers[3] == 4
            assert isinstance(answers[2], NumericalError)
            assert made == [1, 3, 4]
            assert not any(_helper._take_token(read) for read, _ in pipes)
        finally:
            for fd in sum(pipes, ()):
                os.close(fd)

    def test_a_forked_process_neither_uses_nor_signals_the_helper(
            self, forks, kills):
        want = _document(compute_index(5, 8, "edwards", n=512))
        helper = _helper._HELPER
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:    # reports what it saw, then leaves as a helper does
            try:
                os.close(read)
                let_go = _helper._HELPER is None
                doc = _document(compute_index(5, 8, "edwards", n=512))
                own = _helper._HELPER.pid
                _helper._close_helper()
                os.write(write, pickle.dumps((let_go, doc, own)))
            finally:
                os._exit(0)
        os.close(write)
        with os.fdopen(read, "rb") as pipe:
            let_go, doc, own = pickle.load(pipe)
        os.waitpid(pid, 0)
        assert let_go and doc == want and own != helper.pid
        # this process's helper runs on, unsignalled, and serves it still
        assert _document(compute_index(5, 8, "edwards", n=512)) == want
        assert _helper._HELPER is helper
        assert len(forks) == 2 and kills == []
        _only_the_idle_helper()

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="no /proc")
    def test_a_sweep_process_leaves_no_process(self, tmp_path):
        # the helper is killed and reaped as the interpreter exits; a
        # helper or orphan left would share the sweep's command line
        listing = tmp_path / "families.txt"
        listing.write_text("2 3\n3 5\n")
        cmd = [sys.executable, "-m", "otsuki.cli", "sweep", "--input",
               str(listing), "--n", "512", "--method", "edwards"]
        proc = subprocess.run(cmd, env=_package_env(), capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        docs = [json.loads(ln) for ln in proc.stdout.splitlines()]
        assert [(d["p"], d["q"], d["ind"]) for d in docs] == \
            [(2, 3, 31), (3, 5, 51)]
        left = []
        for entry in os.listdir("/proc"):
            try:
                with open(f"/proc/{entry}/cmdline", "rb") as fh:
                    if str(listing).encode() in fh.read():
                        left.append(entry)
            except OSError:     # no process, or one that has ended
                pass
        assert left == []


class TestCache:
    def test_round_trip(self, report23, tmp_path):
        path = cache_store(report23, cache_dir=str(tmp_path))
        assert os.path.basename(path) == cache_key(2, 3, 512) + ".json"
        doc = cache_load(2, 3, 512, cache_dir=str(tmp_path))
        assert doc == json.loads(jsonio.dumps(report_document(report23)))
        assert jsonio.dumps(doc) == jsonio.dumps(report_document(report23))

    def test_version_bump_misses(self, report23, tmp_path, monkeypatch):
        cache_store(report23, cache_dir=str(tmp_path))
        monkeypatch.setattr(pipeline, "REPORT_VERSION",
                            str(int(pipeline.REPORT_VERSION) + 1))
        assert cache_load(2, 3, 512, cache_dir=str(tmp_path)) is None

    def test_wrong_mesh_misses(self, report23, tmp_path):
        cache_store(report23, cache_dir=str(tmp_path))
        assert cache_load(2, 3, 1024, cache_dir=str(tmp_path)) is None

    def test_corrupt_entry_warns_and_misses(self, report23, tmp_path):
        path = cache_store(report23, cache_dir=str(tmp_path))
        with open(path, "w") as fh:
            fh.write("{ not json")
        with pytest.warns(UserWarning):
            assert cache_load(2, 3, 512, cache_dir=str(tmp_path)) is None

    def test_undecodable_entry_warns_and_misses(self, report23, tmp_path):
        path = cache_store(report23, cache_dir=str(tmp_path))
        with open(path, "wb") as fh:
            fh.write(b"\xff\xfe{}")
        with pytest.warns(UserWarning):
            assert cache_load(2, 3, 512, cache_dir=str(tmp_path)) is None

    @pytest.mark.parametrize("text", ["[]", '"x"', "3"])
    def test_non_report_entry_warns_and_misses(self, report23, tmp_path, text):
        path = cache_store(report23, cache_dir=str(tmp_path))
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.warns(UserWarning):
            assert cache_load(2, 3, 512, cache_dir=str(tmp_path)) is None

    @pytest.mark.parametrize("field,value", [("p", 3), ("q", 5), ("n", 1024),
                                             ("method", "direct"),
                                             ("version", "0")])
    def test_entry_for_other_parameters_warns_and_misses(
            self, report23, tmp_path, field, value):
        path = cache_store(report23, cache_dir=str(tmp_path))
        doc = report_document(report23)
        doc[field] = value
        with open(path, "w") as fh:
            fh.write(jsonio.dumps(doc))
        with pytest.warns(UserWarning):
            assert cache_load(2, 3, 512, cache_dir=str(tmp_path)) is None

    def test_directory_created_on_demand(self, report23, tmp_path):
        target = tmp_path / "fresh" / "cache"
        cache_store(report23, cache_dir=str(target))
        assert target.is_dir()

    def test_env_var_default(self, report23, tmp_path, monkeypatch):
        monkeypatch.setenv("OTSUKI_CACHE", str(tmp_path / "envcache"))
        cache_store(report23)
        assert cache_load(2, 3, 512) is not None

    def test_other_method_misses(self, report23, tmp_path):
        cache_store(report23, cache_dir=str(tmp_path))
        assert cache_load(2, 3, 512, method="direct",
                          cache_dir=str(tmp_path)) is None

    def test_entry_mode_follows_umask(self, report23, tmp_path):
        umask = os.umask(0o022)
        os.umask(umask)
        path = cache_store(report23, cache_dir=str(tmp_path))
        assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask

    def test_interrupted_write_leaves_no_entry(self, report23, tmp_path,
                                               monkeypatch):
        def interrupted(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(OSError):
            cache_store(report23, cache_dir=str(tmp_path))
        assert os.listdir(tmp_path) == []

    def test_failed_open_raises_original_error(self, report23, tmp_path,
                                                monkeypatch):
        def denied(path, mode="r"):
            raise PermissionError(f"denied: {path}")

        monkeypatch.setattr(pipeline, "open", denied, raising=False)
        with pytest.raises(PermissionError, match="denied"):
            cache_store(report23, cache_dir=str(tmp_path))
        assert os.listdir(tmp_path) == []


class TestJsonFormat:
    def test_seventeen_digit_floats(self):
        text = jsonio.dumps({"x": 0.1, "y": 2.0, "z": [1, True, None]})
        assert '"x": 0.10000000000000001' in text
        assert '"y": 2.0' in text
        assert '"z": [1, true, null]' in text

    def test_round_trips_through_json(self):
        vals = [0.1, 1e-17, 13.957728399277759, -0.6585659592776205]
        doc = json.loads(jsonio.dumps({"v": vals}))
        assert doc["v"] == vals

    @pytest.mark.parametrize("value", [np.int64(3), np.bool_(True)])
    def test_numpy_scalars_other_than_float_are_refused(self, value):
        # np.float64 is a float; an np.int64 would print as "3.0"
        with pytest.raises(TypeError, match="cannot serialize"):
            jsonio.dumps([value])


@pytest.fixture(scope="module")
def verify23():
    return verify_family(2, 3, n=512)


class TestVerifyBattery:
    def test_family23_all_pass(self, verify23):
        rows = verify23
        assert all(r["ok"] for r in rows), [r for r in rows if not r["ok"]]
        names = {r["check"] for r in rows}
        assert "l=0 counts" in names and "route agreement l=1" in names

    def test_family70_99_all_pass(self):
        # 198 half periods: the residual rows stay on [0, T) and pass
        rows = verify_family(70, 99, n=512)
        assert all(r["ok"] for r in rows), [r for r in rows if not r["ok"]]

    def test_antiperiodic_detail_states_ladder_row_and_residual(self, verify23):
        traj = family_trajectory(solve_parameter(2, 3), 512)
        fields = kernel_fields(traj)
        residual = kernel_residuals(fields, traj)[
            [f.id for f in fields].index(3)]
        detail = next(r["detail"] for r in verify23
                      if r["check"] == "antiperiodic l=0")
        assert detail == ("channel 2 row r=3 (neg, zero)=(1, 1) "
                          f"(expect (1, 1)), field 3 residual {residual:.3e}")

    def test_antiperiodic_row_needs_the_zero_mode_residual(self, monkeypatch):
        original = pipeline.kernel_residuals

        def field3_off(fields, traj):
            return [1e-3 if f.id == 3 else res
                    for f, res in zip(fields, original(fields, traj))]

        monkeypatch.setattr(pipeline, "kernel_residuals", field3_off)
        row = next(r for r in verify_family(2, 3, n=512)
                   if r["check"] == "antiperiodic l=0")
        assert not row["ok"]
        assert row["detail"].startswith("channel 2 row r=3 (neg, zero)=(1, 1) ")
        assert row["detail"].endswith("field 3 residual 1.000e-03")

    def test_no_second_eigen_solve(self, monkeypatch):
        # the antiperiodic row reads the ladder and the kernel residuals;
        # neither builds the antiperiodic system nor lists eigenvalues
        built, listed = [], []
        original = spectral.eigenvalues_in

        def antiperiodic(cls):
            built.append(cls)
            return cls("antiperiodic")

        def recorded(*args, **kwargs):
            listed.append(args[1:3])
            return original(*args, **kwargs)

        monkeypatch.setattr(BoundaryCondition, "antiperiodic",
                            classmethod(antiperiodic))
        monkeypatch.setattr(spectral, "eigenvalues_in", recorded)
        rows = verify_family(2, 3, n=512)
        assert all(r["ok"] for r in rows)
        assert built == [] and listed == []

    def test_frame_orthonormal_on_family59(self):
        # on 5/9 at n = 1024 the cubic interpolant between trajectory nodes
        # alone puts max |Gram - I| near 1e-8 at random times, above 1e-10
        row = next(r for r in verify_family(5, 9, n=1024)
                   if r["check"] == "frame orthonormal")
        assert row["ok"], row["detail"]

    def test_frame_row_reads_its_samples_at_once(self, monkeypatch):
        shapes = []
        at = Trajectory.at

        def recorded(self, t):
            shapes.append(np.shape(t))
            return at(self, t)

        monkeypatch.setattr(Trajectory, "at", recorded)
        verify_family(2, 3, n=512)
        assert shapes.count((24,)) == 1 and () not in shapes

    def test_refused_route_is_a_passed_row(self, monkeypatch):
        # a refused boundary form leaves no s2 or P2(1) row; the direct
        # rows are counted all the same, as compute_index counts them
        from otsuki.errors import EdwardsInapplicableError

        def refuse(l, traj, **kwargs):
            raise EdwardsInapplicableError("forced")

        counted = []

        def recorded(build, traj, rows):
            if build.func is fourier_block_system:
                counted.extend(build.args)
            return rows

        monkeypatch.setattr(pipeline, "boundary_form", refuse)
        monkeypatch.setattr(pipeline, "_ladders",
                            _changed_ladders(pipeline._ladders, recorded))
        rows = verify_family(2, 3, n=512)
        assert [r["check"] for r in rows] == [
            c for c in VERIFY_CHECKS if c not in ("s2 = -cos(p pi / q)",
                                                  "P2(1) = 0")]
        agreement = [r for r in rows if r["check"].startswith("route")]
        assert all(r["ok"] and r["detail"] == "edwards inapplicable: forced"
                   for r in agreement)
        assert counted == [1, 2]

    def test_route_disagreement_is_a_failed_row(self, monkeypatch):
        def wrong(build, traj, rows):
            return rows + (build.args == (2,), 0) \
                if build.func is fourier_block_system else rows

        monkeypatch.setattr(pipeline, "_ladders",
                            _changed_ladders(pipeline._ladders, wrong))
        rows = {r["check"]: r for r in verify_family(2, 3, n=512)}
        assert rows["route agreement l=1"]["ok"]
        assert not rows["route agreement l=2"]["ok"]
        assert rows["route agreement l=2"]["detail"].startswith("MISMATCH")

    def test_antiperiodic_row_fails_instead_of_stopping(self, miscounted):
        rows = verify_family(2, 3, n=1024)
        assert [r["check"] for r in rows] == VERIFY_CHECKS
        assert [r["check"] for r in rows if not r["ok"]] == \
            ["l=0 counts", "antiperiodic l=0"]

    def test_cli_prints_every_row_of_a_failed_battery(self, miscounted, capsys):
        assert run_cli(["verify", "--p", "2", "--q", "3"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("  ")[0].strip() for line in lines] == \
            VERIFY_CHECKS + ["overall"]
        failed = [line.split("  ")[0] for line in lines if "  FAIL" in line]
        assert failed == ["l=0 counts", "antiperiodic l=0", "overall"]


VERIFY_CHECKS = [
    "conservation", "endpoint phi(T)=-b", "endpoint theta(T)=Xi",
    "frame orthonormal", "kernel residuals", "l=0 counts", "antiperiodic l=0",
    "s2 = -cos(p pi / q)", "route agreement l=1", "P2(1) = 0",
    "route agreement l=2", "l=3 positive"]


@pytest.fixture
def miscounted(monkeypatch):
    """Channel 2 reads (0, 2) at omega = -1, the mis-count of 2378/3363,
    which moves mode 0 from (neg, zero) to (neg - 1, zero + 1)."""
    def counts(build, traj, rows):
        if build.func is not l0_channel_system or build.args != (2,):
            return rows
        rows = rows.copy()
        rows[traj.family.rotation.q] = 0, 2
        return rows

    monkeypatch.setattr(pipeline, "_ladders",
                        _changed_ladders(pipeline._ladders, counts))


class TestCli:
    def test_geodesic_json(self, capsys):
        assert run_cli(["geodesic", "--p", "2", "--q", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["p"] == 2 and doc["q"] == 3
        assert doc["Xi"] == pytest.approx(2 * np.pi * 2 / 3 / 2, rel=1e-10)

    def test_geodesic_b_override(self, capsys):
        assert run_cli(["geodesic", "--b", "-0.3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["b"] == -0.3 and "t0" not in doc

    @pytest.mark.parametrize("b", ["-1.57", "-1e-300"])
    def test_geodesic_b_near_either_end(self, capsys, b):
        assert run_cli(["geodesic", f"--b={b}", "--n", "64"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["b"] == float(b) and len(doc["trajectory"]["phi"]) == 65

    def test_geodesic_zero_intervals_exits_1(self, capsys):
        assert run_cli(["geodesic", "--p", "2", "--q", "3", "--n", "0"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: need n >= 64 grid intervals, got 0\n"

    def test_mesh_too_large_for_memory_exits_1(self, capsys, monkeypatch):
        def exhausted(family, n):
            raise MemoryError(f"Unable to allocate an array with shape ({n + 1},)")

        monkeypatch.setattr(cli, "sample_trajectory", exhausted)
        code = run_cli(["geodesic", "--p", "2", "--q", "3",
                        "--n", "100000000000"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: out of memory (Unable to allocate")
        assert err.endswith("use a smaller --n\n")

    def test_inadmissible_ratio_exits_1(self, capsys):
        assert run_cli(["index", "--p", "1", "--q", "2"]) == 1
        assert "1/2" in capsys.readouterr().err

    def test_unknown_flag_exits_1(self, capsys):
        assert run_cli(["geodesic", "--frobnicate"]) == 1

    def test_spectrum_subcommand(self, capsys):
        code = run_cli(["spectrum", "--p", "2", "--q", "3", "--l", "0",
                        "--bc", "antiperiodic", "--channel", "2",
                        "--n", "512", "--cutoff", "0.5"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc[0]["bc"] == "antiperiodic"
        assert doc[0]["neg"] == 1 and doc[0]["zero"] == 1

    @pytest.mark.parametrize("cutoff", ["nan", "inf", "-inf"])
    def test_spectrum_non_finite_cutoff_exits_1(self, capsys, cutoff):
        code = run_cli(["spectrum", "--p", "2", "--q", "3", "--l", "0",
                        "--n", "256", f"--cutoff={cutoff}"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: cutoff must be finite, got {cutoff}\n"

    @pytest.mark.parametrize("cutoff", ["58200", "1e5", "1e160"])
    def test_spectrum_cutoff_above_the_mesh_exits_1(self, capsys,
                                                    monkeypatch, cutoff):
        # the mesh-256 Dirichlet l = 1 operator of 2/3 has its top
        # eigenvalue at 58150.5 and its Gershgorin upper bound at 58338.1:
        # above 58200 its count is its dimension, above the bound nothing
        # needs a sweep; either way nothing is counted on two meshes or
        # located
        def unwanted(*args, **kwargs):
            raise AssertionError("classified or located a refused cutoff")

        monkeypatch.setattr(spectral, "spectrum_counts", unwanted)
        monkeypatch.setattr(spectral, "_extrapolated", unwanted)
        code = run_cli(["spectrum", "--p", "2", "--q", "3", "--l", "1",
                        "--bc", "dirichlet", "--n", "256",
                        f"--cutoff={cutoff}"])
        out, err = capsys.readouterr()
        top = float(cutoff) + spectral.ZONE
        assert code == 1 and out == ""
        assert err == (f"error: cutoff {float(cutoff):g} leaves no eigenvalue "
                       f"of the mesh-256 operator above {top:g}; a listing "
                       "that high needs a finer mesh or a lower cutoff\n")

    def test_twisted_spectrum_needs_omega(self, capsys):
        code = run_cli(["spectrum", "--p", "2", "--q", "3", "--l", "1",
                        "--bc", "twisted", "--n", "512"])
        assert code == 1

    @pytest.mark.parametrize("index", ["99", "6", "-1"])
    def test_omega_index_outside_ladder_exits_1(self, capsys, index):
        code = run_cli(["spectrum", "--p", "2", "--q", "3", "--l", "1",
                        "--bc", "twisted", f"--omega-index={index}",
                        "--n", "512"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"error: --omega-index must lie in [0, 6), got {index}\n")

    def test_omega_index_without_twist_exits_1(self, capsys):
        code = run_cli(["spectrum", "--p", "2", "--q", "3", "--l", "1",
                        "--bc", "periodic", "--omega-index", "1",
                        "--n", "512"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "error: --omega-index applies only to --bc twisted\n")

    def test_channel_beyond_l0_exits_1(self, capsys):
        code = run_cli(["spectrum", "--p", "2", "--q", "3", "--l", "1",
                        "--bc", "antiperiodic", "--channel", "1",
                        "--n", "512"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "error: --channel selects an l = 0 channel; l = 1 has none\n")

    def test_negative_l_exits_1_naming_it(self, capsys):
        code = run_cli(["spectrum", "--p", "2", "--q", "3", "--l", "-1",
                        "--n", "256"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "error: the coupled block needs l >= 1, got l = -1; "
            "l = 0 decouples\n")

    def test_twisted_spectrum_echoes_its_index(self, capsys):
        code = run_cli(["spectrum", "--p", "2", "--q", "3", "--l", "1",
                        "--bc", "twisted", "--omega-index", "5",
                        "--n", "256"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert [d["omega_index"] for d in doc] == [5]

    def test_periodic_spectrum_is_the_union_of_the_twists(self, capsys):
        # the closed-length periodic listing merges the 2q twisted listings
        # on [0, T] at the same mesh, bit for bit
        common = ["spectrum", "--p", "2", "--q", "3", "--l", "1", "--n", "256"]
        assert run_cli(common + ["--bc", "periodic"]) == 0
        (periodic,) = json.loads(capsys.readouterr().out)
        twists = []
        for r in range(6):
            assert run_cli(common + ["--bc", "twisted",
                                     f"--omega-index={r}"]) == 0
            twists += json.loads(capsys.readouterr().out)
        assert periodic == {
            "l": 1, "bc": "periodic", "omega_index": None, "n": 256,
            "cutoff": 1.0,
            "eigenvalues": sorted(v for t in twists for v in t["eigenvalues"]),
            "neg": sum(t["neg"] for t in twists),
            "zero": sum(t["zero"] for t in twists)}

    def test_periodic_spectrum_needs_a_rotation_number(self, capsys):
        # --bc periodic is the default; a bare --b has no closed length
        assert run_cli(["spectrum", "--b", "-0.5", "--l", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "--p/--q" in err and "interval" not in err

    def test_edwards_subcommand(self, capsys, tmp_path):
        out = tmp_path / "edwards.json"
        code = run_cli(["edwards", "--p", "2", "--q", "3", "--l", "2",
                        "--n", "512", "--json-out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["l"] == 2
        assert doc["zero_total"] == 1
        assert len(doc["a"]) == 4

    def test_index_uses_cache(self, capsys, tmp_path):
        args = ["index", "--p", "2", "--q", "3", "--method", "direct",
                "--n", "512", "--cache-dir", str(tmp_path)]
        assert run_cli(args) == 0
        miss = capsys.readouterr().out
        first = json.loads(miss)
        assert first["ind"] == 31 and first["nul"] == 9
        assert run_cli(args) == 0
        hit = capsys.readouterr().out
        second = json.loads(hit)
        assert second["timestamp"] == first["timestamp"]   # served from cache
        assert hit == miss and second["bounds_check"]["nul_ok"] is True

    def test_unusable_cache_dir_exits_1_before_computing(self, capsys,
                                                         tmp_path,
                                                         monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("computed with an unusable cache dir")

        monkeypatch.setattr(cli, "compute_index", never)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run_cli(["index", "--p", "2", "--q", "3", "--n", "512",
                        "--cache-dir", str(blocker)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_failed_cache_store_keeps_report(self, capsys, tmp_path,
                                             monkeypatch, report23):
        def full(report, cache_dir=None):
            raise OSError("no space left on device")

        monkeypatch.setattr(cli, "compute_index", lambda *a, **k: report23)
        monkeypatch.setattr(cli, "cache_store", full)
        assert run_cli(["index", "--p", "2", "--q", "3", "--n", "512",
                        "--cache-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["ind"] == 31
        assert captured.err == "error: no space left on device\n"

    def test_cache_keyed_on_method(self, capsys, tmp_path):
        args = ["index", "--p", "2", "--q", "3", "--n", "512",
                "--cache-dir", str(tmp_path)]
        assert run_cli(args + ["--method", "direct"]) == 0
        capsys.readouterr()
        assert run_cli(args + ["--method", "edwards"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "edwards"
        assert {r["method"] for r in doc["per_mode"][1:]} == {"edwards"}

    def test_sweep_survives_failing_family(self, capsys, tmp_path,
                                           monkeypatch, report23):
        def flaky(p, q, **kwargs):
            if (p, q) == (3, 5):
                raise AmbiguousClassificationError("forced")
            return report23

        monkeypatch.setattr(pipeline, "compute_index", flaky)
        listing = tmp_path / "families.txt"
        listing.write_text("3/5\n2 3\n")
        code = run_cli(["sweep", "--input", str(listing)])
        assert code == 2
        docs = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()
                if ln.strip()]
        assert [(d["p"], d["q"]) for d in docs] == [(2, 3), (3, 5)]
        assert docs[0]["ind"] == 31 and docs[0]["bounds_check"]["nul_ok"]
        assert docs[1]["error"] == {"type": "AmbiguousClassificationError",
                                    "message": "forced"}

    def test_sweep_run_wide_error_exits_1(self, capsys, tmp_path,
                                          monkeypatch):
        attempted = []

        def counted(p, q, **kwargs):
            attempted.append((p, q))
            return compute_index(p, q, **kwargs)

        monkeypatch.setattr(pipeline, "compute_index", counted)
        listing = tmp_path / "families.txt"
        listing.write_text("2/3\n3/5\n")
        code = run_cli(["sweep", "--input", str(listing), "--n", "100"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and "mesh too coarse" in err
        assert attempted == [(2, 3)]

    @pytest.mark.parametrize("command", [
        ["index", "--p", "2", "--q", "3"], ["verify", "--p", "2", "--q", "3"],
        ["spectrum", "--p", "2", "--q", "3", "--l", "0"],
        ["edwards", "--p", "2", "--q", "3", "--l", "1"], ["sweep"]],
        ids=lambda c: c[0])
    def test_zero_mesh_exits_1(self, capsys, tmp_path, command):
        if command == ["sweep"]:
            listing = tmp_path / "families.txt"
            listing.write_text("2/3\n3/5\n")
            command = ["sweep", "--input", str(listing)]
        elif command[0] == "index":
            command = command + ["--cache-dir", str(tmp_path / "cache")]
        assert run_cli(command + ["--n", "0"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: mesh too coarse: n = 0 < 128\n"

    @pytest.mark.parametrize("command", [
        ["index", "--p", "2", "--q", "3", "--no-cache"],
        ["verify", "--p", "2", "--q", "3"],
        ["spectrum", "--p", "2", "--q", "3", "--l", "0"],
        ["edwards", "--p", "2", "--q", "3", "--l", "1"],
        ["geodesic", "--p", "2", "--q", "3"]],
        ids=lambda c: c[0])
    def test_mesh_beyond_the_bound_exits_1(self, capsys, command):
        # refused before the nodes of mesh n are allocated, where a mesh
        # this fine would exhaust memory; n = 2**20 itself still runs
        # (test_family_trajectory_nodes)
        assert run_cli(command + ["--n", "1048577"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: mesh too large: n = 1048577 > 2**20\n"

    @pytest.mark.parametrize("line", ["2 3 4", "a b", "2", "1/2"])
    def test_sweep_bad_line_exits_1(self, capsys, tmp_path, line):
        listing = tmp_path / "families.txt"
        listing.write_text(f"2/3\n{line}\n")
        assert run_cli(["sweep", "--input", str(listing)]) == 1
        err = capsys.readouterr().err
        assert "families.txt:2" in err and repr(line) in err

    def test_sweep_undecodable_input_exits_1(self, capsys, tmp_path):
        listing = tmp_path / "families.txt"
        listing.write_bytes(b"2 3\n\xff 5 8\n")
        assert run_cli(["sweep", "--input", str(listing)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith(f"error: {listing}: ")

    def test_sweep_jsonl(self, capsys, tmp_path):
        listing = tmp_path / "families.txt"
        listing.write_text("# one family\n2/3\n")
        code = run_cli(["sweep", "--input", str(listing), "--method", "direct",
                        "--n", "512"])
        assert code == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert (doc["p"], doc["q"], doc["ind"]) == (2, 3, 31)


ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def _package_env():
    """The environment with the package's source first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    return env


def test_module_entry_point_runs_without_warnings():
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "otsuki.cli",
         "--help"], env=_package_env(), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage: otsuki" in proc.stdout


def test_closed_stdout_pipe_exits_0(tmp_path):
    # the reader stops after one line of a trajectory far larger than the
    # pipe's buffer; a --json-out that cannot be written still exits 1.
    # stdout is buffered, as by default: unbuffered (PYTHONUNBUFFERED), a
    # write cut short by the closed pipe returns its partial count and
    # raises nothing
    env = _package_env()
    env.pop("PYTHONUNBUFFERED", None)
    cmd = [sys.executable, "-m", "otsuki.cli", "geodesic", "--p", "2",
           "--q", "3", "--n", "20000"]
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().strip() == b"{"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0, err
    assert err == b""
    unwritable = str(tmp_path / "missing" / "out.json")
    proc = subprocess.run(cmd + ["--json-out", unwritable], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")


@pytest.mark.parametrize("script,args", [
    ("headline_family.py", ["--n", "100"]),
    ("headline_family.py", ["--p", "3", "--q", "4"]),
    ("sweep_near_clifford.py", ["--n", "100"]),
    ("headline_family.py", ["--n", "abc"]),
    ("sweep_near_clifford.py", ["--max-q", "x"]),
])
def test_scripts_reject_bad_input_without_traceback(script, args):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        env=_package_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def _sweep_script():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "sweep_near_clifford", os.path.join(ROOT, "scripts",
                                            "sweep_near_clifford.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_script_summary_line(monkeypatch, capsys):
    # one closing line: families run, raised by error type, seconds
    script = _sweep_script()
    errors = ["RouteDisagreementError", "AmbiguousClassificationError",
              "RouteDisagreementError"]

    def reports(pairs, method, n):
        assert (method, n) == ("both", 512)
        yield report_document(compute_index(2, 3, method, n=n))
        for (p, q), kind in zip(pairs, errors):
            yield {"p": p, "q": q, "error": {"type": kind, "message": "x"}}

    monkeypatch.setattr(script, "iter_reports", reports)
    monkeypatch.setattr(sys, "argv", ["sweep_near_clifford.py", "--n", "512"])
    assert script.main() == 2
    last = capsys.readouterr().out.splitlines()[-1]
    head, seconds = last.rsplit(", ", 1)
    assert head == ("summary: 4 families, 3 raised (RouteDisagreementError 2,"
                    " AmbiguousClassificationError 1)")
    assert seconds.endswith(" s") and float(seconds[:-2]) >= 0.0
    errors.clear()
    assert script.main() == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "summary: 1 families, 0 raised, ")
