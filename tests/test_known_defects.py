"""The defect ledger: one strict xfail per known mis-count.

Each test asserts the right answer, as far as the item that should fix it
states it (ROADMAP items 1, 27, 30 and 32), never today's wrong value.
Each is marked ``xfail(strict=True)`` with that item, so a change that
fixes one fails here until its marker is removed.  A family that raises
is an expected failure only through a ``NumericalError``; any other
exception is a failure of its own.  The ``compute_index`` cases run
through the boundary-solution helper process, the raising ones included.
"""

from functools import partial

import numpy as np
import pytest

from otsuki.errors import AmbiguousClassificationError, NumericalError
from otsuki.geodesic import solve_parameter
from otsuki.pipeline import compute_index, family_trajectory
from otsuki.spectral import ladder_counts
from otsuki.surface import fourier_block_system


def known_defect(item):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP {item}",
                             raises=(AssertionError, NumericalError))


@known_defect("item 30: the omega = -1 row of mode-0 channel 2 reads "
              "(0, 2) where (1, 1) is right")
def test_2378_3363_edwards():
    report = compute_index(2378, 3363, method="edwards", n=512)
    assert (report.ind, report.nul, report.spectral_index) == (42221, 9, 16236)


@known_defect("items 30 and 1: mode 0's omega = -1 row, and zero modes "
              "claimed at l = 2, r = 1..5")
def test_13860_19601_edwards():
    report = compute_index(13860, 19601, method="edwards", n=1024)
    assert (report.ind, report.nul) == (246105, 9)


@known_defect("item 32: the l = 2 twists r = 1..7 next to the kernel twist "
              "r = 0 read as zero")
def test_2378_3363_l2_direct_ladder():
    traj = family_trajectory(solve_parameter(2378, 3363), 512)
    rows = ladder_counts(partial(fourier_block_system, 2), traj, 512, 0.0)
    assert np.flatnonzero(rows[:, 1]).tolist() == [0]


@known_defect("item 32: the direct route reads the l = 2 twists r = 1 and "
              "1153 as zero, so the routes disagree")
def test_408_577_both():
    report = compute_index(408, 577, method="both", n=512)
    rows = report.per_mode[2].per_omega
    assert np.flatnonzero(rows[:, 1]).tolist() == [0]


@known_defect("item 32: the l = 2 twist r = 1 reads as zero, so nul is 13, "
              "silently")
def test_10_19_direct():
    try:
        report = compute_index(10, 19, method="direct", n=1024)
    except AmbiguousClassificationError:
        return                          # loud is right too
    assert report.nul == 9


@known_defect("items 27 and 32: zone population changed under mesh "
              "doubling at l = 1, r = 12")
def test_30_59_both():
    assert compute_index(30, 59, method="both", n=1024).nul == 9
