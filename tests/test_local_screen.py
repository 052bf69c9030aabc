"""The sampling path's genericity screen against the full one.

``sample_poisson``, ``sample_pinned`` and ``solve_fixed_point`` screen only
the comparisons the fixed-point solve makes: each germ's distances over its
near-list closure when the set is sampled, and the whole rows the operator
recomputes while it solves.  Every tie either stage reports must be one the
full screen (``check_condition_d``) reports, a set the full screen passes
must solve exactly as before, and a set only the full screen rejects must
still solve to the oracles' radii.  The list width ``geometry._NEAR`` is
forced to 0, 1, 2 and 32 so that whole rows carry most of the comparisons;
a set of at most two widths lists whole rows, and its screen is the full
one.
"""

import itertools
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lilyseg import (
    ConditionDViolation,
    MarkedPoint,
    MarkedPointSet,
    Provenance,
    Rectangle,
    TwoAtomMarks,
    analyze,
    check_condition_d,
    fold_direction,
    sample_pinned,
    sample_poisson,
    solve_chain,
    solve_fixed_point,
    solve_greedy_oracle,
    verify_gmhs,
)
from lilyseg import geometry, pointprocess, solver
from lilyseg.errors import NonConvergence
from lilyseg.geometry import PARALLEL_TOL, PairTable, shared_pair_table
from lilyseg.pointprocess import TIE_TOL, _condition_d_from_table, _local_condition_d_from_table, _near_ties

from conftest import planted_pair


def reference_fixed_point(table, model):
    """The fixed-point loop as it was before the solve screened its rows."""
    n = table.n
    if n == 0:
        return np.zeros(0), 0
    f = np.zeros(n)
    max_steps = 2 * n + 4
    prev_even = f
    prev_odd = None
    for step in range(1, max_steps + 1):
        f_next = table.operator(f, model)
        if np.array_equal(f_next, f):
            return f, step
        if step % 2 == 1:
            if prev_odd is not None and np.any(f_next > prev_odd):
                raise NonConvergence("odd iterates must be non-increasing")
            prev_odd = f_next
        else:
            if np.any(f_next < prev_even):
                raise NonConvergence("even iterates must be non-decreasing")
            prev_even = f_next
        if prev_odd is not None and np.any(prev_even > prev_odd):
            raise NonConvergence("even iterate exceeded odd iterate")
        f = f_next
    raise NonConvergence("no fixed point")


def unscreened_oracle_table(point_set):
    """The oracle solvers' table, dense arrays built, without the full screen."""
    table = shared_pair_table(point_set)
    table.d
    return table


@st.composite
def tie_prone_lists(draw):
    """0-40 germs: uniform, two-atom, near-parallel, collinear runs, or
    uniform germs with tied pairs planted far from some of them."""
    n = draw(st.integers(min_value=0, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    style = draw(st.sampled_from(["uniform", "two_atom", "near_parallel", "collinear", "planted"]))
    if style == "collinear":
        germs, thetas = [], []
        while len(germs) < n:
            x0, y0, theta = rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, math.pi)
            for t in rng.uniform(-6, 6, rng.integers(1, 6)):
                germs.append((x0 + t * math.cos(theta), y0 + t * math.sin(theta)))
                thetas.append(theta)
        germs, thetas = germs[:n], np.array(thetas[:n])
    else:
        germs = [tuple(xy) for xy in rng.uniform(0.0, 10.0, (n, 2))]
        if style in ("uniform", "planted"):
            thetas = rng.uniform(0.0, math.pi, n)
        else:
            marks = TwoAtomMarks(rng.uniform(0, math.pi), rng.uniform(0, math.pi), 0.5)
            thetas = marks.sample(rng, n)
            if style == "near_parallel":
                nudge = rng.choice([-2.0, -1.1, -0.9, 0.0, 0.9, 1.1, 2.0], n) * PARALLEL_TOL
                thetas = np.array([fold_direction(t) for t in thetas + nudge])
    points = {}
    for (x, y), t in zip(germs, thetas):
        points.setdefault((float(x), float(y)), MarkedPoint(float(x), float(y), float(t)))
    points = list(points.values())
    if style == "planted" and points:
        for _ in range(int(rng.integers(1, 4))):
            g = points[int(rng.integers(len(points)))]
            legs = [(rng.uniform(8.0, 30.0) * rng.choice([-1.0, 1.0]), rng.uniform(0.3, math.pi - 0.3)) for _ in "ab"]
            points += planted_pair(g, rng.uniform(8.0, 30.0), legs)
    return points


_fresh = itertools.count()


def screened(points, width, near_first=False):
    """A fresh set, its table at list width ``width``, local report, then full report.

    Each set gets its own provenance, so it equals no set of an earlier
    example and its table is built here, at this width.  With
    ``near_first`` the near list is built before the local screen runs, as
    ``verify_gmhs`` on a user set does before ``solve_fixed_point``: the
    screen then computes no row block, and its report equals the one a
    fresh table gives.  On a set of at most two widths, whose list holds
    whole rows, the local report is the full one.
    """
    with mock.patch.object(geometry, "_NEAR", width):
        mps = MarkedPointSet(tuple(points), Provenance(next(_fresh), 1.0, Rectangle.square(1.0)))
        table = shared_pair_table(mps)
        if near_first:
            fresh = _local_condition_d_from_table(PairTable(mps.points))
            table.near
            with mock.patch.object(PairTable, "_block", side_effect=AssertionError("row block computed")):
                local = _local_condition_d_from_table(table)
            assert local == fresh
        else:
            local = _local_condition_d_from_table(table)
    full = _condition_d_from_table(table, TIE_TOL)
    if len(mps) <= 2 * width:
        assert local == full
    return mps, table, local, full


@given(tie_prone_lists(), st.sampled_from([0, 1, 2, 32]), st.booleans())
@settings(max_examples=250, deadline=None)
def test_local_screen_is_a_sound_part_of_the_full_one(points, width, near_first):
    mps, table, local, full = screened(points, width, near_first)
    assert set(local.near_ties) <= set(full.near_ties)
    assert local.collinear_pairs == full.collinear_pairs
    whole, blocked = {}, {}
    _near_ties(table.near, TIE_TOL, whole)
    with mock.patch.object(pointprocess, "_BLOCK_PAIRS", 1):  # one germ per block
        _near_ties(table.near, TIE_TOL, blocked)
    assert blocked == whole and set(whole.values()) <= set(local.near_ties)
    if full.passes:
        assert local.passes
    for model in (1, 2):
        if full.passes:
            solution = solve_fixed_point(mps, model)
            radii, steps = reference_fixed_point(table, model)
            assert solution.radii.to_array().tobytes() == radii.tobytes()
            assert solution.iterations == steps
        elif local.passes:
            try:
                solution = solve_fixed_point(mps, model)
            except ConditionDViolation as exc:
                assert exc.report.near_ties and set(exc.report.near_ties) <= set(full.near_ties)
                continue
            radii = solution.radii.to_array()
            with mock.patch.object(solver, "_oracle_table", unscreened_oracle_table):
                assert np.array_equal(solve_chain(mps, model)[0].radii.to_array(), radii)
                assert np.array_equal(solve_greedy_oracle(mps, model).radii.to_array(), radii)
            assert verify_gmhs(mps, solution.radii, model).passes


def planted_answer_tie():
    """f3 plus a vertical germ at (-4, 10): d[0, 3] and d[0, 1] are 4 up to
    rounding, and 4 is germ 0's radius in both models."""
    return MarkedPointSet(
        (
            MarkedPoint(0.0, 0.0, 0.0),
            MarkedPoint(4.0, 3.0, math.pi / 2),
            MarkedPoint(9.0, 3.0, math.pi / 4),
            MarkedPoint(-4.0, 10.0, math.pi / 2),
        )
    )


@pytest.mark.parametrize("model", [1, 2])
def test_tie_only_a_whole_row_compares_stops_the_solve(model):
    mps, table, local, full = screened(planted_answer_tie().points, 0)
    assert local.passes
    assert [(a, b) for a, b, _ in full.near_ties] == [((0, 1), (0, 3))]
    with mock.patch.object(geometry, "_NEAR", 0), pytest.raises(ConditionDViolation) as exc:
        solve_fixed_point(mps, model)
    assert exc.value.report.near_ties
    assert set(exc.value.report.near_ties) <= set(full.near_ties)


def test_tie_in_the_closure_fails_sampling_screen():
    # At the default width four germs list each other: the closure is the whole set.
    mps, _, local, full = screened(planted_answer_tie().points, geometry._NEAR)
    assert local == full and not local.passes


def test_far_planted_tie_passes_the_local_screen(far_tie):
    mps, _, local, full = screened(far_tie.points, geometry._NEAR)
    n = len(mps) - 2
    assert local.passes
    assert [(a, b) for a, b, _ in full.near_ties] == [((0, n), (0, n + 1))]
    for model in (1, 2):
        solution = solve_fixed_point(mps, model)
        assert verify_gmhs(mps, solution.radii, model).passes


def test_small_sampled_set_computes_no_row_after_sampling():
    # Sets of at most 64 germs list whole rows: once sampled and screened,
    # no solve, verification or analysis recomputes a row.
    sets = [sample_poisson(1.0, Rectangle.square(side), seed) for side in (5.0, 6.0, 7.0) for seed in range(4)]
    sets += [sample_pinned(1.0, 41, seed) for seed in range(4)]
    for mps in sets:
        assert 0 < len(mps) <= 2 * geometry._NEAR
        with mock.patch.object(PairTable, "_block", side_effect=AssertionError("row block computed")):
            for model in (1, 2):
                solution = solve_fixed_point(mps, model)
                assert verify_gmhs(mps, solution.radii, model).passes
                analyze(solution)


class TestTableOnItsSet:
    @staticmethod
    def fresh_set():
        """A 6x6 sample rebuilt as a new set, whose table is not built yet."""
        mps = sample_poisson(1.0, Rectangle.square(6.0), seed=3)
        return MarkedPointSet(mps.points, mps.provenance)

    def test_set_builds_its_table_once(self):
        mps = self.fresh_set()
        with mock.patch.object(geometry, "PairTable", wraps=PairTable) as build:
            table = shared_pair_table(mps)
            for model in (1, 2):
                solution = solve_fixed_point(mps, model)
                assert verify_gmhs(mps, solution.radii, model).passes
                solve_chain(mps, model)
                solve_greedy_oracle(mps, model)
            assert shared_pair_table(mps) is table
        assert build.call_count == 1

    def test_equal_set_gets_its_own_table(self):
        mps = self.fresh_set()
        table = shared_pair_table(mps)
        copy = type(mps)(mps.points, mps.provenance)
        assert copy == mps and copy is not mps
        assert shared_pair_table(copy) is not table
        assert shared_pair_table(mps) is table

    def test_pickle_carries_no_table(self):
        mps = self.fresh_set()
        before = pickle.dumps(mps)
        shared_pair_table(mps).d
        solve_fixed_point(mps, 1)
        assert pickle.dumps(mps) == before
        back = pickle.loads(before)
        assert back == mps and "_pair_table" not in vars(back)
