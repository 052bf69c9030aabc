"""The fixed-point solve's genericity screen against the full one.

Sampling does not screen.  ``solve_fixed_point`` iterates unscreened and
then screens the comparisons one operator application makes at its answer:
over each germ's near list, and over the whole rows the operator
recomputes.  Every tie it reports must be one the full screen
(``check_condition_d``) reports, a set the full screen passes must solve
exactly as an unscreened loop does, and a set only the full screen rejects
must either raise or solve to the oracles' radii.  The list width
``geometry._NEAR`` is forced to 0, 1, 2 and 32 so that whole rows carry
most of the comparisons; a set of at most two widths lists whole rows.
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
    fold_direction,
    sample_pinned,
    sample_poisson,
    solve_chain,
    solve_fixed_point,
    solve_greedy_oracle,
    verify_gmhs,
)
from lilyseg import geometry, solver
from lilyseg.errors import NonConvergence
from lilyseg.geometry import PARALLEL_TOL, PairTable, shared_pair_table
from lilyseg.pointprocess import TIE_TOL

from conftest import planted_pair


def reference_fixed_point(table, model):
    """The fixed-point loop with no screen."""
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


def screened(points, width):
    """A fresh set, its table with the near list built at width ``width``, and the full report.

    Each set gets its own provenance, so it equals no set of an earlier
    example and its table is built here, at this width.
    """
    with mock.patch.object(geometry, "_NEAR", width):
        mps = MarkedPointSet(tuple(points), Provenance(next(_fresh), 1.0, Rectangle.square(1.0)))
        table = shared_pair_table(mps)
        table.near
    return mps, table, table.condition_d(TIE_TOL)


@given(tie_prone_lists(), st.sampled_from([0, 1, 2, 32]))
@settings(max_examples=250, deadline=None)
def test_local_screen_is_a_sound_part_of_the_full_one(points, width):
    mps, table, full = screened(points, width)
    for model in (1, 2):
        if full.passes:
            solution = solve_fixed_point(mps, model)
            radii, steps = reference_fixed_point(table, model)
            assert solution.radii.to_array().tobytes() == radii.tobytes()
            assert solution.iterations == steps
            continue
        try:
            solution = solve_fixed_point(mps, model)
        except ConditionDViolation as exc:
            assert not exc.report.passes
            assert set(exc.report.near_ties) <= set(full.near_ties)
            assert set(exc.report.collinear_pairs) <= set(full.collinear_pairs)
            continue
        assert verify_gmhs(mps, solution.radii, model).passes
        radii = solution.radii.to_array()
        with mock.patch.object(solver, "_oracle_table", unscreened_oracle_table):
            assert np.array_equal(solve_chain(mps, model)[0].radii.to_array(), radii)
            greedy = solve_greedy_oracle(mps, model)
        # Event times that tie exactly can misorder the sweep; its radii then fail verification.
        if verify_gmhs(mps, greedy.radii, model).passes:
            assert np.array_equal(greedy.radii.to_array(), radii)


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
    mps, table, full = screened(planted_answer_tie().points, 0)
    assert [(a, b) for a, b, _ in full.near_ties] == [((0, 1), (0, 3))]
    with mock.patch.object(geometry, "_NEAR", 0), pytest.raises(ConditionDViolation) as exc:
        solve_fixed_point(mps, model)
    assert exc.value.report.near_ties
    assert set(exc.value.report.near_ties) <= set(full.near_ties)


def test_tie_at_the_answer_stops_the_solve():
    # At the default width four germs list each other: the list is the whole row.
    mps, _, full = screened(planted_answer_tie().points, geometry._NEAR)
    for model in (1, 2):
        with pytest.raises(ConditionDViolation) as exc:
            solve_fixed_point(mps, model)
        assert exc.value.report.near_ties
        assert set(exc.value.report.near_ties) <= set(full.near_ties)


def test_answer_tied_with_the_list_bound_stops_the_solve():
    # Mirror-symmetric verticals about a horizontal germ 0: at width 1 its
    # list holds one of them, and its Model-2 answer, 4, ties with bound[0],
    # the later arrival of the other.  No Model-1 comparison meets a tie.
    points = (MarkedPoint(0, 0, 0.0), MarkedPoint(3, 4, math.pi / 2), MarkedPoint(-3, 4, math.pi / 2))
    mps, table, full = screened(points, 1)
    assert table.near.bound[0] == 4.0
    solution = solve_fixed_point(mps, 1)
    assert solution.radii.values == (math.inf, 4.0, 4.0)
    assert verify_gmhs(mps, solution.radii, 1).passes
    with pytest.raises(ConditionDViolation) as exc:
        solve_fixed_point(mps, 2)
    assert exc.value.report.near_ties
    assert set(exc.value.report.near_ties) <= set(full.near_ties)


def test_answer_within_a_tie_of_the_list_bound_stops_the_solve():
    # As above, with the second vertical raised by 1e-12: bound[0] is then a
    # near tie of germ 0's Model-2 answer, 4, without being equal to it, so
    # only the tie tolerance sends row 0 to the whole-row screen.
    points = (MarkedPoint(0, 0, 0.0), MarkedPoint(3, 4, math.pi / 2), MarkedPoint(-3, 4 + 1e-12, math.pi / 2))
    mps, table, full = screened(points, 1)
    bound = table.near.bound[0]
    assert bound != 4.0 and abs(bound - 4.0) < TIE_TOL * bound
    with pytest.raises(ConditionDViolation) as exc:
        solve_fixed_point(mps, 2)
    assert exc.value.report.near_ties
    assert set(exc.value.report.near_ties) <= set(full.near_ties)


def test_far_planted_tie_passes_the_local_screen(far_tie):
    mps, _, full = screened(far_tie.points, geometry._NEAR)
    n = len(mps) - 2
    assert [(a, b) for a, b, _ in full.near_ties] == [((0, n), (0, n + 1))]
    for model in (1, 2):
        solution = solve_fixed_point(mps, model)
        assert verify_gmhs(mps, solution.radii, model).passes


def test_sampling_builds_no_pair_table():
    with mock.patch.object(PairTable, "_block", side_effect=AssertionError("row block computed")):
        sets = [sample_poisson(1.0, Rectangle.square(side), seed) for side in (5.0, 12.0) for seed in range(3)]
        sets += [sample_pinned(1.0, 41, seed) for seed in range(3)]
        sets += [sample_pinned(1.0, 100, 1)]
    assert max(map(len, sets)) > 2 * geometry._NEAR
    for mps in sets:
        assert "_pair_table" not in vars(mps)


def test_solve_screens_one_operator_application():
    # With no near list every row is recomputed whole, at every step; only
    # the verification's application, at the answer, is screened.
    mps = sample_poisson(1.0, Rectangle.square(9.0), seed=5)
    seen = []

    def record(table, model, slab, radii):
        seen.append((slab.rows.copy(), slab.cols.shape[1], radii.copy()))
        return screen_rows(table, model, slab, radii)

    screen_rows = PairTable._screen_rows
    for model in (1, 2):
        seen.clear()
        with mock.patch.object(geometry, "_NEAR", 0), mock.patch.object(PairTable, "_screen_rows", record):
            fresh = MarkedPointSet(mps.points, mps.provenance)
            solution = solve_fixed_point(fresh, model)
        assert solution.iterations > 2
        assert all(np.array_equal(radii, solution.radii.to_array()) for _, _, radii in seen)
        # Each row once: whole, or over the (empty) list when no radius reaches it.
        assert np.sort(np.concatenate([rows for rows, _, _ in seen])).tolist() == list(range(len(mps)))
        assert [width for _, width, _ in seen].count(0) == 1


def test_small_sampled_set_computes_no_row_after_sampling():
    # Sets of at most 64 germs list whole rows: once the list is built, no
    # solve, verification or analysis recomputes a row.
    sets = [sample_poisson(1.0, Rectangle.square(side), seed) for side in (5.0, 6.0, 7.0) for seed in range(4)]
    sets += [sample_pinned(1.0, 41, seed) for seed in range(4)]
    for mps in sets:
        assert 0 < len(mps) <= 2 * geometry._NEAR
        shared_pair_table(mps).near
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
