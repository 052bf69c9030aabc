import math
import os
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lilyseg import (
    IdenticalGerms,
    InputTooLarge,
    InvalidInput,
    MarkedPoint,
    MarkedPointSet,
    NegativeRadius,
    PairKind,
    Rectangle,
    analyze,
    fold_direction,
    pair_geometry,
    realize_segment,
    relative_interiors_intersect,
    sample_poisson,
    segments_touch,
    solve_chain,
    solve_fixed_point,
    solve_greedy_oracle,
    verify_gmhs,
)
from lilyseg import geometry
from lilyseg.geometry import CONTACT_TOL, PARALLEL_TOL, PairTable, _key_pairs, shared_pair_table
from lilyseg.pointprocess import check_condition_d

from conftest import near_reference, planted_points, table_rows

HALF_PI = math.pi / 2


def mp(x, y, theta):
    return MarkedPoint(x, y, theta)


class TestPairGeometry:
    def test_axis_aligned_transversal(self):
        pg = pair_geometry(mp(0, 0, 0.0), mp(3, 4, HALF_PI))
        assert pg.kind is PairKind.TRANSVERSAL
        assert pg.d_ab == pytest.approx(3.0, rel=1e-12)
        assert pg.d_ba == pytest.approx(4.0, rel=1e-12)
        assert pg.m == pytest.approx(4.0, rel=1e-12)
        assert pg.intersection == pytest.approx((3.0, 0.0), abs=1e-12)

    def test_disjoint_parallel(self):
        pg = pair_geometry(mp(0, 0, 0.0), mp(0, 1, 0.0))
        assert pg.kind is PairKind.DISJOINT_PARALLEL
        assert pg.d_ab == math.inf and pg.d_ba == math.inf
        assert pg.intersection is None

    def test_collinear_midpoint_rule(self):
        pg = pair_geometry(mp(0, 0, 0.0), mp(2, 0, 0.0))
        assert pg.kind is PairKind.COLLINEAR_PARALLEL
        assert pg.d_ab == 1.0 == pg.d_ba
        assert pg.intersection == (1.0, 0.0)

    def test_identical_germs_raise(self):
        with pytest.raises(IdenticalGerms):
            pair_geometry(mp(1, 2, 0.0), mp(1, 2, 1.0))

    def test_near_parallel_treated_as_parallel(self):
        pg = pair_geometry(mp(0, 0, 0.1), mp(5, 5, 0.1 + 1e-13))
        assert pg.kind is PairKind.DISJOINT_PARALLEL


coords = st.floats(min_value=-100.0, max_value=100.0)
angles = st.floats(min_value=0.0, max_value=math.pi, exclude_max=True)


@st.composite
def marked_points(draw):
    return MarkedPoint(draw(coords), draw(coords), draw(angles))


@given(marked_points(), marked_points())
@settings(max_examples=200)
def test_swap_symmetry_exact(a, b):
    if (a.x, a.y) == (b.x, b.y):
        return
    ab = pair_geometry(a, b)
    ba = pair_geometry(b, a)
    assert ab.kind is ba.kind
    assert ba.d_ab == ab.d_ba and ba.d_ba == ab.d_ab
    assert ba.m == ab.m
    assert ba.intersection == ab.intersection


@given(marked_points(), marked_points())
@settings(max_examples=200)
def test_transversal_triangle_bound(a, b):
    if (a.x, a.y) == (b.x, b.y):
        return
    pg = pair_geometry(a, b)
    if pg.kind is PairKind.TRANSVERSAL:
        germ_dist = math.hypot(a.x - b.x, a.y - b.y)
        assert 2.0 * pg.m >= germ_dist * (1.0 - 1e-9)


@given(marked_points(), marked_points())
@settings(max_examples=100)
def test_table_matches_scalar_bitwise(a, b):
    if (a.x, a.y) == (b.x, b.y):
        return
    pg = pair_geometry(a, b)
    table = PairTable((a, b))
    assert table.d[0, 1] == pg.d_ab
    assert table.d[1, 0] == pg.d_ba


class TestRealizeSegment:
    def test_axis_aligned(self):
        seg = realize_segment(mp(0, 0, 0.0), 2.0)
        (x1, y1), (x2, y2) = seg.endpoints
        assert (x1, y1) == pytest.approx((-2.0, 0.0), abs=1e-12)
        assert (x2, y2) == pytest.approx((2.0, 0.0), abs=1e-12)

    def test_vertical(self):
        seg = realize_segment(mp(3, 4, HALF_PI), 4.0)
        (x1, y1), (x2, y2) = seg.endpoints
        assert (x1, y1) == pytest.approx((3.0, 0.0), abs=1e-12)
        assert (x2, y2) == pytest.approx((3.0, 8.0), abs=1e-12)

    def test_infinite_has_no_endpoints(self):
        seg = realize_segment(mp(0, 0, 0.0), math.inf)
        assert seg.endpoints is None

    def test_negative_radius_rejected(self):
        with pytest.raises(NegativeRadius):
            realize_segment(mp(0, 0, 0.0), -0.5)

    @given(marked_points(), st.floats(min_value=0.001, max_value=50.0))
    @settings(max_examples=100)
    def test_germ_is_midpoint_of_endpoints(self, point, radius):
        seg = realize_segment(point, radius)
        (x1, y1), (x2, y2) = seg.endpoints
        assert (x1 + x2) / 2 == pytest.approx(point.x, abs=1e-9)
        assert (y1 + y2) / 2 == pytest.approx(point.y, abs=1e-9)


class TestContactPredicates:
    def test_f2_solution_touch_but_not_interior(self):
        # Solved Model 1 system on the two-point fixture: the finite vertical
        # segment ends exactly on the infinite horizontal line.
        s_inf = realize_segment(mp(0, 0, 0.0), math.inf)
        s_fin = realize_segment(mp(3, 4, HALF_PI), 4.0)
        assert segments_touch(s_inf, s_fin)
        assert not relative_interiors_intersect(s_inf, s_fin)

    def test_crossing_interiors(self):
        s1 = realize_segment(mp(0, 0, 0.0), 5.0)
        s2 = realize_segment(mp(3, 4, HALF_PI), 5.0)
        assert relative_interiors_intersect(s1, s2)
        assert segments_touch(s1, s2)

    def test_parallel_disjoint_lines(self):
        s1 = realize_segment(mp(0, 0, 0.0), math.inf)
        s2 = realize_segment(mp(0, 1, 0.0), math.inf)
        assert not relative_interiors_intersect(s1, s2)
        assert not segments_touch(s1, s2)

    def test_far_apart_segments(self):
        s1 = realize_segment(mp(0, 0, 0.0), 1.0)
        s2 = realize_segment(mp(10, 10, HALF_PI), 1.0)
        assert not segments_touch(s1, s2)

    def test_f3_model1_p0_p2_do_not_touch(self):
        # Carrier intersection at (6, 0) is beyond the first segment's span.
        s0 = realize_segment(mp(0, 0, 0.0), 4.0)
        s2 = realize_segment(mp(9, 3, math.pi / 4), 5 * math.sqrt(2))
        assert not segments_touch(s0, s2)

    @given(marked_points(), st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=50)
    def test_self_interior_overlap(self, point, radius):
        seg = realize_segment(point, radius)
        assert relative_interiors_intersect(seg, seg)

    def test_collinear_touching_end_to_end(self):
        s1 = realize_segment(mp(0, 0, 0.0), 1.0)
        s2 = realize_segment(mp(2, 0, 0.0), 1.0)
        assert segments_touch(s1, s2)
        assert not relative_interiors_intersect(s1, s2)


@st.composite
def adversarial_pairs(draw):
    """Two marked points: generic, near-parallel or near-collinear.

    Near-parallel directions differ by just below or just above
    ``PARALLEL_TOL``; near-collinear germs sit on the first carrier line up
    to a perpendicular offset around the collinearity threshold.  Both
    points may be shifted by 1e6 to stress large coordinates.
    """
    base = draw(st.sampled_from([0.0, 1e6]))
    x0, y0, theta0 = base + draw(coords), base + draw(coords), draw(angles)
    kind = draw(st.sampled_from(["generic", "near_parallel", "near_collinear"]))
    if kind == "generic":
        return mp(x0, y0, theta0), mp(base + draw(coords), base + draw(coords), draw(angles))
    delta = draw(st.sampled_from([0.5, 0.9, 1.1, 2.0, -0.9, -1.1])) * PARALLEL_TOL
    theta1 = fold_direction(theta0 + delta)
    if kind == "near_parallel":
        return mp(x0, y0, theta0), mp(base + draw(coords), base + draw(coords), theta1)
    t = draw(st.floats(min_value=0.5, max_value=100.0)) * draw(st.sampled_from([-1.0, 1.0]))
    off = draw(st.sampled_from([0.0, 1e-14, 1e-12, 1e-9, 1e-3]))
    ux, uy = math.cos(theta0), math.sin(theta0)
    return mp(x0, y0, theta0), mp(x0 + t * ux - off * uy, y0 + t * uy + off * ux, theta1)


radius_picks = st.one_of(
    st.tuples(st.just("fixed"), st.just(math.inf) | st.floats(min_value=0.0, max_value=200.0)),
    st.tuples(
        st.just("scaled"),
        st.sampled_from([1.0 - 2e-9, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.0 + 2e-9, 0.5, 2.0]),
    ),
)


def _radius(pick, dist):
    """A drawn radius: as drawn, or a factor near 1 times the growth distance."""
    how, value = pick
    return value * dist if how == "scaled" and math.isfinite(dist) else value


@given(adversarial_pairs(), radius_picks, radius_picks)
@settings(max_examples=400)
def test_table_cover_matches_scalar_predicates(pair, pick_a, pick_b):
    a, b = pair
    if (a.x, a.y) == (b.x, b.y):
        return
    pg = pair_geometry(a, b)
    radii = np.array([_radius(pick_a, pg.d_ab), _radius(pick_b, pg.d_ba)])
    sa, sb = realize_segment(a, radii[0]), realize_segment(b, radii[1])
    table = PairTable((a, b))
    for strict, scalar in ((True, relative_interiors_intersect), (False, segments_touch)):
        expected = [(0, 1)] if scalar(sa, sb, CONTACT_TOL) else []
        for model in (1, 2):
            found = table.answer_pass(radii, model, CONTACT_TOL)
            assert _key_pairs(found.strict if strict else found.touching, 2) == expected


@pytest.mark.parametrize("third, expected", [(1.0, []), (sys.float_info.max, [(0, 2), (1, 2)])])
def test_contacts_at_the_largest_finite_radius(third, expected):
    # r * (1 + tol) overflows to inf at the largest finite radius; the
    # diagonal and the disjoint parallel pair (0, 1), of d = inf, still
    # touch nothing.
    big = sys.float_info.max
    table = PairTable((mp(0.0, 0.0, 0.0), mp(0.0, 1.0, 0.0), mp(5.0, 5.0, 1.0)))
    with np.errstate(over="ignore"):
        found = [table.answer_pass(np.array([big, big, third]), model, CONTACT_TOL) for model in (1, 2)]
    for contacts in found:
        assert _key_pairs(contacts.touching, 3) == expected
        assert _key_pairs(contacts.strict, 3) == expected


def _dense_table(points, angle_tol=PARALLEL_TOL):
    """Reference ``(d, transversal, collinear)``, one n x n expression per step."""
    n = len(points)
    x = np.array([p.x for p in points], dtype=float)
    y = np.array([p.y for p in points], dtype=float)
    theta = np.array([p.theta for p in points], dtype=float)
    ux, uy = np.cos(theta), np.sin(theta)
    wx = x[None, :] - x[:, None]
    wy = y[None, :] - y[:, None]
    denom = ux[:, None] * uy[None, :] - uy[:, None] * ux[None, :]
    offdiag = ~np.eye(n, dtype=bool)
    parallel = (np.abs(denom) < angle_tol) & offdiag
    transversal = ~parallel & offdiag
    d = np.full((n, n), np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = (wx * uy[None, :] - wy * ux[None, :]) / denom
    d[transversal] = np.abs(s[transversal])
    radius = np.hypot(x, y)
    scale = np.maximum(1.0, np.maximum(radius[:, None], radius[None, :]))
    off_a = np.abs(wx * uy[:, None] - wy * ux[:, None])
    off_b = np.abs(wx * uy[None, :] - wy * ux[None, :])
    collinear = parallel & (np.maximum(off_a, off_b) < angle_tol * scale)
    half = 0.5 * np.hypot(wx, wy)
    d[collinear] = half[collinear]
    return d, transversal, collinear


@pytest.mark.parametrize(
    "points",
    [
        [],
        [mp(1.0, 2.0, 0.5)],
        planted_points(12, 1, 0.0),
        planted_points(700, 2, 0.0),
        planted_points(650, 3, 1e6),
    ],
    ids=["n0", "n1", "n12", "n700", "n650_offset"],
)
def test_table_matches_dense_reference_bytewise(points):
    table = PairTable(points)
    expected = _dense_table(points)
    d, collinear = table_rows(table)
    transversal = np.isfinite(d) & ~collinear
    for got, want in zip((table.d, d, transversal, collinear), (expected[0], *expected)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    if len(points) > 100:
        # The planted pairs reach both parallel outcomes: collinear, and
        # disjoint (inf off the diagonal).
        assert collinear.any()
        assert (~transversal & np.isinf(d)).sum() > len(points)


@pytest.mark.parametrize(
    "points", [planted_points(700, 2, 0.0), planted_points(650, 3, 1e6)], ids=["n700", "n650_offset"]
)
def test_row_blocks_match_dense_reference_bytewise(points):
    n = len(points)
    d, transversal, collinear = _dense_table(points)
    step = geometry._BLOCK_PAIRS // n
    built = PairTable(points)
    built.d  # blocks computed after the dense d exists are the same
    # Every row through the sweep's blocks, then an unsorted subset through
    # the fallback's: rows on both sides of block boundaries, both ends.
    subset = np.array([n - 1, 0, step - 1, step, step + 1, 2 * step, 5, n // 2])
    for table in (PairTable(points), built):
        for rows in (np.arange(n), subset):
            seen = []
            for slab in table._row_blocks(rows):
                assert slab.cols.shape == (len(slab.rows), n)
                assert slab.d.tobytes() == d[slab.rows].tobytes()
                assert slab.dT.tobytes() == np.ascontiguousarray(d[:, slab.rows].T).tobytes()
                assert (np.isfinite(slab.d) & ~slab.collinear).tobytes() == transversal[slab.rows].tobytes()
                assert slab.collinear.tobytes() == collinear[slab.rows].tobytes()
                seen.extend(slab.rows.tolist())
            assert seen == rows.tolist()
    # The screen gives the same report, and the table the near list read off
    # whole rows, whether or not the dense d was built first.
    reports = []
    for dense_first in (False, True):
        mps = MarkedPointSet(points)
        if dense_first:
            shared_pair_table(mps).d
        reports.append(check_condition_d(mps))
        table = shared_pair_table(mps)
        for got, want in zip(table.near, near_reference(table)):
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    assert reports[0] == reports[1] and not reports[0].passes


def reported_memory(nbytes):
    """A stand-in for ``os.sysconf`` reporting ``nbytes`` of physical memory."""
    return lambda name: {"SC_PHYS_PAGES": nbytes // 4096, "SC_PAGE_SIZE": 4096}[name]


def test_production_path_raises_before_the_near_list():
    # 100 germs need 100 * _GERM_BYTES on the production path: with a page
    # less reported, the solve raises before any pair is computed.
    mps = sample_poisson(1.0, Rectangle.square(10.0), seed=1)
    solutions = [solve_fixed_point(mps, model) for model in (1, 2)]
    need = len(mps) * geometry._GERM_BYTES
    with mock.patch.object(geometry.os, "sysconf", reported_memory(need - 4096)), \
            mock.patch.object(PairTable, "_block", side_effect=AssertionError("pair computed")), \
            mock.patch.object(PairTable, "_m_block", side_effect=AssertionError("pair computed")):
        for solution in solutions:
            with pytest.raises(InputTooLarge):
                solve_fixed_point(MarkedPointSet(mps.points), solution.model)
            with pytest.raises(InputTooLarge):
                verify_gmhs(MarkedPointSet(mps.points), solution.radii, solution.model)
    with mock.patch.object(geometry.os, "sysconf", reported_memory(need + 4096)):
        for solution in solutions:
            assert solve_fixed_point(MarkedPointSet(mps.points), solution.model).radii == solution.radii


@pytest.mark.skipif(not hasattr(os, "sysconf"), reason="physical memory size unavailable")
def test_oversized_set_raises_before_allocating():
    # 200,000 germs: the dense oracle table would need terabytes; the table
    # itself holds O(n) arrays.  The screen is left out: it streams in O(n)
    # memory but would evaluate about 4e10 pairs.
    points = [mp(float(k % 500), float(k // 500), 0.25) for k in range(200_000)]
    mps = MarkedPointSet(points)
    tracemalloc.start()
    try:
        table = PairTable(points)
        with pytest.raises(InputTooLarge):
            table.d
        for solve in (solve_chain, solve_greedy_oracle):
            with pytest.raises(InputTooLarge):
                solve(mps, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def _arrays(value):
    """Every array an attribute holds, looking inside tuples, lists and dicts."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)


@pytest.mark.parametrize("side, limit_mib", [(45.0, 16), (70.0, 24)])
def test_production_path_holds_no_dense_table(side, limit_mib):
    tracemalloc.start()
    try:
        mps = sample_poisson(1.0, Rectangle.square(side), seed=1)
        for model in (1, 2):
            solution = solve_fixed_point(mps, model)
            assert verify_gmhs(mps, solution.radii, model).passes
            analyze(solution)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = len(mps)
    assert n > 1900
    assert peak <= limit_mib * 2**20
    table = shared_pair_table(mps)
    assert "d" not in vars(table)
    sizes = [a.size for value in vars(table).values() for a in _arrays(value)]
    assert sizes and max(sizes) < n * n


def spread_points(n, half, seed=0):
    """``n`` germs uniform in the square ``[-half, half]^2``, four of them at its corners."""
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-1.0, 1.0, (n, 2)) * half
    xy[:4] = [(half, half), (-half, half), (half, -half), (-half, -half)]
    return [MarkedPoint(x, y, t) for (x, y), t in zip(xy.tolist(), rng.uniform(0.0, math.pi, n).tolist())]


@pytest.mark.parametrize("n", [80, 400])
def test_set_at_the_coordinate_limit_solves_and_verifies(n):
    mps = MarkedPointSet(spread_points(n, geometry.COORDINATE_LIMIT))
    assert shared_pair_table(mps).near.j.shape[1] == (geometry._NEAR if n > 2 * geometry._NEAR else n)
    for model in (1, 2):
        solution = solve_fixed_point(mps, model)
        assert verify_gmhs(mps, solution.radii, model).passes
        analyze(solution)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_coordinate_one_ulp_past_the_limit_raises(axis, sign):
    past = sign * math.nextafter(geometry.COORDINATE_LIMIT, math.inf)
    points = spread_points(80, geometry.COORDINATE_LIMIT)
    points[-1] = MarkedPoint(*((past, 0.0) if axis == 0 else (0.0, past)), 0.5)
    with pytest.raises(InvalidInput, match="coordinates"):
        PairTable(points)
    with pytest.raises(InvalidInput, match="coordinates"):
        solve_fixed_point(MarkedPointSet(points), 2)


def test_fold_direction():
    assert fold_direction(math.pi) == 0.0
    assert fold_direction(-HALF_PI) == pytest.approx(HALF_PI)
    assert 0.0 <= fold_direction(17.3) < math.pi


def test_marked_point_validation():
    with pytest.raises(ValueError):
        MarkedPoint(0.0, 0.0, math.pi)
    with pytest.raises(ValueError):
        MarkedPoint(math.inf, 0.0, 0.0)
    with pytest.raises(ValueError):
        MarkedPoint(0.0, 0.0, -0.1)
