"""The near-list pair kernels against whole-matrix references.

The references below are the kernels as they were before the near list:
one n x n expression each.  The near-list kernels must reproduce them bit
for bit, on generic and non-generic sets alike, with the list width
``geometry._NEAR`` forced to 0, 1, 2 and beyond n so that every fallback
route runs.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lilyseg import (
    MarkedPoint,
    MarkedPointSet,
    RadiiAssignment,
    Rectangle,
    TwoAtomMarks,
    analyze,
    fold_direction,
    sample_poisson,
    solve_fixed_point,
    verify_gmhs,
)
from lilyseg import geometry
from lilyseg.geometry import CONTACT_TOL, PARALLEL_TOL, PairTable, _key_pairs, shared_pair_table
from lilyseg.solver import VerificationReport, _verify_with_table
from lilyseg.structure import stopping_map

from conftest import table_rows

# ---------------------------------------------------------------------------
# Whole-matrix references


def dense_admissible(table, radii, model, tol=0.0):
    finite = np.isfinite(table.d)
    candidate = finite & (table.d > table.d.T) if model == 1 else finite
    need = table.d.T * (1.0 - tol)
    reach = radii[None, :] > need if model == 1 else radii[None, :] >= need
    return candidate & reach


def dense_stop_values(table, model):
    return table.d if model == 1 else np.maximum(table.d, table.d.T)


def dense_operator(table, model, f):
    if table.n == 0:
        return f.copy()
    ok = dense_admissible(table, f, model)
    return np.min(dense_stop_values(table, model), axis=1, where=ok, initial=np.inf)


def dense_stop_matches(table, radii, model, tol):
    ri = radii[:, None]
    admissible = dense_admissible(table, radii, model, tol)
    with np.errstate(invalid="ignore"):
        return admissible & (np.abs(dense_stop_values(table, model) - ri) <= tol * np.maximum(ri, 1.0))


def dense_cover(table, radii, strict, tol):
    ri = radii[:, None]
    less = np.less if strict else np.less_equal
    scale = 1.0 - tol if strict else 1.0 + tol
    _, collinear = table_rows(table)
    transversal = np.isfinite(table.d) & ~collinear
    with np.errstate(invalid="ignore"):
        cover_i = np.where(np.isinf(ri), np.isfinite(table.d), less(table.d, ri * scale))
        hit = transversal & cover_i & cover_i.T
        if collinear.any():
            reach = ri + radii[None, :]
            hit |= collinear & (np.isinf(reach) | less(table.d + table.d.T, reach * scale))
    hi, hj = np.nonzero(np.triu(hit, k=1))
    return list(zip(hi.tolist(), hj.tolist()))


def dense_verify(table, radii, model, tol):
    hard = tuple(dense_cover(table, radii, strict=True, tol=tol))
    explained = dense_stop_matches(table, radii, model, tol).any(axis=1)
    growth = tuple(int(i) for i in np.nonzero(np.isfinite(radii) & ~explained)[0])
    mapped = dense_operator(table, model, radii)
    with np.errstate(invalid="ignore"):
        near = np.abs(mapped - radii) <= tol * np.maximum(radii, 1.0)
    close = (np.isinf(mapped) & np.isinf(radii)) | (np.isfinite(mapped) & np.isfinite(radii) & near)
    dev = tuple((int(i), float(radii[i]), float(mapped[i])) for i in np.nonzero(~close)[0])
    return VerificationReport(model, tol, hard, growth, dev)


# ---------------------------------------------------------------------------
# Inputs


@st.composite
def point_lists(draw):
    """0-40 germs: uniform, two-atom, near-parallel, collinear runs or a lattice.

    Genericity is not required.  Collinear runs put several germs on one
    carrier; lattices put germs on a grid with axis and diagonal directions,
    so ties and collinear pairs abound.  Germs may be offset by 1e6.
    """
    n = draw(st.integers(min_value=0, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    base = draw(st.sampled_from([0.0, 1e6]))
    style = draw(st.sampled_from(["uniform", "two_atom", "near_parallel", "collinear", "lattice"]))
    if style == "lattice":
        cols = max(1, int(math.ceil(math.sqrt(n))))
        spacing = draw(st.sampled_from([0.5, 1.0]))
        germs = [(base + spacing * (k % cols), base + spacing * (k // cols)) for k in range(n)]
        thetas = rng.choice([0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4], n)
    elif style == "collinear":
        germs, thetas = [], []
        while len(germs) < n:
            x0, y0, theta = base + rng.uniform(0, 10), base + rng.uniform(0, 10), rng.uniform(0, math.pi)
            for t in rng.uniform(-6, 6, rng.integers(1, 6)):
                germs.append((x0 + t * math.cos(theta), y0 + t * math.sin(theta)))
                thetas.append(theta)
        germs, thetas = germs[:n], np.array(thetas[:n])
    else:
        germs = [tuple(xy) for xy in base + rng.uniform(0.0, 10.0, (n, 2))]
        if style == "uniform":
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
    return list(points.values())


CONTACT_FACTORS = [1.0 - 2e-9, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.0 + 2e-9]


def drawn_radii(table, seed):
    """Per germ: inf, zero, NaN, a uniform radius, or a growth distance or a
    later-arrival time of one of its pairs times a factor within 2e-9 of 1."""
    rng = np.random.default_rng(seed)
    radii = np.empty(table.n)
    for i in range(table.n):
        finite = np.nonzero(np.isfinite(table.d[i]))[0]
        kind = rng.integers(5)
        if kind == 0 or len(finite) == 0:
            radii[i] = math.inf
        elif kind == 1:
            radii[i] = rng.choice([0.0, math.nan, rng.uniform(0.0, 12.0), rng.uniform(0.0, 12.0)])
        else:
            j = rng.choice(finite)
            value = table.d[i, j] if kind == 2 else max(table.d[i, j], table.d[j, i])
            radii[i] = value * rng.choice(CONTACT_FACTORS)
    return radii


def iterate(operator, n, steps):
    """Iterates of an operator from the all-zero assignment."""
    f = np.zeros(n)
    out = []
    for _ in range(steps):
        f = operator(f)
        out.append(f)
    return out


NEAR_WIDTHS = st.sampled_from(["0", "1", "2", "default", "all"])


def fresh_table(points, width):
    """A new table whose near list is built with ``width`` pairs per germ."""
    k = {"default": geometry._NEAR, "all": len(points) + 3}.get(width)
    with mock.patch.object(geometry, "_NEAR", int(width) if k is None else k):
        table = PairTable(points)
        n = len(points)
        assert table.near.j.shape == (n, n if n <= 2 * geometry._NEAR else geometry._NEAR)
    return table


# ---------------------------------------------------------------------------
# Tests


@given(point_lists(), st.integers(min_value=0, max_value=2**32 - 1), NEAR_WIDTHS)
@settings(max_examples=300, deadline=None)
def test_kernels_match_dense_reference(points, seed, width):
    table = fresh_table(points, width)
    radii = drawn_radii(table, seed)
    tols = (0.0, CONTACT_TOL)
    covers = {(strict, tol): dense_cover(table, radii, strict, tol) for strict in (True, False) for tol in tols}
    for model in (1, 2):
        got = table.operator(radii, model)
        assert got.tobytes() == dense_operator(table, model, radii).tobytes()
        for tol in tols:
            mask = dense_stop_matches(table, radii, model, tol) & np.isfinite(radii)[:, None]
            found = table.answer_pass(radii, model, tol)
            i, j = found.stop_i, found.stop_j
            want_i, want_j = np.nonzero(mask)
            assert i.tolist() == want_i.tolist() and j.tolist() == want_j.tolist()
            for strict in (True, False):
                pairs = _key_pairs(found.strict if strict else found.touching, table.n)
                assert pairs == covers[strict, tol]
        report = _verify_with_table(table, radii, model, CONTACT_TOL)
        assert repr(report) == repr(dense_verify(table, radii, model, CONTACT_TOL))


@given(point_lists(), NEAR_WIDTHS, st.sampled_from([1, 2]))
@settings(max_examples=150, deadline=None)
def test_iterates_match_dense_reference(points, width, model):
    table = fresh_table(points, width)
    steps = 2 * table.n + 4
    near = iterate(lambda f: table.operator(f, model), table.n, steps)
    dense = iterate(lambda f: dense_operator(table, model, f), table.n, steps)
    for got, want in zip(near, dense):
        assert got.tobytes() == want.tobytes()


def _scaled_copies(radii):
    finite = np.nonzero(np.isfinite(radii))[0]
    for factor in (1.025, 0.975, 1.0 + 2e-9, 1.0 - 2e-9):
        if len(finite):
            one = radii.copy()
            one[finite[0]] *= factor
            yield one
        yield radii * factor


@pytest.mark.parametrize("seed", range(6))
def test_verify_gmhs_matches_dense_reference(seed):
    mps = sample_poisson(1.0, Rectangle.square(14.0), seed=seed)
    table = shared_pair_table(mps)
    for model in (1, 2):
        radii = solve_fixed_point(mps, model).radii.to_array()
        for candidate in [radii, *_scaled_copies(radii)]:
            report = verify_gmhs(mps, RadiiAssignment.from_array(candidate), model)
            assert repr(report) == repr(dense_verify(table, candidate, model, 1e-9))


@pytest.mark.parametrize("width", ["0", "1", "2", "all"])
def test_solve_and_analyze_independent_of_near_width(width):
    mps = sample_poisson(1.0, Rectangle.square(12.0), seed=4)
    expected = [solve_fixed_point(mps, m) for m in (1, 2)]
    expected = [(solution, analyze(solution)) for solution in expected]
    # A fresh, unequal point set gets its own table, built at the forced width.
    copy = MarkedPointSet(mps.points)
    k = len(mps) + 3 if width == "all" else int(width)
    with mock.patch.object(geometry, "_NEAR", k):
        for model, (solution, report) in zip((1, 2), expected):
            again = solve_fixed_point(copy, model)
            assert again.radii.to_array().tobytes() == solution.radii.to_array().tobytes()
            assert again.iterations == solution.iterations
            assert repr(analyze(again)) == repr(report)
            assert stopping_map(again) == stopping_map(solution)
    assert shared_pair_table(copy).near.j.shape[1] == min(k, len(mps))


def test_solve_and_analyze_memory_above_table():
    # n ~ 2000; sampling builds and screens the table before tracing starts.
    mps = sample_poisson(1.0, Rectangle.square(45.0), seed=1)
    assert 1900 < len(mps) < 2200
    tracemalloc.start()
    try:
        for model in (1, 2):
            analyze(solve_fixed_point(mps, model))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


# ---------------------------------------------------------------------------
# The operator's first-admissible search


def equal_m_row():
    """Germ 0 horizontal at the origin, verticals at (4, 3) and (-4, 3): its
    pairs with both have d = 4 and d^T = 3, so the two later arrivals tie
    exactly, and the list of row 0 holds germ 1 before germ 2."""
    return [MarkedPoint(0.0, 0.0, 0.0), MarkedPoint(4.0, 3.0, math.pi / 2), MarkedPoint(-4.0, 3.0, math.pi / 2)]


@pytest.mark.parametrize("width", ["1", "2", "default"])
def test_first_admissible_entry_of_an_equal_m_pair(width):
    table = fresh_table(equal_m_row(), width)
    d = table.d
    assert d[0, 1] == d[0, 2] == 4.0 and d[1, 0] == d[2, 0] == 3.0
    assert table.near.j[0, 0] == 1
    # Germ 1 falls short of the meeting point; germ 2 reaches past it.
    radii = np.array([1.0, 2.0, 3.5])
    for model in (1, 2):
        got = table.operator(radii, model)
        assert got.tobytes() == dense_operator(table, model, radii).tobytes()
        assert got[0] == 4.0


@pytest.mark.parametrize("n", [0, 3, 80])
def test_operator_on_a_list_of_width_zero(n):
    # argmax takes no empty axis: every row is answered whole.
    mps = sample_poisson(1.0, Rectangle.square(10.0), seed=6)
    table = fresh_table(list(mps.points[:n]), "0")
    assert table.near.j.shape == (n, 0)
    radii = drawn_radii(table, 6)
    for model in (1, 2):
        for f in (radii, np.zeros(n)):
            assert table.operator(f, model).tobytes() == dense_operator(table, model, f).tobytes()


def test_first_step_on_a_small_set():
    # Germ 1 sits on germ 0's carrier: d[1, 0] == 0, so Model 2 admits the
    # pair at f = 0 and Model 1 does not.  A set of at most two list widths
    # lists whole rows.
    table = PairTable(equal_m_row() + [MarkedPoint(5.0, 0.0, math.pi / 2)])
    zeros = np.zeros(table.n)
    assert table.d[3, 0] == 0.0
    for model in (1, 2):
        got = table.operator(zeros, model)
        assert got.tobytes() == dense_operator(table, model, zeros).tobytes()
    assert table.operator(zeros, 2)[0] == 5.0
    assert np.isinf(table.operator(zeros, 1)).all()


def test_first_step_on_a_far_carrier(far_tie):
    # A 232-germ set (see conftest.far_tie) with a horizontal germ g and,
    # 40 out along its carrier, a vertical one: d[far, g] == 0 exactly, and
    # no list holds the pair.  Row g is answered whole.
    points = list(far_tie.points) + [MarkedPoint(7.5, 7.25, 0.0), MarkedPoint(47.5, 7.25, math.pi / 2)]
    table = PairTable(points)
    assert table.n - 1 not in table.near.j[table.n - 2]
    zeros = np.zeros(table.n)
    for model in (1, 2):
        got = table.operator(zeros, model)
        assert got.tobytes() == dense_operator(table, model, zeros).tobytes()
    assert np.isinf(table.operator(zeros, 1)).all()
    assert table.operator(zeros, 2)[table.n - 2] == 40.0
