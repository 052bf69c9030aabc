import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lilyseg import (
    ConditionDViolation,
    InvalidInput,
    MarkedPoint,
    MarkedPointSet,
    RadiiAssignment,
    RadiiMismatch,
    Rectangle,
    TwoAtomMarks,
    apply_t1,
    apply_t2,
    check_condition_d,
    find_descending_chain,
    fold_direction,
    sample_poisson,
    solve_chain,
    solve_fixed_point,
    solve_greedy_oracle,
    verify_gmhs,
)
from lilyseg import geometry
from lilyseg.geometry import PARALLEL_TOL, PairTable, shared_pair_table
from lilyseg.solver import (
    _candidate_mask,
    read_solution,
    solution_to_json,
    write_solution,
)

from conftest import F3C_RADII_M1, F3C_RADII_M2, SQRT2
from test_local_screen import reference_fixed_point
from test_near_list import dense_operator
from test_on_carrier import planted

INF = math.inf


def radii_of(point_set, model, method="fixed"):
    if method == "fixed":
        return solve_fixed_point(point_set, model).radii.values
    if method == "chain":
        return solve_chain(point_set, model)[0].radii.values
    return solve_greedy_oracle(point_set, model).radii.values


def assert_radii(actual, expected, rel=1e-12):
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        if math.isinf(e):
            assert math.isinf(a)
        else:
            assert a == pytest.approx(e, rel=rel)


class TestOperators:
    def test_t1_of_zero_is_infinite(self, f3):
        zero = RadiiAssignment((0.0, 0.0, 0.0))
        assert apply_t1(zero, f3).values == (INF, INF, INF)

    def test_t1_of_infinite_on_f3(self, f3):
        top = RadiiAssignment((INF, INF, INF))
        out = apply_t1(top, f3)
        assert_radii(out.values, (4.0, INF, 5 * SQRT2))

    def test_t1_idempotent_at_solution(self, f3):
        first = apply_t1(RadiiAssignment((INF, INF, INF)), f3)
        second = apply_t1(first, f3)
        # Not a fixed point of a single step in general, but this assignment is.
        assert second.values == first.values

    def test_t2_of_zero_generically_infinite(self, f3):
        zero = RadiiAssignment((0.0, 0.0, 0.0))
        assert apply_t2(zero, f3).values == (INF, INF, INF)

    def test_t2_of_infinite_on_f2(self, f2):
        out = apply_t2(RadiiAssignment((INF, INF)), f2)
        assert_radii(out.values, (4.0, 4.0))

    def test_t2_fixed_at_model2_solution(self, f3):
        solution = RadiiAssignment((4.0, 4.0, INF))
        assert apply_t2(solution, f3).values == solution.values

    def test_operators_require_genericity(self):
        bad = MarkedPointSet((MarkedPoint(0, 0, 0.0), MarkedPoint(2, 0, 0.0)))
        with pytest.raises(ConditionDViolation):
            apply_t1(RadiiAssignment((0.0, 0.0)), bad)

    def test_antitone_on_random_sets(self):
        rng = np.random.default_rng(77)
        for trial in range(25):
            mps = sample_poisson(1.0, Rectangle.square(6.0), seed=1000 + trial)
            if len(mps) < 2:
                continue
            lo = RadiiAssignment(tuple(rng.uniform(0, 3, len(mps))))
            hi = RadiiAssignment(tuple(v + rng.uniform(0, 2) for v in lo))
            for op in (apply_t1, apply_t2):
                out_lo = np.array(op(lo, mps).values)
                out_hi = np.array(op(hi, mps).values)
                assert np.all(out_lo >= out_hi)


@pytest.mark.parametrize("width", [0, 32])
def test_fixed_point_solve_applies_the_operator_once_past_its_steps(width):
    # The loop counts its first iterate, inf, as a step without applying the
    # operator (T(0) is skipped): `iterations - 1` applications, and the
    # verification one more.  The screen of the answer makes none.  At width
    # 0 every row the screen reads is a whole row.
    mps = sample_poisson(1.0, Rectangle.square(12.0), seed=2)
    calls, screening = [], []
    operator, screen = PairTable.operator, PairTable.screen_answer

    def counted(table, radii, model):
        calls.append(bool(screening))
        return operator(table, radii, model)

    def watched(*args):
        screening.append(True)
        try:
            return screen(*args)
        finally:
            screening.clear()

    for model in (1, 2):
        calls.clear()
        with mock.patch.object(geometry, "_NEAR", width), mock.patch.object(PairTable, "operator", counted), \
                mock.patch.object(PairTable, "screen_answer", autospec=True, side_effect=watched) as screened:
            solution = solve_fixed_point(MarkedPointSet(mps.points), model)
        assert solution.iterations > 2
        assert len(calls) == solution.iterations
        assert not any(calls)
        assert screened.call_count == 1


def planted_window(side, seed):
    """A unit-intensity window of side ``side`` with three germs planted
    exactly on another germ's carrier, and the rows of their owners."""
    rng = np.random.default_rng(seed)
    points = list(sample_poisson(1.0, Rectangle.square(side), seed=seed).points)
    owners = []
    for _ in range(3):
        at = tuple(float(v) for v in rng.uniform(-side / 2, side / 2, 2))
        theta, t, partner_theta = rng.uniform(0.0, math.pi), rng.uniform(-side / 2, side / 2), rng.uniform(0.0, math.pi)
        owner, partner = planted(at, float(theta), float(t), float(partner_theta))
        owners.append(len(points))
        points += [owner, partner]
    return MarkedPointSet(tuple(points)), owners


@pytest.mark.parametrize("side, seeds", [(12.0, range(40)), (30.0, range(3))], ids=["12x12", "30x30"])
def test_start_at_infinity_matches_a_start_at_zero(side, seeds):
    # The solve takes inf as its first iterate in place of T(0), which in
    # Model 2 is finite on the planted owners' rows (d[j, i] == 0 there).
    # Radii and step counts must equal those of the loop started at f = 0.
    for seed in seeds:
        mps, owners = planted_window(side, seed)
        table = shared_pair_table(mps)
        assert table.n > 2 * geometry._NEAR  # grid-built lists
        first = dense_operator(table, 2, np.zeros(table.n))
        assert np.isfinite(first[owners]).all()
        for model in (1, 2):
            solution = solve_fixed_point(mps, model)
            radii, steps = reference_fixed_point(table, model)
            assert solution.radii.to_array().tobytes() == radii.tobytes()
            assert solution.iterations == steps


def test_radii_from_array_match_elementwise_floats():
    values = [0.0, -0.0, 0.1, 4.0, 5e-324, 1.7976931348623157e308, INF]
    for arr in (np.array(values), values, np.array(values[:4] + [INF], dtype=np.float32), np.arange(3)):
        radii = RadiiAssignment.from_array(arr)
        elementwise = RadiiAssignment(tuple(float(v) for v in arr))
        assert repr(radii) == repr(elementwise) and radii == elementwise
        assert all(type(v) is float for v in radii)
    assert math.copysign(1.0, RadiiAssignment.from_array(np.array(values))[1]) == -1.0


class TestFixtureSolutions:
    def test_f2_model1(self, f2):
        assert_radii(radii_of(f2, 1), (INF, 4.0))

    def test_f2_model2(self, f2):
        assert_radii(radii_of(f2, 2), (4.0, 4.0))

    def test_f3_model1(self, f3):
        assert_radii(radii_of(f3, 1), (4.0, INF, 5 * SQRT2))

    def test_f3_model2(self, f3):
        assert_radii(radii_of(f3, 2), (4.0, 4.0, INF))

    def test_f3c_all_finite_cycle(self, f3c):
        assert_radii(radii_of(f3c, 1), F3C_RADII_M1)
        assert_radii(radii_of(f3c, 2), F3C_RADII_M2)

    @pytest.mark.parametrize("model", [1, 2])
    @pytest.mark.parametrize("method", ["fixed", "chain", "oracle"])
    def test_all_methods_on_fixtures(self, f2, f3, f3c, model, method):
        expected = {
            (1, "f2"): (INF, 4.0),
            (2, "f2"): (4.0, 4.0),
            (1, "f3"): (4.0, INF, 5 * SQRT2),
            (2, "f3"): (4.0, 4.0, INF),
            (1, "f3c"): F3C_RADII_M1,
            (2, "f3c"): F3C_RADII_M2,
        }
        for name, mps in (("f2", f2), ("f3", f3), ("f3c", f3c)):
            assert_radii(radii_of(mps, model, method), expected[(model, name)])

    def test_empty_set(self):
        empty = MarkedPointSet(())
        for model in (1, 2):
            assert radii_of(empty, model) == ()
            assert radii_of(empty, model, "chain") == ()
            assert radii_of(empty, model, "oracle") == ()

    def test_singleton_grows_forever(self):
        single = MarkedPointSet((MarkedPoint(1, 1, 0.3),))
        assert radii_of(single, 1) == (INF,)
        assert radii_of(single, 2) == (INF,)


class TestChainTraces:
    def test_f3_chain_from_p2(self, f3):
        _, traces = solve_chain(f3, 1, start=2)
        first = traces[0]
        assert first.chain == (2, 1)
        assert first.terminal == "infinite"
        assert first.stops == (1, None)

    def test_f2_chain_from_p1(self, f2):
        solution, traces = solve_chain(f2, 1, start=1)
        assert traces[0].chain == (1, 0)
        assert traces[0].terminal == "infinite"
        assert solution.radii[1] == pytest.approx(4.0, rel=1e-12)

    def test_f3c_cycle_trace(self, f3c):
        _, traces = solve_chain(f3c, 1)
        cycles = [t for t in traces if t.terminal == "cycle"]
        assert len(cycles) == 1
        assert cycles[0].cycle_length == 3

    def test_model2_chain_closes_as_pair(self, f2):
        _, traces = solve_chain(f2, 2, start=0)
        assert traces[0].terminal == "cycle"
        assert traces[0].cycle_length == 2

    def test_chain_start_out_of_range(self, f2):
        with pytest.raises(ValueError):
            solve_chain(f2, 1, start=17)


class TestThreeWayAgreement:
    @pytest.mark.parametrize("model", [1, 2])
    def test_poisson_agreement(self, model):
        for seed in range(30):
            mps = sample_poisson(1.0, Rectangle.square(10.0), seed=seed)
            a = solve_fixed_point(mps, model).radii.to_array()
            b = solve_chain(mps, model)[0].radii.to_array()
            c = solve_greedy_oracle(mps, model).radii.to_array()
            assert np.array_equal(np.isinf(a), np.isinf(b))
            assert np.array_equal(np.isinf(a), np.isinf(c))
            finite = np.isfinite(a)
            assert np.allclose(a[finite], b[finite], rtol=1e-9, atol=0.0)
            assert np.allclose(a[finite], c[finite], rtol=1e-9, atol=0.0)


@st.composite
def screened_sets(draw):
    """Sets of 0-12 uniform germs that pass the genericity screen.

    Marks are uniform, two-atom (:class:`TwoAtomMarks`), or two-atom with
    each direction nudged by a multiple of ``PARALLEL_TOL`` just below or
    above the parallel threshold.
    """
    n = draw(st.sampled_from(range(13)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    side = draw(st.sampled_from([3.0, 8.0]))
    germs = rng.uniform(0.0, side, (n, 2))
    style = draw(st.sampled_from(["uniform", "two_atom", "near_parallel"]))
    if style == "uniform":
        thetas = rng.uniform(0.0, math.pi, n)
    else:
        atom = st.floats(min_value=0.0, max_value=math.pi, exclude_max=True)
        marks = TwoAtomMarks(draw(atom), draw(atom), draw(st.floats(min_value=0.1, max_value=0.9)))
        thetas = marks.sample(rng, n)
        if style == "near_parallel":
            nudge = rng.choice([-2.0, -1.1, -0.9, 0.0, 0.9, 1.1, 2.0], n) * PARALLEL_TOL
            thetas = np.array([fold_direction(t) for t in thetas + nudge])
    mps = MarkedPointSet(
        tuple(MarkedPoint(float(x), float(y), float(t)) for (x, y), t in zip(germs, thetas))
    )
    assume(check_condition_d(mps).passes)
    return mps


@given(screened_sets(), st.sampled_from([1, 2]))
@settings(max_examples=150, deadline=None)
def test_three_solvers_agree_exactly_on_screened_sets(mps, model):
    fixed = solve_fixed_point(mps, model).radii.to_array()
    assert np.array_equal(solve_chain(mps, model)[0].radii.to_array(), fixed)
    assert np.array_equal(solve_greedy_oracle(mps, model).radii.to_array(), fixed)


class TestLaws:
    def test_two_point_law(self):
        # Any transversal pair: one infinite segment, the other of radius m.
        rng = np.random.default_rng(5)
        for _ in range(50):
            pts = rng.uniform(-5, 5, (2, 2))
            th = rng.uniform(0, math.pi, 2)
            mps = MarkedPointSet(
                (MarkedPoint(*pts[0], th[0]), MarkedPoint(*pts[1], th[1]))
            )
            from lilyseg import pair_geometry, PairKind

            pg = pair_geometry(mps[0], mps[1])
            if pg.kind is not PairKind.TRANSVERSAL:
                continue
            radii = radii_of(mps, 1)
            assert sorted(math.isinf(r) for r in radii) == [False, True]
            finite = min(radii)
            assert finite == pytest.approx(pg.m, rel=1e-12)

    def test_three_point_law_model1(self):
        # Either exactly one infinite segment or a 3-cycle (all finite).
        outcomes = set()
        for seed in range(120):
            mps = _random_triple(seed)
            if mps is None:
                continue
            radii = radii_of(mps, 1)
            n_inf = sum(math.isinf(r) for r in radii)
            assert n_inf in (0, 1)
            outcomes.add(n_inf)
        assert outcomes == {0, 1}  # both branches observed

    def test_three_point_law_model2(self):
        from lilyseg import analyze

        for seed in range(120):
            mps = _random_triple(seed)
            if mps is None:
                continue
            solution = solve_fixed_point(mps, 2)
            n_inf = sum(math.isinf(r) for r in solution.radii)
            assert n_inf in (0, 1)
            report = analyze(solution)
            assert len(report.cycles) == 0
            assert len(report.doublets) == 1

    def test_range_law(self):
        # Every finite radius is one of the admissible raw growth distances.
        from lilyseg.geometry import shared_pair_table

        for seed in range(10):
            mps = sample_poisson(1.0, Rectangle.square(8.0), seed=seed)
            table = shared_pair_table(mps)
            for model in (1, 2):
                radii = solve_fixed_point(mps, model).radii.to_array()
                values = table.d if model == 1 else np.maximum(table.d, table.d.T)
                admissible = np.where(_candidate_mask(table.d, model), values, np.nan)
                for i, r in enumerate(radii):
                    if math.isfinite(r):
                        assert np.nanmin(np.abs(admissible[i] - r)) == 0.0

    def test_iteration_counts_reported(self, f3):
        solution = solve_fixed_point(f3, 1)
        assert solution.iterations >= 2
        greedy = solve_greedy_oracle(f3, 1)
        assert greedy.iterations >= 1


def _random_triple(seed):
    """A generic triple with mutually transversal carriers (the law's setting)."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 8, (3, 2)).round(2)
    th = rng.uniform(0, math.pi, 3).round(3)
    try:
        mps = MarkedPointSet(tuple(MarkedPoint(x, y, t) for (x, y), t in zip(pts, th)))
    except Exception:
        return None
    from lilyseg import PairKind, check_condition_d, pair_geometry

    if not check_condition_d(mps).passes:
        return None
    for i in range(3):
        for j in range(i + 1, 3):
            if pair_geometry(mps[i], mps[j]).kind is not PairKind.TRANSVERSAL:
                return None
    return mps


class TestVerification:
    def test_fixture_solutions_verify(self, f3):
        solution = solve_fixed_point(f3, 1)
        report = verify_gmhs(f3, solution.radii, 1)
        assert report.passes

    def test_inflated_radius_breaks_hard_core(self, f3):
        bad = RadiiAssignment((4.1, INF, 5 * SQRT2))
        report = verify_gmhs(f3, bad, 1)
        assert not report.passes
        assert (0, 1) in report.hard_core_violations

    def test_shrunk_radius_breaks_growth_maximality(self, f3):
        bad = RadiiAssignment((3.9, INF, 5 * SQRT2))
        report = verify_gmhs(f3, bad, 1)
        assert not report.passes
        assert 0 in report.growth_maximal_violations
        assert any(i == 0 for i, _, _ in report.fixed_point_deviations)

    def test_length_mismatch_is_typed(self, f3):
        for values in ((4.0, INF), (4.0, INF, 1.0, 1.0)):
            with pytest.raises(RadiiMismatch):
                verify_gmhs(f3, RadiiAssignment(values), 1)

    @pytest.mark.parametrize("model", [1, 2])
    def test_random_planted_perturbations_rejected(self, model):
        for seed in range(15):
            mps = sample_poisson(1.0, Rectangle.square(8.0), seed=seed)
            solution = solve_fixed_point(mps, model)
            radii = list(solution.radii.values)
            finite = [i for i, r in enumerate(radii) if math.isfinite(r)]
            if not finite:
                continue
            for factor in (1.025, 0.975):
                perturbed = list(radii)
                perturbed[finite[0]] *= factor
                report = verify_gmhs(mps, RadiiAssignment(tuple(perturbed)), model)
                assert not report.passes


class TestDescendingChains:
    def test_f2_longest_type1_prefix(self, f2):
        chain = find_descending_chain(f2, 1)
        assert len(chain) == 2
        assert chain == [1, 0]  # d(1->0)=4 >= d(0->1)=3

    def test_empty_set(self):
        assert find_descending_chain(MarkedPointSet(()), 1) == []

    def test_poisson_prefix_reported(self):
        mps = sample_poisson(1.0, Rectangle.square(7.0), seed=123)
        for chain_type in (1, 2):
            chain = find_descending_chain(mps, chain_type, max_len=6)
            assert 2 <= len(chain) <= 6
            assert len(set(chain)) == len(chain)

    @pytest.mark.parametrize("chain_type, max_len", [(7, 16), (0, 16), (1, 0), (2, 1)])
    def test_bad_arguments_raise_before_the_table(self, f3, chain_type, max_len):
        with mock.patch.object(PairTable, "_block", side_effect=AssertionError("row block computed")):
            with pytest.raises(InvalidInput):
                find_descending_chain(f3, chain_type, max_len=max_len)


@pytest.mark.parametrize(
    "call",
    [
        lambda mps: solve_greedy_oracle(mps, 3),
        lambda mps: solve_chain(mps, 0),
        lambda mps: solve_chain(mps, 1, start=99),
        lambda mps: solve_chain(mps, 1, start=-1),
    ],
    ids=["greedy_model", "chain_model", "chain_start_high", "chain_start_negative"],
)
def test_oracle_arguments_raise_before_the_table(call):
    mps = MarkedPointSet(tuple(sample_poisson(1.0, Rectangle.square(5.0), seed=2).points))
    with mock.patch.object(PairTable, "_block", side_effect=AssertionError("row block computed")):
        with pytest.raises(InvalidInput):
            call(mps)


@pytest.mark.parametrize(
    "call",
    [
        lambda mps: solve_fixed_point(mps, 3),
        lambda mps: verify_gmhs(mps, RadiiAssignment.from_array(np.zeros(len(mps))), 3),
    ],
    ids=["solve", "verify"],
)
def test_model_checked_before_the_near_list(call):
    mps = MarkedPointSet(tuple(sample_poisson(1.0, Rectangle.square(12.0), seed=2).points))
    assert len(mps) > 128  # the grid builds its list
    boom = AssertionError("pairs computed")
    with mock.patch.object(PairTable, "_block", side_effect=boom), mock.patch.object(
        PairTable, "_grid_rows", side_effect=boom
    ):
        with pytest.raises(InvalidInput):
            call(mps)


class TestSolutionFiles:
    def test_roundtrip(self, tmp_path, f3):
        solution = solve_fixed_point(f3, 1)
        path = tmp_path / "s.json"
        write_solution(solution, str(path))
        back = read_solution(str(path))
        assert back.radii == solution.radii
        assert back.model == 1
        assert back.point_set == f3

    def test_schema(self, f3):
        obj = solution_to_json(solve_fixed_point(f3, 1))
        assert set(obj) == {
            "schema_version",
            "model",
            "realization",
            "radii",
            "method",
            "iterations",
        }
        assert obj["radii"][1] == "inf"
        assert isinstance(obj["radii"][0], float)
