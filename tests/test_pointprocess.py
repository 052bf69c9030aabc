import dataclasses
import math
import pickle

import numpy as np
import pytest

from lilyseg import (
    ConditionDViolation,
    Disk,
    IdenticalGerms,
    InvalidInput,
    InvalidIntensity,
    InvalidWindow,
    MarkedPoint,
    MarkedPointSet,
    NotEnoughPoints,
    Rectangle,
    TwoAtomMarks,
    check_condition_d,
    ensure_condition_d,
    n_closest_to_origin,
    sample_pinned,
    sample_poisson,
)
from lilyseg import pointprocess
from lilyseg.geometry import PairTable
from lilyseg.pointprocess import (
    ConditionDReport,
    read_realization,
    realization_from_json,
    realization_to_json,
    window_from_json,
    write_realization,
)

from conftest import table_rows


class TestWindows:
    def test_rectangle_area_and_bounds(self):
        win = Rectangle(-2, -1, 4, 3)
        assert win.area == 24
        assert win.center == (1.0, 1.0)

    def test_ill_ordered_bounds_rejected(self):
        with pytest.raises(InvalidWindow):
            Rectangle(0, 0, 0, 1)

    def test_disk_area(self):
        assert Disk(0, 0, 2).area == pytest.approx(4 * math.pi)
        with pytest.raises(InvalidWindow):
            Disk(0, 0, 0.0)

    def test_distance_to_boundary(self):
        win = Rectangle.square(10.0)
        assert win.distance_to_boundary(0.0, 0.0) == 5.0
        assert win.distance_to_boundary(4.0, 0.0) == 1.0
        disk = Disk(0, 0, 3)
        assert disk.distance_to_boundary(0.0, 0.0) == 3.0

    def test_window_json_roundtrip(self):
        for win in (Rectangle(-1, -2, 3, 4), Disk(0.5, -0.5, 7.0)):
            assert window_from_json(win.to_json()) == win


class TestSampling:
    def test_determinism_bit_for_bit(self):
        a = sample_poisson(1.0, Rectangle.square(8.0), seed=42)
        b = sample_poisson(1.0, Rectangle.square(8.0), seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        a = sample_poisson(1.0, Rectangle.square(8.0), seed=1)
        b = sample_poisson(1.0, Rectangle.square(8.0), seed=2)
        assert a != b

    def test_count_law(self):
        # Mean count over many seeds agrees with intensity * area within a
        # 3-sigma band for the mean of Poisson(100) draws.
        n_seeds = 3000
        counts = [len(sample_poisson(1.0, Rectangle.square(10.0), seed=s)) for s in range(n_seeds)]
        mean = float(np.mean(counts))
        band = 3.0 * math.sqrt(100.0 / n_seeds)
        assert abs(mean - 100.0) < band

    def test_tiny_intensity_gives_empty_set(self):
        mps = sample_poisson(1e-9, Rectangle.square(1.0), seed=0)
        assert len(mps) == 0

    def test_invalid_inputs(self):
        with pytest.raises(InvalidIntensity):
            sample_poisson(0.0, Rectangle.square(1.0), seed=0)
        with pytest.raises(InvalidWindow):
            sample_poisson(1.0, "not a window", seed=0)

    def test_directions_uniform_ks(self):
        # Pooled direction marks against Uniform(0, pi): the KS statistic
        # stays below the asymptotic 1% critical value 1.628 / sqrt(n).
        thetas = []
        seed = 0
        while len(thetas) < 100_000:
            mps = sample_poisson(1.0, Rectangle.square(10.0), seed=seed)
            thetas.extend(p.theta for p in mps)
            seed += 1
        t = np.sort(np.array(thetas[:100_000])) / math.pi
        n = len(t)
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(grid - t), np.max(t - (grid - 1.0 / n)))
        assert ks < 1.628 / math.sqrt(n)

    def test_direction_range(self):
        mps = sample_poisson(1.0, Rectangle.square(12.0), seed=5)
        assert all(0.0 <= p.theta < math.pi for p in mps)

    def test_disk_sampling_inside(self):
        disk = Disk(1.0, -2.0, 4.0)
        mps = sample_poisson(1.0, disk, seed=9)
        for p in mps:
            assert math.hypot(p.x - 1.0, p.y + 2.0) <= 4.0

    @pytest.mark.parametrize("theta1, theta2, p", [(4.0, 1.0, 0.5), (0.3, -0.1, 0.5), (0.3, 1.0, 1.0), (0.3, 1.0, 0.0)])
    def test_two_atom_marks_out_of_range(self, theta1, theta2, p):
        with pytest.raises(InvalidInput):
            TwoAtomMarks(theta1, theta2, p)

    def test_duplicate_germ_draw_is_resampled(self, monkeypatch, caplog):
        # The first draw's second germ is moved onto its first; the set
        # rejects it, and the next attempt's draw is returned untouched.
        window = Rectangle.square(5.0)
        second = pointprocess._draw(1.0, window, 1, 1)
        sample, drawn = Rectangle.sample, []

        def duplicated_once(self, rng, count):
            xs, ys = sample(self, rng, count)
            if not drawn:
                xs[1], ys[1] = xs[0], ys[0]
            drawn.append((xs, ys))
            return xs, ys

        monkeypatch.setattr(Rectangle, "sample", duplicated_once)
        with caplog.at_level("WARNING", logger="lilyseg.pointprocess"):
            mps = sample_poisson(1.0, window, seed=1)
        assert len(drawn) == 2 and (drawn[0][0][0], drawn[0][1][0]) == (drawn[0][0][1], drawn[0][1][1])
        assert [r.getMessage() for r in caplog.records] == ["duplicate germ sampled (seed=1 attempt=0); resampling"]
        assert mps.points == second.points and mps.provenance == second.provenance

    def test_duplicate_germs_on_every_draw(self, monkeypatch):
        monkeypatch.setattr(pointprocess, "_draw", lambda *args, **kwargs: None)
        with pytest.raises(IdenticalGerms, match="16 draws"):
            sample_poisson(1.0, Rectangle.square(5.0), seed=1)
        with pytest.raises(IdenticalGerms, match="32 draws"):
            sample_pinned(1.0, 41, 1)

    def test_signed_zero_germs_are_a_duplicate_draw(self, monkeypatch, caplog):
        # (0.0, y) and (-0.0, y) are one germ: the draw is resampled.
        window = Rectangle.square(5.0)
        second = pointprocess._draw(1.0, window, 1, 1)
        sample, drawn = Rectangle.sample, []

        def signed_zeros_once(self, rng, count):
            xs, ys = sample(self, rng, count)
            if not drawn:
                xs[0], xs[1], ys[1] = 0.0, -0.0, ys[0]
            drawn.append(xs)
            return xs, ys

        monkeypatch.setattr(Rectangle, "sample", signed_zeros_once)
        with caplog.at_level("WARNING", logger="lilyseg.pointprocess"):
            mps = sample_poisson(1.0, window, seed=1)
        assert len(drawn) == 2 and math.copysign(1.0, drawn[0][1]) == -1.0
        assert [r.getMessage() for r in caplog.records] == ["duplicate germ sampled (seed=1 attempt=0); resampling"]
        assert mps == second

    def test_two_atom_marks(self):
        marks = TwoAtomMarks(0.3, 1.7, p=0.25)
        mps = sample_poisson(1.0, Rectangle.square(12.0), seed=3, marks=marks)
        values = {p.theta for p in mps}
        assert values <= {0.3, 1.7}

    @pytest.mark.parametrize("intensity", [0.0, -1.0, math.nan, math.inf])
    def test_pinned_invalid_intensity(self, intensity):
        # Checked before the default disk radius divides by it.
        with pytest.raises(InvalidIntensity):
            sample_pinned(intensity, 41, 1)

    def test_pinned_short_draws_are_not_enough_points(self):
        # A disk of radius 0.5 holds about 0.8 points: every draw is short.
        with pytest.raises(NotEnoughPoints):
            sample_pinned(1.0, 41, 1, disk_radius=0.5)

    def test_sampled_sets_are_generic(self):
        # Continuous sampling is generic with probability one; zero failures
        # over a thousand draws, screened harder than the sampler's default.
        for seed in range(1000):
            mps = sample_poisson(1.0, Rectangle.square(7.0), seed=seed)
            assert check_condition_d(mps, tie_tol=1e-9).passes


class TestPointSetArrays:
    POINTS = (MarkedPoint(0.5, 1.0, 0.1), MarkedPoint(2.0, -1.5, 3.0), MarkedPoint(-0.0, 4.0, 0.0))

    @pytest.mark.parametrize("repeat", [MarkedPoint(2.0, -1.5, 1.0), MarkedPoint(0.0, 4.0, 2.0)], ids=["exact", "signed-zero"])
    def test_duplicate_points_raise(self, repeat):
        with pytest.raises(IdenticalGerms, match="duplicate germ at"):
            MarkedPointSet(self.POINTS + (repeat,))
        x, y, theta = zip(*((p.x, p.y, p.theta) for p in self.POINTS + (repeat,)))
        with pytest.raises(IdenticalGerms):
            MarkedPointSet.from_arrays(x, y, theta)

    def test_first_repeat_in_index_order_is_named(self):
        points = (MarkedPoint(5.0, 5.0, 0.1), MarkedPoint(1.0, 1.0, 0.2), MarkedPoint(5.0, 5.0, 0.3), MarkedPoint(1.0, 1.0, 0.4))
        with pytest.raises(IdenticalGerms, match=r"\(5\.0, 5\.0\)"):
            MarkedPointSet(points)

    def test_arrays_and_points_build_equal_sets(self):
        provenance = sample_poisson(1.0, Rectangle.square(4.0), seed=2).provenance
        from_points = MarkedPointSet(self.POINTS, provenance)
        x, y, theta = (np.array([getattr(p, name) for p in self.POINTS]) for name in ("x", "y", "theta"))
        from_arrays = MarkedPointSet.from_arrays(x, y, theta, provenance)
        assert from_arrays == from_points and hash(from_arrays) == hash(from_points)
        assert repr(from_arrays) == repr(from_points) and from_arrays.points == self.POINTS
        assert pickle.dumps(from_arrays) == pickle.dumps(from_points)
        back = pickle.loads(pickle.dumps(from_arrays))
        assert back == from_points and list(back) == list(self.POINTS) and back[1] == self.POINTS[1]
        assert np.array_equal(from_arrays.coords(), [[0.5, 1.0], [2.0, -1.5], [0.0, 4.0]])
        x[0] = 9.0  # the set keeps a copy
        assert from_arrays.x[0] == 0.5 and not from_arrays.x.flags.writeable

    def test_sets_stay_frozen(self):
        mps = MarkedPointSet(self.POINTS)
        for name in ("points", "x", "provenance"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(mps, name, None)

    @pytest.mark.parametrize(
        "x, y, theta, match",
        [
            ([0.0, math.inf], [0.0, 1.0], [0.0, 0.5], "coordinates must be finite"),
            ([0.0, 1.0], [math.nan, 1.0], [0.0, 0.5], "coordinates must be finite"),
            ([0.0, 1.0], [0.0, 1.0], [0.0, math.pi], "direction must lie in"),
            ([0.0, 1.0], [0.0, 1.0], [-0.5, 0.5], "direction must lie in"),
            ([0.0, 1.0], [0.0], [0.0, 0.5], "one length"),
        ],
    )
    def test_from_arrays_checks_each_germ(self, x, y, theta, match):
        with pytest.raises(InvalidInput, match=match):
            MarkedPointSet.from_arrays(x, y, theta)


class TestConditionD:
    def test_f3_passes(self, f3):
        report = check_condition_d(f3)
        assert report.passes
        assert report.near_ties == ()
        assert report.collinear_pairs == ()

    def test_collinear_pair_reported(self):
        mps = MarkedPointSet((MarkedPoint(0, 0, 0.0), MarkedPoint(2, 0, 0.0)))
        report = check_condition_d(mps)
        assert not report.passes
        assert report.collinear_pairs == ((0, 1),)

    def test_planted_tie_reported(self):
        # Mirror-symmetric verticals around a horizontal: the two growth
        # distances from the horizontal germ coincide exactly.
        mps = MarkedPointSet(
            (
                MarkedPoint(0, 0, 0.0),
                MarkedPoint(3, 4, math.pi / 2),
                MarkedPoint(-3, 4, math.pi / 2),
            )
        )
        report = check_condition_d(mps)
        assert not report.passes
        assert report.near_ties
        pairs = {frozenset((a, b)) for (a, b), _, _ in
                 ((t[0], t[1], t[2]) for t in report.near_ties)}
        assert any({0} & set(p) for p in pairs)

    def test_ensure_condition_d_hard_error(self):
        mps = MarkedPointSet((MarkedPoint(0, 0, 0.0), MarkedPoint(2, 0, 0.0)))
        with pytest.raises(ConditionDViolation):
            ensure_condition_d(mps)

    def test_ensure_condition_d_perturb(self):
        mps = MarkedPointSet(
            (
                MarkedPoint(0, 0, 0.0),
                MarkedPoint(3, 4, math.pi / 2),
                MarkedPoint(-3, 4, math.pi / 2),
            )
        )
        fixed = ensure_condition_d(mps, perturb=True, seed=1)
        assert check_condition_d(fixed).passes
        for orig, moved in zip(mps, fixed):
            assert math.hypot(orig.x - moved.x, orig.y - moved.y) < 1e-8


def _brute_condition_d(mps, tie_tol):
    """Reference screen: the exact rule applied to every germ-sharing pair.

    Each finite distance is taken once (both orders of a transversal pair,
    the (min, max) copy of a collinear pair) and ordered by value, then by
    row-major index.
    """
    d, collinear = table_rows(PairTable(mps.points))
    n = len(mps)
    entries = sorted(
        (float(d[i, j]), (i, j))
        for i in range(n)
        for j in range(n)
        if (not collinear[i, j] and math.isfinite(d[i, j]))
        or (collinear[i, j] and i < j)
    )
    near = []
    for a, (va, ea) in enumerate(entries):
        for vb, eb in entries[a + 1:]:
            if set(ea) & set(eb) and vb - va < tie_tol * max(vb, 1.0):
                near.append((ea, eb, vb - va))
    pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n) if collinear[i, j])
    return ConditionDReport(not near and not pairs, tuple(near), pairs)


def _tie_prone_set(seed):
    """A small set that often holds near ties at a loose tolerance."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 11))
    kind = seed % 3
    if kind == 0:  # uniform
        xs, ys = rng.uniform(0.0, 4.0, (2, n))
        thetas = rng.uniform(0.0, math.pi, n)
    elif kind == 1:  # lattice germs with few directions: exact ties, collinear pairs
        cells = rng.choice(16, size=n, replace=False)
        xs, ys = (cells % 4).astype(float), (cells // 4).astype(float)
        thetas = rng.choice([0.0, math.pi / 4, math.pi / 2, 2.0], n)
    else:  # uniform germs with two directions, shifted by 1e6
        xs, ys = 1e6 + rng.uniform(0.0, 4.0, (2, n))
        thetas = rng.choice([0.4, 1.9], n)
    return MarkedPointSet(tuple(MarkedPoint(x, y, t) for x, y, t in zip(xs, ys, thetas)))


class TestConditionDReference:
    TOL = 1e-3

    def test_matches_brute_force(self):
        failing = 0
        for seed in range(240):
            mps = _tie_prone_set(seed)
            report = check_condition_d(mps, self.TOL)
            assert report == _brute_condition_d(mps, self.TOL), seed
            failing += not report.passes
        assert 40 < failing < 220

    def test_collinear_half_distance_ties_transversal(self):
        # Germs 1 and 2 are collinear (half distance 1.0); the vertical
        # germ 0 meets their carrier at 0.9995 from germ 2 and 1.0005 from
        # germ 1, and both of its own distances are 3.
        mps = MarkedPointSet(
            (
                MarkedPoint(0.9995, 3.0, math.pi / 2),
                MarkedPoint(2.0, 0.0, 0.0),
                MarkedPoint(0.0, 0.0, 0.0),
            )
        )
        report = check_condition_d(mps, self.TOL)
        assert report == _brute_condition_d(mps, self.TOL)
        assert report.collinear_pairs == ((1, 2),)
        assert [(a, b) for a, b, _ in report.near_ties] == [
            ((2, 0), (1, 2)),
            ((2, 0), (1, 0)),
            ((1, 2), (1, 0)),
            ((0, 1), (0, 2)),
        ]

    def test_tie_between_four_distinct_germs_not_flagged(self):
        # Two translated copies of one transversal pair: d[0, 1] == d[2, 3]
        # and d[1, 0] == d[3, 2] exactly, but no germ is shared.
        mps = MarkedPointSet(
            (
                MarkedPoint(0.0, 0.0, 0.0),
                MarkedPoint(1.0, 2.0, math.pi / 2),
                MarkedPoint(10.0, 10.0, 0.0),
                MarkedPoint(11.0, 12.0, math.pi / 2),
            )
        )
        table = PairTable(mps.points)
        assert table.d[0, 1] == table.d[2, 3] and table.d[1, 0] == table.d[3, 2]
        report = check_condition_d(mps, self.TOL)
        assert report.passes and report.near_ties == ()
        assert report == _brute_condition_d(mps, self.TOL)


class TestNClosest:
    def test_selection_and_order(self):
        mps = MarkedPointSet(
            (
                MarkedPoint(3, 0, 0.1),
                MarkedPoint(1, 0, 0.2),
                MarkedPoint(2, 0, 0.3),
            )
        )
        out = n_closest_to_origin(mps, 2)
        assert out[0] == MarkedPoint(0.0, 0.0, 0.0)
        assert [p.x for p in out.points[1:]] == [1.0, 2.0]

    def test_whole_set_retained(self):
        mps = MarkedPointSet((MarkedPoint(1, 1, 0.5), MarkedPoint(2, 2, 0.6)))
        out = n_closest_to_origin(mps, 2)
        assert len(out) == 3

    def test_tie_break_by_index(self):
        mps = MarkedPointSet(
            (MarkedPoint(0, 2, 0.5), MarkedPoint(2, 0, 0.6), MarkedPoint(0, -2, 0.7))
        )
        out = n_closest_to_origin(mps, 2)
        assert [p.theta for p in out.points[1:]] == [0.5, 0.6]

    def test_not_enough_points(self):
        mps = MarkedPointSet((MarkedPoint(1, 1, 0.5),))
        with pytest.raises(NotEnoughPoints):
            n_closest_to_origin(mps, 2)


class TestRealizationFiles:
    def test_roundtrip_preserves_everything(self, tmp_path):
        mps = sample_poisson(1.0, Rectangle.square(6.0), seed=11)
        path = tmp_path / "r.json"
        write_realization(mps, str(path))
        back = read_realization(str(path))
        assert back == mps

    def test_schema_fields(self):
        mps = sample_poisson(1.0, Disk(0, 0, 2.0), seed=4)
        obj = realization_to_json(mps)
        assert set(obj) == {"schema_version", "seed", "lambda", "window", "points"}
        assert obj["seed"] == 4
        assert obj["lambda"] == 1.0
        assert obj["window"]["shape"] == "disk"
        assert all(set(rec) == {"x", "y", "theta"} for rec in obj["points"])

    def test_user_supplied_has_null_provenance(self, f3):
        obj = realization_to_json(f3)
        assert obj["seed"] is None and obj["lambda"] is None and obj["window"] is None
        assert realization_from_json(obj).provenance is None

    def test_jsonl_batch_reading(self, tmp_path):
        import json

        from lilyseg.pointprocess import iter_realizations

        sets = [sample_poisson(1.0, Rectangle.square(4.0), seed=s) for s in range(3)]
        path = tmp_path / "batch.jsonl"
        with open(path, "w") as fh:
            for mps in sets:
                fh.write(json.dumps(realization_to_json(mps)) + "\n")
        assert list(iter_realizations(str(path))) == sets

    @pytest.mark.parametrize("field", ["points", "x", "y", "theta"])
    def test_missing_field_is_named(self, field):
        obj = realization_to_json(sample_poisson(1.0, Rectangle.square(4.0), seed=1))
        if field == "points":
            del obj["points"]
        else:
            del obj["points"][1][field]
        with pytest.raises(InvalidInput, match=f"missing field '{field}'"):
            realization_from_json(obj)

    @pytest.mark.parametrize("value", ["1.5", None, [1.0]], ids=["text", "null", "list"])
    def test_non_number_field_is_rejected(self, value):
        obj = {"points": [{"x": 0.0, "y": 0.0, "theta": 0.0}, {"x": value, "y": 1.0, "theta": 0.5}]}
        with pytest.raises(InvalidInput, match="malformed realization"):
            realization_from_json(obj)
