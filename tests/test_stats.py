import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lilyseg.stats
from lilyseg import (
    AbortRateExceeded,
    ConditionDViolation,
    InsufficientSizes,
    InsufficientTail,
    InvalidInput,
    InvalidIntensity,
    InvalidWindow,
    McConfig,
    Rectangle,
    TrendTable,
    analyze,
    estimate_mu_consistency,
    gaussian_tail_diagnostic,
    mass_transport_check,
    percolation_trend,
    pinned_origin_radii,
    run_monte_carlo,
    sample_pinned,
    sample_poisson,
    solve_fixed_point,
    tail_of_r2,
)
from lilyseg.stats import TrendRow, estimates_to_csv


def small_config(model, **kw):
    defaults = dict(
        model=model,
        intensity=1.0,
        window=Rectangle.square(12.0),
        margin=3.0,
        replications=10,
        base_seed=0,
    )
    defaults.update(kw)
    return McConfig(**defaults)


# ``repr`` of one replication on a 30x30 window (seed 0, margin 8) per
# model, as the object-building replication path printed it.
ONE_REPLICATION_30 = {
    1: "PalmEstimates(config_hash='b860e3f72865', model=1, replications_completed=1, replications_aborted=0, "
    "replications_flagged=0, n_certified=183, stderr_defined=False, nu_mean=1.9836065573770492, "
    "nu_stderr=nan, varpi=nan, varpi_stderr=nan, varpi_by_r={3: 0.04918032786885246, 4: 0.07650273224043716, "
    "5: 0.07650273224043716}, varpi_by_r_stderr={3: nan, 4: nan, 5: nan}, varpi_total=0.20218579234972678, "
    "p_finite=1.0, p_finite_stderr=nan, mu_direct=15.222222222222221, mu_direct_stderr=nan, nu_vs_varpi_gap=nan, "
    "nu_vs_varpi_gap_stderr=nan, tail=None, gaussian=None)",
    2: "PalmEstimates(config_hash='78bd19dd79bd', model=2, replications_completed=1, replications_aborted=0, "
    "replications_flagged=0, n_certified=183, stderr_defined=False, nu_mean=1.2131147540983607, "
    "nu_stderr=nan, varpi=0.7704918032786885, varpi_stderr=nan, varpi_by_r={}, varpi_by_r_stderr={}, "
    "varpi_total=nan, p_finite=1.0, p_finite_stderr=nan, mu_direct=2.589041095890411, mu_direct_stderr=nan, "
    "nu_vs_varpi_gap=-0.016393442622950838, nu_vs_varpi_gap_stderr=nan, tail=None, gaussian=None)",
}


@pytest.mark.parametrize("model", [1, 2])
def test_replication_builds_no_point_or_report_object(monkeypatch, model):
    # Sample, solve and tally run on arrays: a MarkedPoint or a
    # StructureReport made anywhere on the way fails the replication.
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built on the replication path")

    monkeypatch.setattr(lilyseg.MarkedPoint, "__init__", refuse)
    monkeypatch.setattr(lilyseg.StructureReport, "__init__", refuse)
    estimates = run_monte_carlo(McConfig(model, 1.0, Rectangle.square(30.0), replications=1))
    assert repr(estimates) == ONE_REPLICATION_30[model]


class TestRunMonteCarlo:
    def test_determinism(self):
        a = run_monte_carlo(small_config(1))
        b = run_monte_carlo(small_config(1))
        assert a == b

    def test_parallel_matches_serial(self):
        serial = run_monte_carlo(small_config(2, replications=6))
        parallel = run_monte_carlo(small_config(2, replications=6), workers=2)
        assert serial == parallel

    def test_nu_mean_near_two_model1(self):
        est = run_monte_carlo(small_config(1, replications=40))
        assert est.n_certified > 200
        assert abs(est.nu_mean - 2.0) < 0.2

    def test_model2_nu_varpi_relation(self):
        est = run_monte_carlo(small_config(2, replications=40))
        # nu + varpi - 2 should be near zero (it is exactly zero on fully
        # certified realizations).
        assert abs(est.nu_vs_varpi_gap) <= max(4 * est.nu_vs_varpi_gap_stderr, 0.05)

    def test_single_replication_flags_stderr(self):
        est = run_monte_carlo(small_config(1, replications=1))
        assert not est.stderr_defined
        assert math.isnan(est.nu_stderr)
        assert not math.isnan(est.nu_mean)

    def test_csv_rows(self):
        est = run_monte_carlo(small_config(2))
        text = estimates_to_csv(est)
        header, *rows = text.strip().splitlines()
        assert header == "name,estimate,stderr,n_effective,config_hash"
        names = {r.split(",")[0] for r in rows}
        assert {"nu_mean", "varpi", "p_finite", "mu_direct"} <= names

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_config(1, margin=7.0)  # no interior left in a 12x12 window
        with pytest.raises(ValueError):
            small_config(1, replications=0)
        with pytest.raises(ValueError, match="model must be 1 or 2"):
            small_config(3)
        for intensity in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InvalidIntensity):
                small_config(1, intensity=intensity)
        for margin in (-1.0, math.nan):
            with pytest.raises(InvalidInput, match="margin must be >= 0"):
                small_config(1, margin=margin)


class TestMuConsistency:
    def test_single_doublet_universe(self, f2):
        # Two germs stopping each other: the direct cluster size is 2 and
        # every germ sits in a doublet, so the formula route gives 2 / 1.
        solution = solve_fixed_point(f2, 2)
        from lilyseg import analyze

        report = analyze(solution)
        assert report.doublets == ((0, 1),)
        est = run_monte_carlo(small_config(2, replications=8))
        cons = estimate_mu_consistency(est, 2)
        assert cons.formula_defined
        assert cons.mu_formula == pytest.approx(2.0 / est.varpi)

    def test_model2_consistency_small_run(self):
        est = run_monte_carlo(small_config(2, replications=40))
        cons = estimate_mu_consistency(est, 2)
        assert cons.formula_defined
        assert cons.rel_discrepancy < 0.25  # generous band for a small run

    def test_zero_varpi_flagged(self):
        from lilyseg.stats import PalmEstimates

        est = PalmEstimates(
            config_hash="x",
            model=2,
            replications_completed=1,
            replications_aborted=0,
            replications_flagged=0,
            n_certified=0,
            stderr_defined=False,
        )
        est.varpi = 0.0
        cons = estimate_mu_consistency(est, 2)
        assert not cons.formula_defined
        assert math.isnan(cons.rel_discrepancy)

    def test_model1_formula_route(self):
        est = run_monte_carlo(small_config(1, replications=40))
        cons = estimate_mu_consistency(est, 1)
        if cons.formula_defined:
            assert cons.mu_formula > 0

    def test_model1_cycle_rate_aggregation(self):
        # Per-size cycle membership rates sum to the total on-cycle rate.
        est = run_monte_carlo(small_config(1, replications=20))
        assert sum(est.varpi_by_r.values()) == pytest.approx(est.varpi_total, abs=1e-12)


class TestTailOfR2:
    def test_normalization_at_zero(self):
        table = tail_of_r2(np.array([0.5, 1.0, 2.0, 3.0]), grid=[0.0, 1.0])
        assert table.survival[0] == 1.0

    def test_exponential_reference_value(self):
        table = tail_of_r2(np.array([1.0, 2.0]), grid=[1.0])
        assert table.exp_reference[0] == pytest.approx(math.exp(-1.0))

    def test_exponential_data_tracks_reference(self):
        rng = np.random.default_rng(0)
        radii = np.sqrt(rng.exponential(1.0, 40_000))
        table = tail_of_r2(radii, grid=[1.0, 2.0, 3.0])
        for s, ref in zip(table.survival, table.exp_reference):
            assert abs(s - ref) < 0.02

    def test_infinite_entries_dropped(self):
        table = tail_of_r2(np.array([1.0, math.inf, 2.0]), grid=[0.0])
        assert table.n_samples == 2

    def test_csv_format(self):
        text = tail_of_r2(np.array([1.0, 2.0, 3.0])).to_csv()
        assert text.splitlines()[0] == "x,survival,exp_reference"

    def test_survival_monotone_nonincreasing(self):
        rng = np.random.default_rng(3)
        table = tail_of_r2(rng.exponential(1.0, 5000))
        assert all(a >= b for a, b in zip(table.survival, table.survival[1:]))
        assert table.survival[0] == 1.0


class TestGaussianTail:
    def test_gaussian_squared_data_fits_and_dominates(self):
        # Radii whose squares are exponential: survival exp(-t^2 / mean).
        rng = np.random.default_rng(1)
        radii = np.sqrt(rng.exponential(0.5, 20_000))
        fit = gaussian_tail_diagnostic(radii)
        assert fit.beta > 0
        assert fit.dominates

    def test_exponential_tail_rejected(self):
        # Planted negative control: exponential radii decay too slowly for
        # any sub-Gaussian bound fitted on the decile.
        rng = np.random.default_rng(2)
        radii = rng.exponential(1.0, 20_000)
        fit = gaussian_tail_diagnostic(radii)
        assert not fit.dominates

    def test_too_few_radii(self):
        with pytest.raises(InsufficientTail):
            gaussian_tail_diagnostic(np.ones(100) * 2.0, min_radii=1000)

    def test_constant_radii_rejected(self):
        with pytest.raises(InsufficientTail):
            gaussian_tail_diagnostic(np.ones(5000))


class TestPinnedBatch:
    def test_deterministic_and_plausible(self):
        radii = pinned_origin_radii(1, 1.0, 20, replications=30, base_seed=5)
        again = pinned_origin_radii(1, 1.0, 20, replications=30, base_seed=5)
        assert np.array_equal(radii, again)
        finite = radii[np.isfinite(radii)]
        assert len(finite) >= 25
        assert finite.mean() < 3.0


class TestPercolationTrend:
    def test_insufficient_sizes(self):
        with pytest.raises(InsufficientSizes):
            percolation_trend(2, 1.0, [8.0, 10.0], replications=5)

    def test_model2_slope_near_zero(self):
        trend = percolation_trend(2, 1.0, [6.0, 8.0, 10.0, 12.0], replications=20, base_seed=3)
        assert len(trend.rows) == 4
        assert trend.ci_covers_zero_or_negative

    def test_csv_contains_slope(self):
        trend = percolation_trend(2, 1.0, [6.0, 7.0, 8.0], replications=5, base_seed=9)
        assert "slope" in trend.to_csv()

    def test_equal_mean_point_counts_raise(self):
        # Every non-empty window holds one point, so no slope is defined.
        with pytest.raises(InsufficientSizes, match="same mean point count"):
            percolation_trend(2, 0.05, [1.0, 2.0, 3.0], 10, base_seed=2)

    def test_rows_with_only_empty_windows_leave_the_fit(self):
        # Every window of side 0.5 is empty; two rows are left to fit.
        with pytest.raises(InsufficientSizes, match="only 2 of 3"):
            percolation_trend(1, 0.05, [0.5, 3.0, 6.0], 10, base_seed=2)
        # With a third usable row the empty one stays in the table, outside the fit.
        trend = percolation_trend(1, 0.05, [0.5, 3.0, 6.0, 9.0], 10, base_seed=2)
        assert trend.rows[0].replications == 0
        assert math.isnan(trend.rows[0].mean_cluster_size)
        assert math.isfinite(trend.slope) and math.isfinite(trend.slope_stderr)
        fitted = percolation_trend(1, 0.05, [3.0, 6.0, 9.0], 10, base_seed=2 + 10_000)
        assert (trend.slope, trend.slope_stderr) == (fitted.slope, fitted.slope_stderr)


class TestWorkers:
    """Trends are the same in a process pool, and only a pool loads one."""

    def test_import_loads_no_pool(self):
        src = str(Path(lilyseg.stats.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, numpy, lilyseg; print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_trend_identical(self):
        serial = percolation_trend(1, 1.0, [5.0, 6.0, 7.0], 6, base_seed=4)
        pooled = percolation_trend(1, 1.0, [5.0, 6.0, 7.0], 6, base_seed=4, workers=2)
        assert serial.to_csv() == pooled.to_csv()


def _reference_pinned_origin_radii(
    model, intensity, n_neighbors, replications, base_seed=0, disk_radius=None, censor_escapes=True
):
    # The per-estimator loop that the shared replication driver replaced.
    if disk_radius is None:
        disk_radius = math.sqrt(3.0 * (n_neighbors + 1) / (math.pi * intensity))
    out = np.empty(replications)
    for r in range(replications):
        mps = sample_pinned(intensity, n_neighbors, base_seed + r, disk_radius)
        solution = solve_fixed_point(mps, model)
        radius = solution.radii[0]
        if censor_escapes and radius > disk_radius:
            radius = math.inf
        out[r] = radius
    return out


def _reference_percolation_trend(model, intensity, sides, replications=100, base_seed=0):
    # The per-estimator loop and fit that the shared replication driver replaced.
    rows = []
    for k, side in enumerate(sides):
        window = Rectangle.square(side)
        sizes = []
        points = []
        for r in range(replications):
            seed = base_seed + 10_000 * k + r
            mps = sample_poisson(intensity, window, seed)
            if len(mps) == 0:
                continue
            solution = solve_fixed_point(mps, model)
            report = analyze(solution)
            coords = mps.coords()
            center = window.center
            nearest = int(
                np.argmin(np.hypot(coords[:, 0] - center[0], coords[:, 1] - center[1]))
            )
            sizes.append(float(len(report.cluster_of(nearest))))
            points.append(len(mps))
        arr = np.array(sizes)
        stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) >= 2 else math.nan
        rows.append(
            TrendRow(
                side=float(side),
                mean_points=float(np.mean(points)) if points else 0.0,
                mean_cluster_size=float(arr.mean()) if len(arr) else math.nan,
                stderr=stderr,
                replications=len(arr),
            )
        )

    xs = np.array([row.mean_points for row in rows])
    ys = np.array([row.mean_cluster_size for row in rows])
    ws = np.array([1.0 / row.stderr**2 if row.stderr and row.stderr > 0 else 1.0 for row in rows])
    xbar = float(np.sum(ws * xs) / np.sum(ws))
    ybar = float(np.sum(ws * ys) / np.sum(ws))
    sxx = float(np.sum(ws * (xs - xbar) ** 2))
    slope = float(np.sum(ws * (xs - xbar) * (ys - ybar)) / sxx)
    slope_stderr = float(math.sqrt(1.0 / sxx))
    return TrendTable(
        model=model,
        rows=tuple(rows),
        slope=slope,
        slope_stderr=slope_stderr,
        slope_ci_low=slope - 1.96 * slope_stderr,
        slope_ci_high=slope + 1.96 * slope_stderr,
    )


class TestAgainstReferenceLoops:
    @pytest.mark.parametrize(
        "model, n_neighbors, replications, base_seed, censor",
        [(1, 41, 40, 0, True), (2, 20, 60, 5, True), (1, 20, 60, 11, False)],
    )
    def test_pinned_radii_identical(self, model, n_neighbors, replications, base_seed, censor):
        args = (model, 1.0, n_neighbors, replications, base_seed)
        got = pinned_origin_radii(*args, censor_escapes=censor)
        assert np.array_equal(got, _reference_pinned_origin_radii(*args, censor_escapes=censor))

    @pytest.mark.parametrize(
        "model, intensity, sides, replications",
        [
            (2, 1.0, [6.0, 8.0, 10.0], 12),
            (1, 1.0, [5.0, 7.0, 9.0], 10),
            # About four windows in five are empty at side 2: rows count the rest.
            (1, 0.05, [2.0, 3.0, 4.0, 6.0], 30),
        ],
    )
    def test_trend_csv_identical(self, model, intensity, sides, replications):
        got = percolation_trend(model, intensity, sides, replications, base_seed=2)
        reference = _reference_percolation_trend(model, intensity, sides, replications, base_seed=2)
        assert got.to_csv() == reference.to_csv()
        if intensity < 1.0:
            assert got.rows[0].replications < replications


def _failing_at(sampler, bad_seeds):
    """Wrap a sampler (seed as third argument) to raise for ``bad_seeds``."""

    def sample(*args, **kwargs):
        if args[2] in bad_seeds:
            raise ConditionDViolation(None, f"forced failure at seed {args[2]}")
        return sampler(*args, **kwargs)

    return sample


class TestAbortBudget:
    """One policy for all three estimators: drop and count up to 1%, raise above."""

    def mc_config(self, model):
        return small_config(model, window=Rectangle.square(8.0), margin=2.0, replications=100, base_seed=50)

    @pytest.mark.parametrize("model", [1, 2])
    def test_monte_carlo_drops_one_in_a_hundred(self, monkeypatch, caplog, model):
        monkeypatch.setattr(lilyseg.stats, "sample_poisson", _failing_at(sample_poisson, {87}))
        est = run_monte_carlo(self.mc_config(model), workers=1)
        assert est.replications_aborted == 1
        assert est.replications_completed == 99
        assert "replication seed=87 aborted: ConditionDViolation" in caplog.text

    def test_monte_carlo_raises_above_budget(self, monkeypatch):
        monkeypatch.setattr(lilyseg.stats, "sample_poisson", _failing_at(sample_poisson, {50, 149}))
        with pytest.raises(AbortRateExceeded, match="2/100"):
            run_monte_carlo(self.mc_config(1), workers=1)

    def test_pinned_drops_one_in_a_hundred(self, monkeypatch):
        full = pinned_origin_radii(1, 1.0, 10, 100, base_seed=7)
        monkeypatch.setattr(lilyseg.stats, "sample_pinned", _failing_at(sample_pinned, {7 + 42}))
        radii = pinned_origin_radii(1, 1.0, 10, 100, base_seed=7)
        assert len(radii) == 99
        assert np.array_equal(radii, np.delete(full, 42))

    def test_pinned_raises_above_budget(self, monkeypatch):
        monkeypatch.setattr(lilyseg.stats, "sample_pinned", _failing_at(sample_pinned, {0, 1}))
        with pytest.raises(AbortRateExceeded):
            pinned_origin_radii(2, 1.0, 10, 100)

    def test_trend_drops_one_in_a_hundred(self, monkeypatch):
        sides = [4.0, 5.0, 6.0]
        full = percolation_trend(2, 1.0, sides, replications=100, base_seed=3)
        monkeypatch.setattr(lilyseg.stats, "sample_poisson", _failing_at(sample_poisson, {3 + 10_000 + 17}))
        trend = percolation_trend(2, 1.0, sides, replications=100, base_seed=3)
        assert [row.replications for row in full.rows] == [100, 100, 100]
        assert [row.replications for row in trend.rows] == [100, 99, 100]
        assert (trend.rows[0], trend.rows[2]) == (full.rows[0], full.rows[2])

    def test_trend_raises_above_budget(self, monkeypatch):
        monkeypatch.setattr(lilyseg.stats, "sample_poisson", _failing_at(sample_poisson, {20_000, 20_099}))
        with pytest.raises(AbortRateExceeded):
            percolation_trend(1, 1.0, [4.0, 5.0, 6.0], replications=100)

    def test_invalid_arguments_raise_before_any_replication(self):
        for intensity in (0.0, -1.0, math.nan):
            with pytest.raises(InvalidIntensity):
                pinned_origin_radii(1, intensity, 10, 5)
            with pytest.raises(InvalidIntensity):
                percolation_trend(1, intensity, [4.0, 5.0, 6.0], replications=5)
        with pytest.raises(ValueError, match="model must be 1 or 2"):
            pinned_origin_radii(3, 1.0, 10, 5)
        with pytest.raises(ValueError, match="model must be 1 or 2"):
            percolation_trend(0, 1.0, [4.0, 5.0, 6.0], replications=5)
        with pytest.raises(ValueError, match="n_neighbors must be positive"):
            pinned_origin_radii(1, 1.0, 0, 5)
        for replications in (0, -3):
            with pytest.raises(InvalidInput, match="replications must be >= 1"):
                pinned_origin_radii(1, 1.0, 41, replications)
        with pytest.raises(InvalidInput, match="replications must be >= 1"):
            percolation_trend(1, 1.0, [5, 6, 7], 0)

    def test_bad_side_raises_before_any_replication(self, monkeypatch):
        # The bad side comes last: every window is built before the first replication.
        def sampler(*args):
            raise AssertionError("sampler called")

        monkeypatch.setattr(lilyseg.stats, "sample_poisson", sampler)
        for bad in (-3.0, 0.0, math.inf, math.nan):
            with pytest.raises(InvalidWindow):
                percolation_trend(1, 1.0, [7.0, 10.0, bad], 2)


class TestMassTransport:
    def test_f3c_all_finite(self, f3c):
        tally = mass_transport_check(solve_fixed_point(f3c, 1))
        assert tally.lhs == 3 == tally.rhs
        assert tally.fully_certified_all_finite and tally.exact

    def test_f2_model2(self, f2):
        tally = mass_transport_check(solve_fixed_point(f2, 2))
        assert tally.lhs == 2 == tally.rhs

    def test_f3_with_infinite_segment(self, f3):
        tally = mass_transport_check(solve_fixed_point(f3, 1))
        assert tally.lhs == 2 == tally.rhs
        assert not tally.fully_certified_all_finite

    def test_exact_on_full_realizations(self):
        # With no certification filter both tallies count the same stop
        # events, whatever the boundary does.
        for seed in range(10):
            mps = sample_poisson(1.0, Rectangle.square(8.0), seed=seed)
            for model in (1, 2):
                tally = mass_transport_check(solve_fixed_point(mps, model))
                assert tally.exact
