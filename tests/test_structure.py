import itertools
import math

import numpy as np
import pytest

from lilyseg import (
    InvalidInput,
    MarkedPoint,
    MarkedPointSet,
    RadiiAssignment,
    Rectangle,
    Solution,
    analyze,
    contact_count_identity,
    interior_certified,
    realize_segment,
    sample_poisson,
    segments_touch,
    solve_fixed_point,
    stopping_map,
)

INF = math.inf


class TestStoppingMap:
    def test_f3_model1(self, f3):
        solution = solve_fixed_point(f3, 1)
        j = stopping_map(solution).as_dict()
        assert j == {0: 1, 2: 1}

    def test_f2_model2_mutual(self, f2):
        solution = solve_fixed_point(f2, 2)
        j = stopping_map(solution).as_dict()
        assert j == {0: 1, 1: 0}

    def test_f2_model1(self, f2):
        solution = solve_fixed_point(f2, 1)
        assert stopping_map(solution).as_dict() == {1: 0}

    def test_every_finite_index_mapped(self):
        for seed in range(10):
            mps = sample_poisson(1.0, Rectangle.square(8.0), seed=seed)
            for model in (1, 2):
                solution = solve_fixed_point(mps, model)
                j = stopping_map(solution)
                finite = solution.radii.finite_indices()
                assert sorted(j.as_dict()) == sorted(finite)


class TestAnalyze:
    def test_f3_model1_structure(self, f3):
        solution = solve_fixed_point(f3, 1)
        report = analyze(solution)
        assert report.clusters == ((0, 1, 2),)
        assert report.cycles == ()
        assert report.nu == (1, 2, 1)
        assert report.contact_edges == ((0, 1), (1, 2))

    def test_f2_model2_doublet(self, f2):
        solution = solve_fixed_point(f2, 2)
        report = analyze(solution)
        assert report.clusters == ((0, 1),)
        assert report.doublets == ((0, 1),)
        assert report.nu == (1, 1)

    def test_f3c_cycle(self, f3c):
        report = analyze(solve_fixed_point(f3c, 1))
        assert len(report.clusters) == 1
        assert len(report.cycles) == 1
        assert sorted(report.cycles[0]) == [0, 1, 2]

    def test_doublet_radii_equal_exactly(self):
        for seed in range(10):
            mps = sample_poisson(1.0, Rectangle.square(8.0), seed=seed)
            solution = solve_fixed_point(mps, 2)
            report = analyze(solution)
            for a, b in report.doublets:
                assert solution.radii[a] == solution.radii[b]

    def test_model1_cycles_at_least_three(self):
        for seed in range(10):
            mps = sample_poisson(1.0, Rectangle.square(10.0), seed=seed)
            report = analyze(solve_fixed_point(mps, 1))
            for cyc in report.cycles:
                assert len(cyc) >= 3

    def test_cluster_counts_match_closures(self):
        # Finite clusters are closed by exactly one cycle (Model 1) or one
        # doublet (Model 2); clusters holding an infinite segment have none.
        for seed in range(8):
            mps = sample_poisson(1.0, Rectangle.square(10.0), seed=seed)
            for model in (1, 2):
                solution = solve_fixed_point(mps, model)
                report = analyze(solution)
                radii = solution.radii.to_array()
                closures = report.cycles if model == 1 else report.doublets
                n_infinite_clusters = sum(
                    1
                    for cluster in report.clusters
                    if not np.isfinite(radii[list(cluster)]).all()
                )
                assert len(report.clusters) == len(closures) + n_infinite_clusters

    def test_nu_at_least_one_for_finite(self):
        for seed in range(8):
            mps = sample_poisson(1.0, Rectangle.square(8.0), seed=seed)
            for model in (1, 2):
                solution = solve_fixed_point(mps, model)
                report = analyze(solution)
                for i in solution.radii.finite_indices():
                    assert report.nu[i] >= 1

    def test_contact_edges_match_brute_force(self):
        # Independent oracle: pairwise touch tests over realized segments.
        for seed in range(8):
            mps = sample_poisson(1.0, Rectangle.square(6.0), seed=seed)
            if len(mps) < 2:
                continue
            for model in (1, 2):
                solution = solve_fixed_point(mps, model)
                report = analyze(solution)
                segments = [
                    realize_segment(p, r)
                    for p, r in zip(mps.points, solution.radii)
                ]
                brute = {
                    (i, j)
                    for i, j in itertools.combinations(range(len(mps)), 2)
                    if segments_touch(segments[i], segments[j])
                }
                assert brute == set(report.contact_edges)


class TestContactCountIdentity:
    def test_f3c_model1(self, f3c):
        solution = solve_fixed_point(f3c, 1)
        ident = contact_count_identity(analyze(solution), solution)
        assert ident.sum_nu == 6
        assert ident.n_contacts == 3 == ident.n_finite
        assert ident.holds

    def test_f2_model2(self, f2):
        solution = solve_fixed_point(f2, 2)
        ident = contact_count_identity(analyze(solution), solution)
        assert ident.n_contacts == 1
        assert ident.sum_nu == 2
        assert ident.holds

    def test_random_instances_exact(self):
        # Handshake and closure identities hold exactly per realization.
        for seed in range(20):
            mps = sample_poisson(1.0, Rectangle.square(6.0), seed=100 + seed)
            for model in (1, 2):
                solution = solve_fixed_point(mps, model)
                ident = contact_count_identity(analyze(solution), solution)
                assert ident.holds

    def test_all_finite_model1_sum_nu_is_2n(self):
        found = 0
        for seed in range(40):
            mps = sample_poisson(1.0, Rectangle.square(6.0), seed=seed)
            if len(mps) < 3:
                continue
            solution = solve_fixed_point(mps, 1)
            radii = solution.radii.to_array()
            if not np.isfinite(radii).all():
                continue
            report = analyze(solution)
            assert sum(report.nu) == 2 * len(mps)
            found += 1
        assert found >= 1


class TestInteriorCertification:
    def test_no_window_admits_everything(self, f3):
        solution = solve_fixed_point(f3, 1)
        assert interior_certified(solution, None).all()

    def test_margin_and_reach_rules(self):
        window = Rectangle.square(20.0)
        points = (
            MarkedPoint(0.0, 0.0, 0.3),    # deep interior
            MarkedPoint(9.5, 0.0, 1.2),    # inside the margin band
            MarkedPoint(5.0, 5.0, 0.7),    # clears the band
        )
        mps = MarkedPointSet(points)
        radii = RadiiAssignment((1.0, 0.1, 4.9))
        solution = Solution(mps, 1, radii, "fixed_point", 0)
        mask = interior_certified(solution, window, margin=2.0)
        # Germ 0: boundary distance 10, radius 1 < 10 - 1 -> certified.
        # Germ 1: boundary distance 0.5 < margin -> rejected.
        # Germ 2: boundary distance 5, radius 4.9 >= 5 - 1 -> rejected.
        assert mask.tolist() == [True, False, False]

    def test_infinite_radius_never_certified(self):
        window = Rectangle.square(20.0)
        mps = MarkedPointSet((MarkedPoint(0.0, 0.0, 0.3),))
        solution = Solution(mps, 1, RadiiAssignment((INF,)), "fixed_point", 0)
        assert not interior_certified(solution, window, margin=1.0).any()

    @pytest.mark.parametrize("window", [None, Rectangle.square(20.0)])
    @pytest.mark.parametrize("margin", [-1.0, math.nan])
    def test_margin_must_be_non_negative(self, f3, window, margin):
        solution = solve_fixed_point(f3, 1)
        with pytest.raises(InvalidInput, match="margin must be >= 0"):
            interior_certified(solution, window, margin)
