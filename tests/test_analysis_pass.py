"""The structure analysis on a solver's answer and on rebuilt solutions.

A verified solution carries the stops and contacts its verification found,
and ``stopping_map`` and ``analyze`` read them instead of traversing the
pairs again.  The failure tests build solutions by hand, so they carry
nothing and run the analysis's own pass; their messages are those of the
per-germ loops the array bookkeeping replaced.
"""

import dataclasses
import math
import pickle
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
    Solution,
    StructureReport,
    analyze,
    interior_certified,
    sample_poisson,
    solve_fixed_point,
    stopping_map,
)
from lilyseg.errors import AmbiguousStop, StructureInconsistency
from lilyseg.geometry import CONTACT_TOL, PairTable, _key_pairs, shared_pair_table
from lilyseg.solver import solution_to_json
from lilyseg.stats import McConfig, _collect_replication
from lilyseg.structure import _structure

from test_near_list import NEAR_WIDTHS, dense_cover, dense_stop_matches, drawn_radii, fresh_table, point_lists

INF = math.inf
HALF_PI = math.pi / 2


def by_hand(points, model, radii):
    """A solution built from its fields, as a caller outside the solvers would."""
    return Solution(MarkedPointSet(tuple(MarkedPoint(*p) for p in points)), model,
                    RadiiAssignment(tuple(radii)), "by_hand", 0)


def rebuilt(solution):
    return Solution(solution.point_set, solution.model, solution.radii, solution.method, solution.iterations)


# ---------------------------------------------------------------------------
# Failure paths


@pytest.mark.parametrize("model", [1, 2])
def test_finite_radius_without_a_stop(model):
    mps = sample_poisson(1.0, Rectangle.square(15.0), seed=3)
    solution = solve_fixed_point(mps, model)
    radii = list(solution.radii)
    i = solution.radii.finite_indices()[0]
    radii[i] *= 1.025
    moved = Solution(mps, model, RadiiAssignment(tuple(radii)), solution.method, solution.iterations)
    message = f"index {i} has no stopping neighbour"
    with pytest.raises(StructureInconsistency, match=f"^{message}$"):
        stopping_map(moved)
    with pytest.raises(StructureInconsistency, match=f"^{message}$"):
        analyze(moved)


def test_two_stops_within_tolerance():
    # Germ 0 meets the vertical carriers of germs 1 and 2 at distance 1 on
    # either side; both reach the meeting points.
    solution = by_hand([(0.0, 0.0, 0.0), (1.0, 0.5, HALF_PI), (-1.0, 0.5, HALF_PI)], 1, [1.0, INF, INF])
    for call in (stopping_map, analyze):
        with pytest.raises(AmbiguousStop, match=r"^index 0 stops on \[1, 2\] within tolerance$"):
            call(solution)


def test_contact_without_a_stop():
    # Germ 0 stops on germ 1; the lines of germs 1 and 2 cross, and neither stops.
    solution = by_hand([(0.0, 0.0, 0.0), (1.0, 0.5, HALF_PI), (10.0, 12.0, math.pi / 4)], 1, [1.0, INF, INF])
    assert stopping_map(solution).as_dict() == {0: 1}
    with pytest.raises(StructureInconsistency,
                       match=r"^contact graph mismatch: unexplained touches \[\(1, 2\)\], missing \[\]$"):
        analyze(solution)


def test_model2_infinite_segment_stopping_another():
    # Germ 0 stops on germ 1's line, which Model 2 would have stopped too.
    solution = by_hand([(0.0, 0.0, 0.0), (1.0, 0.5, HALF_PI)], 2, [1.0, INF])
    assert stopping_map(solution).as_dict() == {0: 1}
    with pytest.raises(StructureInconsistency,
                       match=r"^Model 2 infinite segment in non-singleton cluster \(0, 1\)$"):
        analyze(solution)


def test_doublet_with_unequal_radii():
    solution = by_hand([(0.0, 0.0, 0.0), (1.0, 0.5, HALF_PI)], 2, [1.0, 1.0 + 1e-12])
    assert stopping_map(solution).as_dict() == {0: 1, 1: 0}
    with pytest.raises(StructureInconsistency, match=r"^doublet \(0,1\) with unequal radii$"):
        analyze(solution)


def test_the_same_pair_as_a_valid_doublet():
    report = analyze(by_hand([(0.0, 0.0, 0.0), (1.0, 0.5, HALF_PI)], 2, [1.0, 1.0]))
    assert report.doublets == ((0, 1),) and report.clusters == ((0, 1),) and report.nu == (1, 1)


# ---------------------------------------------------------------------------
# The carried pass


def _sets():
    for seed in range(8):
        yield sample_poisson(1.0, Rectangle.square(15.0), seed=seed)
    yield sample_poisson(1.0, Rectangle.square(45.0), seed=1)


def reference_report(solution):
    """The analysis as per-germ loops over the stops and the touching pairs
    of ``answer_pass``: the stops as a dict, the union-find over the edge
    set with its groups sorted, the cycles by walking the map from each
    finite index in turn."""
    table = shared_pair_table(solution.point_set)
    radii = solution.radii.to_array()
    n = len(radii)
    found = table.answer_pass(radii, solution.model, 1e-9)
    stops = dict(zip(found.stop_i.tolist(), found.stop_j.tolist()))
    assert sorted(stops) == list(solution.radii.finite_indices())
    edges = {(min(i, j), max(i, j)) for i, j in stops.items()}
    assert edges == set(_key_pairs(found.touching, n))
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
    by_root = {}
    for i in range(n):
        by_root.setdefault(find(i), []).append(i)
    nu = [0] * n
    for i, j in edges:
        nu[i] += 1
        nu[j] += 1
    cycles, done = [], set()
    for root in stops:
        path, node = [], root
        while node in stops and node not in done and node not in path:
            path.append(node)
            node = stops[node]
        if node in path:
            cycles.append(tuple(path[path.index(node):]))
        done.update(path)
    doublets = ()
    if solution.model == 2:
        cycles, doublets = (), tuple(tuple(sorted(c)) for c in cycles)
    return StructureReport(solution.model, tuple(sorted(edges)), tuple(sorted(tuple(m) for m in by_root.values())),
                           tuple(cycles), doublets, tuple(nu))


def test_carried_pass_gives_the_analysis_of_a_rebuilt_solution():
    for mps in _sets():
        for model in (1, 2):
            solution = solve_fixed_point(mps, model)
            again = rebuilt(solution)
            assert solution._answer is not None and again._answer is None
            assert again == solution
            assert repr(stopping_map(solution)) == repr(stopping_map(again))
            report = analyze(solution)
            assert repr(report) == repr(analyze(again)) == repr(reference_report(solution))
            assert report.cycles if model == 1 else report.doublets


@pytest.mark.parametrize("model", [1, 2])
def test_clusters_in_order_of_their_smallest_member(model):
    for mps in _sets():
        solution = solve_fixed_point(mps, model)
        report = analyze(solution)
        assert report.clusters == tuple(sorted(report.clusters))
        assert all(list(cluster) == sorted(cluster) for cluster in report.clusters)
        label = _structure(solution).label
        assert all(cluster == tuple(np.flatnonzero(label == k)) for k, cluster in enumerate(report.clusters))


def test_carried_pass_stays_private():
    solution = solve_fixed_point(sample_poisson(1.0, Rectangle.square(10.0), seed=2), 1)
    assert solution._answer is not None
    assert "_answer" not in repr(solution)
    assert "_answer" not in solution_to_json(solution)
    assert dataclasses.replace(solution)._answer is None
    assert hash(solution) == hash(rebuilt(solution))


def test_reports_of_one_set_share_ints_and_edges():
    mps = sample_poisson(1.0, Rectangle.square(20.0), seed=5)
    first, second = (analyze(solve_fixed_point(mps, model)) for model in (1, 2))
    edges = {edge: edge for edge in first.contact_edges}
    common = [edge for edge in second.contact_edges if edge in edges]
    assert common and all(edges[edge] is edge for edge in common)
    ints = {i: i for cluster in first.clusters for i in cluster}
    assert len(mps) > 256 and all(ints[i] is i for cluster in second.clusters for i in cluster)
    own = {edge: edge for edge in second.contact_edges}
    assert second.doublets and all(own[pair] is pair for pair in second.doublets)
    assert "_report_objects" not in vars(pickle.loads(pickle.dumps(mps)))


def _count_passes():
    return mock.patch.object(PairTable, "answer_pass", autospec=True, side_effect=PairTable.answer_pass)


@pytest.mark.parametrize("model", [1, 2])
def test_solve_and_analyze_make_one_pass(model):
    mps = sample_poisson(1.0, Rectangle.square(20.0), seed=5)
    with _count_passes() as passes:
        solution = solve_fixed_point(mps, model)
        stopping_map(solution)
        analyze(solution)
    assert passes.call_count == 1
    with _count_passes() as passes:
        analyze(solution, tol=1e-8)  # another tolerance: the analysis makes its own
        analyze(rebuilt(solution))
    assert passes.call_count == 2


# ---------------------------------------------------------------------------
# The pass against the whole-matrix references


def _pairs(keys, n):
    return [(int(k) // n, int(k) % n) for k in keys]


@given(point_lists(), st.integers(min_value=0, max_value=2**32 - 1), NEAR_WIDTHS)
@settings(max_examples=150, deadline=None)
def test_one_pass_matches_dense_reference(points, seed, width):
    # The pass computes whole every row either test cannot certify from the
    # list, the stop matching's or the contacts': under either model the
    # contacts are the same.
    table = fresh_table(points, width)
    radii = drawn_radii(table, seed)
    finite = np.isfinite(radii)[:, None]
    for tol in (0.0, CONTACT_TOL):
        strict, touching = dense_cover(table, radii, True, tol), dense_cover(table, radii, False, tol)
        for model in (1, 2):
            found = table.answer_pass(radii, model, tol)
            assert _pairs(found.strict, table.n) == strict
            assert _pairs(found.touching, table.n) == touching
            want = np.nonzero(dense_stop_matches(table, radii, model, tol) & finite)
            assert found.stop_i.tolist() == list(want[0]) and found.stop_j.tolist() == list(want[1])


# ---------------------------------------------------------------------------
# Replication tallies


def reference_tallies(config, seed):
    """The tallies of one replication by loops over the report's groups;
    the cluster sizes in order of each cluster's smallest index."""
    mps = sample_poisson(config.intensity, config.window, seed)
    solution = solve_fixed_point(mps, config.model)
    report = analyze(solution)
    radii = solution.radii.to_array()
    certified = interior_certified(solution, config.window, config.margin)
    coords = mps.coords()
    cycle_counts = {}
    for cyc in report.cycles:
        for member in cyc:
            if certified[member]:
                cycle_counts[len(cyc)] = cycle_counts.get(len(cyc), 0) + 1
    in_doublet = {i for pair in report.doublets for i in pair}
    finite_members, sizes = 0, []
    for cluster in sorted(report.clusters):
        if all(math.isfinite(radii[i]) for i in cluster):
            finite_members += sum(bool(certified[i]) for i in cluster)
            if certified[min(cluster, key=lambda i: (coords[i, 0], coords[i, 1]))]:
                sizes.append(len(cluster))
    return (sorted(cycle_counts.items()), sum(bool(certified[i]) for i in in_doublet), finite_members, sizes,
            sum(report.nu[i] for i in np.nonzero(certified)[0]))


@pytest.mark.parametrize("model", [1, 2])
def test_replication_tallies_match_the_loops(model):
    config = McConfig(model=model, intensity=1.0, window=Rectangle.square(20.0), margin=4.0, replications=1)
    for seed in range(6):
        got = _collect_replication(config, seed)
        assert (sorted(got.cycle_counts.items()), got.doublet_count, got.finite_cluster_members,
                got.cluster_sizes, got.sum_nu) == reference_tallies(config, seed)
