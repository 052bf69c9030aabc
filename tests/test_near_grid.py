"""The near list built from a cell grid against the list read off whole rows.

Each field of ``PairTable.near`` must equal, bytewise, the list taken from
whole rows in (m, j) order (``conftest.near_reference``): on sampled windows,
sets with planted collinear and near-parallel pairs (one offset by 1e6), two
tight clusters far apart, germs on one horizontal line (a bounding box of
zero area), and with the list width ``geometry._NEAR`` forced to 0, 1 and 2.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from lilyseg import MarkedPoint, Rectangle, analyze, sample_poisson, solve_fixed_point
from lilyseg import geometry
from lilyseg.geometry import NearList, PairTable, shared_pair_table

from conftest import near_reference, planted_points
from test_near_list import dense_operator


def clusters(n=400, seed=5):
    """Two tight clusters, each a unit square, 1000 apart."""
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0.0, 1.0, (n, 2))
    xy[n // 2:] += (1000.0, 700.0)
    return [MarkedPoint(x, y, t) for (x, y), t in zip(xy, rng.uniform(0.0, math.pi, n))]


def line(n=300, seed=6):
    """Germs on the horizontal line y = 5, with uniform directions."""
    rng = np.random.default_rng(seed)
    return [MarkedPoint(x, 5.0, t) for x, t in zip(rng.uniform(0.0, 300.0, n), rng.uniform(0.0, math.pi, n))]


def straddling(seed=7):
    """A 15 x 15 sample plus horizontal pairs whose directions straddle 0 and
    pi: two collinear pairs, and one parallel pair off a common line."""
    points = list(sample_poisson(1.0, Rectangle.square(15.0), seed=seed).points)
    for k, (x, y) in enumerate([(2.0, 30.0), (20.0, 31.0), (40.0, 32.0)]):
        points += [MarkedPoint(x, y, 2e-13 * k), MarkedPoint(x + 7.0, y + 1e-3 * (k == 2), math.pi - 3e-13)]
    return points


SETS = {
    "window15": lambda: list(sample_poisson(1.0, Rectangle.square(15.0), seed=1).points),
    "window45": lambda: list(sample_poisson(1.0, Rectangle.square(45.0), seed=2).points),
    "planted700": lambda: planted_points(700, 2, 0.0),
    "planted650_offset": lambda: planted_points(650, 3, 1e6),
    "clusters": clusters,
    "line": line,
    "straddling": straddling,
}


def assert_matches_whole_rows(table):
    assert table.n > 2 * geometry._NEAR  # the grid builds the list
    for name, got, want in zip(NearList._fields, table.near, near_reference(table)):
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("name", SETS)
def test_grid_list_matches_whole_rows(name):
    table = PairTable(SETS[name]())
    assert_matches_whole_rows(table)
    if name.startswith("planted") or name == "straddling":
        assert len(table.near.collinear_pairs) >= 2


@pytest.mark.parametrize("width", [0, 1, 2])
@pytest.mark.parametrize("name", ["window15", "planted700", "clusters", "line"])
def test_grid_list_matches_whole_rows_at_forced_width(name, width):
    with mock.patch.object(geometry, "_NEAR", width):
        assert_matches_whole_rows(PairTable(SETS[name]()))


def test_grid_certifies_most_rows_of_a_window():
    mps = sample_poisson(1.0, Rectangle.square(45.0), seed=2)
    whole = []
    grid_rows = PairTable._grid_rows

    def recorded(self, *args):
        whole.append(grid_rows(self, *args))
        return whole[-1]

    with mock.patch.object(PairTable, "_grid_rows", recorded):
        shared_pair_table(mps).near
    assert len(whole) == 1 and len(whole[0]) < len(mps) / 50


def test_germ_on_a_far_carrier():
    # Germ g is horizontal; `far`, 40 out along its carrier, has d[far, g] ==
    # 0 exactly, so Model 2 admits the pair at f = 0, though no list holds it.
    # q and p are collinear: their numerators vanish, but the pair is no zero.
    base = sample_poisson(1.0, Rectangle.square(15.0), seed=3).points
    g, far = MarkedPoint(7.5, 7.5, 0.0), MarkedPoint(47.5, 7.5, math.pi / 2)
    q, p = MarkedPoint(3.25, 11.0, 0.0), MarkedPoint(-26.75, 11.0, 0.0)
    points = base + (g, far, q, p)
    k, n = len(base), len(points)
    table = PairTable(points)
    assert k + 1 not in table.near.j[k]
    zeros = np.zeros(n)
    got = table.operator(zeros, 2)
    assert got.tobytes() == dense_operator(table, 2, zeros).tobytes()
    assert got[k] == 40.0 and np.isinf(np.delete(got, k)).all()
    assert np.isinf(table.operator(zeros, 1)).all()


@pytest.mark.parametrize("side, share", [(45.0, 1 / 3), (100.0, 1 / 10)], ids=["window45", "window100"])
def test_production_solve_computes_few_pairs(side, share):
    # The all-pairs sweep that built the list computed n^2 pairs alone.  The
    # 5 x 5 cells about a germ cover about a quarter of a 45 x 45 window, and
    # a seventeenth of a 100 x 100 one.  Every path that computes pairs is
    # counted: the list's selection on m and the row blocks.
    mps = sample_poisson(1.0, Rectangle.square(side), seed=1)
    n = len(mps)
    pairs = []

    def counted(kernel, size):
        def wrapper(self, *args, **kwargs):
            pairs.append(size(self, *args))
            return kernel(self, *args, **kwargs)
        return wrapper

    def rows_by_columns(self, r, ws, c=None):
        return len(r) * (self.n if c is None else c.shape[-1])

    with mock.patch.object(PairTable, "_block", counted(PairTable._block, rows_by_columns)), \
            mock.patch.object(PairTable, "_m_block", counted(PairTable._m_block, rows_by_columns)):
        for model in (1, 2):
            analyze(solve_fixed_point(mps, model))
    assert 0 < sum(pairs) < share * n * n


def test_near_list_adds_no_memory():
    # The near-list build peaked at 10.55 MiB here (100 x 100 window, seed 1,
    # tracemalloc above the start), the list itself about 8 MiB.
    points = sample_poisson(1.0, Rectangle.square(100.0), seed=1).points
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        PairTable(points).near
        peak = (tracemalloc.get_traced_memory()[1] - start) / 2**20
    finally:
        tracemalloc.stop()
    assert peak < 1.05 * 10.55
