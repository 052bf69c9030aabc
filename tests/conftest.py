import math

import numpy as np
import pytest

from lilyseg import MarkedPoint, MarkedPointSet, Rectangle, fold_direction, sample_poisson
from lilyseg import geometry
from lilyseg.geometry import PARALLEL_TOL, NearList

SQRT2 = math.sqrt(2.0)


def table_rows(table):
    """The whole table ``(d, collinear)``, stacked from its row blocks."""
    n = table.n
    d, collinear = np.empty((n, n)), np.empty((n, n), dtype=bool)
    for slab in table._row_blocks(np.arange(n)):
        d[slab.rows], collinear[slab.rows] = slab.d, slab.collinear
    return d, collinear


def near_reference(table):
    """The near list read off whole rows: each row's first pairs in (m, j)
    order at the current ``geometry._NEAR``, the next m, and every collinear
    pair (i, j), i < j, in row-major order."""
    n = table.n
    width = n if n <= 2 * geometry._NEAR else geometry._NEAR
    d, collinear = table_rows(table)
    dT = d.T
    order = np.argsort(np.maximum(d, dT), axis=1, kind="stable")
    r = np.arange(n)[:, None]
    j = order[:, :width]
    bound = np.maximum(d, dT)[r[:, 0], order[:, width]] if width < n else np.full(n, np.inf)
    ci, cj = np.nonzero(np.triu(collinear, k=1))
    return NearList(j, d[r, j], dT[r, j], collinear[r, j], bound, np.column_stack((ci, cj)))


def planted_points(n, seed, offset):
    """``n`` germs with planted collinear, near-collinear and near-parallel pairs."""
    rng = np.random.default_rng(seed)
    xs = list(offset + rng.uniform(0.0, 30.0, n))
    ys = list(offset + rng.uniform(0.0, 30.0, n))
    thetas = list(rng.uniform(0.0, math.pi, n))
    for k in range(0, n - 1, 7):
        # Partner k + 1 on k's carrier (exactly or up to a tiny offset), or
        # turned by a fraction or a multiple of PARALLEL_TOL.
        t = rng.uniform(0.5, 20.0)
        off = (0.0, 1e-14, 1e-12, 1e-3)[k % 4]
        ux, uy = math.cos(thetas[k]), math.sin(thetas[k])
        xs[k + 1], ys[k + 1] = xs[k] + t * ux - off * uy, ys[k] + t * uy + off * ux
        turn = (0.0, 0.5, 0.9, 1.1, 2.0)[k % 5] * PARALLEL_TOL
        thetas[k + 1] = fold_direction(thetas[k] + turn)
    return [MarkedPoint(x, y, t) for x, y, t in zip(xs, ys, thetas)]


@pytest.fixture(scope="session")
def f2() -> MarkedPointSet:
    """Two transversal points: horizontal through the origin, vertical at (3, 4).

    Carrier intersection (3, 0); growth distances 3 and 4.
    Model 1 solution {inf, 4}; Model 2 solution {4, 4} with a doublet.
    """
    return MarkedPointSet((MarkedPoint(0.0, 0.0, 0.0), MarkedPoint(3.0, 4.0, math.pi / 2)))


@pytest.fixture(scope="session")
def f3() -> MarkedPointSet:
    """Three transversal points with hand-computed growth distances.

    d01=4, d10=3, d02=6, d20=3*sqrt2, d12=5, d21=5*sqrt2.
    Model 1 solution {4, inf, 5*sqrt2}; Model 2 solution {4, 4, inf}.
    """
    return MarkedPointSet(
        (
            MarkedPoint(0.0, 0.0, 0.0),
            MarkedPoint(4.0, 3.0, math.pi / 2),
            MarkedPoint(9.0, 3.0, math.pi / 4),
        )
    )


# Planted all-finite configuration: under Model 1 the three segments stop
# each other cyclically (0 -> 2 -> 1 -> 0).  Radii frozen from the greedy
# growth simulation and confirmed by the other two solvers.
F3C_POINTS = (
    MarkedPoint(3.4, 2.6, 0.21),
    MarkedPoint(3.6, 0.1, 1.94),
    MarkedPoint(6.3, 2.8, 0.55),
)
F3C_RADII_M1 = (4.034003387810179, 2.51862014081332, 3.550284051464707)
F3C_RADII_M2 = (2.51862014081332, 2.51862014081332, 3.550284051464707)


@pytest.fixture(scope="session")
def f3c() -> MarkedPointSet:
    return MarkedPointSet(F3C_POINTS)


def planted_pair(g, c, legs):
    """Two germs whose carriers cross g's carrier at +c and -c from g.

    Leg ``(t, phi)`` puts a germ at signed distance t across g's carrier,
    with direction theta + phi, placed so that its carrier crosses g's at
    the given point.  Their two growth distances from g then agree up to
    rounding: a near tie sharing g, between values as far out as c and t.
    """
    ux, uy = math.cos(g.theta), math.sin(g.theta)
    points = []
    for crossing, (t, phi) in zip((c, -c), legs):
        s = crossing + t / math.tan(phi)
        points.append(MarkedPoint(g.x + s * ux - t * uy, g.y + s * uy + t * ux, fold_direction(g.theta + phi)))
    return points


@pytest.fixture(scope="session")
def far_tie() -> MarkedPointSet:
    """The 15x15 sample of seed 7 (230 germs) plus two germs 40 out along
    germ 0's carrier, whose distances from germ 0 tie: no near list holds
    both pairs, and no solve compares the two distances."""
    base = sample_poisson(1.0, Rectangle.square(15.0), seed=7)
    return MarkedPointSet(base.points + tuple(planted_pair(base[0], 40.0, ((50.0, 1.0), (-45.0, 2.0)))))
