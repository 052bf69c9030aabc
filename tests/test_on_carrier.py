"""The operator at f = 0 on germs planted exactly on another's carrier.

A germ j on i's carrier has ``d[j, i] == 0``, so Model 2 admits the pair at
f = 0 and row i of T(0) is finite.  ``PairTable.operator`` at f = 0 must
equal, bytewise, the whole-matrix reference ``test_near_list.dense_operator``
in both models: on carriers at 0, pi/4, pi/2 and 3pi/4, on sets of zero
x-span or zero y-span, with coordinates offset by +-1e6, on two clusters
1000 apart, and on random sets with planted germs.  The planted germs pass
the exact test ``fl(wx * uy_i) == fl(wy * ux_i)``: a germ is nudged by a
few ulps until it does.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lilyseg import MarkedPoint, Rectangle, sample_poisson
from lilyseg.geometry import PairTable

from test_near_grid import clusters
from test_near_list import dense_operator


def nudge_onto(owner, theta, partner, moves=("partner", "owner")):
    """``(owner, partner)`` coordinates, with one of them (the first of
    ``moves`` that can be) moved onto the carrier of direction ``theta``
    through the owner: the pair passes the exact test ``fl(wx * uy) == fl(wy
    * ux)``.

    One coordinate of the moved germ steps by ulps, nearest first; for each
    step the other is solved for and tried at its five nearest floats.  The
    coordinate along which the carrier runs steps first, then the other,
    whose steps may move the germ far along a near-axial carrier.  Whether
    a germ can be moved depends on how fine the float grid of its
    coordinates is beside that of ``(wx, wy)``.
    """
    u = (np.cos(np.array([theta]))[0], np.sin(np.array([theta]))[0])
    long = int(abs(u[1]) > abs(u[0]))
    for move in moves:
        moved, fixed = (owner, partner) if move == "owner" else (partner, owner)
        sign = -1.0 if move == "owner" else 1.0  # w = partner - owner
        for s in (long, 1 - long):
            t = 1 - s
            for k in (100, 200_000):
                steps = np.arange(-k, k + 1)
                a = moved[s] + steps[np.argsort(np.abs(steps), kind="stable")] * np.spacing(moved[s])
                lhs = sign * (a - fixed[s]) * u[t]
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                    guess = fixed[t] + sign * lhs / u[s]
                for d in (0, -1, 1, -2, 2):
                    b = guess + d * np.spacing(guess)
                    with np.errstate(invalid="ignore"):
                        hit = (sign * (b - fixed[t]) * u[s] == lhs) & ((a != fixed[s]) | (b != fixed[t]))
                    if hit.any():
                        i = np.argmax(hit)
                        point = (float(a[i]), float(b[i])) if s == 0 else (float(b[i]), float(a[i]))
                        return (point, partner) if move == "owner" else (owner, point)
    raise AssertionError("no exact point found")


def planted(owner_xy, theta, t, partner_theta, moves=("partner", "owner")):
    """An owner germ of direction ``theta`` at ``owner_xy`` and a partner
    about ``t`` out along its carrier, exactly on it (see :func:`nudge_onto`)."""
    x, y = owner_xy
    partner = (x + t * math.cos(theta), y + t * math.sin(theta))
    owner, partner = nudge_onto(owner_xy, theta, partner, moves)
    return MarkedPoint(*owner, theta), MarkedPoint(*partner, partner_theta)


def assert_first_step(points, planted_rows=()):
    """Check T(0) against the reference in both models; return the rows
    where Model 2's is finite, which hold the planted germs' owners."""
    table = PairTable(points)
    zeros = np.zeros(table.n)
    for model in (1, 2):
        got = table.operator(zeros, model)
        assert got.tobytes() == dense_operator(table, model, zeros).tobytes()
    on = np.isfinite(got)
    assert on[list(planted_rows)].all()
    return on


@pytest.mark.parametrize("theta", [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4], ids=["0", "pi4", "pi2", "3pi4"])
def test_carriers_at_axis_and_diagonal_directions(theta):
    points = list(sample_poisson(1.0, Rectangle.square(15.0), seed=5).points)
    k = len(points)
    for m, t in enumerate((0.5, 4.0, 9.0, 20.0, -6.0)):
        owner, partner = planted((2.0 + 2.5 * m, 7.0 - m), theta, t, 0.2 + 0.3 * m)
        points += [owner, partner]
    # A parallel partner has a zero numerator but is no zero.
    owner, partner = planted((1.3, 12.1), theta, 12.0, theta)
    on = assert_first_step(points + [owner, partner], range(k, k + 10, 2))
    assert not on[-2:].any()


def test_zero_x_span():
    # Every pair has wx == 0, so no numerator vanishes: fl(wy * ux_i) != 0.
    rng = np.random.default_rng(8)
    ys = rng.permutation(np.arange(100)) * 0.37
    thetas = np.append(rng.uniform(0.0, math.pi, 97), [0.0, math.pi / 2, math.pi / 4])
    assert not assert_first_step([MarkedPoint(3.0, y, t) for y, t in zip(ys, thetas)]).any()


def test_zero_y_span():
    # Horizontal carriers along the line hold every other germ; a horizontal
    # partner is parallel, and any other is a zero.
    rng = np.random.default_rng(9)
    xs = rng.permutation(np.arange(100)) * 0.37
    thetas = rng.uniform(0.0, math.pi, 100)
    thetas[::10] = 0.0
    on = assert_first_step([MarkedPoint(x, 5.0, t) for x, t in zip(xs, thetas)])
    assert np.nonzero(on)[0].tolist() == list(range(0, 100, 10))


@pytest.mark.parametrize("offset", [1e6, -1e6])
def test_large_offsets(offset):
    rng = np.random.default_rng(10)
    points = [MarkedPoint(offset + x, offset + y, t)
              for x, y, t in zip(rng.uniform(0, 30, 500), rng.uniform(0, 30, 500), rng.uniform(0, math.pi, 500))]
    k = len(points)
    for m in range(6):
        owner, partner = planted((offset + 3.0 + 4.0 * m, offset + 25.0 - 3.0 * m), 0.4 + 0.45 * m, 12.0, 2.9 - 0.4 * m)
        points += [owner, partner]
    assert_first_step(points, range(k, len(points), 2))


def test_two_clusters():
    # Owners in one cluster, partners in the other, along the carriers across the gap.
    points = clusters()
    k = len(points)
    for m in range(4):
        ox, oy = 0.2 + 0.2 * m, 0.3 + 0.1 * m
        theta = math.atan2(700.0 + 0.5 - oy, 1000.0 + 0.5 - ox)
        owner, partner = planted((ox, oy), theta, math.hypot(1000.0, 700.0) + 0.3 * m, 1.0 + 0.3 * m)
        points += [owner, partner]
    assert_first_step(points, range(k, len(points), 2))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 300),
    planted_count=st.integers(0, 8),
    aspect=st.sampled_from([1.0, 0.1, 10.0]),
)
def test_random_sets_with_planted_germs(seed, n, planted_count, aspect):
    rng = np.random.default_rng(seed)
    side = math.sqrt(n)
    xs, ys = rng.uniform(0.0, side * aspect, n), rng.uniform(0.0, side / aspect, n)
    points = [MarkedPoint(x, y, t) for x, y, t in zip(xs, ys, rng.uniform(0.0, math.pi, n))]
    rows = []
    for _ in range(planted_count):
        at = (float(rng.uniform(0.0, side * aspect)), float(rng.uniform(0.0, side / aspect)))
        theta, t, partner_theta = rng.uniform(0.0, math.pi), rng.uniform(-2.0, 2.0) * side, rng.uniform(0.0, math.pi)
        owner, partner = planted(at, float(theta), float(t), float(partner_theta))
        rows.append(len(points))
        points += [owner, partner]
    assert_first_step(points, rows)
