"""Pairwise geometry of directed segment growth.

A marked point is a germ in the plane together with an undirected line
direction in [0, pi).  Two distinct marked points determine growth
distances: the times their segments, growing at unit rate about fixed
midpoints, need to reach the intersection point of their carrier lines.
This module computes those distances (scalar and all-pairs vectorized),
realizes segments from solved radii, and holds the scalar contact
predicates along with the :class:`PairTable` pair kernels that the solvers,
the verifier and the structure analysis call: ``operator`` (the stopping
rule) and ``answer_pass``, one traversal at an answer for the explained
stops and the all-pairs contact tests.  A pair's kind is read off its
distances: a pair of finite ``d`` is collinear or transversal, and the
table marks the collinear ones.  The near list's stop values and masks
(each model's candidates, the transversal pairs) are computed once per
table, and the operator answers each listed row by its first admissible
pair, the list being in stop-value order.  Every pair of the
table is computed from the coordinates, each at most ``COORDINATE_LIMIT``
in absolute value: a cell grid builds each germ's near list of closest
stops from the germs around it, in O(n) pairs on a spread-out set, and
the kernels fall back to rows recomputed on demand where the list cannot
certify its answer.  The one n x n array is the distance matrix
``PairTable.d``, built on first use for the oracle solvers in
:mod:`lilyseg.solver` and the tests.

Genericity
----------
The constructions ask that growth distances sharing a germ be distinct
(condition D), and it matters only where the growth protocol compares two
of them:

* the stopping operator, for row i: Model-1 candidacy d[i, j] against
  d[j, i]; the reach rule, radius R_j (itself a distance of germ j) against
  d[j, i]; and the row minimum over the admissible stop values;
* ``answer_pass`` (the stops and contacts that verification and
  ``analyze`` share) compares stop values and contact distances with
  radii of the same germs, but with a relative slack (1e-9 by default),
  not exactly: two values within it show as an ambiguous stop or a
  failed verification, which no screen at the tie tolerance rules out or
  needs to;
* the chain solver's confirmation compares a radius or a lower bound of
  germ j with d[j, i], the reach rule again; the greedy sweep orders events
  by time and then applies the reach rule.

A fixed-point solve's answer rests only on the comparisons that one
operator application makes at the fixed point f* the solve ends on.  If
each of them clears the tie tolerance, exact arithmetic decides each the
same way, so f* is the exact fixed point too, which is unique on a generic
set; comparisons made at earlier iterates play no part.  So sampling
(``sample_poisson``, ``sample_pinned``) draws and does not screen, and
``solve_fixed_point`` iterates unscreened to T(f) == f, bit for bit, and
then screens once, in a pass of its own (:meth:`PairTable.screen_answer`):
each row over its near list or, where f lies past the list's ``bound`` or
within a tie of it, over its whole row, as the operator reads it at f.  It
checks the reach and candidacy comparisons over those pairs and the answer
against every distance of its germ among them.  Any collinear pair fails
the set (:meth:`PairTable.screen_collinear`, before the solve iterates);
the near-list build records them all.  Ties are labelled as the full
screen labels them, so every tie the solve reports is one the full screen
reports, and a set the full screen passes solves exactly as it would
unscreened.  A near tie that no comparison at the answer involves does not
stop the solve; the set solves to a verified system.
``check_condition_d``, ``require_condition_d``, ``ensure_condition_d``,
``apply_t1``, ``apply_t2`` and the chain and greedy oracles keep the full
screen (:meth:`PairTable.condition_d`): every germ's ~2n distances,
sorted.  Solves at unit intensity that raise, under both models: 0 of 80
on 40 windows of 45x45 (n ~ 2000, seeds k * 2**20, k = 1..40) and 0 of 24
on 12 windows of 100x100 (n ~ 10^4, seeds 1-12).

Conventions
-----------
* Directions ``theta`` and ``theta + pi`` are identified; the valid range
  is the half-open interval [0, pi).
* Parallel carrier lines through distinct germs on a common line use the
  midpoint convention: both growth distances equal half the germ distance.
  Parallel lines that never meet get distance ``inf``.
* Infinite radii are represented by ``math.inf`` / ``numpy.inf``, never by
  a sentinel value, so comparisons against distances need no special cases.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, repeat
from typing import IO, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConditionDViolation, IdenticalGerms, InputTooLarge, InvalidInput, NegativeRadius

#: Two directions are parallel when |sin(theta1 - theta2)| falls below this.
PARALLEL_TOL = 1e-12

#: Default relative tolerance for contact predicates.
CONTACT_TOL = 1e-9

#: Relative tolerance for near-tie detection among growth distances, fixed
#: everywhere but in ``PairTable.condition_d``, the diagnostic, which takes
#: another.  Only distances sharing a germ are compared, and on the
#: fixed-point path only those one operator application compares at the
#: answer (see the module docstring): about n K values per realization,
#: with K = 32 listed pairs per germ plus the few rows recomputed whole,
#: rather than the full screen's 2n sorted distances per germ.  The
#: tolerance sits well below the typical spacing yet two decades above
#: double-precision noise in the intersection solves.
TIE_TOL = 1e-12

#: Largest |x| or |y| a :class:`PairTable` accepts.  Below it every span,
#: the cell grid's ``_CELL_GERMS * w * h`` and every growth distance (at
#: most about ``4 * COORDINATE_LIMIT / PARALLEL_TOL``) stay finite.
COORDINATE_LIMIT = 1e150

# Peak bytes per ordered germ pair of the oracles, which alone build the
# dense d (tracemalloc, a fresh set sampled on 30x30 and 45x45 windows,
# seed 1, table build and full screen included): the chain solver 33, the
# greedy sweep 45 in Model 1 and 53-54 in Model 2 (its pair index and
# event-time arrays), find_descending_chain 16.  Sizes the guard on the
# build of d.
_PAIR_BYTES = 54

# Peak bytes per germ of the production path: the table with its near list
# and the list's masks, both fixed-point solves and both analyses
# (tracemalloc, 3.8 KB at 100x100 and 3.6 KB at 200x200, seed 1).  Sizes
# the guard on the build of the near list.
_GERM_BYTES = 4096

# Ordered pairs per block when pairs of the table are computed (the near
# list's grid cells, its kept pairs, and the whole rows of the full screen
# and of the kernels' fallback).  Each pass allocates one workspace, about
# 1.6 MiB at this size, and reuses it for every block: fresh temporaries per
# block cost page faults.
_BLOCK_PAIRS = 1 << 15

# Pairs each germ keeps in the near list (see PairTable).
_NEAR = 32

# Germs per cell, on average, of the grid that builds the near list (see
# PairTable._grid_rows).
_CELL_GERMS = 25


def fold_direction(angle: float) -> float:
    """Map an arbitrary finite angle to the canonical range [0, pi)."""
    return angle % math.pi


@dataclass(frozen=True)
class MarkedPoint:
    """A germ ``(x, y)`` with an undirected growth direction ``theta``.

    ``theta`` must already lie in [0, pi); use :func:`fold_direction` to
    normalize arbitrary angles.
    """

    x: float
    y: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidInput(f"germ coordinates must be finite, got ({self.x}, {self.y})")
        if not (0.0 <= self.theta < math.pi):
            raise InvalidInput(f"direction must lie in [0, pi), got {self.theta}")

    @property
    def germ(self) -> Tuple[float, float]:
        return (self.x, self.y)

    def unit(self) -> Tuple[float, float]:
        """Unit vector of the growth direction."""
        return (math.cos(self.theta), math.sin(self.theta))


class PairKind(Enum):
    TRANSVERSAL = "transversal"
    COLLINEAR_PARALLEL = "collinear_parallel"
    DISJOINT_PARALLEL = "disjoint_parallel"


@dataclass(frozen=True)
class PairGeometry:
    """Growth distances for one ordered pair of marked points.

    ``d_ab`` is the time the first point's segment needs to reach the
    intersection of the two carrier lines, ``d_ba`` the second point's.
    ``m`` is the larger of the two (the time of last arrival).  The
    intersection point is present for transversal pairs and, by the
    midpoint convention, for collinear parallel pairs.
    """

    kind: PairKind
    intersection: Optional[Tuple[float, float]]
    d_ab: float
    d_ba: float

    @property
    def m(self) -> float:
        return max(self.d_ab, self.d_ba)


def _cross(ax: float, ay: float, bx: float, by: float) -> float:
    return ax * by - ay * bx


def pair_geometry(a: MarkedPoint, b: MarkedPoint) -> PairGeometry:
    """Classify an ordered pair and compute both growth distances.

    The parallel and collinear tests use the fixed ``PARALLEL_TOL``, as
    :class:`PairTable` does.
    The intersection is solved in parametric form ``P_a + s*u_a = P_b + t*u_b``
    so the distances are |s| and |t| directly.  Swapping the arguments swaps
    ``d_ab``/``d_ba`` and reproduces kind, intersection and ``m`` exactly:
    every floating-point expression below is mirror-symmetric, and the
    intersection point is always evaluated from the lexicographically
    smaller germ.

    Raises
    ------
    IdenticalGerms
        If both germs coincide exactly.
    """
    if a.x == b.x and a.y == b.y:
        raise IdenticalGerms(f"germs coincide at ({a.x}, {a.y})")
    uax, uay = a.unit()
    ubx, uby = b.unit()
    wx = b.x - a.x
    wy = b.y - a.y
    denom = _cross(uax, uay, ubx, uby)  # sin(theta_b - theta_a)
    if abs(denom) < PARALLEL_TOL:
        # Parallel carriers: collinear iff the perpendicular offset vanishes
        # relative to the local length scale.  The offset is measured against
        # both carrier lines so the test is exactly symmetric in (a, b).
        scale = max(1.0, math.hypot(a.x, a.y), math.hypot(b.x, b.y))
        off = max(abs(_cross(wx, wy, uax, uay)), abs(_cross(wx, wy, ubx, uby)))
        if off < PARALLEL_TOL * scale:
            half = 0.5 * math.hypot(wx, wy)
            mid = ((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)
            return PairGeometry(PairKind.COLLINEAR_PARALLEL, mid, half, half)
        return PairGeometry(PairKind.DISJOINT_PARALLEL, None, math.inf, math.inf)
    s = _cross(wx, wy, ubx, uby) / denom
    t = _cross(wx, wy, uax, uay) / denom
    if (a.x, a.y) <= (b.x, b.y):
        inter = (a.x + s * uax, a.y + s * uay)
    else:
        inter = (b.x + t * ubx, b.y + t * uby)
    return PairGeometry(PairKind.TRANSVERSAL, inter, abs(s), abs(t))


@dataclass(frozen=True)
class Segment:
    """A realized segment: a marked point grown to a radius in [0, inf].

    A finite radius yields the closed segment between the two endpoints
    ``germ +- radius * u(theta)``; an infinite radius yields the whole
    carrier line (``endpoints`` is then ``None``).
    """

    center: MarkedPoint
    radius: float

    @property
    def endpoints(self) -> Optional[Tuple[Tuple[float, float], Tuple[float, float]]]:
        if math.isinf(self.radius):
            return None
        ux, uy = self.center.unit()
        r = self.radius
        return (
            (self.center.x - r * ux, self.center.y - r * uy),
            (self.center.x + r * ux, self.center.y + r * uy),
        )


def realize_segment(a: MarkedPoint, radius: float) -> Segment:
    """Grow the segment of ``a`` to ``radius`` (``inf`` for the full line)."""
    if math.isnan(radius) or radius < 0:
        raise NegativeRadius(f"radius must be in [0, inf], got {radius}")
    return Segment(a, float(radius))


def _covers(radius: float, dist: float, *, strict: bool, tol: float) -> bool:
    """Whether a segment of ``radius`` covers a point at ``dist`` from its center.

    ``strict`` asks for the relative interior (parameter |t| < 1 - tol),
    otherwise the closed segment with slack (|t| <= 1 + tol).  An infinite
    radius covers every finite distance, interior included.
    """
    if math.isinf(radius):
        return math.isfinite(dist)
    if strict:
        return dist < radius * (1.0 - tol)
    return dist <= radius * (1.0 + tol)


def _pairwise_predicate(s1: Segment, s2: Segment, *, strict: bool, tol: float) -> bool:
    a, b = s1.center, s2.center
    if a.x == b.x and a.y == b.y:
        # Shared germ: carriers cross (or coincide) at the germ itself,
        # which both segments always contain.
        return True
    pg = pair_geometry(a, b)
    if pg.kind is PairKind.TRANSVERSAL:
        return _covers(s1.radius, pg.d_ab, strict=strict, tol=tol) and _covers(
            s2.radius, pg.d_ba, strict=strict, tol=tol
        )
    if pg.kind is PairKind.COLLINEAR_PARALLEL:
        dist = pg.d_ab + pg.d_ba  # germ separation
        reach = s1.radius + s2.radius
        if math.isinf(reach):
            return True
        if strict:
            return dist < reach * (1.0 - tol)
        return dist <= reach * (1.0 + tol)
    return False


def relative_interiors_intersect(s1: Segment, s2: Segment, tol: float = CONTACT_TOL) -> bool:
    """True iff the open cores of the two segments share a point.

    A point is interior to a finite segment when its signed parameter t
    satisfies |t| < 1 - tol; every point of an infinite segment is interior.
    """
    return _pairwise_predicate(s1, s2, strict=True, tol=tol)


def segments_touch(s1: Segment, s2: Segment, tol: float = CONTACT_TOL) -> bool:
    """True iff the closed segments intersect (within relative slack ``tol``)."""
    return _pairwise_predicate(s1, s2, strict=False, tol=tol)


class NearList(NamedTuple):
    """Each germ's pairs of smallest later-arrival time ``m``, in (m, j) order, and
    every collinear pair of the set (see :class:`PairTable`)."""

    j: np.ndarray  # (n, w) the first w partners of row i in (m[i, j], j) order, w = n if n <= 2 * _NEAR else _NEAR
    d: np.ndarray  # d[i, j] along the list
    dT: np.ndarray  # d[j, i] along the list
    collinear: np.ndarray  # which pairs along the list are collinear
    bound: np.ndarray  # smallest m[i, j] left out of row i, inf when none is
    collinear_pairs: np.ndarray  # (k, 2) every collinear pair (i, j), i < j, in row-major order


class _Pairs(NamedTuple):
    """Pairs ``(rows[a], cols[a, b])`` with their ``d[i, j]``, ``d[j, i]`` and collinear flags."""

    rows: np.ndarray
    cols: np.ndarray
    d: np.ndarray
    dT: np.ndarray
    collinear: np.ndarray


class _Slab(_Pairs):
    """Pairs of the table (see :class:`_Pairs`) with the masks the kernels
    read, each computed on first use and kept.

    In either model a candidate's stop value is its later-arrival time
    ``m = max(d, dT)``: Model 1 admits only pairs with ``d > dT``, where
    ``m`` is ``d``.  The near list's slab is made once per table, so its
    masks are computed once (see :attr:`PairTable._near_slab`).
    """

    @cached_property
    def finite(self) -> np.ndarray:
        """Model 2's candidates: every pair of finite ``d``."""
        return np.isfinite(self.d)

    @cached_property
    def ahead(self) -> np.ndarray:
        """Model 1's candidates: finite ``d`` past ``dT``."""
        return self.finite & (self.d > self.dT)

    @cached_property
    def transversal(self) -> np.ndarray:
        return self.finite & ~self.collinear

    @cached_property
    def m(self) -> np.ndarray:
        return np.maximum(self.d, self.dT)

    def candidates(self, model: int) -> np.ndarray:
        return self.ahead if model == 1 else self.finite

    def values(self, model: int) -> np.ndarray:
        """The stop values of ``model``'s candidates: ``d`` in Model 1, ``m`` in Model 2."""
        return self.d if model == 1 else self.m

    def admissible(self, radii: np.ndarray, model: int, tol: float = 0.0) -> np.ndarray:
        """The candidates ``(i, j)`` whose ``j`` reaches the meeting point:
        ``radii[j] > d[j, i]`` in Model 1 and ``>=`` in Model 2, with
        ``d[j, i]`` shrunk by the relative slack ``tol``."""
        reach = radii[self.cols]
        need = self.dT * (1.0 - tol) if tol else self.dT
        return self.candidates(model) & (reach > need if model == 1 else reach >= need)

    def take(self, rows: np.ndarray) -> "_Slab":
        """The slab restricted to its rows at positions ``rows``, masks included."""
        part = _Slab(*(np.take(a, rows, axis=0) for a in self))
        for name in ("finite", "ahead", "transversal", "m"):
            part.__dict__[name] = np.take(getattr(self, name), rows, axis=0)
        return part


class AnswerPass(NamedTuple):
    """Explained stops and contacts at one answer (see :meth:`PairTable.answer_pass`).

    Pairs of a contact are keys ``i * n + j``, ``i < j``, ascending.
    """

    stop_i: np.ndarray  # explained stops (stop_i[k], stop_j[k]), in row-major order
    stop_j: np.ndarray
    strict: np.ndarray  # pairs whose open cores share a point
    touching: np.ndarray  # pairs whose closed segments touch


@dataclass(frozen=True)
class ConditionDReport:
    """Outcome of the genericity screen on a marked point set.

    ``near_ties`` lists pairs of ordered index pairs, sharing a germ, whose
    finite growth distances differ by less than the relative tolerance;
    every collinear parallel pair forces an exact tie and is listed
    separately.  The set passes iff both lists are empty.  Coincidences
    between distances of four distinct germs are not flagged: no step of
    the growth protocol ever compares them.

    :meth:`PairTable.condition_d` reports every germ-sharing pair.  A
    fixed-point solve (see the module docstring) raises with every collinear
    pair, or with the ties among the comparisons its operator makes at the
    answer: a subset of the full report's ties, with its labels and order.
    """

    passes: bool
    near_ties: Tuple[Tuple[Tuple[int, int], Tuple[int, int], float], ...]
    collinear_pairs: Tuple[Tuple[int, int], ...]


def _workspace(pairs: int) -> Tuple[np.ndarray, np.ndarray]:
    """Scratch space for :meth:`PairTable._block` on up to ``pairs`` pairs."""
    return np.empty(6 * pairs), np.empty(2 * pairs, dtype=bool)


def _first(m: np.ndarray, width: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per row of ``m``, which has more than ``width`` columns, the columns of
    its first ``width`` entries in (value, column) order, and the next value."""
    r = np.arange(len(m))[:, None]
    part = np.argpartition(m, width, axis=1)
    kth = m[r[:, 0], part[:, width]]
    part = np.sort(part[:, :width], axis=1)  # column order, which the stable sort keeps on ties
    first = part[r, np.argsort(m[r, part], axis=1, kind="stable")]
    if width:
        # Values tied with the next one may straddle the cut; order those rows whole.
        tied = np.nonzero(m[r[:, 0], first[:, -1]] == kth)[0]
        if len(tied):
            first[tied] = np.argsort(m[tied], axis=1, kind="stable")[:, :width]
    return first, kth


def _spans(starts: np.ndarray, counts: np.ndarray, limit: int):
    """Positions ``starts[q] + k``, ``0 <= k < counts[q]``, of the queries
    ``q``, in chunks of about ``limit`` positions (one query at least); yields
    each chunk's queries ``lo:hi`` and positions, query by query."""
    total = np.cumsum(counts)
    lo = 0
    while lo < len(counts):
        hi = max(lo + 1, int(np.searchsorted(total, total[lo] - counts[lo] + limit, side="right")))
        c = counts[lo:hi]
        yield lo, hi, np.arange(c.sum()) + np.repeat(starts[lo:hi] - (np.cumsum(c) - c), c)
        lo = hi


class PairTable:
    """All-pairs growth distances for a finite list of marked points.

    Vectorized companion of :func:`pair_geometry`: entry ``d[i, j]`` is the
    growth distance of point ``i`` toward the carrier intersection with
    point ``j`` (``inf`` on the diagonal and for disjoint parallels, half
    the germ distance for collinear parallels).  The expressions match the
    scalar routine operation for operation, so ``d[i, j]`` and the scalar
    ``d_ab`` agree bitwise.

    The table stores O(n) state: the coordinates and the :attr:`near` list.
    Rows ``d[i, :]`` and columns ``d[:, i]``, with the collinear pairs, are
    computed from the coordinates in blocks whenever they are needed; no
    row is ever read from a stored matrix.  A pair of finite ``d`` that is
    not collinear is transversal; any other pair (a disjoint parallel, or
    the diagonal) has ``d = inf``.  A coordinate past ``COORDINATE_LIMIT``
    raises :class:`InvalidInput`.  The near list comes from a cell grid:
    each germ's row is computed against the germs of the cells about its
    own, and rows the grid cannot certify are computed whole (see
    :meth:`_grid_rows`); pairs are selected on ``m`` alone, and the list's
    distances and collinear flags are computed once, for the kept pairs.
    Collinear pairs are found from the sorted directions.  The full
    genericity screen (:meth:`condition_d`) sweeps every row; the
    fixed-point solve's screen of its answer (:meth:`screen_answer`) reads
    the list, and whole rows where the list cannot certify the answer.
    Pairs are parallel by the fixed ``PARALLEL_TOL``, as in
    :func:`pair_geometry`.  A point set keeps its table (see
    :func:`shared_pair_table`).

    The pair kernels (``operator``, ``answer_pass`` and ``screen_answer``)
    read the near list: for each row ``i`` the first ``_NEAR`` pairs in
    (m, j) order, ``m[i, j] = max(d[i, j], d[j, i])``, and ``bound[i]``,
    the smallest ``m`` left out.
    Every admissible stop and every contact of ``i`` beyond ``bound[i]``
    costs at least ``bound[i]``, so each kernel certifies the rows the list
    answers exactly, with the floating-point expression of its own test,
    and recomputes the other rows whole.  The list is read as one
    :class:`_Slab`, made once per table, so its ``m``, its candidate masks
    (finite ``d``, and ``d > dT`` besides in Model 1) and its transversal
    mask are computed once.  Every candidate's stop value is its ``m``, so
    the operator answers a listed row by its first admissible pair.  A set
    of at most ``2 * _NEAR`` germs lists whole rows (``bound`` is ``inf``),
    so no kernel recomputes a row there.  Results equal the whole-matrix
    evaluation bit for bit.

    :attr:`d` is the whole n x n distance matrix.  It is built on first use
    and kept; only the oracles in :mod:`lilyseg.solver` (the chain and
    greedy solvers and ``find_descending_chain``) and the tests read it.
    """

    def __init__(self, points: Sequence[MarkedPoint]):
        # A point set hands over its coordinate arrays, which the table
        # keeps and never writes; other points are read one by one.
        if isinstance(getattr(points, "x", None), np.ndarray):
            x, y, theta = points.x, points.y, points.theta
        else:
            points = tuple(points)
            x, y, theta = (np.array([getattr(p, name) for p in points], dtype=float) for name in ("x", "y", "theta"))
        self.n = len(x)
        self.x, self.y, self.theta = x, y, theta
        if self.n and max(np.abs(x).max(), np.abs(y).max()) > COORDINATE_LIMIT:
            raise InvalidInput(f"germ coordinates must lie within +-{COORDINATE_LIMIT:g}")
        self.ux = np.cos(self.theta)
        self.uy = np.sin(self.theta)
        self.radius = np.hypot(self.x, self.y)
        self._condition_reports: dict = {}

    def _start(self, r: np.ndarray, ws: Tuple[np.ndarray, np.ndarray], c: Optional[np.ndarray]):
        """The start of :meth:`_block` and :meth:`_m_block` on rows ``r``.

        The columns are every column (``c`` is ``None``), one ascending set
        holding ``r``, or one set per row (``c`` of shape ``(len(r), k)``).
        Returns the columns broadcast to the block, the block's diagonal, the
        columns' directions, and the six float arrays of the workspace ``ws``
        in the block's shape, the first three filled with ``wx, wy = g_j -
        g_i`` and ``denom = ux_i uy_j - uy_i ux_j``.
        """
        b = len(r)
        x, y, ux, uy = self.x, self.y, self.ux, self.uy
        if c is None:
            c, diag = np.arange(self.n), (np.arange(b), r)
        else:
            x, y, ux, uy = x[c], y[c], ux[c], uy[c]
            diag = (np.arange(b), np.searchsorted(c, r)) if c.ndim == 1 else np.nonzero(c == r[:, None])
        shape = (b, c.shape[-1])
        wx, wy, denom, t, *rest = ws[0][:6 * b * shape[1]].reshape(6, *shape)
        np.subtract(x, self.x[r, None], out=wx)
        np.subtract(y, self.y[r, None], out=wy)
        np.multiply(self.ux[r, None], uy, out=denom)
        np.subtract(denom, np.multiply(self.uy[r, None], ux, out=t), out=denom)
        return np.broadcast_to(c, shape), diag, ux, uy, (wx, wy, denom, t, *rest)

    def _block(self, r: np.ndarray, ws: Tuple[np.ndarray, np.ndarray], c: Optional[np.ndarray] = None) -> _Slab:
        """Rows ``r`` against the columns ``c`` (every column by default, see
        :meth:`_start`), computed into the workspace ``ws``."""
        cols, diag, ux, uy, (wx, wy, denom, t, d, dT) = self._start(r, ws, c)
        parallel, collinear = ws[1][:2 * cols.size].reshape(2, *cols.shape)
        uxr, uyr = self.ux[r, None], self.uy[r, None]
        # d[i, j] = |(wx uy_j - wy ux_j) / denom|.  The swapped pair negates
        # wx, wy and denom exactly, so d[j, i] = |(wx uy_i - wy ux_i) / denom|
        # bit for bit.  Quotients for parallel pairs (tiny denominators) are
        # discarded below; silence the divide/overflow signals they raise.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for out, ua, ub in ((d, uy, ux), (dT, uyr, uxr)):
                np.multiply(wx, ua, out=out)
                np.subtract(out, np.multiply(wy, ub, out=t), out=out)
                np.divide(out, denom, out=out)
                np.abs(out, out=out)
        np.less(np.abs(denom, out=t), PARALLEL_TOL, out=parallel)
        parallel[diag] = False
        d[diag] = dT[diag] = np.inf
        collinear.fill(False)
        if parallel.any():
            pi, pj = np.nonzero(parallel)
            d[pi, pj] = dT[pi, pj] = np.inf
            pwx, pwy = wx[pi, pj], wy[pi, pj]
            hit = self._collinear(r[pi], cols[pi, pj], pwx, pwy)
            pi, pj = pi[hit], pj[hit]
            d[pi, pj] = dT[pi, pj] = 0.5 * np.hypot(pwx[hit], pwy[hit])
            collinear[pi, pj] = True
        return _Slab(r, cols, d, dT, collinear)

    def _m_block(self, r: np.ndarray, ws: Tuple[np.ndarray, np.ndarray], c: Optional[np.ndarray] = None) -> np.ndarray:
        """The later-arrival times ``m[i, j] = max(d[i, j], d[j, i])`` of rows
        ``r`` against the columns ``c`` (as in :meth:`_block`), computed into
        the workspace ``ws``.

        Selects the near list at one division a pair and no pair kinds: both
        distances of a pair share the denominator, and correctly rounded
        division is monotone, so ``fl(max(|num_ij|, |num_ji|) / |denom|)`` is
        the ``max(d, dT)`` of :meth:`_block` bit for bit.
        """
        cols, diag, ux, uy, (wx, wy, denom, t, m, s) = self._start(r, ws, c)
        parallel = ws[1][:cols.size].reshape(cols.shape)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for out, ua, ub in ((m, uy, ux), (s, self.uy[r, None], self.ux[r, None])):
                np.multiply(wx, ua, out=out)
                np.subtract(out, np.multiply(wy, ub, out=t), out=out)
                np.abs(out, out=out)
            np.maximum(m, s, out=m)
            np.divide(m, np.abs(denom, out=denom), out=m)
        np.less(denom, PARALLEL_TOL, out=parallel)
        parallel[diag] = False
        m[diag] = np.inf
        if parallel.any():
            pi, pj = np.nonzero(parallel)
            pwx, pwy = wx[pi, pj], wy[pi, pj]
            hit = self._collinear(r[pi], cols[pi, pj], pwx, pwy)
            m[pi, pj] = np.where(hit, 0.5 * np.hypot(pwx, pwy), np.inf)
        return m

    def _collinear(self, i: np.ndarray, j: np.ndarray, wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
        """Which parallel pairs ``(i, j)``, with ``(wx, wy) = g_j - g_i``, are
        collinear: the perpendicular offset is below tolerance on both
        carriers, relative to the local length scale.  The test and the half
        germ distance are symmetric in the pair."""
        scale = np.maximum(1.0, np.maximum(self.radius[i], self.radius[j]))
        off_a = np.abs(wx * self.uy[i] - wy * self.ux[i])
        off_b = np.abs(wx * self.uy[j] - wy * self.ux[j])
        return np.maximum(off_a, off_b) < PARALLEL_TOL * scale

    def _row_blocks(self, rows: np.ndarray):
        """``rows`` against every column, in blocks of about ``_BLOCK_PAIRS`` pairs.

        Every block is computed into one workspace, which the next block
        overwrites: a consumer copies what it keeps.
        """
        if len(rows) == 0:
            return
        step = max(1, _BLOCK_PAIRS // self.n)
        ws = _workspace(min(step, len(rows)) * self.n)
        for lo in range(0, len(rows), step):
            yield self._block(rows[lo:lo + step], ws)

    @cached_property
    def near(self) -> NearList:
        """The near list, shared by both models; built on first use.

        Each row's pairs are selected on ``m`` alone (:meth:`_m_block`); the
        list's ``d``, ``dT`` and collinear flags are then computed once, for
        the kept pairs only, by :meth:`_block`.  Up to two list widths, the
        whole row is the list, read off one block in (m, j) order: no kernel
        then recomputes a row.  Raises :class:`InputTooLarge`, before any pair
        is computed, when the list and the solves and analyses reading it
        would not fit in physical memory.
        """
        n = self.n
        _require_memory(n, n * _GERM_BYTES, "the near list, both solves and their analyses")
        bound = np.full(n, np.inf)
        if n <= 2 * _NEAR:
            slab = self._block(np.arange(n), _workspace(n * n))
            j = np.argsort(np.maximum(slab.d, slab.dT), axis=1, kind="stable")
            pairs = (np.take_along_axis(values, j, axis=1) for values in slab[2:])
            return NearList(j, *pairs, bound, self._collinear_pairs())
        width = _NEAR
        j = np.empty((n, width), dtype=np.intp)
        ws = _workspace(max(_BLOCK_PAIRS, n))
        whole = self._grid_rows(width, j, bound, ws)
        step = max(1, _BLOCK_PAIRS // n)
        for lo in range(0, len(whole), step):
            rows = whole[lo:lo + step]
            j[rows], bound[rows] = _first(self._m_block(rows, ws), width)
        pairs = [np.empty((n, width)), np.empty((n, width)), np.empty((n, width), dtype=bool)]
        # A quarter block of kept pairs at a time: their columns' coordinates
        # and directions are gathered into four more arrays.
        step = max(1, _BLOCK_PAIRS // (4 * max(width, 1)))
        for lo in range(0, n, step):
            slab = self._block(np.arange(lo, min(lo + step, n)), ws, j[lo:lo + step])
            for out, values in zip(pairs, slab[2:]):
                out[lo:lo + step] = values
        return NearList(j, *pairs, bound, self._collinear_pairs())

    def _grid_rows(self, width: int, j: np.ndarray, bound: np.ndarray, ws) -> np.ndarray:
        """Fill the near list's ``j`` and ``bound`` from a cell grid, computing
        in the workspace ``ws``; return the rows it leaves to whole rows.

        Cells are squares holding about ``_CELL_GERMS`` germs: 5 mean
        spacings wide over an area, as many germs along a line.  Each germ's
        row is computed against the germs of the 5 x 5 cells centred on its
        own, so a germ j left out lies at least ``edge``, the distance to the
        edge of that stencil, from germ i, and m[i, j] >= |g_i - g_j| / 2 (the
        triangle through the carrier intersection).  The stencil's list and
        bound are then the row's when the bound is below ``edge / 2``; the
        slack covers the rounding of m, under 0.2 % even for carriers just
        past ``PARALLEL_TOL``, and of the edges.
        """
        n, x, y = self.n, self.x, self.y
        x0, y0 = x.min(), y.min()
        w, h = x.max() - x0, y.max() - y0
        side = max(math.sqrt(_CELL_GERMS * w * h / n), _CELL_GERMS * max(w, h) / n)
        if side == 0.0:  # all germs at one point
            side = math.inf
        nx, ny = int(w // side) + 1, int(h // side) + 1
        with np.errstate(invalid="ignore"):
            cx = np.clip(np.floor((x - x0) / side), 0, nx - 1).astype(np.intp)
            cy = np.clip(np.floor((y - y0) / side), 0, ny - 1).astype(np.intp)
            # Distance to the stencil's edge, inf on a side with no cell beyond it.
            edge = np.minimum.reduce([
                np.where(cx > 2, x - (x0 + (cx - 2) * side), np.inf),
                np.where(cx < nx - 3, x0 + (cx + 3) * side - x, np.inf),
                np.where(cy > 2, y - (y0 + (cy - 2) * side), np.inf),
                np.where(cy < ny - 3, y0 + (cy + 3) * side - y, np.inf),
            ])
            reach = 0.5 * (1.0 - 1e-2) * (edge - 1e-12 * (abs(x0) + abs(y0) + w + h + side))
        # Germs by cell; a cell's stencil is 5 runs of cells along y, one per column of cells.
        key = cx * ny + cy
        order = np.argsort(key, kind="stable")
        key = key[order]
        cells, starts = np.unique(key, return_index=True)
        ends = np.append(starts[1:], n)
        kx, ky = np.divmod(cells, ny)
        col = kx[:, None] + np.arange(-2, 3)
        lo = np.searchsorted(key, col * ny + np.maximum(ky - 2, 0)[:, None])
        hi = np.searchsorted(key, col * ny + np.minimum(ky + 2, ny - 1)[:, None], side="right")
        hi = np.where((col >= 0) & (col < nx), hi, lo)
        whole = []
        for cell in range(len(cells)):
            rows = order[starts[cell]:ends[cell]]
            c = np.sort(np.concatenate([order[a:b] for a, b in zip(lo[cell], hi[cell])]))
            if len(c) <= width:
                whole.append(rows)
                continue
            step = max(1, _BLOCK_PAIRS // len(c))
            for k in range(0, len(rows), step):
                r = rows[k:k + step]
                first, kth = _first(self._m_block(r, ws, c), width)
                sure = np.isinf(edge[r]) | (kth < reach[r])
                j[r[sure]], bound[r[sure]] = c[first[sure]], kth[sure]
                whole.append(r[~sure])
        return np.sort(np.concatenate(whole))

    def _collinear_pairs(self) -> np.ndarray:
        """Every collinear pair ``(i, j)``, ``i < j``, in row-major order.

        The kernel's parallel test reads |sin| of the angle between the two
        directions, up to rounding far below ``PARALLEL_TOL``, so only pairs
        whose directions lie within ``2 * PARALLEL_TOL`` of each other, modulo
        pi, can pass it.  They are read off the sorted directions, wrapping
        at 0 and pi, and tested with the kernel's own expressions.
        """
        n = self.n
        order = np.argsort(self.theta, kind="stable")
        t = self.theta[order]
        at = np.arange(n)
        ends = np.searchsorted(np.concatenate((t, t + math.pi)), t + 2 * PARALLEL_TOL, side="right")
        span = np.minimum(ends, at + n) - at - 1  # partners after each position
        found = [np.empty((0, 2), dtype=np.intp)]
        for lo, hi, b in _spans(at + 1, span, max(_BLOCK_PAIRS, n)):
            a, b = np.repeat(order[lo:hi], span[lo:hi]), order[b % n]
            i, j = np.minimum(a, b), np.maximum(a, b)
            parallel = np.abs(self.ux[i] * self.uy[j] - self.uy[i] * self.ux[j]) < PARALLEL_TOL
            i, j = i[parallel], j[parallel]
            hit = self._collinear(i, j, self.x[j] - self.x[i], self.y[j] - self.y[i])
            found.append(np.column_stack((i[hit], j[hit])))
        pairs = np.concatenate(found)
        return pairs[np.argsort(pairs[:, 0] * n + pairs[:, 1])]

    @cached_property
    def d(self) -> np.ndarray:
        """Growth distances ``d[i, j]``, the whole n x n matrix, built on first use and kept.

        Raises :class:`InputTooLarge`, before allocating, when the matrix and
        the oracle solvers' work on it would not fit in physical memory.
        """
        n = self.n
        _require_memory(n, n * n * _PAIR_BYTES, "the dense pair table and the oracle solvers")
        d = np.empty((n, n))
        for slab in self._row_blocks(np.arange(n)):
            d[slab.rows[0]:slab.rows[-1] + 1] = slab.d
        return d

    @cached_property
    def _near_slab(self) -> _Slab:
        """The near list as one slab, its masks kept with it (see :class:`_Slab`)."""
        near = self.near
        return _Slab(np.arange(self.n), near.j, near.d, near.dT, near.collinear)

    def operator(self, radii: np.ndarray, model: int) -> np.ndarray:
        """One application of the model's stopping operator to ``radii``.

        Entry ``i`` is the smallest admissible stop value of row ``i``
        (``inf`` when there is none).  A listed row is answered by its first
        admissible pair: the list is in (m, j) order and every candidate's
        stop value is its m, so that pair holds the row's smallest.  A list
        answer up to ``bound`` is exact; a row answered past it is recomputed
        whole.  So at an assignment with no positive radius, such as f = 0,
        every row of finite ``bound`` whose list admits no pair (in Model 2,
        none with ``d[j, i] == 0``) is recomputed whole: O(n^2) pairs, in row
        blocks.  The fixed-point solve never applies the operator there (see
        :mod:`lilyseg.solver`).
        """
        _check_model(model)
        bound = self.near.bound
        slab = self._near_slab
        out = _first_admissible(slab.admissible(radii, model), slab.values(model))
        # A candidate left out of row i stops it at m >= bound[i], so a list
        # answer up to bound[i] is exact.
        for slab in self._row_blocks(np.nonzero(out > bound)[0]):
            out[slab.rows] = _row_min(slab.admissible(radii, model), slab.values(model))
        return out

    def answer_pass(self, radii: np.ndarray, model: int, tol: float) -> AnswerPass:
        """Explained stops and both contact tests at ``radii``, in one traversal.

        The near list is read over the rows whose list certifies both the
        stop matching and the contacts, and the other rows are computed
        whole, once for both.  Stops are matched in Model ``model``:
        admissible ``(i, j)`` whose stop value is ``radii[i]`` within
        ``tol``, searched on rows with a finite radius only.  Contacts are
        the all-pairs forms of
        :func:`relative_interiors_intersect` (``strict``) and
        :func:`segments_touch` (``touching``) at slack ``tol``.
        """
        _check_model(model)
        n, bound = self.n, self.near.bound
        finite = np.isfinite(radii)
        with np.errstate(invalid="ignore"):
            # A touching pair, transversal or collinear, has m <= R * (1 + tol)
            # for the larger radius R of the two, so it is in that member's
            # near list whenever R * (1 + tol) < bound there; a pair of
            # infinite m never touches, so a list with bound inf holds every
            # contact.
            listed = np.isinf(bound) | (finite & (radii * (1.0 + tol) < bound))
            # A stop left out of row i has a value >= bound[i]; once
            # bound[i] clears the matching slack, the list holds every match.
            listed &= ~finite | (bound - radii > tol * np.maximum(radii, 1.0))
        stops, touching, strict = [], [], []
        # The list over every row, its hits kept on the rows it certifies, then whole rows.
        whole = zip(self._row_blocks(np.nonzero(~listed)[0]), repeat(None))
        for slab, keep in chain([(self._near_slab, listed)], whole):
            rows, cols, d, dT, collinear = slab
            ri, rj = radii[rows, None], radii[cols]
            with np.errstate(invalid="ignore"):
                # Infinite radii cover every finite distance, interior included;
                # a transversal pair has finite d and dT, so d = inf never
                # passes where ri * (1 + tol) overflows.
                hit = slab.transversal & (np.isinf(ri) | (d <= ri * (1.0 + tol)))
                hit &= np.isinf(rj) | (dT <= rj * (1.0 + tol))
                if collinear.any():
                    reach = ri + rj
                    hit |= collinear & (np.isinf(reach) | (d + dT <= reach * (1.0 + tol)))
            a, b = _nonzero(hit)
            if keep is not None:
                a, b = a[keep[a]], b[keep[a]]
            i, j = rows[a], cols[a, b]
            touching.append(np.minimum(i, j) * n + np.maximum(i, j))
            # Interior contacts are touching ones, tested again strictly.
            ri, rj, d, dT = radii[i], radii[j], d[a, b], dT[a, b]
            with np.errstate(invalid="ignore"):
                inside = ~collinear[a, b] & np.where(np.isinf(ri), np.isfinite(d), d < ri * (1.0 - tol))
                inside &= np.where(np.isinf(rj), np.isfinite(dT), dT < rj * (1.0 - tol))
                reach = ri + rj
                inside |= collinear[a, b] & (np.isinf(reach) | (d + dT < reach * (1.0 - tol)))
            strict.append(touching[-1][inside])
            ri = radii[rows, None]
            with np.errstate(invalid="ignore"):
                hit = slab.admissible(radii, model, tol) & (np.abs(slab.values(model) - ri) <= tol * np.maximum(ri, 1.0))
            hit &= (finite[rows] if keep is None else keep & finite)[:, None]
            a, b = _nonzero(hit)
            stops.append(rows[a] * n + cols[a, b])
        stop_i, stop_j = np.divmod(np.sort(np.concatenate(stops)), n)
        return AnswerPass(stop_i, stop_j, _unique(np.concatenate(strict)), _unique(np.concatenate(touching)))

    def condition_d(self, tie_tol: float = TIE_TOL) -> ConditionDReport:
        """The full genericity screen of the set at relative tolerance
        ``tie_tol``, computed on first use and kept."""
        cached = self._condition_reports.get(tie_tol)
        if cached is not None:
            return cached
        n = self.n
        found: dict = {}
        values = None
        # One sweep over row blocks.  Germ g takes part in the distances of row
        # d[g, :] and column d[:, g]; a collinear pair's two orders are one
        # distance (equal by construction), so its column copy is masked.  Any
        # germ-sharing pair within tolerance sits inside a run of adjacent
        # sub-tolerance gaps of its germ's sorted distances; find the germs with
        # such gaps by blocks, vectorized, and verify them exactly while their
        # rows are at hand.
        for slab in self._row_blocks(np.arange(n)):
            b = len(slab.rows)
            if values is None:
                values = np.empty((b, 2 * n))
            v = values[:b]
            v[:, :n], v[:, n:] = slab.d, slab.dT
            if slab.collinear.any():
                np.copyto(v[:, n:], np.inf, where=slab.collinear)
            v.sort(axis=1)
            for k in np.nonzero(_gaps(v, tie_tol).any(axis=1))[0].tolist():
                _exact_ties(int(slab.rows[k]), slab.d[k], slab.dT[k], slab.collinear[k], tie_tol, found)
        report = self._condition_reports[tie_tol] = _report(found, self.near.collinear_pairs.tolist())
        return report

    def screen_collinear(self) -> None:
        """Raise :class:`ConditionDViolation` when the set has a collinear
        pair: the fixed-point solve's screen before it iterates (see
        :meth:`screen_answer` for the rest)."""
        pairs = self.near.collinear_pairs
        if len(pairs):
            raise ConditionDViolation(_report({}, pairs.tolist()))

    def screen_answer(self, model: int, radii: np.ndarray) -> None:
        """Raise :class:`ConditionDViolation` on a near tie among the comparisons
        one operator application makes at the fixed point ``radii``: over the
        whole row where the answer lies past the near list's ``bound`` or within
        a tie of it (a stop the list leaves out is worth at least ``bound``),
        over the list elsewhere."""
        bound = self.near.bound
        whole = (radii > bound) | _close(radii, bound)
        for slab in self._row_blocks(np.nonzero(whole)[0]):
            self._screen_rows(model, slab, radii)
        listed = np.nonzero(~whole)[0]
        slab = self._near_slab
        self._screen_rows(model, slab if len(listed) == self.n else slab.take(listed), radii)

    def _screen_rows(self, model: int, slab: _Slab, radii: np.ndarray) -> None:
        """Raise :class:`ConditionDViolation` on a near tie among the comparisons
        the operator makes over ``slab``, the near list or a block of whole rows,
        at the fixed point ``radii``, which is also its answer.

        Row i compares, for each j in the slab, the reach ``radii[j]`` against
        d[j, i] (skipping j's own stop on i, an element against itself) and, in
        Model 1, d[i, j] against d[j, i]; its finite answer is checked against
        every distance of germ i the slab holds, which covers the uniqueness of
        the row minimum and every later reach comparison against it.  Ties are
        labelled by ``_exact_ties`` on the compared distances alone, so each is
        one the full screen reports.
        """
        n = self.n
        d, dT, collinear = slab.d, slab.dT, slab.collinear
        reach = radii[slab.cols]
        with np.errstate(invalid="ignore"):
            live = slab.candidates(model) & (reach > 0) & np.isfinite(reach)
            live &= ~((reach == dT) & (dT >= d))
        reach_hit = live & _close(reach, dT)
        pair_hit = slab.transversal & _close(d, dT) if model == 1 else np.zeros_like(live)
        answer = radii[slab.rows, None]
        row_hit = slab.finite & _close(d, answer)
        col_hit = slab.transversal & _close(dT, answer)
        crowded = row_hit.sum(axis=1) + col_hit.sum(axis=1) > 1  # the answer itself is one
        if not (reach_hit.any() or pair_hit.any() or crowded.any()):
            return
        found: dict = {}
        inf = np.inf
        for a in np.nonzero(pair_hit.any(axis=1) | crowded)[0].tolist():
            # The flagged row's compared distances, written into n-vectors by column.
            row, col, flags = np.full(n, inf), np.full(n, inf), np.zeros(n, dtype=bool)
            cols = slab.cols[a]
            row[cols] = np.where(pair_hit[a] | (row_hit[a] & crowded[a]), d[a], inf)
            col[cols] = np.where(pair_hit[a] | (col_hit[a] & crowded[a]), dT[a], inf)
            flags[cols] = collinear[a]
            _exact_ties(int(slab.rows[a]), row, col, flags, TIE_TOL, found)
        a, b = _nonzero(reach_hit)
        germs = slab.cols[a, b]
        for other in self._row_blocks(np.unique(germs)):
            for k, g in enumerate(other.rows.tolist()):
                # Germ g's compared distances: its radius's own element (every
                # distance of g equal to it) and each d[g, i] held against it.
                row, col = other.d[k], other.dT[k]
                keep_row, keep_col = row == radii[g], col == radii[g]
                keep_row[slab.rows[a[germs == g]]] = True
                _exact_ties(g, np.where(keep_row, row, inf), np.where(keep_col, col, inf),
                            other.collinear[k], TIE_TOL, found)
        if found:
            raise ConditionDViolation(_report(found, ()), "growth distances compared by the solve are not distinct")


def _nonzero(mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.nonzero`` of a 2-D mask, at about half its cost."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def _unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` of an integer array, from one sort: several times
    faster than its hashing on the few thousand keys of an answer."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _key_pairs(keys: np.ndarray, n: int) -> List[Tuple[int, int]]:
    """Pair keys ``i * n + j`` as tuples ``(i, j)``."""
    i, j = np.divmod(keys, n)
    return list(zip(i.tolist(), j.tolist()))


def _first_admissible(ok: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per row, ``values`` at the first entry where ``ok`` (``inf`` when none
    is): the row minimum of :func:`_row_min` on rows in ascending order."""
    if ok.shape[1] == 0:  # argmax takes no empty axis
        return np.full(len(ok), np.inf)
    r = np.arange(len(ok))
    k = ok.argmax(axis=1)
    return np.where(ok[r, k], values[r, k], np.inf)


def _row_min(ok: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per row, the smallest of ``values`` where ``ok`` (``inf`` when none is).

    Equal bit for bit to ``np.min(values, axis=1, where=ok, initial=inf)``
    on values that are never NaN, at about half its cost.
    """
    return np.where(ok, values, np.inf).min(axis=1, initial=np.inf)


def _report(found: dict, collinear_pairs: Sequence[Sequence[int]]) -> ConditionDReport:
    near = tuple(found[key] for key in sorted(found))
    pairs = tuple(map(tuple, collinear_pairs))
    return ConditionDReport(passes=not near and not pairs, near_ties=near, collinear_pairs=pairs)


def _gaps(v: np.ndarray, tie_tol: float) -> np.ndarray:
    """The near-tie rule, on values sorted along the last axis: entry k is
    ``v[..., k + 1] - v[..., k] < tie_tol * max(v[..., k + 1], 1)``."""
    with np.errstate(invalid="ignore"):  # inf - inf
        return np.diff(v) < tie_tol * np.maximum(v[..., 1:], 1.0)


def _exact_ties(g: int, row: np.ndarray, col: np.ndarray, collinear: np.ndarray, tie_tol: float, found: dict) -> None:
    """Add germ ``g``'s near ties to ``found``, given its row ``d[g, :]``,
    column ``d[:, g]`` and collinear partners.

    A tie between (g, j) and (j, g) shows under both germs; it is keyed
    once.  Entries are ordered by value, then by row-major index, as one
    stable sort of all distances would order them.
    """
    n = len(row)
    r = np.nonzero(np.isfinite(row))[0]
    c = np.nonzero(np.isfinite(col) & ~collinear)[0]
    pair = collinear[r]  # labelled (min, max), like the collinear_pairs
    ii = np.concatenate((np.where(pair, np.minimum(g, r), g), c))
    jj = np.concatenate((np.where(pair, np.maximum(g, r), r), np.full(len(c), g)))
    values = np.concatenate((row[r], col[c]))
    order = np.lexsort((ii * n + jj, values))
    values, ii, jj = values[order], ii[order], jj[order]
    hits = np.nonzero(_gaps(values, tie_tol))[0]
    runs: List[Tuple[int, int]] = []
    for k in hits.tolist():
        if runs and k <= runs[-1][1]:
            runs[-1] = (runs[-1][0], k + 1)
        else:
            runs.append((k, k + 1))
    for lo, hi in runs:
        for a in range(lo, hi + 1):
            for b in range(a + 1, hi + 1):
                delta = float(values[b] - values[a])
                if delta >= tie_tol * max(float(values[b]), 1.0):
                    continue
                ea, eb = (int(ii[a]), int(jj[a])), (int(ii[b]), int(jj[b]))
                found[(float(values[a]), ea, float(values[b]), eb)] = (ea, eb, delta)


def _close(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Where ``a`` and ``b`` are a near tie by the screen's rule (false on ``inf``)."""
    with np.errstate(invalid="ignore"):
        gap = np.subtract(a, b)
        scale = np.maximum(a, b)
        np.maximum(scale, 1.0, out=scale)
        return np.less(np.abs(gap, out=gap), np.multiply(scale, TIE_TOL, out=scale))


def _require_memory(n: int, need: int, use: str) -> None:
    """Raise :class:`InputTooLarge` when ``use`` on ``n`` points, ``need``
    bytes, exceeds physical memory; no guard when its size is unknown."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return
    if 0 < memory < need:
        raise InputTooLarge(
            f"{n} points need {need / 2**30:.1f} GiB for {use}, "
            f"more than the {memory / 2**30:.1f} GiB of physical memory"
        )


def _write_text(fp: Union[str, IO[str]], text: str) -> None:
    """Write ``text`` to the open file ``fp``, or to a new file at the path ``fp``."""
    if hasattr(fp, "write"):
        fp.write(text)
    else:
        with open(fp, "w") as fh:
            fh.write(text)


def _check_model(model: int) -> None:
    if model not in (1, 2):
        raise InvalidInput(f"model must be 1 or 2, got {model}")


def shared_pair_table(point_set) -> PairTable:
    """Return the :class:`PairTable` of a point set, building it on first use.

    The table is kept on the set object itself, so it lives exactly as long
    as the set, and an equal but distinct set builds its own.  Pickles of a
    set carry no table (see ``MarkedPointSet.__getstate__``).  Two threads
    asking at once for a new set's table may each build one; both hold the
    same values.
    """
    table = vars(point_set).get("_pair_table")
    if table is None:
        table = PairTable(point_set)
        object.__setattr__(point_set, "_pair_table", table)
    return table
