"""Pairwise geometry of directed segment growth.

A marked point is a germ in the plane together with an undirected line
direction in [0, pi).  Two distinct marked points determine growth
distances: the times their segments, growing at unit rate about fixed
midpoints, need to reach the intersection point of their carrier lines.
This module computes those distances (scalar and all-pairs vectorized),
realizes segments from solved radii, and holds the scalar contact
predicates along with the :class:`PairTable` pair kernels that the solvers,
the verifier and the structure analysis call: ``operator`` and
``admissible`` (the stopping rule), ``stop_matches`` (explained stops) and
``cover`` (the all-pairs contact test).  The table stores no n x n array:
one sweep over row blocks, computed from the coordinates, builds each
germ's near list of closest stops, and the kernels fall back to rows
recomputed on demand where the list cannot certify its answer.  A dense
table is built only when asked for; ``candidate_mask`` and ``stop_values``
give the whole-matrix rule to the chain and greedy solvers.

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
import threading
import weakref
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import IdenticalGerms, InputTooLarge, InvalidInput, NegativeRadius

#: Two directions are parallel when |sin(theta1 - theta2)| falls below this.
PARALLEL_TOL = 1e-12

#: Default relative tolerance for contact predicates.
CONTACT_TOL = 1e-9

# Peak bytes per ordered germ pair of the oracle solvers, which alone build
# the dense table (tracemalloc, 30x30 and 45x45 windows, seed 1): the chain
# solver 35, the greedy sweep 46-47 in Model 1 and 55 in Model 2 (its pair
# index and event-time arrays).  Sizes the guard on the dense build; the
# production path holds O(n) arrays and needs no guard.
_PAIR_BYTES = 56

# Ordered pairs per row block when rows of the table are computed (the sweep
# and the kernels' whole-row fallback).  Each pass allocates one workspace,
# about 1.7 MiB at this size, and reuses it for every block: fresh
# temporaries per block cost page faults.
_BLOCK_PAIRS = 1 << 15

# Pairs each germ keeps in the near list (see PairTable).
_NEAR = 32


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
    """Each germ's pairs of smallest later-arrival time ``m`` (see :class:`PairTable`),
    and every collinear pair of the set, recorded by the sweep that builds the list."""

    j: np.ndarray  # (n, w) partners of row i by ascending m[i, j], w = min(_NEAR, n)
    d: np.ndarray  # d[i, j] along the list
    dT: np.ndarray  # d[j, i] along the list
    transversal: np.ndarray  # the table's pair kinds along the list
    collinear: np.ndarray
    bound: np.ndarray  # smallest m[i, j] left out of row i, inf when none is
    colmin: np.ndarray  # min over j of d[j, i]
    collinear_pairs: np.ndarray  # (k, 2) every collinear pair (i, j), i < j, in row-major order


class _Slab(NamedTuple):
    """Pairs ``(rows[a], cols[a, b])`` with their ``d[i, j]``, ``d[j, i]`` and kinds."""

    rows: np.ndarray
    cols: np.ndarray
    d: np.ndarray
    dT: np.ndarray
    transversal: np.ndarray
    collinear: np.ndarray


class _Dense(NamedTuple):
    """The whole n x n table, built only for the oracle solvers and the tests."""

    d: np.ndarray
    transversal: np.ndarray
    collinear: np.ndarray


class PairTable:
    """All-pairs growth distances for a finite list of marked points.

    Vectorized companion of :func:`pair_geometry`: entry ``d[i, j]`` is the
    growth distance of point ``i`` toward the carrier intersection with
    point ``j`` (``inf`` on the diagonal and for disjoint parallels, half
    the germ distance for collinear parallels).  The expressions match the
    scalar routine operation for operation, so ``d[i, j]`` and the scalar
    ``d_ab`` agree bitwise.

    The table stores O(n) state: the coordinates and the :attr:`near` list.
    Rows ``d[i, :]`` and columns ``d[:, i]`` are recomputed from the
    coordinates in row blocks whenever they are needed (or gathered from
    the dense table below, once it is built).  One sweep over all
    rows builds the near list, with every collinear pair, and feeds the
    full genericity screen when one runs (see :mod:`lilyseg.pointprocess`);
    the sampling path's screen reads the list alone.  Pairs are parallel
    by the fixed ``PARALLEL_TOL``, as in :func:`pair_geometry`.  Build the
    table once per point set (see :func:`shared_pair_table`) and reuse it.

    The pair kernels (``operator``, ``admissible``, ``stop_matches`` and
    ``cover``) read the near list: for each row ``i`` the ``_NEAR`` pairs
    of smallest ``m[i, j] = max(d[i, j], d[j, i])`` and ``bound[i]``, the
    smallest ``m`` left out.  Every admissible stop and every contact of
    ``i`` beyond ``bound[i]`` costs at least ``bound[i]``, so each kernel
    certifies the rows the list answers exactly, with the floating-point
    expression of its own test, and recomputes the other rows whole.
    Results equal the whole-matrix evaluation bit for bit.

    ``d``, ``transversal``, ``collinear``, ``m``, ``candidate_mask`` and
    ``stop_values`` give the whole n x n table.  It is built on first use
    and kept; only the chain and greedy solvers, the descending-chain
    search and the tests use it.
    """

    def __init__(self, points: Sequence[MarkedPoint]):
        self.points = tuple(points)
        self.n = len(self.points)
        self.x = np.array([p.x for p in self.points], dtype=float)
        self.y = np.array([p.y for p in self.points], dtype=float)
        self.theta = np.array([p.theta for p in self.points], dtype=float)
        self.ux = np.cos(self.theta)
        self.uy = np.sin(self.theta)
        self.radius = np.hypot(self.x, self.y)
        self._near: Optional[NearList] = None
        self._condition_reports: dict = {}

    def _block(self, r: np.ndarray, ws: Tuple[np.ndarray, np.ndarray]) -> _Slab:
        """Rows ``r`` against every column, computed into the workspace ``ws``."""
        b = len(r)
        wx, wy, denom, t, d, dT = ws[0][:, :b]
        parallel, transversal, collinear = ws[1][:, :b]
        x, y, ux, uy = self.x, self.y, self.ux, self.uy
        uxr, uyr = ux[r, None], uy[r, None]
        np.subtract(x, x[r, None], out=wx)
        np.subtract(y, y[r, None], out=wy)
        np.multiply(uxr, uy, out=denom)
        np.subtract(denom, np.multiply(uyr, ux, out=t), out=denom)
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
        diag = (np.arange(b), r)
        parallel[diag] = False
        np.logical_not(parallel, out=transversal)
        transversal[diag] = False
        d[diag] = dT[diag] = np.inf
        collinear.fill(False)
        if parallel.any():
            pi, pj = np.nonzero(parallel)
            d[pi, pj] = dT[pi, pj] = np.inf
            # Collinear parallels: perpendicular offset below tolerance on
            # both carriers, relative to the local length scale.  The test
            # and the half germ distance are symmetric in the pair.
            pwx, pwy = wx[pi, pj], wy[pi, pj]
            gi = r[pi]
            scale = np.maximum(1.0, np.maximum(self.radius[gi], self.radius[pj]))
            off_a = np.abs(pwx * uy[gi] - pwy * ux[gi])
            off_b = np.abs(pwx * uy[pj] - pwy * ux[pj])
            hit = np.maximum(off_a, off_b) < PARALLEL_TOL * scale
            pi, pj = pi[hit], pj[hit]
            d[pi, pj] = dT[pi, pj] = 0.5 * np.hypot(pwx[hit], pwy[hit])
            collinear[pi, pj] = True
        return _Slab(r, np.broadcast_to(np.arange(self.n), (b, self.n)), d, dT, transversal, collinear)

    def _row_blocks(self, rows: np.ndarray):
        """``rows`` against every column, in blocks of about ``_BLOCK_PAIRS`` pairs.

        Every block is computed into one workspace, which the next block
        overwrites: a consumer copies what it keeps.  Once the dense table
        is built, blocks are gathered from it instead of recomputed.
        """
        if len(rows) == 0:
            return
        step = max(1, _BLOCK_PAIRS // self.n)
        shape = (min(step, len(rows)), self.n)
        dense = vars(self).get("_dense")
        if dense is not None:
            cols = np.broadcast_to(np.arange(self.n), shape)
            for lo in range(0, len(rows), step):
                r = rows[lo:lo + step]
                yield _Slab(r, cols[:len(r)], dense.d[r], dense.d[:, r].T, dense.transversal[r], dense.collinear[r])
            return
        ws = (np.empty((6, *shape)), np.empty((3, *shape), dtype=bool))
        for lo in range(0, len(rows), step):
            yield self._block(rows[lo:lo + step], ws)

    def _sweep(self):
        """Every row block in order, building the near list on the way if it is not built yet."""
        n = self.n
        if self._near is not None:
            yield from self._row_blocks(np.arange(n))
            return
        width = min(_NEAR, n)
        j = np.empty((n, width), dtype=np.intp)
        d, dT = np.empty((n, width)), np.empty((n, width))
        transversal, collinear = np.empty((n, width), dtype=bool), np.empty((n, width), dtype=bool)
        bound = np.full(n, np.inf)
        colmin = np.empty(n)
        pairs = [np.empty((0, 2), dtype=np.intp)]
        m = None
        for slab in self._row_blocks(np.arange(n)):
            lo, hi = slab.rows[0], slab.rows[-1] + 1
            if m is None:
                m = np.empty(slab.d.shape)
            mb = np.maximum(slab.d, slab.dT, out=m[:hi - lo])
            r = np.arange(hi - lo)[:, None]
            if width < n:
                part = np.argpartition(mb, width, axis=1)
                bound[lo:hi] = mb[r[:, 0], part[:, width]]
                part = part[:, :width]
            else:
                part = np.broadcast_to(np.arange(n), mb.shape)
            jb = part[r, np.argsort(mb[r, part], axis=1, kind="stable")]
            j[lo:hi] = jb
            d[lo:hi], dT[lo:hi] = slab.d[r, jb], slab.dT[r, jb]
            transversal[lo:hi], collinear[lo:hi] = slab.transversal[r, jb], slab.collinear[r, jb]
            np.min(slab.dT, axis=1, out=colmin[lo:hi])
            if slab.collinear.any():
                ci, cj = np.nonzero(slab.collinear)
                ci += lo
                pairs.append(np.column_stack((ci, cj))[ci < cj])
            yield slab
        self._near = NearList(j, d, dT, transversal, collinear, bound, colmin, np.concatenate(pairs))

    @property
    def near(self) -> NearList:
        """The near list, shared by both models; built once, by one sweep over the rows."""
        if self._near is None:
            for _ in self._sweep():
                pass
        return self._near

    @cached_property
    def _dense(self) -> _Dense:
        n = self.n
        need = n * n * _PAIR_BYTES
        try:
            memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        except (AttributeError, ValueError, OSError):  # size unknown: no guard
            memory = 0
        if 0 < memory < need:
            raise InputTooLarge(
                f"{n} points need {need / 2**30:.1f} GiB for the dense pair table and the "
                f"oracle solvers, more than the {memory / 2**30:.1f} GiB of physical memory"
            )
        dense = _Dense(np.empty((n, n)), np.empty((n, n), dtype=bool), np.empty((n, n), dtype=bool))
        for slab in self._row_blocks(np.arange(n)):
            rows = slice(slab.rows[0], slab.rows[-1] + 1)
            dense.d[rows], dense.transversal[rows], dense.collinear[rows] = slab.d, slab.transversal, slab.collinear
        return dense

    @property
    def d(self) -> np.ndarray:
        """Growth distances ``d[i, j]`` (dense oracle table)."""
        return self._dense.d

    @property
    def transversal(self) -> np.ndarray:
        """Pairs with transversal carriers (dense oracle table)."""
        return self._dense.transversal

    @property
    def collinear(self) -> np.ndarray:
        """Collinear parallel pairs (dense oracle table)."""
        return self._dense.collinear

    @property
    def m(self) -> np.ndarray:
        """Later-arrival times ``max(d[i, j], d[j, i])`` (symmetric)."""
        return np.maximum(self.d, self.d.T)

    def candidate_mask(self, model: int) -> np.ndarray:
        """Boolean mask of admissible stopping candidates ``(i, j)``.

        Model 1 admits pairs whose own arrival is the later one
        (``d[i, j] > d[j, i]``, finite); Model 2 admits every pair with a
        finite later-arrival time, which is ``isfinite(d)``: finiteness of
        ``d`` is symmetric and its diagonal is ``inf``.  Built afresh on
        every call; only the chain and greedy solvers need it.
        """
        _check_model(model)
        finite = np.isfinite(self.d)
        return finite & (self.d > self.d.T) if model == 1 else finite

    def stop_values(self, model: int) -> np.ndarray:
        """Radius at which ``i`` stops on ``j``: ``d`` in Model 1, ``m`` in Model 2."""
        return self.d if model == 1 else self.m

    def _near_slab(self, rows: Optional[np.ndarray] = None) -> _Slab:
        """The near list as a slab, restricted to ``rows`` when given."""
        near = self.near
        pairs = (near.j, near.d, near.dT, near.transversal, near.collinear)
        if rows is None:
            return _Slab(np.arange(self.n), *pairs)
        return _Slab(rows, *(a[rows] for a in pairs))

    def admissible(
        self, radii: np.ndarray, model: int, tol: float = 0.0, slab: Optional[_Slab] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Admissible stops over a slab (the near list by default).

        Returns a mask of the candidates ``(i, j)`` whose ``j`` reaches the
        meeting point, and the stop values.  The reach rule is
        ``radii[j] > d[j, i]`` in Model 1 and ``>=`` in Model 2, with
        ``d[j, i]`` shrunk by the relative slack ``tol``.
        """
        _check_model(model)
        _, cols, d, dT, _, _ = self._near_slab() if slab is None else slab
        need = dT * (1.0 - tol)
        reach = radii[cols]
        if model == 1:
            return np.isfinite(d) & (d > dT) & (reach > need), d
        return np.isfinite(d) & (reach >= need), np.maximum(d, dT)

    def operator(self, radii: np.ndarray, model: int) -> np.ndarray:
        """One application of the model's stopping operator to ``radii``.

        Entry ``i`` is the smallest admissible stop value of row ``i``
        (``inf`` when there is none), read off the near list where that is
        exact and recomputed over the whole row elsewhere.
        """
        return self._operator(radii, model)

    def _operator(self, radii: np.ndarray, model: int, screen=None) -> np.ndarray:
        """:meth:`operator`, calling ``screen(slab, radii, answers)`` on every block of whole rows."""
        near = self.near
        ok, values = self.admissible(radii, model)
        out = np.min(values, axis=1, where=ok, initial=np.inf)
        # A candidate left out of row i stops it at m >= bound[i], so a list
        # answer up to bound[i] is exact.  So is any answer when no radius
        # reaches past d[j, i] for any j: then nothing left out is admissible.
        unsure = out > near.bound
        if unsure.any():
            top = np.max(radii)
            unsure &= ~(top <= near.colmin if model == 1 else top < near.colmin)
            for slab in self._row_blocks(np.nonzero(unsure)[0]):
                ok, values = self.admissible(radii, model, slab=slab)
                out[slab.rows] = np.min(values, axis=1, where=ok, initial=np.inf)
                if screen is not None:
                    screen(slab, radii, out[slab.rows])
        return out

    def stop_matches(self, radii: np.ndarray, model: int, tol: float) -> Tuple[np.ndarray, np.ndarray]:
        """Explained stops: admissible ``(i, j)`` whose stop value is ``radii[i]`` within ``tol``.

        Only rows with a finite radius are searched.  Returns the index
        arrays ``i`` and ``j`` in row-major order.
        """
        finite = np.isfinite(radii)
        # A candidate left out of row i has a stop value >= bound[i]; once
        # bound[i] clears the matching slack, the list holds every match.
        with np.errstate(invalid="ignore"):
            sure = finite & (self.near.bound - radii > tol * np.maximum(radii, 1.0))
        keys = []
        for slab in self._slabs(sure, finite & ~sure):
            ok, values = self.admissible(radii, model, tol, slab)
            ri = radii[slab.rows, None]
            with np.errstate(invalid="ignore"):
                hit = ok & (np.abs(values - ri) <= tol * np.maximum(ri, 1.0))
            a, b = np.nonzero(hit)
            keys.append(slab.rows[a] * self.n + slab.cols[a, b])
        return np.divmod(np.sort(np.concatenate(keys)), self.n)

    def cover(self, radii: np.ndarray, strict: bool, tol: float) -> List[Tuple[int, int]]:
        """Pairs ``(i, j)``, ``i < j``, whose segments share a point.

        The all-pairs form of :func:`relative_interiors_intersect`
        (``strict``) or :func:`segments_touch`, in row-major order.
        """
        # A touching pair, transversal or collinear, has m <= R * (1 + tol)
        # for the larger radius R of the two, so it is in that member's near
        # list whenever R * (1 + tol) < bound there.
        with np.errstate(invalid="ignore"):
            sure = np.isfinite(radii) & (radii * (1.0 + tol) < self.near.bound)
        less = np.less if strict else np.less_equal
        scale = 1.0 - tol if strict else 1.0 + tol
        keys = []
        for rows, cols, d, dT, transversal, collinear in self._slabs(sure, ~sure):
            ri, rj = radii[rows, None], radii[cols]
            with np.errstate(invalid="ignore"):
                # Infinite radii cover every finite distance, interior included.
                hit = transversal & np.where(np.isinf(ri), np.isfinite(d), less(d, ri * scale))
                hit &= np.where(np.isinf(rj), np.isfinite(dT), less(dT, rj * scale))
                if collinear.any():
                    reach = ri + rj
                    hit |= collinear & (np.isinf(reach) | less(d + dT, reach * scale))
            a, b = np.nonzero(hit)
            i, j = rows[a], cols[a, b]
            keys.append(np.minimum(i, j) * self.n + np.maximum(i, j))
        i, j = np.divmod(np.unique(np.concatenate(keys)), self.n)
        return list(zip(i.tolist(), j.tolist()))

    def _slabs(self, listed: np.ndarray, whole: np.ndarray):
        """The near list over the rows ``listed`` marks, then whole rows ``whole`` marks."""
        rows = np.nonzero(listed)[0]
        yield self._near_slab(None if len(rows) == self.n else rows)
        yield from self._row_blocks(np.nonzero(whole)[0])


def _check_model(model: int) -> None:
    if model not in (1, 2):
        raise InvalidInput(f"model must be 1 or 2, got {model}")


_table_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_table_lock = threading.Lock()


def shared_pair_table(point_set) -> PairTable:
    """Return the cached :class:`PairTable` for a point set, building it once.

    Keyed weakly on the point-set object so batch runs over many
    realizations do not accumulate tables; the lock keeps concurrent batch
    analysis over shared sets race-free.
    """
    with _table_lock:
        table = _table_cache.get(point_set)
    if table is None:
        table = PairTable(point_set.points)
        with _table_lock:
            _table_cache[point_set] = table
    return table
