"""Pairwise geometry of directed segment growth.

A marked point is a germ in the plane together with an undirected line
direction in [0, pi).  Two distinct marked points determine growth
distances: the times their segments, growing at unit rate about fixed
midpoints, need to reach the intersection point of their carrier lines.
This module computes those distances (scalar and all-pairs vectorized),
realizes segments from solved radii, and holds the scalar contact
predicates along with the :class:`PairTable` pair kernels that the solvers,
the verifier and the structure analysis call: ``candidate_mask``,
``admissible`` and ``stop_values`` (the stopping rule), ``stop_matches``
(explained stops) and ``cover`` (the all-pairs contact test).

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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import IdenticalGerms, InputTooLarge, NegativeRadius

#: Two directions are parallel when |sin(theta1 - theta2)| falls below this.
PARALLEL_TOL = 1e-12

#: Default relative tolerance for contact predicates.
CONTACT_TOL = 1e-9

# Peak bytes per ordered germ pair while a set is sampled, screened, solved
# under both models and analyzed (tracemalloc: 30.4 at n = 901, 29.4 at
# n = 2026; the fixed-point solve sets the peak); sizes the guard in
# PairTable.
_PAIR_BYTES = 30

# Ordered pairs per row block while the table is built; bounds the
# temporaries to a few MiB whatever the set size.
_BLOCK_PAIRS = 1 << 18


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
            raise ValueError(f"germ coordinates must be finite, got ({self.x}, {self.y})")
        if not (0.0 <= self.theta < math.pi):
            raise ValueError(f"direction must lie in [0, pi), got {self.theta}")

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


def pair_geometry(a: MarkedPoint, b: MarkedPoint, tol: float = PARALLEL_TOL) -> PairGeometry:
    """Classify an ordered pair and compute both growth distances.

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
    if abs(denom) < tol:
        # Parallel carriers: collinear iff the perpendicular offset vanishes
        # relative to the local length scale.  The offset is measured against
        # both carrier lines so the test is exactly symmetric in (a, b).
        scale = max(1.0, math.hypot(a.x, a.y), math.hypot(b.x, b.y))
        off = max(abs(_cross(wx, wy, uax, uay)), abs(_cross(wx, wy, ubx, uby)))
        if off < tol * scale:
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


class PairTable:
    """All-pairs growth distances for a finite list of marked points.

    Dense vectorized companion of :func:`pair_geometry`: entry ``d[i, j]``
    is the growth distance of point ``i`` toward the carrier intersection
    with point ``j`` (``inf`` on the diagonal and for disjoint parallels,
    half the germ distance for collinear parallels).  The expressions match
    the scalar routine operation for operation, so ``d[i, j]`` and the
    scalar ``d_ab`` agree bitwise.

    The table is the shared working state of the solvers; build it once per
    point set (see :func:`shared_pair_table`) and reuse.
    """

    def __init__(self, points: Sequence[MarkedPoint], angle_tol: float = PARALLEL_TOL):
        self.points = tuple(points)
        n = len(self.points)
        need = n * n * _PAIR_BYTES
        try:
            memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        except (AttributeError, ValueError, OSError):  # size unknown: no guard
            memory = 0
        if 0 < memory < need:
            raise InputTooLarge(
                f"{n} points need {need / 2**30:.1f} GiB of pair tables, "
                f"more than the {memory / 2**30:.1f} GiB of physical memory"
            )
        self.n = n
        self.x = np.array([p.x for p in self.points], dtype=float)
        self.y = np.array([p.y for p in self.points], dtype=float)
        self.theta = np.array([p.theta for p in self.points], dtype=float)
        ux = np.cos(self.theta)
        uy = np.sin(self.theta)
        self.ux = ux
        self.uy = uy

        self.d = np.empty((n, n))
        self.transversal = np.empty((n, n), dtype=bool)
        self.collinear = np.zeros((n, n), dtype=bool)
        radius = np.hypot(self.x, self.y)
        rows = max(1, _BLOCK_PAIRS // max(n, 1))
        for lo in range(0, n, rows):
            hi = min(n, lo + rows)
            wx = self.x[None, :] - self.x[lo:hi, None]
            wy = self.y[None, :] - self.y[lo:hi, None]
            denom = ux[lo:hi, None] * uy[None, :] - uy[lo:hi, None] * ux[None, :]
            # Quotients for parallel pairs (tiny denominators) are discarded
            # below; silence the spurious divide/overflow signals they raise.
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                s = (wx * uy[None, :] - wy * ux[None, :]) / denom
            parallel = np.abs(denom) < angle_tol
            diag = (np.arange(hi - lo), np.arange(lo, hi))
            parallel[diag] = False
            transversal = self.transversal[lo:hi]
            np.logical_not(parallel, out=transversal)
            transversal[diag] = False
            d = self.d[lo:hi]
            np.abs(s, out=d)
            d[~transversal] = np.inf

            # Collinear parallels: perpendicular offset below tolerance on
            # both carriers, relative to the local length scale.
            pi, pj = np.nonzero(parallel)
            if len(pi):
                pwx, pwy = wx[pi, pj], wy[pi, pj]
                gi = pi + lo
                scale = np.maximum(1.0, np.maximum(radius[gi], radius[pj]))
                off_a = np.abs(pwx * uy[gi] - pwy * ux[gi])
                off_b = np.abs(pwx * uy[pj] - pwy * ux[pj])
                hit = np.maximum(off_a, off_b) < angle_tol * scale
                d[pi[hit], pj[hit]] = 0.5 * np.hypot(pwx[hit], pwy[hit])
                self.collinear[gi[hit], pj[hit]] = True

        self._condition_reports: dict = {}
        self._masks: dict = {}

    @property
    def m(self) -> np.ndarray:
        """Later-arrival times ``max(d[i, j], d[j, i])`` (symmetric)."""
        return np.maximum(self.d, self.d.T)

    def candidate_mask(self, model: int) -> np.ndarray:
        """Boolean mask of admissible stopping candidates ``(i, j)``.

        Model 1 admits pairs whose own arrival is the later one
        (``d[i, j] > d[j, i]``, finite); Model 2 admits every pair with a
        finite later-arrival time, which is ``isfinite(d)``: finiteness of
        ``d`` is symmetric and its diagonal is ``inf``.  Built once per
        table and model.
        """
        if model not in (1, 2):
            raise ValueError(f"model must be 1 or 2, got {model}")
        if model not in self._masks:
            finite = np.isfinite(self.d)
            self._masks[model] = finite & (self.d > self.d.T) if model == 1 else finite
        return self._masks[model]

    def stop_values(self, model: int) -> np.ndarray:
        """Radius at which ``i`` stops on ``j``: ``d`` in Model 1, ``m`` in Model 2."""
        return self.d if model == 1 else self.m

    def admissible(self, radii: np.ndarray, model: int, tol: float = 0.0) -> np.ndarray:
        """Mask of candidate ``(i, j)`` whose ``j`` reaches the meeting point.

        The reach rule is ``radii[j] > d[j, i]`` in Model 1 and ``>=`` in
        Model 2, with ``d[j, i]`` shrunk by the relative slack ``tol``.
        """
        need = self.d.T * (1.0 - tol)
        reach = radii[None, :] > need if model == 1 else radii[None, :] >= need
        return self.candidate_mask(model) & reach

    def stop_matches(self, radii: np.ndarray, model: int, tol: float) -> np.ndarray:
        """Mask of admissible ``(i, j)`` whose stop value is ``radii[i]`` within ``tol``."""
        ri = radii[:, None]
        admissible = self.admissible(radii, model, tol)
        with np.errstate(invalid="ignore"):
            return admissible & (np.abs(self.stop_values(model) - ri) <= tol * np.maximum(ri, 1.0))

    def cover(self, radii: np.ndarray, strict: bool, tol: float) -> List[Tuple[int, int]]:
        """Pairs ``(i, j)``, ``i < j``, whose segments share a point.

        The all-pairs form of :func:`relative_interiors_intersect`
        (``strict``) or :func:`segments_touch`, in row-major order.
        """
        ri = radii[:, None]
        less = np.less if strict else np.less_equal
        scale = 1.0 - tol if strict else 1.0 + tol
        with np.errstate(invalid="ignore"):
            # Infinite radii cover every finite distance, interior included.
            cover_i = np.where(np.isinf(ri), np.isfinite(self.d), less(self.d, ri * scale))
            hit = self.transversal & cover_i & cover_i.T
            if self.collinear.any():
                reach = ri + radii[None, :]
                hit |= self.collinear & (np.isinf(reach) | less(self.d + self.d.T, reach * scale))
        hi, hj = np.nonzero(np.triu(hit, k=1))
        return list(zip(hi.tolist(), hj.tolist()))


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
