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
``cover`` (the all-pairs contact test).  The kernels work over each germ's
near list of closest stops and fall back to whole rows of the table where
the list cannot certify its answer; ``candidate_mask`` and ``stop_values``
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

from .errors import IdenticalGerms, InputTooLarge, NegativeRadius

#: Two directions are parallel when |sin(theta1 - theta2)| falls below this.
PARALLEL_TOL = 1e-12

#: Default relative tolerance for contact predicates.
CONTACT_TOL = 1e-9

# Peak bytes per ordered germ pair while a set is sampled, screened, solved
# under both models and analyzed (tracemalloc, seed 1: 27.2 at n = 901,
# 13.5 at n = 2026).  Sampling sets the peak: the table's 10 bytes per pair
# plus the build's and the screen's row-block temporaries, a few MiB
# whatever n, so the figure falls toward 10 as n grows; the solve and the
# analysis stay within 7 MiB above the table.  Sizes the guard in PairTable.
_PAIR_BYTES = 14

# Ordered pairs per row block while the table is built; bounds the
# temporaries to a few MiB whatever the set size.
_BLOCK_PAIRS = 1 << 18

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


class NearList(NamedTuple):
    """Each germ's pairs of smallest later-arrival time ``m`` (see :class:`PairTable`)."""

    j: np.ndarray  # (n, w) partners of row i by ascending m[i, j], w = min(_NEAR, n)
    d: np.ndarray  # d[i, j] along the list
    dT: np.ndarray  # d[j, i] along the list
    transversal: np.ndarray  # the table's pair kinds along the list
    collinear: np.ndarray
    bound: np.ndarray  # smallest m[i, j] left out of row i, inf when none is
    colmin: np.ndarray  # min over j of d[j, i]


class _Slab(NamedTuple):
    """Pairs ``(rows[a], cols[a, b])`` with their ``d[i, j]``, ``d[j, i]`` and kinds."""

    rows: np.ndarray
    cols: np.ndarray
    d: np.ndarray
    dT: np.ndarray
    transversal: np.ndarray
    collinear: np.ndarray


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

    The pair kernels (``operator``, ``admissible``, ``stop_matches`` and
    ``cover``) read the :attr:`near` list: for each row ``i`` the ``_NEAR``
    pairs of smallest ``m[i, j] = max(d[i, j], d[j, i])`` and ``bound[i]``,
    the smallest ``m`` left out.  Every admissible stop and every contact
    of ``i`` beyond ``bound[i]`` costs at least ``bound[i]``, so each kernel
    certifies the rows the list answers exactly, with the floating-point
    expression of its own test, and recomputes the other rows from ``d`` in
    row blocks.  Results equal the whole-matrix evaluation bit for bit.
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

    @cached_property
    def near(self) -> NearList:
        """The near list, shared by both models; built once, in row blocks."""
        n = self.n
        width = min(_NEAR, n)
        j = np.empty((n, width), dtype=np.intp)
        bound = np.full(n, np.inf)
        colmin = np.full(n, np.inf)
        rows = max(1, _BLOCK_PAIRS // max(n, 1))
        for lo in range(0, n, rows):
            hi = min(n, lo + rows)
            m = np.maximum(self.d[lo:hi], self.d[:, lo:hi].T)
            r = np.arange(hi - lo)[:, None]
            if width < n:
                part = np.argpartition(m, width, axis=1)
                bound[lo:hi] = m[r[:, 0], part[:, width]]
                part = part[:, :width]
            else:
                part = np.broadcast_to(np.arange(n), m.shape)
            j[lo:hi] = part[r, np.argsort(m[r, part], axis=1, kind="stable")]
            np.minimum(colmin, self.d[lo:hi].min(axis=0), out=colmin)
        i = np.arange(n)[:, None]
        return NearList(
            j, self.d[i, j], self.d[j, i], self.transversal[i, j], self.collinear[i, j], bound, colmin
        )

    def _near_slab(self, rows: Optional[np.ndarray] = None) -> _Slab:
        """The near list as a slab, restricted to ``rows`` when given."""
        near = self.near
        pairs = (near.j, near.d, near.dT, near.transversal, near.collinear)
        if rows is None:
            return _Slab(np.arange(self.n), *pairs)
        return _Slab(rows, *(a[rows] for a in pairs))

    def _dense_slabs(self, rows: np.ndarray):
        """``rows`` against every column, in blocks of about ``_BLOCK_PAIRS`` pairs."""
        step = max(1, _BLOCK_PAIRS // max(self.n, 1))
        for lo in range(0, len(rows), step):
            r = rows[lo:lo + step]
            cols = np.broadcast_to(np.arange(self.n), (len(r), self.n))
            yield _Slab(r, cols, self.d[r], self.d[:, r].T, self.transversal[r], self.collinear[r])

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
            for slab in self._dense_slabs(np.nonzero(unsure)[0]):
                ok, values = self.admissible(radii, model, slab=slab)
                out[slab.rows] = np.min(values, axis=1, where=ok, initial=np.inf)
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
        yield from self._dense_slabs(np.nonzero(whole)[0])


def _check_model(model: int) -> None:
    if model not in (1, 2):
        raise ValueError(f"model must be 1 or 2, got {model}")


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
