"""Marked Poisson sampling, genericity checking, and realization files.

Sampling draws a Poisson number of germs uniformly in a rectangular or disk
window with directions i.i.d. uniform on (0, pi), fully determined by a
64-bit seed.  User-supplied sets that fail the genericity screen are a hard
error unless explicitly jittered.

Genericity asks that growth distances sharing a germ be distinct, and it
matters only where the growth protocol compares two of them:

* the stopping operator, for row i: Model-1 candidacy d[i, j] against
  d[j, i]; the reach rule, radius R_j (itself a distance of germ j) against
  d[j, i]; and the row minimum over the admissible stop values;
* ``stop_matches`` and ``cover`` (verification and ``analyze``) compare
  stop values and contact distances with radii of the same germs, but
  with a relative slack (1e-9 by default), not exactly: two values within
  it show as an ambiguous stop or a failed verification, which no screen
  at the tie tolerance rules out or needs to;
* the chain solver's confirmation compares a radius or a lower bound of
  germ j with d[j, i], the reach rule again; the greedy sweep orders events
  by time and then applies the reach rule.

So the sampling path (``sample_poisson``, ``sample_pinned``) and
``solve_fixed_point`` screen those comparisons only.  At sampling, each
germ's distances over its near-list closure (the pairs {g, j} with j in
g's near list or g in j's, both orders) are sorted and gap-tested, and
every collinear pair fails the set; the near-list build (see
:class:`~lilyseg.geometry.PairTable`) records those pairs, so a set whose
list exists is screened without computing a row.  A set of at most 64
germs lists whole rows, so there the closure screen is the full one, with
the same ties, labels and order, and no row is recomputed while it solves.
During the solve, each row the operator recomputes whole is screened where
it is computed: its reach and candidacy comparisons, and its finite answer
against every distance of its germ.  Every tie either stage reports is one
the full screen reports, so a set the full screen passes solves exactly as
under it.  ``check_condition_d``, ``require_condition_d``,
``ensure_condition_d``, ``apply_t1``, ``apply_t2`` and the chain and greedy
oracles keep the full screen: every germ's ~2n distances, sorted.

A draw the sampling screen rejects is resampled under an incremented
attempt counter and logged.  First draws at unit intensity that fail, full
screen against this one: 1 and 0 of 40 windows of 45x45 (n ~ 2000, seeds
k * 2**20, k = 1..40), 9 and 0 of 12 windows of 100x100 (n ~ 10^4, seeds
1-12); no solve of those draws raised.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from functools import partial
from typing import IO, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    ConditionDViolation,
    IdenticalGerms,
    InvalidInput,
    InvalidIntensity,
    InvalidWindow,
    NotEnoughPoints,
)
from .geometry import _BLOCK_PAIRS, MarkedPoint, NearList, PairTable, shared_pair_table

log = logging.getLogger(__name__)

REALIZATION_SCHEMA = "1"

#: Relative tolerance for near-tie detection among growth distances, fixed
#: everywhere but in ``check_condition_d``, the diagnostic, which takes
#: another.  Only distances sharing a germ are compared, and on the sampling and
#: fixed-point path only those the solve compares (see the module
#: docstring): about 2 n K values per realization, with K ~ 35 closure
#: partners per germ at n ~ 2000, rather than the full screen's ~2 n^3
#: comparisons.  The tolerance sits well below the typical spacing yet two
#: decades above double-precision noise in the intersection solves.
TIE_TOL = 1e-12


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangular window."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.xmin, self.ymin, self.xmax, self.ymax))):
            raise InvalidWindow("rectangle bounds must be finite")
        if self.xmax <= self.xmin or self.ymax <= self.ymin:
            raise InvalidWindow(
                f"ill-ordered rectangle bounds ({self.xmin},{self.ymin},{self.xmax},{self.ymax})"
            )

    @property
    def area(self) -> float:
        return (self.xmax - self.xmin) * (self.ymax - self.ymin)

    @property
    def center(self) -> Tuple[float, float]:
        return ((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)

    def sample(self, rng: np.random.Generator, count: int) -> Tuple[np.ndarray, np.ndarray]:
        xs = rng.uniform(self.xmin, self.xmax, count)
        ys = rng.uniform(self.ymin, self.ymax, count)
        return xs, ys

    def distance_to_boundary(self, x, y):
        """Distance from an interior point to the window boundary (vectorized)."""
        return np.minimum.reduce(
            [
                np.asarray(x) - self.xmin,
                self.xmax - np.asarray(x),
                np.asarray(y) - self.ymin,
                self.ymax - np.asarray(y),
            ]
        )

    def to_json(self) -> dict:
        return {
            "shape": "rectangle",
            "xmin": self.xmin,
            "ymin": self.ymin,
            "xmax": self.xmax,
            "ymax": self.ymax,
        }

    @staticmethod
    def square(side: float, center: Tuple[float, float] = (0.0, 0.0)) -> "Rectangle":
        cx, cy = center
        h = side / 2.0
        return Rectangle(cx - h, cy - h, cx + h, cy + h)


@dataclass(frozen=True)
class Disk:
    """Disk window given by center and radius."""

    cx: float
    cy: float
    radius: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.cx, self.cy, self.radius))) or self.radius <= 0:
            raise InvalidWindow(f"disk needs a finite positive radius, got {self.radius}")

    @property
    def area(self) -> float:
        return math.pi * self.radius * self.radius

    @property
    def center(self) -> Tuple[float, float]:
        return (self.cx, self.cy)

    def sample(self, rng: np.random.Generator, count: int) -> Tuple[np.ndarray, np.ndarray]:
        r = self.radius * np.sqrt(rng.uniform(0.0, 1.0, count))
        phi = rng.uniform(0.0, 2.0 * math.pi, count)
        return self.cx + r * np.cos(phi), self.cy + r * np.sin(phi)

    def distance_to_boundary(self, x, y):
        return self.radius - np.hypot(np.asarray(x) - self.cx, np.asarray(y) - self.cy)

    def to_json(self) -> dict:
        return {"shape": "disk", "center": [self.cx, self.cy], "radius": self.radius}


Window = Union[Rectangle, Disk]


def window_from_json(obj: Optional[dict]) -> Optional[Window]:
    if obj is None:
        return None
    shape = obj.get("shape")
    if shape == "rectangle":
        return Rectangle(obj["xmin"], obj["ymin"], obj["xmax"], obj["ymax"])
    if shape == "disk":
        cx, cy = obj["center"]
        return Disk(cx, cy, obj["radius"])
    raise InvalidWindow(f"unknown window shape {shape!r}")


@dataclass(frozen=True)
class TwoAtomMarks:
    """Directions drawn from {theta1, theta2} with P(theta1) = p.

    Probe option for two-direction systems; the default sampler uses
    uniform marks.
    """

    theta1: float
    theta2: float
    p: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.theta1 < math.pi and 0.0 <= self.theta2 < math.pi):
            raise ValueError("atom directions must lie in [0, pi)")
        if not (0.0 < self.p < 1.0):
            raise ValueError("atom weight must lie in (0, 1)")

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        pick = rng.uniform(0.0, 1.0, count) < self.p
        return np.where(pick, self.theta1, self.theta2)


@dataclass(frozen=True)
class Provenance:
    """How a sampled point set came to be: seed, intensity, window."""

    seed: int
    intensity: float
    window: Window


@dataclass(frozen=True)
class MarkedPointSet:
    """A finite ordered list of marked points with stable indices 0..n-1.

    ``provenance`` is ``None`` for user-supplied sets.  Germ locations must
    be pairwise distinct (exact duplicates are rejected on construction;
    near-duplicates surface through the genericity check).
    """

    points: Tuple[MarkedPoint, ...]
    provenance: Optional[Provenance] = None

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        seen = set()
        for p in self.points:
            key = (p.x, p.y)
            if key in seen:
                raise IdenticalGerms(f"duplicate germ at {key}")
            seen.add(key)

    def __getstate__(self) -> dict:
        # Pickles carry the fields only, not the pair table the set keeps.
        return {"points": self.points, "provenance": self.provenance}

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i: int) -> MarkedPoint:
        return self.points[i]

    def coords(self) -> np.ndarray:
        """Germ coordinates as an (n, 2) array."""
        return np.array([(p.x, p.y) for p in self.points], dtype=float).reshape(-1, 2)

    @property
    def window(self) -> Optional[Window]:
        return self.provenance.window if self.provenance is not None else None


@dataclass(frozen=True)
class ConditionDReport:
    """Outcome of the genericity screen on a marked point set.

    ``near_ties`` lists pairs of ordered index pairs, sharing a germ, whose
    finite growth distances differ by less than the relative tolerance;
    every collinear parallel pair forces an exact tie and is listed
    separately.  The set passes iff both lists are empty.  Coincidences
    between distances of four distinct germs are not flagged: no step of
    the growth protocol ever compares them.

    ``check_condition_d`` reports every germ-sharing pair.  The sampling
    path's screen (see the module docstring) reports the pairs within each
    germ's near-list closure, which on a set of at most 64 germs is every
    pair, and a fixed-point solve raises with the pairs its recomputed rows
    compare; both list a subset of the full report's ties, with its labels
    and order, and every collinear pair.
    """

    passes: bool
    near_ties: Tuple[Tuple[Tuple[int, int], Tuple[int, int], float], ...]
    collinear_pairs: Tuple[Tuple[int, int], ...]


def _condition_d_from_table(table: PairTable, tie_tol: float) -> ConditionDReport:
    cached = table._condition_reports.get(tie_tol)
    if cached is not None:
        return cached
    n = table.n
    found: dict = {}
    values = None
    # One sweep over row blocks, which also builds the near list and
    # records the collinear pairs (see PairTable.near).  Germ g
    # takes part in the distances of row d[g, :] and column d[:, g]; a
    # collinear pair's two orders are one distance (equal by construction),
    # so its column copy is masked.  Any germ-sharing pair within tolerance
    # sits inside a run of adjacent sub-tolerance gaps of its germ's sorted
    # distances; find the germs with such gaps by blocks, vectorized, and
    # verify them exactly while their rows are at hand.
    for slab in table._sweep():
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
    report = table._condition_reports[tie_tol] = _report(found, table.near.collinear_pairs.tolist())
    return report


def _report(found: dict, collinear_pairs: Sequence[Sequence[int]]) -> ConditionDReport:
    near = tuple(found[key] for key in sorted(found))
    pairs = tuple(map(tuple, collinear_pairs))
    return ConditionDReport(passes=not near and not pairs, near_ties=near, collinear_pairs=pairs)


def _local_condition_d_from_table(table: PairTable) -> ConditionDReport:
    """The screen of the sampling path: near ties within near-list closures only, at ``TIE_TOL``.

    Germ g's closure is the pairs {g, j} with j in g's near list or g in
    j's; both distances of each pair take part, as in the full screen, and
    ``_exact_ties`` labels and orders the ties the same way, so every tie
    found here is one the full screen reports, and on a set whose list
    holds whole rows (at most 64 germs) the report is the full one.  The
    collinear pairs come with the near list, so a table whose list is
    built computes no row here.
    """
    reports = table._condition_reports
    if "near" not in reports:
        found: dict = {}
        _near_ties(table.near, TIE_TOL, found)
        reports["near"] = _report(found, table.near.collinear_pairs.tolist())
    return reports["near"]


def _gaps(v: np.ndarray, tie_tol: float) -> np.ndarray:
    """The near-tie rule, on values sorted along the last axis: entry k is
    ``v[..., k + 1] - v[..., k] < tie_tol * max(v[..., k + 1], 1)``."""
    with np.errstate(invalid="ignore"):  # inf - inf
        return np.diff(v) < tie_tol * np.maximum(v[..., 1:], 1.0)


def _near_ties(near: NearList, tie_tol: float, found: dict) -> None:
    """Add the near ties among each germ's distances over its near-list closure to ``found``."""
    n, w = near.j.shape
    if w == 0:
        return
    # m is symmetric, and j's list holds every m[j, :] below bound[j]: a
    # finite pair {g, j} listed by g alone joins j's closure, its distances
    # swapped (row value d[j, g], column value d[g, j]).  A pair at exactly
    # bound[j] may be listed twice; the duplicate is the same distance.
    m = np.maximum(near.d, near.dT)
    gi, k = np.nonzero(np.isfinite(m) & (m >= near.bound[near.j]))
    eg = near.j[gi, k]
    order = np.argsort(eg, kind="stable")
    eg, ep = eg[order], gi[order]
    erow, ecol = near.dT[gi, k][order], near.d[gi, k][order]
    ecollinear = near.collinear[gi, k][order]
    counts = np.bincount(eg, minlength=n)
    ends = np.cumsum(counts)
    starts = ends - counts
    rank = np.arange(len(eg)) - starts[eg]
    e = int(counts.max())
    # Each germ's closure values in one padded row, as the full screen's
    # sort and gap test see its row and column; rows go in blocks.
    step = max(1, _BLOCK_PAIRS // (2 * (w + e)))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        v = np.full((hi - lo, 2 * (w + e)), np.inf)
        v[:, :w] = near.d[lo:hi]
        np.copyto(v[:, w:2 * w], near.dT[lo:hi], where=~near.collinear[lo:hi])
        x = slice(starts[lo], ends[hi - 1])
        v[eg[x] - lo, 2 * w + rank[x]] = erow[x]
        v[eg[x] - lo, 2 * w + e + rank[x]] = np.where(ecollinear[x], np.inf, ecol[x])
        v.sort(axis=1)
        for g in (np.nonzero(_gaps(v, tie_tol).any(axis=1))[0] + lo).tolist():
            row, col, collinear = np.full(n, np.inf), np.full(n, np.inf), np.zeros(n, dtype=bool)
            mine = slice(starts[g], ends[g])
            for cols, d, dT, flags in ((near.j[g], near.d[g], near.dT[g], near.collinear[g]),
                                       (ep[mine], erow[mine], ecol[mine], ecollinear[mine])):
                row[cols], col[cols], collinear[cols] = d, dT, flags
            _exact_ties(g, row, col, collinear, tie_tol, found)


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
        return np.abs(a - b) < TIE_TOL * np.maximum(np.maximum(a, b), 1.0)


def _screen_rows(table: PairTable, model: int, slab, radii: np.ndarray, out: np.ndarray) -> None:
    """Raise :class:`ConditionDViolation` on a near tie among the comparisons
    the operator made in the whole rows of ``slab``, whose answers are ``out``.

    Row i compares, for each j, the reach ``radii[j]`` against d[j, i]
    (skipping j's own stop on i, an element against itself) and, in Model 1,
    d[i, j] against d[j, i]; its finite answer is checked against every
    distance of germ i, its row and column, which covers the uniqueness of
    the row minimum and every later reach comparison against it.  Ties are
    labelled by ``_exact_ties`` on the compared distances alone, so each is
    one the full screen reports.
    """
    d, dT, collinear = slab.d, slab.dT, slab.collinear
    finite = np.isfinite(d)
    reach = radii[slab.cols]
    candidate = finite & (d > dT) if model == 1 else finite
    with np.errstate(invalid="ignore"):
        live = candidate & (reach > 0) & np.isfinite(reach) & ~((reach == dT) & (dT >= d))
    reach_hit = live & _close(reach, dT)
    pair_hit = finite & ~collinear & _close(d, dT) if model == 1 else np.zeros_like(finite)
    answer = out[:, None]
    row_hit = finite & _close(d, answer)
    col_hit = finite & ~collinear & _close(dT, answer)
    crowded = row_hit.sum(axis=1) + col_hit.sum(axis=1) > 1  # the answer itself is one
    if not (reach_hit.any() or pair_hit.any() or crowded.any()):
        return
    found: dict = {}
    inf = np.inf
    for a in np.nonzero(pair_hit.any(axis=1) | crowded)[0].tolist():
        keep_row = pair_hit[a] | (row_hit[a] & crowded[a])
        keep_col = pair_hit[a] | (col_hit[a] & crowded[a])
        _exact_ties(int(slab.rows[a]), np.where(keep_row, d[a], inf), np.where(keep_col, dT[a], inf),
                    collinear[a], TIE_TOL, found)
    a, b = np.nonzero(reach_hit)
    germs = slab.cols[a, b]
    for other in table._row_blocks(np.unique(germs)):
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


def check_condition_d(point_set: MarkedPointSet, tie_tol: float = TIE_TOL) -> ConditionDReport:
    """Screen a set for mutually distinct finite growth distances."""
    return _condition_d_from_table(shared_pair_table(point_set), tie_tol)


def require_condition_d(point_set: MarkedPointSet) -> PairTable:
    """Return the pair table, raising :class:`ConditionDViolation` on failure."""
    table = shared_pair_table(point_set)
    report = _condition_d_from_table(table, TIE_TOL)
    if not report.passes:
        raise ConditionDViolation(report)
    return table


def _fixed_point_screen(point_set: MarkedPointSet, model: int) -> Tuple[PairTable, partial]:
    """The table that passed the sampling path's screen, and the hook that
    screens the operator's whole rows."""
    table = shared_pair_table(point_set)
    report = _local_condition_d_from_table(table)
    if not report.passes:
        raise ConditionDViolation(report)
    return table, partial(_screen_rows, table, model)


def ensure_condition_d(point_set: MarkedPointSet, *, perturb: bool = False, seed: int = 0) -> MarkedPointSet:
    """Validate a user-supplied set, optionally jittering germs into genericity.

    The full screen runs at ``TIE_TOL``.  Without ``perturb`` a failing set
    raises.  With it, germs receive a uniform jitter of at most ``1e-9 *
    scale`` per coordinate (scale being the larger of 1 and the germ norm)
    until the screen passes, for at most 8 jitters.
    """
    report = check_condition_d(point_set)
    if report.passes:
        return point_set
    if not perturb:
        raise ConditionDViolation(report)
    coords = point_set.coords()
    scale = np.maximum(1.0, np.hypot(coords[:, 0], coords[:, 1]))
    for attempt in range(8):
        rng = np.random.default_rng((_fold_seed(seed), 0x6A09, attempt))
        jitter = rng.uniform(-1.0, 1.0, coords.shape) * (1e-9 * scale[:, None])
        moved = coords + jitter
        candidate = MarkedPointSet(
            tuple(
                MarkedPoint(moved[i, 0], moved[i, 1], p.theta)
                for i, p in enumerate(point_set.points)
            ),
            provenance=point_set.provenance,
        )
        report = check_condition_d(candidate)
        if report.passes:
            log.info("jittered point set into genericity after %d attempt(s)", attempt + 1)
            return candidate
    raise ConditionDViolation(report, "jitter failed to restore genericity")


def _fold_seed(seed: int) -> int:
    return int(seed) & 0xFFFFFFFFFFFFFFFF


def _check_intensity(intensity: float) -> None:
    if not (math.isfinite(intensity) and intensity > 0):
        raise InvalidIntensity(f"intensity must be positive and finite, got {intensity}")


def _draw(
    intensity: float,
    window: Window,
    seed: int,
    attempt: int,
    marks: Union[str, TwoAtomMarks] = "uniform",
) -> Optional[MarkedPointSet]:
    """One unscreened draw under ``(seed, attempt)``; ``None`` if two germs coincide."""
    _check_intensity(intensity)
    if not isinstance(window, (Rectangle, Disk)):
        raise InvalidWindow(f"not a window: {window!r}")
    rng = np.random.default_rng((_fold_seed(seed), attempt))
    count = int(rng.poisson(intensity * window.area))
    xs, ys = window.sample(rng, count)
    if isinstance(marks, TwoAtomMarks):
        thetas = marks.sample(rng, count)
    else:
        thetas = rng.uniform(0.0, math.pi, count)
    germs = list(zip(xs.tolist(), ys.tolist()))
    if len(set(germs)) != count:
        log.warning("duplicate germ sampled (seed=%d attempt=%d); resampling", seed, attempt)
        return None
    return MarkedPointSet(
        tuple(MarkedPoint(x, y, t) for (x, y), t in zip(germs, thetas.tolist())),
        provenance=Provenance(seed=int(seed), intensity=float(intensity), window=window),
    )


def sample_poisson(
    intensity: float,
    window: Window,
    seed: int,
    marks: Union[str, TwoAtomMarks] = "uniform",
) -> MarkedPointSet:
    """Sample a marked Poisson process in a window, deterministically per seed.

    The point count is Poisson(intensity * area), germ locations are
    i.i.d. uniform in the window, and directions are i.i.d. uniform on
    (0, pi) (or two-atom if requested), independent of locations.  The
    result always passes the sampling path's genericity screen, which
    covers each germ's near-list closure and every collinear pair (see the
    module docstring; ``check_condition_d`` may still reject a set of more
    than 64 germs), at ``TIE_TOL``; a
    failing draw is logged and resampled under the next attempt counter,
    which preserves determinism of the (intensity, window, seed) triple.
    After 16 draws it raises :class:`ConditionDViolation`.
    """
    report = None
    for attempt in range(16):
        candidate = _draw(intensity, window, seed, attempt, marks)
        if candidate is None:
            continue
        report = _local_condition_d_from_table(shared_pair_table(candidate))
        if report.passes:
            return candidate
        log.warning(
            "sampled set failed genericity (seed=%d attempt=%d, %d near ties); resampling",
            seed,
            attempt,
            len(report.near_ties),
        )
    raise ConditionDViolation(report, "no generic sample after 16 attempts")


ORIGIN_PIN = MarkedPoint(0.0, 0.0, 0.0)


def n_closest_to_origin(
    point_set: MarkedPointSet,
    n: int,
    pinned: Optional[MarkedPoint] = None,
) -> MarkedPointSet:
    """Pin a reference point and keep only the ``n`` germs nearest to it.

    The pinned point (default: the origin with direction 0) becomes index 0;
    the selected germs follow ordered by distance, ties broken by original
    index.  This reproduces the origin-centered setup for sampling the
    typical segment.
    """
    if n < 1:
        raise InvalidInput(f"n must be positive, got {n}")
    if len(point_set) < n:
        raise NotEnoughPoints(f"asked for {n} of {len(point_set)} points")
    pin = pinned if pinned is not None else ORIGIN_PIN
    coords = point_set.coords()
    dist = np.hypot(coords[:, 0] - pin.x, coords[:, 1] - pin.y)
    order = np.lexsort((np.arange(len(point_set)), dist))
    chosen = [point_set[int(i)] for i in order[:n]]
    return MarkedPointSet((pin, *chosen), provenance=point_set.provenance)


def sample_pinned(
    intensity: float,
    n_neighbors: int,
    seed: int,
    disk_radius: Optional[float] = None,
) -> MarkedPointSet:
    """Sample a disk realization around the origin and pin the origin point.

    The disk radius defaults to three times the area needed for
    ``n_neighbors`` expected points, making a short draw (fewer than
    ``n_neighbors`` points) vanishingly rare.  The raw disk draw uses the
    rng stream of :func:`sample_poisson`'s first attempt but is not
    screened; only the pinned subset is, by the sampling path's screen at
    ``TIE_TOL`` (the full screen on up to 64 germs).  Short draws and pinned
    subsets that fail it resample under the next attempt counter, for at
    most 32 draws; :class:`NotEnoughPoints` is raised when every draw was
    short, :class:`ConditionDViolation` otherwise.
    """
    _check_intensity(intensity)
    if disk_radius is None:
        disk_radius = math.sqrt(3.0 * (n_neighbors + 1) / (math.pi * intensity))
    window = Disk(0.0, 0.0, disk_radius)
    screened = False
    for attempt in range(32):
        # Only the pinned subset is solved, so only it is screened.
        raw = _draw(intensity, window, seed + 0x100000000 * attempt, 0)
        if raw is None:
            continue
        if len(raw) < n_neighbors:
            log.warning("short pinned draw (%d < %d points); resampling", len(raw), n_neighbors)
            continue
        pinned = n_closest_to_origin(raw, n_neighbors)
        if _local_condition_d_from_table(shared_pair_table(pinned)).passes:
            return pinned
        screened = True
        log.warning("pinned set failed genericity (seed=%d); resampling", seed)
    if not screened:
        raise NotEnoughPoints(f"no draw of 32 held {n_neighbors} points in a disk of radius {disk_radius}")
    raise ConditionDViolation(None, "no generic pinned sample")


# ---------------------------------------------------------------------------
# Realization files


def realization_to_json(point_set: MarkedPointSet) -> dict:
    prov = point_set.provenance
    return {
        "schema_version": REALIZATION_SCHEMA,
        "seed": prov.seed if prov else None,
        "lambda": prov.intensity if prov else None,
        "window": prov.window.to_json() if prov else None,
        "points": [{"x": p.x, "y": p.y, "theta": p.theta} for p in point_set.points],
    }


def realization_from_json(obj: dict) -> MarkedPointSet:
    """Parse a realization payload; raises :class:`InvalidInput` on a value of the wrong type or range."""
    try:
        points = tuple(MarkedPoint(rec["x"], rec["y"], rec["theta"]) for rec in obj["points"])
        window = window_from_json(obj.get("window"))
        if obj.get("seed") is None or obj.get("lambda") is None or window is None:
            provenance = None
        else:
            provenance = Provenance(seed=int(obj["seed"]), intensity=float(obj["lambda"]), window=window)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed realization: {exc}") from None
    return MarkedPointSet(points, provenance=provenance)


def write_realization(point_set: MarkedPointSet, fp: Union[str, IO[str]]) -> None:
    payload = json.dumps(realization_to_json(point_set), indent=2) + "\n"
    if hasattr(fp, "write"):
        fp.write(payload)
    else:
        with open(fp, "w") as fh:
            fh.write(payload)


def read_realization(path: str) -> MarkedPointSet:
    with open(path) as fh:
        return realization_from_json(json.load(fh))


def iter_realizations(path: str) -> Iterator[MarkedPointSet]:
    """Yield realizations from a JSON-lines batch file (one record per line)."""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield realization_from_json(json.loads(line))
