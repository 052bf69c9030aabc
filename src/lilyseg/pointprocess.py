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
then screens once, in a pass of its own (``_screen_answer``): each row
over its near list or, where f lies past the list's ``bound`` or within a
tie of it, over its whole row, as the operator reads it at f.  It checks
the reach and candidacy comparisons over those pairs and the answer
against every distance of its germ among them.  Any collinear pair fails
the set; the near-list build (see :class:`~lilyseg.geometry.PairTable`)
records them all.  Ties are labelled as the full screen labels them, so
every tie the solve reports is one the full screen reports, and a set the
full screen passes solves exactly as it would unscreened.  A near tie that
no comparison at the answer involves does not stop the solve; the set
solves to a verified system.
``check_condition_d``, ``require_condition_d``, ``ensure_condition_d``,
``apply_t1``, ``apply_t2`` and the chain and greedy oracles keep the full
screen: every germ's ~2n distances, sorted.

A draw in which two germs coincide is resampled under an incremented
attempt counter and logged.  Solves at unit intensity that raise, under
both models: 0 of 80 on 40 windows of 45x45 (n ~ 2000, seeds k * 2**20,
k = 1..40) and 0 of 24 on 12 windows of 100x100 (n ~ 10^4, seeds 1-12).
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
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
from .geometry import MarkedPoint, PairTable, _nonzero, shared_pair_table

log = logging.getLogger(__name__)

REALIZATION_SCHEMA = "1"

#: Relative tolerance for near-tie detection among growth distances, fixed
#: everywhere but in ``check_condition_d``, the diagnostic, which takes
#: another.  Only distances sharing a germ are compared, and on the
#: fixed-point path only those one operator application compares at the
#: answer (see the module docstring): about n K values per realization,
#: with K = 32 listed pairs per germ plus the few rows recomputed whole,
#: rather than the full screen's 2n sorted distances per germ.  The
#: tolerance sits well below the typical spacing yet two decades above
#: double-precision noise in the intersection solves.
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
            raise InvalidInput("atom directions must lie in [0, pi)")
        if not (0.0 < self.p < 1.0):
            raise InvalidInput("atom weight must lie in (0, 1)")

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

    ``check_condition_d`` reports every germ-sharing pair.  A fixed-point
    solve (see the module docstring) raises with every collinear pair, or
    with the ties among the comparisons its operator makes at the answer: a
    subset of the full report's ties, with its labels and order.
    """

    passes: bool
    near_ties: Tuple[Tuple[Tuple[int, int], Tuple[int, int], float], ...]
    collinear_pairs: Tuple[Tuple[int, int], ...]


def _condition_d_from_table(table: PairTable, tie_tol: float, rows=None) -> ConditionDReport:
    """The full screen of a table, kept on it; ``rows``, when given, is the
    sweep of every row to read (see ``PairTable._dense_rows``)."""
    cached = table._condition_reports.get(tie_tol)
    if cached is not None:
        return cached
    n = table.n
    found: dict = {}
    values = None
    # One sweep over row blocks.  Germ g takes part in the distances of row
    # d[g, :] and column d[:, g]; a collinear pair's two orders are one
    # distance (equal by construction), so its column copy is masked.  Any
    # germ-sharing pair within tolerance sits inside a run of adjacent
    # sub-tolerance gaps of its germ's sorted distances; find the germs with
    # such gaps by blocks, vectorized, and verify them exactly while their
    # rows are at hand.
    for slab in table._row_blocks(np.arange(n)) if rows is None else rows:
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


def _screen_answer(table: PairTable, model: int, radii: np.ndarray) -> None:
    """Raise :class:`ConditionDViolation` on a near tie among the comparisons
    one operator application makes at the fixed point ``radii``: over the
    whole row where the answer lies past the near list's ``bound`` or within
    a tie of it (a stop the list leaves out is worth at least ``bound``),
    over the list elsewhere."""
    bound = table.near.bound
    whole = (radii > bound) | _close(radii, bound)
    for slab in table._row_blocks(np.nonzero(whole)[0]):
        _screen_rows(table, model, slab, radii)
    listed = np.nonzero(~whole)[0]
    slab = table._near_slab
    _screen_rows(table, model, slab if len(listed) == table.n else slab.take(listed), radii)


def _screen_rows(table: PairTable, model: int, slab, radii: np.ndarray) -> None:
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
    n = table.n
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


def _fixed_point_screen(point_set: MarkedPointSet) -> PairTable:
    """The table of a set with no collinear pair (see ``_screen_answer`` for
    the rest of the fixed-point solve's screen)."""
    table = shared_pair_table(point_set)
    pairs = table.near.collinear_pairs
    if len(pairs):
        raise ConditionDViolation(_report({}, pairs.tolist()))
    return table


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
    draw is not screened for genericity, which holds almost surely;
    ``solve_fixed_point`` screens the comparisons its answer rests on (see
    the module docstring).  A draw in which two germs coincide is logged
    and resampled under the next attempt counter, which preserves
    determinism of the (intensity, window, seed) triple.  After 16 such
    draws it raises :class:`IdenticalGerms`.
    """
    for attempt in range(16):
        candidate = _draw(intensity, window, seed, attempt, marks)
        if candidate is not None:
            return candidate
    raise IdenticalGerms(f"every one of 16 draws held duplicate germs (seed={seed})")


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
    rng stream of :func:`sample_poisson`'s first attempt, and like it is
    not screened for genericity.  Short draws and draws with duplicate germs
    resample under the next attempt counter, for at most 32 draws;
    :class:`NotEnoughPoints` is raised when every draw was short,
    :class:`IdenticalGerms` otherwise.
    """
    _check_intensity(intensity)
    if disk_radius is None:
        disk_radius = math.sqrt(3.0 * (n_neighbors + 1) / (math.pi * intensity))
    window = Disk(0.0, 0.0, disk_radius)
    duplicates = False
    for attempt in range(32):
        raw = _draw(intensity, window, seed + 0x100000000 * attempt, 0)
        if raw is None:
            duplicates = True
        elif len(raw) < n_neighbors:
            log.warning("short pinned draw (%d < %d points); resampling", len(raw), n_neighbors)
        else:
            return n_closest_to_origin(raw, n_neighbors)
    if duplicates:
        raise IdenticalGerms(f"every one of 32 draws was short or held duplicate germs (seed={seed})")
    raise NotEnoughPoints(f"no draw of 32 held {n_neighbors} points in a disk of radius {disk_radius}")


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
