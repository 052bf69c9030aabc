"""Marked point sets: windows, marks, Poisson sampling, and realization files.

Sampling draws a Poisson number of germs uniformly in a rectangular or disk
window with directions i.i.d. uniform on (0, pi), fully determined by a
64-bit seed.  A draw is not screened for genericity; both screens, the full
one and the fixed-point solve's of its answer, are
:class:`~lilyseg.geometry.PairTable` methods (see :mod:`lilyseg.geometry`).
User-supplied sets that fail the full screen are a hard error unless
explicitly jittered (``ensure_condition_d``).  A draw in which two germs
coincide is resampled under an incremented attempt counter and logged.

A :class:`MarkedPointSet` holds its germs as ``x``, ``y`` and ``theta``
arrays.  Sampling, pinning, jittering and realization files build sets
from arrays, and the pair table and the Monte Carlo tallies read those
arrays; :class:`MarkedPoint` objects are made only when a caller asks for
``points``, iterates or indexes.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import IO, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from .errors import (
    ConditionDViolation,
    IdenticalGerms,
    InvalidInput,
    InvalidIntensity,
    InvalidWindow,
    NotEnoughPoints,
)
from .geometry import TIE_TOL, ConditionDReport, MarkedPoint, PairTable, _write_text, shared_pair_table

log = logging.getLogger(__name__)

REALIZATION_SCHEMA = "1"

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


class MarkedPointSet:
    """A finite ordered list of marked points with stable indices 0..n-1.

    The germs are held as three read-only float arrays, ``x``, ``y`` and
    ``theta``, which the pair table and the Monte Carlo tallies read
    directly.  ``points`` (and with it iteration and indexing) is a tuple of
    :class:`MarkedPoint` built from the arrays on first use and kept; a set
    constructed from points keeps those objects.  Sets compare, hash,
    print and pickle by their points and provenance, whichever way they
    were made.  ``provenance`` is ``None`` for user-supplied sets.  Germ
    locations must be pairwise distinct (exact duplicates, ``-0.0`` and
    ``0.0`` being equal, raise :class:`IdenticalGerms` on construction;
    near-duplicates surface through the genericity check).
    """

    def __init__(self, points: Iterable[MarkedPoint], provenance: Optional[Provenance] = None):
        points = tuple(points)
        columns = (np.array([getattr(p, name) for p in points], dtype=float) for name in ("x", "y", "theta"))
        self._set_germs(*columns, provenance)
        self.__dict__["points"] = points

    @classmethod
    def from_arrays(cls, x, y, theta, provenance: Optional[Provenance] = None) -> "MarkedPointSet":
        """The set of germs ``(x[i], y[i])`` with directions ``theta[i]``.

        The arrays are copied, and each germ is checked as
        :class:`MarkedPoint` checks it, with the same errors.
        """
        x, y, theta = (np.array(v, dtype=float) for v in (x, y, theta))
        if not (x.ndim == 1 and x.shape == y.shape == theta.shape):
            raise InvalidInput(f"x, y and theta must be 1-d arrays of one length, got {x.shape}, {y.shape}, {theta.shape}")
        bad = ~(np.isfinite(x) & np.isfinite(y) & (theta >= 0.0) & (theta < math.pi))
        if bad.any():
            i = int(np.argmax(bad))
            MarkedPoint(float(x[i]), float(y[i]), float(theta[i]))  # raises the point's own InvalidInput
        point_set = cls.__new__(cls)
        point_set._set_germs(x, y, theta, provenance)
        return point_set

    def _set_germs(self, x: np.ndarray, y: np.ndarray, theta: np.ndarray, provenance: Optional[Provenance]) -> None:
        # One stable lexsort puts equal germs next to each other, in index
        # order, so the first repeat found is the first in index order.
        order = np.lexsort((y, x))
        repeat = (x[order[1:]] == x[order[:-1]]) & (y[order[1:]] == y[order[:-1]])
        if repeat.any():
            i = int(order[1:][repeat].min())
            raise IdenticalGerms(f"duplicate germ at {(float(x[i]), float(y[i]))}")
        for name, values in (("x", x), ("y", y), ("theta", theta)):
            values.flags.writeable = False
            self.__dict__[name] = values
        self.__dict__["provenance"] = provenance

    @cached_property
    def points(self) -> Tuple[MarkedPoint, ...]:
        return tuple(map(MarkedPoint, self.x.tolist(), self.y.tolist(), self.theta.tolist()))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
            and np.array_equal(self.theta, other.theta)
            and self.provenance == other.provenance
        )

    def __hash__(self) -> int:
        return hash((self.points, self.provenance))

    def __repr__(self) -> str:
        return f"MarkedPointSet(points={self.points!r}, provenance={self.provenance!r})"

    def __getstate__(self) -> dict:
        # Pickles carry the fields only, not the pair table the set keeps.
        return {"points": self.points, "provenance": self.provenance}

    def __setstate__(self, state: dict) -> None:
        MarkedPointSet.__init__(self, state["points"], state["provenance"])

    def __len__(self) -> int:
        return len(self.x)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i: int) -> MarkedPoint:
        return self.points[i]

    def coords(self) -> np.ndarray:
        """Germ coordinates as an (n, 2) array."""
        return np.stack((self.x, self.y), axis=1)

    @property
    def window(self) -> Optional[Window]:
        return self.provenance.window if self.provenance is not None else None


def check_condition_d(point_set: MarkedPointSet, tie_tol: float = TIE_TOL) -> ConditionDReport:
    """Screen a set for mutually distinct finite growth distances."""
    return shared_pair_table(point_set).condition_d(tie_tol)


def require_condition_d(point_set: MarkedPointSet) -> PairTable:
    """Return the pair table, raising :class:`ConditionDViolation` on failure."""
    table = shared_pair_table(point_set)
    report = table.condition_d()
    if not report.passes:
        raise ConditionDViolation(report)
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
        candidate = MarkedPointSet.from_arrays(moved[:, 0], moved[:, 1], point_set.theta, point_set.provenance)
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
    try:
        return MarkedPointSet.from_arrays(
            xs, ys, thetas, provenance=Provenance(seed=int(seed), intensity=float(intensity), window=window)
        )
    except IdenticalGerms:
        log.warning("duplicate germ sampled (seed=%d attempt=%d); resampling", seed, attempt)
        return None


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
    x, y, theta = point_set.x, point_set.y, point_set.theta
    chosen = np.lexsort((np.arange(len(point_set)), np.hypot(x - pin.x, y - pin.y)))[:n]
    return MarkedPointSet.from_arrays(
        np.r_[pin.x, x[chosen]], np.r_[pin.y, y[chosen]], np.r_[pin.theta, theta[chosen]],
        provenance=point_set.provenance,
    )


def _pinned_disk_radius(intensity: float, n_neighbors: int) -> float:
    """The default disk of a pinned draw: three times the area that holds
    ``n_neighbors + 1`` expected points."""
    return math.sqrt(3.0 * (n_neighbors + 1) / (math.pi * intensity))


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
        disk_radius = _pinned_disk_radius(intensity, n_neighbors)
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
    """Parse a realization payload; raises :class:`InvalidInput` on a missing
    field or a value of the wrong type or range."""
    try:
        records = obj["points"]
        columns = [_column(records, name) for name in ("x", "y", "theta")]
        window = window_from_json(obj.get("window"))
        if obj.get("seed") is None or obj.get("lambda") is None or window is None:
            provenance = None
        else:
            provenance = Provenance(seed=int(obj["seed"]), intensity=float(obj["lambda"]), window=window)
        return MarkedPointSet.from_arrays(*columns, provenance=provenance)
    except KeyError as exc:
        raise InvalidInput(f"malformed realization: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed realization: {exc}") from None


def _column(records, name: str) -> np.ndarray:
    """Field ``name`` of every point record, as floats; a value that is not a
    JSON number raises TypeError."""
    values = [rec[name] for rec in records]
    for v in values:
        if not isinstance(v, (int, float)):
            raise TypeError(f"point field {name!r} must be a number, got {v!r}")
    return np.array(values, dtype=float)


def write_realization(point_set: MarkedPointSet, fp: Union[str, IO[str]]) -> None:
    _write_text(fp, json.dumps(realization_to_json(point_set), indent=2) + "\n")


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
