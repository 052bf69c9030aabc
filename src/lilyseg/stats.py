"""Monte Carlo estimation of typical-segment quantities.

Estimators view the process from a typical germ by spatial averaging over
interior-certified germs of windowed realizations (minus sampling with a
guard margin), or over the pinned origin germ of origin-centered batches.
All three estimators run their seeds through one driver with one abort
policy: a replication that raises is logged and dropped, and more than 1%
dropped fails the run.  Standard errors come from replication-level
batching: each seed is one batch, and aggregation is a deterministic
reduce in seed order so serial and parallel runs agree bit for bit.
A windowed replication samples, solves and tallies on arrays: the point
set's coordinates and the structure core of :mod:`lilyseg.structure`,
with no point or report object made on the way.

Reference facts the diagnostics target: the mean neighbour count of the
typical segment is 2 under Model 1 and 2 minus the doublet probability
under Model 2; the mean size of the typical finite cluster is the finite
fraction over the per-size cycle rates (Model 1) or two over the doublet
probability (Model 2); the typical radius has a sub-Gaussian upper tail;
and the normalized squared radius is close to unit-mean exponential.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    AbortRateExceeded,
    InsufficientSizes,
    InsufficientTail,
    InvalidInput,
    LilysegError,
)
from .geometry import _check_model
from .pointprocess import Disk, Rectangle, Window, _check_intensity, _pinned_disk_radius, sample_pinned, sample_poisson
from .solver import Solution, solve_fixed_point
from .structure import StructureReport, _check_margin, _structure, analyze, interior_certified

log = logging.getLogger(__name__)


def _check_replications(replications: int) -> None:
    if replications < 1:
        raise InvalidInput(f"replications must be >= 1, got {replications}")


def _config_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class McConfig:
    """One Monte Carlo campaign: model, process, window, margin, seeds."""

    model: int
    intensity: float
    window: Window
    margin: float = 8.0
    replications: int = 200
    base_seed: int = 0
    estimators: Tuple[str, ...] = ("nu", "varpi", "mu", "p_finite")

    def __post_init__(self):
        _check_model(self.model)
        _check_intensity(self.intensity)
        _check_replications(self.replications)
        _check_margin(self.margin)
        if isinstance(self.window, Rectangle):
            inner_w = self.window.xmax - self.window.xmin - 2 * self.margin
            inner_h = self.window.ymax - self.window.ymin - 2 * self.margin
            if inner_w <= 0 or inner_h <= 0:
                raise InvalidInput("margin leaves no interior in the window")
        elif isinstance(self.window, Disk) and self.window.radius <= self.margin:
            raise InvalidInput("margin leaves no interior in the window")

    def hash(self) -> str:
        return _config_hash(
            {
                "model": self.model,
                "intensity": self.intensity,
                "window": self.window.to_json(),
                "margin": self.margin,
                "replications": self.replications,
                "base_seed": self.base_seed,
                "estimators": list(self.estimators),
            }
        )


@dataclass
class _RepStats:
    """Per-replication tallies over interior-certified germs."""

    n_certified: int = 0
    sum_nu: int = 0
    cycle_counts: Dict[int, int] = field(default_factory=dict)  # cycle size -> certified members
    doublet_count: int = 0
    finite_cluster_members: int = 0  # certified germs whose cluster has no infinite segment
    cluster_sizes: List[int] = field(default_factory=list)  # all-finite clusters w/ certified rep, by smallest index
    certification_flagged: bool = False
    finite_radii: Optional[np.ndarray] = None


def _collect_replication(config: McConfig, seed: int) -> _RepStats:
    mps = sample_poisson(config.intensity, config.window, seed)
    solution = solve_fixed_point(mps, config.model)
    core = _structure(solution)
    radii = solution.radii.to_array()
    certified = interior_certified(solution, config.window, config.margin)

    n_band = int(np.count_nonzero(config.window.distance_to_boundary(mps.x, mps.y) >= config.margin))
    flagged = bool(n_band > 0 and certified.sum() < 0.5 * n_band)

    stats = _RepStats(certification_flagged=flagged)
    stats.n_certified = int(certified.sum())
    stats.sum_nu = int(core.nu[certified].sum())

    in_cycle_size = np.zeros(len(mps), dtype=int)
    in_cycle_size[core.cycles] = np.repeat(core.cycle_sizes, core.cycle_sizes)
    size = in_cycle_size[certified]
    values, first, counts = np.unique(size[size > 0], return_index=True, return_counts=True)
    order = np.argsort(first)  # sizes in the order certified germs first show them
    stats.cycle_counts = dict(zip(values[order].tolist(), counts[order].tolist()))

    in_doublet = np.zeros(len(mps), dtype=bool)
    in_doublet[core.doublets] = True
    stats.doublet_count = int(in_doublet[certified].sum())

    # Clusters by label, in order of their smallest index; each cluster's
    # representative is its lexicographically smallest germ.
    sizes = np.bincount(core.label)
    all_finite = np.bincount(core.label[~np.isfinite(radii)], minlength=len(sizes)) == 0
    by_germ = np.lexsort((mps.y, mps.x, core.label))
    rep = by_germ[np.cumsum(sizes) - sizes]
    stats.cluster_sizes = sizes[all_finite & certified[rep]].tolist()
    stats.finite_cluster_members = int(all_finite[core.label][certified].sum())

    finite_and_certified = certified & np.isfinite(radii)
    stats.finite_radii = radii[finite_and_certified]
    return stats


def _attempt(job: Callable[[int], object], seed: int) -> Tuple[object, Optional[str]]:
    # Runs in a worker process too, so the error goes back as text.
    try:
        return job(seed), None
    except LilysegError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _replicate(job: Callable[[int], object], seeds: Sequence[int], workers: int = 1) -> Tuple[list, int]:
    """Run ``job(seed)`` for every seed; return the kept results in seed order and the dropped count.

    A ``LilysegError`` drops its replication; more than 1% dropped raises
    ``AbortRateExceeded``.  With ``workers > 1``, ``job`` must pickle.
    """
    if workers > 1:
        # Imported here: a serial run loads neither the pool nor multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(partial(_attempt, job), seeds))
    else:
        outcomes = [_attempt(job, seed) for seed in seeds]
    kept = []
    for seed, (result, error) in zip(seeds, outcomes):
        if error is None:
            kept.append(result)
        else:
            log.warning("replication seed=%d aborted: %s", seed, error)
    aborted = len(seeds) - len(kept)
    if aborted > 0.01 * len(seeds):
        raise AbortRateExceeded(f"{aborted}/{len(seeds)} replications aborted")
    return kept, aborted


def _batch_mean_stderr(per_rep_values: Sequence[float]) -> Tuple[float, float]:
    arr = np.array([v for v in per_rep_values if not math.isnan(v)], dtype=float)
    if len(arr) == 0:
        return math.nan, math.nan
    mean = float(arr.mean())
    if len(arr) < 2:
        return mean, math.nan
    return mean, float(arr.std(ddof=1) / math.sqrt(len(arr)))


@dataclass(frozen=True)
class SurvivalTable:
    """Empirical survival of normalized squared radii on a fixed grid."""

    x: Tuple[float, ...]
    survival: Tuple[float, ...]
    exp_reference: Tuple[float, ...]
    n_samples: int

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["x", "survival", "exp_reference"])
        for row in zip(self.x, self.survival, self.exp_reference):
            writer.writerow([repr(v) for v in row])
        return buf.getvalue()


@dataclass(frozen=True)
class GaussianTailFit:
    """Least-squares sub-Gaussian tail fit: survival <= alpha * exp(-beta t^2)."""

    alpha: float
    beta: float
    dominates: bool
    n_radii: int
    n_fit_points: int
    t_lo: float
    t_hi: float


@dataclass(frozen=True)
class MuConsistency:
    """Direct vs. formula estimate of the typical finite cluster size."""

    model: int
    mu_direct: float
    mu_formula: float
    formula_defined: bool

    @property
    def rel_discrepancy(self) -> float:
        if not self.formula_defined or math.isnan(self.mu_direct):
            return math.nan
        return abs(self.mu_direct - self.mu_formula) / self.mu_formula


@dataclass
class PalmEstimates:
    """Pooled typical-germ estimates with replication-batched standard errors."""

    config_hash: str
    model: int
    replications_completed: int
    replications_aborted: int
    replications_flagged: int
    n_certified: int
    stderr_defined: bool
    nu_mean: float = math.nan
    nu_stderr: float = math.nan
    varpi: float = math.nan  # Model 2 doublet membership rate
    varpi_stderr: float = math.nan
    varpi_by_r: Dict[int, float] = field(default_factory=dict)  # Model 1 cycle rates
    varpi_by_r_stderr: Dict[int, float] = field(default_factory=dict)
    varpi_total: float = math.nan
    p_finite: float = math.nan
    p_finite_stderr: float = math.nan
    mu_direct: float = math.nan
    mu_direct_stderr: float = math.nan
    nu_vs_varpi_gap: float = math.nan  # Model 2: mean of (nu + varpi - 2) per rep
    nu_vs_varpi_gap_stderr: float = math.nan
    tail: Optional[SurvivalTable] = None
    gaussian: Optional[GaussianTailFit] = None

    def rows(self) -> List[Tuple[str, float, float, int]]:
        """(name, estimate, stderr, n_effective) rows for the estimates CSV."""
        rows = [
            ("nu_mean", self.nu_mean, self.nu_stderr, self.n_certified),
            ("p_finite", self.p_finite, self.p_finite_stderr, self.n_certified),
            ("mu_direct", self.mu_direct, self.mu_direct_stderr, self.n_certified),
        ]
        if self.model == 2:
            rows.append(("varpi", self.varpi, self.varpi_stderr, self.n_certified))
            rows.append(
                ("nu_vs_varpi_gap", self.nu_vs_varpi_gap, self.nu_vs_varpi_gap_stderr, self.n_certified)
            )
        else:
            rows.append(("varpi_total", self.varpi_total, math.nan, self.n_certified))
            for r in sorted(self.varpi_by_r):
                rows.append(
                    (
                        f"varpi_r={r}",
                        self.varpi_by_r[r],
                        self.varpi_by_r_stderr.get(r, math.nan),
                        self.n_certified,
                    )
                )
        if self.gaussian is not None:
            rows.append(("gaussian_alpha", self.gaussian.alpha, math.nan, self.gaussian.n_radii))
            rows.append(("gaussian_beta", self.gaussian.beta, math.nan, self.gaussian.n_radii))
        return rows


def run_monte_carlo(config: McConfig, workers: int = 1) -> PalmEstimates:
    """Sample, solve, and analyze ``config.replications`` seeds; pool estimates.

    Replication ``r`` uses seed ``base_seed + r``.  A replication that
    raises is logged and dropped; more than 1% dropped fails the whole run.
    Results are reduced in seed order, so ``workers > 1`` changes nothing
    but wall time.
    """
    seeds = range(config.base_seed, config.base_seed + config.replications)
    kept, aborted = _replicate(partial(_collect_replication, config), seeds, workers)
    est = PalmEstimates(
        config_hash=config.hash(),
        model=config.model,
        replications_completed=len(kept),
        replications_aborted=aborted,
        replications_flagged=sum(r.certification_flagged for r in kept),
        n_certified=sum(r.n_certified for r in kept),
        stderr_defined=len(kept) >= 2,
    )

    def per_rep(fn) -> List[float]:
        return [fn(r) if r.n_certified else math.nan for r in kept]

    est.nu_mean, est.nu_stderr = _batch_mean_stderr(per_rep(lambda r: r.sum_nu / r.n_certified))
    est.p_finite, est.p_finite_stderr = _batch_mean_stderr(
        per_rep(lambda r: r.finite_cluster_members / r.n_certified)
    )
    mu_values = [float(np.mean(r.cluster_sizes)) if r.cluster_sizes else math.nan for r in kept]
    est.mu_direct, est.mu_direct_stderr = _batch_mean_stderr(mu_values)

    if config.model == 2:
        est.varpi, est.varpi_stderr = _batch_mean_stderr(
            per_rep(lambda r: r.doublet_count / r.n_certified)
        )
        est.nu_vs_varpi_gap, est.nu_vs_varpi_gap_stderr = _batch_mean_stderr(
            per_rep(lambda r: (r.sum_nu + r.doublet_count) / r.n_certified - 2.0)
        )
    else:
        sizes = sorted({s for r in kept for s in r.cycle_counts})
        for size in sizes:
            mean, stderr = _batch_mean_stderr(
                per_rep(lambda r, s=size: r.cycle_counts.get(s, 0) / r.n_certified)
            )
            est.varpi_by_r[size] = mean
            est.varpi_by_r_stderr[size] = stderr
        total, _ = _batch_mean_stderr(
            per_rep(lambda r: sum(r.cycle_counts.values()) / r.n_certified)
        )
        est.varpi_total = total

    if "tail" in config.estimators or "gaussian_tail" in config.estimators:
        pooled = np.concatenate([r.finite_radii for r in kept]) if kept else np.zeros(0)
        if "tail" in config.estimators and len(pooled):
            est.tail = tail_of_r2(pooled)
        if "gaussian_tail" in config.estimators:
            est.gaussian = gaussian_tail_diagnostic(pooled)
    return est


def estimate_mu_consistency(estimates: PalmEstimates, model: int) -> MuConsistency:
    """Compare the direct cluster-size average with the closed-form route.

    Model 1 divides the finite-cluster probability by the sum over cycle
    sizes r of (rate of r-cycle membership) / r; Model 2 uses two over the
    doublet membership rate.  A zero denominator (no cycles or doublets
    observed) leaves the formula undefined and is flagged, not raised.
    """
    if model == 2:
        defined = not math.isnan(estimates.varpi) and estimates.varpi > 0
        formula = 2.0 / estimates.varpi if defined else math.nan
    else:
        denom = sum(rate / r for r, rate in estimates.varpi_by_r.items())
        defined = denom > 0 and not math.isnan(estimates.p_finite)
        formula = estimates.p_finite / denom if defined else math.nan
    return MuConsistency(model, estimates.mu_direct, formula, defined)


DEFAULT_TAIL_GRID = tuple(round(0.1 * k, 1) for k in range(0, 61))


def tail_of_r2(
    radii: Union[np.ndarray, Sequence[float]],
    grid: Sequence[float] = DEFAULT_TAIL_GRID,
) -> SurvivalTable:
    """Survival function of squared radii normalized to unit mean.

    Infinite entries are dropped; the companion column carries the
    unit-mean exponential reference curve for visual comparison.
    """
    arr = np.asarray(radii, dtype=float)
    finite = arr[np.isfinite(arr)]
    if len(finite) == 0:
        raise InsufficientTail("no finite radii to normalize")
    r2 = finite**2
    norm = r2 / r2.mean()
    xs = tuple(float(x) for x in grid)
    survival = tuple(float(np.mean(norm > x)) for x in xs)
    reference = tuple(math.exp(-x) for x in xs)
    return SurvivalTable(xs, survival, reference, len(finite))


def gaussian_tail_diagnostic(
    radii: Union[np.ndarray, Sequence[float]],
    min_radii: int = 1000,
    safety: float = 1.1,
    band: Tuple[float, float] = (0.02, 0.1),
) -> GaussianTailFit:
    """Fit ``alpha * exp(-beta t^2)`` to the upper tail of the radii.

    Least squares of log-survival against t^2 over the shallow portion of
    the top decile: sample points whose survival estimate lies in ``band``
    and that have at least 10 exceedances.  Fixing the fitted range in
    survival terms keeps the diagnostic's resolution independent of sample
    size; the deepest order statistics are both statistically wild and, for
    mixture-like radii, systematically convex in t^2, so including them
    would fail any straight-line bound regardless of the data's bulk
    behaviour.  ``dominates`` records whether the fitted bound times
    ``safety`` stays above the empirical survival at every fit point.
    """
    arr = np.asarray(radii, dtype=float)
    finite = np.sort(arr[np.isfinite(arr)])
    n = len(finite)
    if n < min_radii:
        raise InsufficientTail(f"need at least {min_radii} finite radii, got {n}")
    if finite[0] == finite[-1]:
        raise InsufficientTail("degenerate (constant) radii")
    top = finite[::-1]  # descending: top[r-1] is the r-th largest
    ranks = np.arange(1, n + 1)
    hazen = (ranks - 0.5) / n
    keep = (hazen >= band[0]) & (hazen <= band[1]) & (ranks >= 10)
    if keep.sum() < 20:
        raise InsufficientTail("too few usable tail points in the fitting band")
    t = top[keep]
    coeffs = np.polyfit(t**2, np.log(hazen[keep]), 1)
    beta = -float(coeffs[0])
    alpha = float(math.exp(coeffs[1]))
    strictly_above = (ranks[keep] - 1) / n  # P(R > t) at a sample point
    bound = safety * alpha * np.exp(-beta * t**2)
    dominates = bool(np.all(strictly_above <= bound))
    return GaussianTailFit(
        alpha=alpha,
        beta=beta,
        dominates=dominates,
        n_radii=n,
        n_fit_points=int(keep.sum()),
        t_lo=float(t.min()),
        t_hi=float(t.max()),
    )


def pinned_origin_radii(
    model: int,
    intensity: float,
    n_neighbors: int,
    replications: int,
    base_seed: int = 0,
    disk_radius: Optional[float] = None,
    censor_escapes: bool = True,
) -> np.ndarray:
    """Radius of the pinned origin segment, one entry per replication.

    Each replication samples a disk around the origin, keeps the
    ``n_neighbors`` nearest germs plus a pinned origin point aligned with
    the x-axis, solves the model, and reads off the origin's radius.  This
    is the origin-centered route to the typical-segment distribution.

    A truncated instance says nothing about stops beyond its own sampling
    disk: a near-parallel carrier can legitimately stop the origin tens of
    units out where the full process would long since have intervened.
    With ``censor_escapes`` such radii are recorded as ``inf`` (excluded
    from finite-radius statistics) rather than taken at face value.

    Replication ``r`` uses seed ``base_seed + r``.  Replications that raise
    are dropped under the abort budget of ``run_monte_carlo``, so the array
    holds completed replications only.  Raises :class:`InvalidInput`, before
    any replication runs, when ``n_neighbors`` or ``replications`` is below 1.
    """
    _check_model(model)
    _check_intensity(intensity)
    if n_neighbors < 1:  # checked here: inside a replication it would count as an abort
        raise InvalidInput(f"n_neighbors must be positive, got {n_neighbors}")
    _check_replications(replications)
    if disk_radius is None:
        disk_radius = _pinned_disk_radius(intensity, n_neighbors)
    job = partial(_pinned_radius, model, intensity, n_neighbors, disk_radius, censor_escapes)
    kept, _ = _replicate(job, range(base_seed, base_seed + replications))
    return np.array(kept, dtype=float)


def _pinned_radius(model: int, intensity: float, n: int, disk_radius: float, censor: bool, seed: int) -> float:
    radius = solve_fixed_point(sample_pinned(intensity, n, seed, disk_radius), model).radii[0]
    return math.inf if censor and radius > disk_radius else radius


@dataclass(frozen=True)
class TrendRow:
    side: float
    mean_points: float
    mean_cluster_size: float
    stderr: float
    replications: int


@dataclass(frozen=True)
class TrendTable:
    """Mean center-cluster size against window size, with a fitted slope."""

    model: int
    rows: Tuple[TrendRow, ...]
    slope: float
    slope_stderr: float
    slope_ci_low: float
    slope_ci_high: float

    @property
    def ci_covers_zero_or_negative(self) -> bool:
        return self.slope_ci_low <= 0.0

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["side", "mean_points", "mean_cluster_size", "stderr", "replications"])
        for row in self.rows:
            writer.writerow(
                [repr(row.side), repr(row.mean_points), repr(row.mean_cluster_size), repr(row.stderr), row.replications]
            )
        writer.writerow([])
        writer.writerow(["slope", "slope_stderr", "ci_low", "ci_high"])
        writer.writerow(
            [repr(self.slope), repr(self.slope_stderr), repr(self.slope_ci_low), repr(self.slope_ci_high)]
        )
        return buf.getvalue()


def percolation_trend(
    model: int,
    intensity: float,
    sides: Sequence[float],
    replications: int = 100,
    base_seed: int = 0,
    workers: int = 1,
) -> TrendTable:
    """Track the cluster around the window center as windows grow.

    For each window side length, ``replications`` realizations are solved
    and the size of the cluster containing the germ nearest the center is
    averaged.  The slope of mean size against mean point count (weighted
    least squares over sizes, 95% normal interval) is the percolation
    diagnostic: a slope interval covering zero or below is the expected
    signature when no infinite cluster forms.

    Side ``k`` uses seeds ``base_seed + 10_000 * k + r``.  Replications
    that raise are dropped under the abort budget of ``run_monte_carlo``,
    applied per side, so each row holds completed replications with a
    non-empty window only.  A row with none (every window empty) stays in
    the table but not in the fit.  ``workers > 1`` runs each side's
    replications in a process pool; the table is the same.

    Raises :class:`InsufficientSizes` when fewer than three sizes are given,
    or when fewer than three rows are left for the fit or their mean point
    counts all coincide, so no slope is defined.  Before any replication
    runs, it raises :class:`InvalidWindow` on a side that is not positive
    and finite, and :class:`InvalidInput` when ``replications`` is below 1.
    """
    _check_model(model)
    _check_intensity(intensity)
    _check_replications(replications)
    if len(sides) < 3:
        raise InsufficientSizes(f"need at least 3 window sizes, got {len(sides)}")
    windows = [Rectangle.square(side) for side in sides]  # a bad side raises before any replication
    rows: List[TrendRow] = []
    for k, (side, window) in enumerate(zip(sides, windows)):
        first = base_seed + 10_000 * k
        job = partial(_centre_cluster, model, intensity, window)
        done = [out for out in _replicate(job, range(first, first + replications), workers)[0] if out is not None]
        mean, stderr = _batch_mean_stderr([size for size, _ in done])
        points = float(np.mean([n for _, n in done])) if done else 0.0
        rows.append(TrendRow(float(side), points, mean, stderr, len(done)))

    fit = [row for row in rows if row.replications > 0]
    if len(fit) < 3:
        raise InsufficientSizes(f"only {len(fit)} of {len(rows)} window sizes had a non-empty window")
    xs = np.array([row.mean_points for row in fit])
    if np.all(xs == xs[0]):
        raise InsufficientSizes("every window size has the same mean point count; no slope is defined")
    ys = np.array([row.mean_cluster_size for row in fit])
    ws = np.array([1.0 / row.stderr**2 if row.stderr and row.stderr > 0 else 1.0 for row in fit])
    xbar = float(np.sum(ws * xs) / np.sum(ws))
    ybar = float(np.sum(ws * ys) / np.sum(ws))
    sxx = float(np.sum(ws * (xs - xbar) ** 2))
    slope = float(np.sum(ws * (xs - xbar) * (ys - ybar)) / sxx)
    slope_stderr = float(math.sqrt(1.0 / sxx))
    return TrendTable(
        model=model,
        rows=tuple(rows),
        slope=slope,
        slope_stderr=slope_stderr,
        slope_ci_low=slope - 1.96 * slope_stderr,
        slope_ci_high=slope + 1.96 * slope_stderr,
    )


def _centre_cluster(model: int, intensity: float, window: Rectangle, seed: int) -> Optional[Tuple[float, int]]:
    """Size of the cluster around the germ nearest the centre, and n; ``None`` for an empty window."""
    mps = sample_poisson(intensity, window, seed)
    if len(mps) == 0:
        return None
    label = _structure(solve_fixed_point(mps, model)).label
    cx, cy = window.center
    nearest = int(np.argmin(np.hypot(mps.x - cx, mps.y - cy)))
    return float(np.count_nonzero(label == label[nearest])), len(mps)


@dataclass(frozen=True)
class MassTransportTally:
    """Both sides of the stop-event bookkeeping identity on one realization.

    Counting stop events by who stops (every certified finite segment has
    exactly one stopper) must match counting them by who is stopped on
    (neighbour count less the own-stop contact, doublet edges carrying
    both directions at once).  Exact on fully certified all-finite
    systems; boundary-uncertified germs may leave a discrepancy.
    """

    model: int
    lhs: int
    rhs: int
    n_certified: int
    fully_certified_all_finite: bool

    @property
    def exact(self) -> bool:
        return self.lhs == self.rhs

    def to_json(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "n_certified": self.n_certified,
            "fully_certified_all_finite": self.fully_certified_all_finite,
            "exact": self.exact,
        }


def mass_transport_check(
    solution: Solution,
    window: Optional[Window] = None,
    margin: float = 0.0,
    report: Optional[StructureReport] = None,
) -> MassTransportTally:
    """Evaluate the two-sided stop-event tally on a solved realization."""
    if report is None:
        report = analyze(solution)
    radii = solution.radii.to_array()
    certified = interior_certified(solution, window, margin)
    finite = np.isfinite(radii)
    lhs = int((certified & finite).sum())
    nu = np.array(report.nu)
    rhs_terms = nu.astype(int) - finite.astype(int)
    if solution.model == 2:
        in_doublet = np.zeros(len(radii), dtype=bool)
        in_doublet[list(chain.from_iterable(report.doublets))] = True
        rhs_terms = rhs_terms + in_doublet.astype(int)
    rhs = int(rhs_terms[certified].sum())
    return MassTransportTally(
        model=solution.model,
        lhs=lhs,
        rhs=rhs,
        n_certified=int(certified.sum()),
        fully_certified_all_finite=bool(certified.all() and finite.all()),
    )


def estimates_to_csv(estimates: PalmEstimates) -> str:
    """Render an estimates table: one row per estimator."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "estimate", "stderr", "n_effective", "config_hash"])
    for name, value, stderr, n_eff in estimates.rows():
        writer.writerow([name, repr(value), repr(stderr), n_eff, estimates.config_hash])
    return buf.getvalue()
