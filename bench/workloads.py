"""The four benchmark workloads, their output checks and pooled statistics.

Each workload turns the run's seed into inputs, runs one operation through
lilyseg's public API (``run``), runs the same operation with spans around
each layer call (``run_traced``), and checks every output with the
independent checker in ``checker.py`` outside the timed region
(``check``).  Pooled statistical checks run once, at the end of a run
(``pooled_problems``).

Operations come in rounds, and a run attempts whole rounds only.  Round
``r`` of a run with seed ``s`` draws its inputs from seed ``s * 2**20 + r``.
A run makes several passes over the same rounds; ``fingerprint`` reduces an
output to what a later pass's output must equal.
"""

from __future__ import annotations

import io
import json
import math
import statistics
import sys
from typing import List, Tuple

import numpy as np

from lilyseg import (
    MarkedPoint,
    MarkedPointSet,
    McConfig,
    RadiiAssignment,
    Rectangle,
    analyze,
    check_condition_d,
    pinned_origin_radii,
    run_monte_carlo,
    sample_pinned,
    sample_poisson,
    solve_chain,
    solve_fixed_point,
    solve_greedy_oracle,
    verify_gmhs,
    write_realization,
)
from lilyseg.geometry import shared_pair_table
from lilyseg.pointprocess import realization_from_json

from checker import SystemCheck, check_system, relative_gap
from tracing import MIB, NO_TRACE

INTENSITY = 1.0
WARMUP_ROUND = (1 << 20) - 1
AGREEMENT_TOL = 1e-9  # three-solver agreement, relative
PERTURBATION = 1.025  # the rejecting path of verify_gmhs


def round_seed(seed: int, r: int) -> int:
    return seed * (1 << 20) + r


def radii_check(mps: MarkedPointSet, radii, model: int) -> SystemCheck:
    return check_system([p.x for p in mps], [p.y for p in mps], [p.theta for p in mps], radii, model)


def solution_check(solution) -> SystemCheck:
    return radii_check(solution.point_set, solution.radii.values, solution.model)


def structure_problems(chk, report) -> List[str]:
    """The checker's contact graph against the one ``analyze`` reports."""
    problems = []
    if report.n_contacts != chk.contacts:
        problems.append(f"analyze found {report.n_contacts} contacts, checker {chk.contacts}")
    if len(report.clusters) != chk.clusters:
        problems.append(f"analyze found {len(report.clusters)} clusters, checker {chk.clusters}")
    if list(report.nu) != chk.nu.tolist():
        problems.append("analyze neighbour counts differ from the checker's")
    return problems


def unequal_copy(mps: MarkedPointSet) -> MarkedPointSet:
    """The same points without provenance: unequal to ``mps``, so no cached table is shared."""
    return MarkedPointSet(mps.points)


def traced_table_and_screen(rec, mps: MarkedPointSet) -> None:
    """Build the pair table, then screen it, as two spans (the table is cached between)."""
    with rec.span("geometry.table_build"):
        table = shared_pair_table(mps)
    arrays = [v for v in vars(table).values() if isinstance(v, np.ndarray)]
    rec.value("geometry.table_mib", sum(a.nbytes for a in arrays) / MIB)
    with rec.span("pointprocess.screen"):
        check_condition_d(mps)


def traced_solve(rec, mps: MarkedPointSet, model: int):
    """Fixed point, its verification and the structure analysis, one span each."""
    with rec.span("solver.fixed_point", model):
        solution = solve_fixed_point(mps, model)
    rec.value("solver.fixed_point_steps", solution.iterations, model)
    with rec.span("solver.verify", model):
        verify_gmhs(mps, solution.radii, model)
    with rec.span("structure.analyze", model):
        report = analyze(solution)
    rec.value("structure.contacts", report.n_contacts, model)
    rec.value("structure.clusters", len(report.clusters), model)
    return solution, report


class Workload:
    name = ""
    ops_per_round = 1
    #: Rounds every run attempts whatever ``--seconds`` says; counts are
    #: reported over these rounds, so they repeat exactly for a seed.
    min_rounds = 1
    #: Timed passes over the same rounds; each operation is timed as the
    #: best of them (see ``child.py``).
    passes = 8

    def __init__(self, seed: int):
        self.seed = seed

    def round_inputs(self, r: int) -> list:
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def run_traced(self, inp, rec):
        raise NotImplementedError

    def check(self, inp, out) -> List[str]:
        raise NotImplementedError

    def fingerprint(self, out):
        """A value equal for equal outputs, holding no reference to the input."""
        raise NotImplementedError

    def check_round(self, done: list) -> List[List[str]]:
        """Problems of each ``(input, output)`` of a round, checked after the round."""
        return [self.check(inp, out) for inp, out in done]

    def pooled_problems(self) -> List[str]:
        return []


def mean_and_stderr(values: List[float], reference_sd: float) -> Tuple[float, float]:
    """Mean and a standard error floored at ``reference_sd / sqrt(k)``.

    The floor keeps a run with few replications from passing or failing on a
    sample standard deviation that came out small by chance.
    """
    k = len(values)
    sd = statistics.stdev(values) if k >= 2 else reference_sd
    return statistics.fmean(values), max(sd, reference_sd) / math.sqrt(k)


class MonteCarlo30(Workload):
    """``run_monte_carlo`` replications on a 30x30 window, Model 1 then Model 2."""

    name = "mc30"
    ops_per_round = 2
    min_rounds = 3
    # Fewer passes than the default, so that the first pass holds five to
    # seven replications of each model for the pooled checks.
    passes = 5
    window = Rectangle.square(30.0)
    margin = 8.0
    # Per-replication standard deviations measured over 60 replications
    # (seeds 1000-1059): Model-1 nu 0.021, Model-2 nu + varpi - 2 0.016.
    NU_SD, GAP_SD = 0.021, 0.016
    # Minus sampling keeps germs whose radius stays well inside the window,
    # which favours short segments; over those 60 replications the Model-1
    # mean sat 0.004 below 2, so 0.01 is allowed for that bias.
    NU_BIAS = 0.01
    Z = 5.0

    def __init__(self, seed: int):
        super().__init__(seed)
        self.pooled = {1: [], 2: []}

    def config(self, model: int, seed: int) -> McConfig:
        return McConfig(
            model=model, intensity=INTENSITY, window=self.window, margin=self.margin,
            replications=1, base_seed=seed,
        )

    def round_inputs(self, r):
        return [self.config(m, round_seed(self.seed, r)) for m in (1, 2)]

    def run(self, config):
        return run_monte_carlo(config, workers=1)

    def run_traced(self, config, rec):
        with rec.span("stats.replication"):
            est = run_monte_carlo(config, workers=1)
        rec.value("stats.certified_germs", est.n_certified)
        with rec.span("pointprocess.sample"):
            sampled = sample_poisson(INTENSITY, self.window, config.base_seed)
        mps = unequal_copy(sampled)
        del sampled
        traced_table_and_screen(rec, mps)
        traced_solve(rec, mps, config.model)
        return est

    def fingerprint(self, est):
        # repr, because the estimates hold NaNs and NaN != NaN.
        with np.printoptions(threshold=sys.maxsize):
            return repr(est)

    def check_round(self, done):
        sampled = {}  # both models of a round share one window: sample it once
        return [self.check(config, est, sampled) for config, est in done]

    def check(self, config, est, sampled):
        if est.replications_completed != 1 or est.replications_aborted:
            return [f"replication aborted ({est.replications_aborted})"]
        if config.base_seed not in sampled:
            sampled[config.base_seed] = sample_poisson(INTENSITY, self.window, config.base_seed)
        mps = sampled[config.base_seed]
        solution = solve_fixed_point(mps, config.model)
        chk = solution_check(solution)
        problems = list(chk.problems)

        # Recompute the replication's estimates from the checked system.
        coords = mps.coords()
        w = self.window
        dist = np.minimum.reduce([coords[:, 0] - w.xmin, w.xmax - coords[:, 0],
                                  coords[:, 1] - w.ymin, w.ymax - coords[:, 1]])
        radii = np.array(solution.radii.values)
        certified = (dist >= self.margin) & (radii < dist - self.margin / 2.0)
        n_cert = int(certified.sum())
        if est.n_certified != n_cert:
            problems.append(f"n_certified {est.n_certified}, checker {n_cert}")
            return problems
        sum_nu = int(chk.nu[certified].sum())
        expect = {"nu_mean": sum_nu / n_cert}
        if config.model == 2:
            in_doublet = np.zeros(len(mps), dtype=bool)
            in_doublet[chk.doublets.ravel()] = True
            doublets = int(in_doublet[certified].sum())
            expect["varpi"] = doublets / n_cert
            expect["nu_vs_varpi_gap"] = (sum_nu + doublets) / n_cert - 2.0
        for key, value in expect.items():
            got = getattr(est, key)
            if not math.isclose(got, value, rel_tol=1e-12, abs_tol=1e-15):
                problems.append(f"{key} {got!r}, checker {value!r}")
        if not problems:
            self.pooled[config.model].append(est.nu_mean if config.model == 1 else est.nu_vs_varpi_gap)
        return problems

    def pooled_problems(self):
        if not (self.pooled[1] and self.pooled[2]):
            return ["no checked replication of each model to pool"]
        problems = []
        nu, se = mean_and_stderr(self.pooled[1], self.NU_SD)
        if abs(nu - 2.0) > self.NU_BIAS + self.Z * se:
            problems.append(f"Model-1 mean nu {nu:.4f} is not within {self.NU_BIAS} + {self.Z} SE ({se:.4f}) of 2")
        gap, se = mean_and_stderr(self.pooled[2], self.GAP_SD)
        if abs(gap) > self.Z * se:
            problems.append(f"Model-2 nu + varpi - 2 = {gap:.4f} is not within {self.Z} SE ({se:.4f}) of 0")
        return problems


class Pinned41(Workload):
    """``pinned_origin_radii``, one replication per operation, Model 1 then Model 2."""

    name = "pinned41"
    ops_per_round = 2
    min_rounds = 50
    # Operations take ~4 ms, short enough that more passes keep finding
    # moments the host leaves alone.
    passes = 16
    neighbours = 41
    disk_radius = math.sqrt(3.0 * (41 + 1) / (math.pi * INTENSITY))
    # |S(x) - exp(-x)| for the survival S of R^2 / mean(R^2): over 3000
    # replications per model the largest deviation was 0.077 (Model 2 at
    # x = 1), so 0.10 is allowed for the model's own departure from the
    # exponential.  The sampling part is a binomial term (sd at most
    # 0.49 / sqrt(k)) plus the noise of normalising by the sample mean (at
    # most 0.37 / sqrt(k) at x = 1, 2, 3); their sum bounds both.
    SHAPE_ALLOWANCE = 0.10
    SAMPLING_SD = 0.86
    Z = 4.0
    # Untimed replications per model added to the pooled check after the
    # timed loop, so that its power does not hang on how many operations
    # the first pass held; their seeds start at round EXTRA_ROUND.
    EXTRA_REPLICATIONS = 1000
    EXTRA_ROUND = 1 << 19

    def __init__(self, seed: int):
        super().__init__(seed)
        self.pooled = {1: [], 2: []}

    def round_inputs(self, r):
        return [(m, round_seed(self.seed, r)) for m in (1, 2)]

    def run(self, inp):
        model, seed = inp
        return pinned_origin_radii(
            model, INTENSITY, self.neighbours, 1, base_seed=seed, disk_radius=self.disk_radius
        )

    def run_traced(self, inp, rec):
        model, seed = inp
        with rec.span("stats.replication"):
            out = self.run(inp)
        rec.value("stats.certified_germs", int(np.isfinite(out).sum()))
        with rec.span("pointprocess.sample"):
            sampled = sample_pinned(INTENSITY, self.neighbours, seed, self.disk_radius)
        mps = unequal_copy(sampled)
        del sampled
        traced_table_and_screen(rec, mps)
        traced_solve(rec, mps, model)
        return out

    def fingerprint(self, out):
        return out.shape, out.tobytes()

    def check_round(self, done):
        sampled = {}  # both models of a round share one draw: sample it once
        return [self.check(inp, out, sampled) for inp, out in done]

    def check(self, inp, out, sampled):
        model, seed = inp
        if seed not in sampled:
            sampled[seed] = sample_pinned(INTENSITY, self.neighbours, seed, self.disk_radius)
        mps = sampled[seed]
        solution = solve_fixed_point(mps, model)
        problems = list(solution_check(solution).problems)
        origin = solution.radii[0]
        expected = origin if origin <= self.disk_radius else math.inf
        if out.shape != (1,) or not (out[0] == expected):
            problems.append(f"origin radius {out.tolist()}, checked system gives {expected}")
        if not problems and math.isfinite(out[0]):
            self.pooled[model].append(float(out[0]))
        return problems

    def pooled_problems(self):
        problems = []
        for model, radii in self.pooled.items():
            extra = pinned_origin_radii(
                model, INTENSITY, self.neighbours, self.EXTRA_REPLICATIONS,
                base_seed=round_seed(self.seed, self.EXTRA_ROUND), disk_radius=self.disk_radius,
            )
            radii = radii + [float(r) for r in extra if math.isfinite(r)]
            k = len(radii)
            if k < 2:
                problems.append(f"Model {model}: {k} finite radii, too few to pool")
                continue
            r2 = np.array(radii) ** 2
            norm = r2 / r2.mean()
            limit = self.SHAPE_ALLOWANCE + self.Z * self.SAMPLING_SD / math.sqrt(k)
            for x in (1.0, 2.0, 3.0):
                diff = abs(float(np.mean(norm > x)) - math.exp(-x))
                if diff > limit:
                    problems.append(f"Model {model}: survival of R^2 at x={x} off exp(-x) by {diff:.3f} > {limit:.3f}")
        return problems


class Window45(Workload):
    """One 45x45 window: sample, fixed point under both models, analyze both."""

    name = "window45"
    window = Rectangle.square(45.0)
    # Operations take ~3 s, so the first pass holds only two or three and
    # each further pass adds one first-pass length to the run.
    passes = 4

    def round_inputs(self, r):
        return [round_seed(self.seed, r)]

    def run(self, seed):
        mps = sample_poisson(INTENSITY, self.window, seed)
        solutions = [solve_fixed_point(mps, m) for m in (1, 2)]
        return [(s, analyze(s)) for s in solutions]

    def run_traced(self, seed, rec):
        with rec.span("pointprocess.sample"):
            sampled = sample_poisson(INTENSITY, self.window, seed)
        mps = unequal_copy(sampled)
        del sampled
        traced_table_and_screen(rec, mps)
        return [traced_solve(rec, mps, m) for m in (1, 2)]

    def fingerprint(self, out):
        return tuple((s.radii, s.iterations, report) for s, report in out)

    def check(self, seed, out):
        problems = []
        for solution, report in out:
            chk = solution_check(solution)
            problems += chk.problems + structure_problems(chk, report)
        return problems


class Crosscheck15(Workload):
    """Three solvers under both models on a fresh 15x15 window, plus verification."""

    name = "crosscheck15"
    min_rounds = 8
    window = Rectangle.square(15.0)

    def __init__(self, seed: int):
        super().__init__(seed)
        #: Realization JSON per round, written when the round first runs
        #: (outside the timed region) and read back by every pass.
        self.texts = {WARMUP_ROUND: self._realization_text(round_seed(seed, WARMUP_ROUND))}

    def _realization_text(self, seed: int) -> str:
        buf = io.StringIO()
        write_realization(sample_poisson(INTENSITY, self.window, seed), buf)
        return buf.getvalue()

    def round_inputs(self, r):
        # A fresh window per round, parsed into a fresh set on every call (as
        # after reading a realization file): by then the previous pass's set
        # has died, so no cached pair table is reused.
        if r not in self.texts:
            self.texts[r] = self._realization_text(round_seed(self.seed, r))
        return [realization_from_json(json.loads(self.texts[r]))]

    @staticmethod
    def _perturbed(radii: RadiiAssignment) -> RadiiAssignment:
        values = list(radii.values)
        first = radii.finite_indices()[0]
        values[first] *= PERTURBATION
        return RadiiAssignment(tuple(values))

    def _one_model(self, mps, model, rec):
        with rec.span("solver.fixed_point", model):
            fixed = solve_fixed_point(mps, model)
        with rec.span("solver.chain", model):
            chained, _ = solve_chain(mps, model)
        with rec.span("solver.greedy", model):
            greedy = solve_greedy_oracle(mps, model)
        gap = max(
            relative_gap(fixed.radii.values, chained.radii.values),
            relative_gap(fixed.radii.values, greedy.radii.values),
        )
        with rec.span("solver.verify", model):
            accepted = verify_gmhs(mps, fixed.radii, model).passes
            rejected = not verify_gmhs(mps, self._perturbed(fixed.radii), model).passes
        rec.value("solver.fixed_point_steps", fixed.iterations, model)
        rec.value("solver.chain_steps", chained.iterations, model)
        rec.value("solver.greedy_events", greedy.iterations, model)
        return fixed, gap, accepted, rejected

    def run(self, mps):
        return [self._one_model(mps, m, NO_TRACE) for m in (1, 2)]

    def run_traced(self, mps, rec):
        traced_table_and_screen(rec, mps)
        out = [self._one_model(mps, m, rec) for m in (1, 2)]
        for fixed, *_ in out:
            with rec.span("structure.analyze", fixed.model):
                report = analyze(fixed)
            rec.value("structure.contacts", report.n_contacts, fixed.model)
            rec.value("structure.clusters", len(report.clusters), fixed.model)
        return out

    def fingerprint(self, out):
        return tuple((fixed.radii, fixed.iterations, repr(gap), accepted, rejected)
                     for fixed, gap, accepted, rejected in out)

    def check(self, mps, out):
        # Three-solver agreement is checked per operation, which is the pooled
        # check "every pair of solvers agrees over the run" with the failing
        # operation named.
        problems = []
        for fixed, gap, accepted, rejected in out:
            problems += solution_check(fixed).problems
            if not gap <= AGREEMENT_TOL:
                problems.append(f"Model {fixed.model}: solvers differ by {gap:.3g} (relative)")
            if not accepted:
                problems.append(f"Model {fixed.model}: verify_gmhs rejected the solution")
            if not rejected:
                problems.append(f"Model {fixed.model}: verify_gmhs accepted a radius scaled by {PERTURBATION}")
        return problems


WORKLOADS = {w.name: w for w in (MonteCarlo30, Pinned41, Window45, Crosscheck15)}


# ---------------------------------------------------------------------------
# Checks made once at the start of every run


def _fixture(points) -> MarkedPointSet:
    return MarkedPointSet(tuple(MarkedPoint(x, y, t) for x, y, t in points))


INF = math.inf
SQRT2 = math.sqrt(2.0)
# The two- and three-point sets of the test suite, with hand-computed radii:
# carriers meet at (3, 0) with growth distances 3 and 4; and d01=4, d10=3,
# d02=6, d20=3*sqrt2, d12=5, d21=5*sqrt2.
FIXTURES = [
    ([(0.0, 0.0, 0.0), (3.0, 4.0, math.pi / 2)], {1: (INF, 4.0), 2: (4.0, 4.0)}),
    (
        [(0.0, 0.0, 0.0), (4.0, 3.0, math.pi / 2), (9.0, 3.0, math.pi / 4)],
        {1: (4.0, INF, 5 * SQRT2), 2: (4.0, 4.0, INF)},
    ),
]
SELF_TEST_SEED = 0
SELF_TEST_WINDOW = Rectangle.square(12.0)


def startup_problems() -> List[str]:
    """Hand-computed answers from every solver, and the checker's self-test."""
    problems = []
    for points, expected in FIXTURES:
        mps = _fixture(points)
        for model, radii in expected.items():
            got = {
                "fixed_point": solve_fixed_point(mps, model),
                "chain": solve_chain(mps, model)[0],
                "greedy": solve_greedy_oracle(mps, model),
            }
            for method, solution in got.items():
                if relative_gap(solution.radii.values, radii) > 1e-12:
                    problems.append(f"{len(points)}-point fixture, Model {model}, {method}: {solution.radii.values}")
            problems += solution_check(got["fixed_point"]).problems

    # The checker must accept a solved window and reject each of its first
    # finite radii scaled by 1 +- 2.5%, or a pass from it would mean nothing.
    mps = sample_poisson(INTENSITY, SELF_TEST_WINDOW, SELF_TEST_SEED)
    for model in (1, 2):
        solution = solve_fixed_point(mps, model)
        problems += solution_check(solution).problems
        values = solution.radii.values
        for index in solution.radii.finite_indices()[:5]:
            for factor in (1.025, 0.975):
                bent = list(values)
                bent[index] *= factor
                if radii_check(mps, bent, model).ok:
                    problems.append(f"checker accepted radius {index} scaled by {factor} (Model {model})")
    return problems
