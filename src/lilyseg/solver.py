"""Radii solvers for the two hard-core segment growth models.

Three independent routes compute the same assignment on a finite generic
marked point set:

* ``solve_fixed_point``: iterate the model's stopping operator T from the
  all-infinite assignment until two consecutive iterates agree exactly.
  T is antitone, so even iterates increase from 0, odd iterates decrease
  from inf, and the two subsequences pinch the unique solution.  Starting
  at inf in place of T(0) is sound: every assignment is at most inf, so
  inf is an upper iterate as T(0) is, and in Model 1 T(0) is inf.  Either
  way the answer rests only on the comparisons one application makes at
  the fixed point, which ``PairTable.screen_answer`` checks.  Each step is
  ``PairTable.operator``, which reads every germ's near list of closest
  stops and recomputes only the rows the list cannot certify, so a step
  costs O(n) list entries plus a few whole rows instead of an n x n pass.
* ``solve_chain``: chase stopping chains point by point, maintaining lower
  bounds from the shrinking candidate sets, confirming a stop once the
  next point's bound (weak test) or exact radius (strong test) clears the
  required clearance.  Chains end at an infinite segment or by closing a
  cycle.
* ``solve_greedy_oracle``: simulate the growth directly as a sorted sweep
  over candidate contact events; used as an independent oracle.

The fixed-point solve, ``verify_gmhs`` and the structure analysis hold
O(n) state and share the pair kernels of
:class:`~lilyseg.geometry.PairTable`.  Verification makes one
stop-and-contact pass over the pairs at the answer
(``PairTable.answer_pass``: explained stops, interior contacts and
touching pairs) besides one operator application; a solver's verified
``Solution`` keeps that pass, and ``stopping_map`` and ``analyze`` read it
instead of traversing the pairs again.  The chain and greedy solvers and
``find_descending_chain`` are oracles: they read only the dense distance
matrix ``PairTable.d``, which is built on first use, before the oracles'
full genericity screen, and raises :class:`~lilyseg.errors.InputTooLarge`
when it would not fit in memory, and they apply the stopping rule through
their own whole-matrix helpers below, not through the kernels they check.

Model semantics, fixed throughout the package:

* Model 1: a segment stops when one of its own ends reaches another
  segment.  Index ``i`` may stop on ``j`` at radius ``d[i, j]`` only when
  ``d[i, j] > d[j, i]`` and ``R_j > d[j, i]`` (strict).
* Model 2: a segment stops when its end touches another segment or a
  growing end touches it.  Index ``i`` stops at ``max(d[i, j], d[j, i])``
  for some ``j`` with ``R_j >= d[j, i]`` (non-strict; equality is the
  doublet case where both members stop together).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import IO, Dict, List, Optional, Tuple, Union

import numpy as np

from .errors import (
    AlgorithmDivergence,
    InvalidInput,
    NegativeRadius,
    NonConvergence,
    RadiiMismatch,
    VerificationFailed,
)
from .geometry import AnswerPass, PairTable, _check_model, _key_pairs, _write_text, shared_pair_table
from .pointprocess import MarkedPointSet, realization_from_json, realization_to_json, require_condition_d

SOLUTION_SCHEMA = "1"

METHOD_FIXED_POINT = "fixed_point"
METHOD_CHAIN = "chain"
METHOD_GREEDY = "greedy_oracle"

#: Relative slack of the verification a solver runs on its answer.
VERIFY_TOL = 1e-9


@dataclass(frozen=True)
class RadiiAssignment:
    """Radius per index, values in [0, inf], index-aligned with the point set."""

    values: Tuple[float, ...]

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    def to_array(self) -> np.ndarray:
        return np.array(self.values, dtype=float)

    @staticmethod
    def from_array(arr) -> "RadiiAssignment":
        return RadiiAssignment(tuple(np.asarray(arr, dtype=float).tolist()))

    def finite_indices(self) -> Tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.values) if math.isfinite(v))


@dataclass(frozen=True)
class Solution:
    """A solved system: point set, model, radii, and how they were obtained."""

    point_set: MarkedPointSet
    model: int
    radii: RadiiAssignment
    method: str
    iterations: int
    # The stops and contacts of the verification that certified the radii
    # (tolerance VERIFY_TOL), kept for the structure analysis.  Set by the
    # solvers only: a copy made with dataclasses.replace, or a solution
    # built from its fields, carries none and is analyzed from the table.
    _answer: Optional[AnswerPass] = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.point_set)


@dataclass(frozen=True)
class ChainTrace:
    """One stopping chain: visited indices, their stops, and the terminal.

    ``stops[t]`` is the stopping index of ``chain[t]`` (``None`` for an
    infinite segment, which only terminates a chain).  A ``"cycle"``
    terminal means the last ``cycle_length`` entries repeat under the
    stopping map; Model 1 cycles have length >= 3, Model 2 chains close
    only as mutual pairs of length 2.
    """

    chain: Tuple[int, ...]
    stops: Tuple[Optional[int], ...]
    terminal: str  # "cycle" | "infinite"
    cycle_length: Optional[int] = None


# ---------------------------------------------------------------------------
# Stopping operators


def apply_t1(f: RadiiAssignment, point_set: MarkedPointSet) -> RadiiAssignment:
    """One application of the Model-1 stopping operator.

    Entry ``i`` of the result is the smallest admissible stopping radius
    ``d[i, j]`` over candidates ``j`` with ``d[i, j] > d[j, i]`` and
    ``f(j) > d[j, i]`` (infimum of the empty set being ``inf``).
    """
    table = require_condition_d(point_set)
    return RadiiAssignment.from_array(table.operator(f.to_array(), 1))


def apply_t2(f: RadiiAssignment, point_set: MarkedPointSet) -> RadiiAssignment:
    """One application of the Model-2 stopping operator.

    Entry ``i`` becomes the smallest later-arrival time ``max(d[i, j],
    d[j, i])`` over ``j != i`` with ``f(j) >= d[j, i]`` (non-strict).
    """
    table = require_condition_d(point_set)
    return RadiiAssignment.from_array(table.operator(f.to_array(), 2))


def _solve_fixed_point_array(table: PairTable, model: int) -> Tuple[np.ndarray, int]:
    n = table.n
    if n == 0:
        return np.zeros(0), 0
    max_steps = 2 * n + 4
    # Iterate 1 is inf, which bounds T(0) from above; step 1 is counted
    # but makes no application.
    prev_even, prev_odd = np.zeros(n), np.full(n, np.inf)
    f = prev_odd
    for step in range(2, max_steps + 1):
        f_next = table.operator(f, model)
        if np.array_equal(f_next, f):
            return f, step
        # Monotone sandwich: even iterates rise, odd iterates fall, and no
        # even iterate may exceed an odd one.
        if step % 2 == 1:
            if np.any(f_next > prev_odd):
                raise NonConvergence("odd iterates must be non-increasing")
            prev_odd = f_next
        else:
            if np.any(f_next < prev_even):
                raise NonConvergence("even iterates must be non-decreasing")
            prev_even = f_next
        if np.any(prev_even > prev_odd):
            raise NonConvergence("even iterate exceeded odd iterate")
        f = f_next
    raise NonConvergence(f"no fixed point within {max_steps} steps")


def solve_fixed_point(point_set: MarkedPointSet, model: int) -> Solution:
    """Solve a model by iterating its stopping operator to an exact fixed point.

    Every produced radius is drawn from the finite set of raw growth
    distances, so consecutive iterates become exactly equal after finitely
    many steps; the iteration is capped at ``2n + 4`` steps as a safety
    net.  The result is verified before being returned.

    Genericity is screened once, at the answer f, in a pass of its own
    before the verification: any collinear pair fails the set, and so does
    a near tie among the comparisons one operator application makes at f,
    over each germ's near list, or over its whole row where the list cannot
    certify the answer (see :mod:`lilyseg.geometry`).  A near tie there
    raises :class:`~lilyseg.errors.ConditionDViolation`; any tie reported
    is one ``check_condition_d`` reports too.  A set whose near list and
    solves would not fit in physical memory raises
    :class:`~lilyseg.errors.InputTooLarge` before any pair is computed.
    """
    _check_model(model)
    table = shared_pair_table(point_set)
    table.screen_collinear()
    radii, steps = _solve_fixed_point_array(table, model)
    table.screen_answer(model, radii)
    solution = Solution(point_set, model, RadiiAssignment.from_array(radii), METHOD_FIXED_POINT, steps)
    _require_verified(solution, table)
    return solution


def _require_verified(solution: Solution, table: PairTable) -> None:
    """Raise :class:`VerificationFailed` unless ``solution`` verifies; on
    success it keeps the stops and contacts of its verification."""
    radii = solution.radii.to_array()
    answer = table.answer_pass(radii, solution.model, VERIFY_TOL)
    report = _verify_with_table(table, radii, solution.model, VERIFY_TOL, answer)
    if not report.passes:
        raise VerificationFailed(
            f"{solution.method} produced an invalid system: "
            f"{len(report.hard_core_violations)} overlap(s), "
            f"{len(report.growth_maximal_violations)} unexplained stop(s), "
            f"{len(report.fixed_point_deviations)} operator deviation(s)"
        )
    object.__setattr__(solution, "_answer", answer)


# ---------------------------------------------------------------------------
# The stopping rule on the dense matrix (oracles only)


def _later_arrival(d: np.ndarray) -> np.ndarray:
    """Later-arrival times ``m[i, j] = max(d[i, j], d[j, i])`` (symmetric)."""
    return np.maximum(d, d.T)


def _candidate_mask(d: np.ndarray, model: int) -> np.ndarray:
    """Boolean mask of admissible stopping candidates ``(i, j)``.

    Model 1 admits pairs whose own arrival is the later one
    (``d[i, j] > d[j, i]``, finite); Model 2 admits every pair with a
    finite later-arrival time, which is ``isfinite(d)``: finiteness of
    ``d`` is symmetric and its diagonal is ``inf``.
    """
    _check_model(model)
    finite = np.isfinite(d)
    return finite & (d > d.T) if model == 1 else finite


def _stop_values(d: np.ndarray, model: int) -> np.ndarray:
    """Radius at which ``i`` stops on ``j``: ``d`` in Model 1, ``m`` in Model 2."""
    return d if model == 1 else _later_arrival(d)


# ---------------------------------------------------------------------------
# Chain chasing


class _ChainState:
    """Shared bookkeeping for the chain solver.

    Candidates of every index are pre-sorted ascending (one vectorized
    argsort); a per-index cursor skips entries invalidated by a strong
    test.  Deletions are permanent, so the live minimum of each candidate
    list is a monotone lower bound for that index's eventual radius.
    """

    def __init__(self, table: PairTable, model: int):
        self.model = model
        self.d = table.d
        n = table.n
        self.radii = np.full(n, np.nan)
        self.stop: List[Optional[int]] = [None] * n
        self.deleted: List[set] = [set() for _ in range(n)]
        self.steps = 0
        masked = np.where(_candidate_mask(self.d, model), _stop_values(self.d, model), np.inf)
        self._order = np.argsort(masked, axis=1, kind="stable")
        self._sorted_values = np.take_along_axis(masked, self._order, axis=1)
        self._cursor = [0] * n

    def resolved(self, i: int) -> bool:
        return not math.isnan(self.radii[i])

    def best(self, i: int) -> Optional[Tuple[float, int]]:
        """Smallest live candidate of ``i``, or None when exhausted."""
        k = self._cursor[i]
        row_v = self._sorted_values[i]
        row_j = self._order[i]
        dead = self.deleted[i]
        n = len(row_v)
        while k < n and row_j[k] in dead:
            k += 1
        self._cursor[i] = k
        if k >= n or not math.isfinite(row_v[k]):
            return None
        return float(row_v[k]), int(row_j[k])

    def link_value(self, i: int, j: int) -> float:
        """Stopping radius of ``i`` if it stops on ``j``."""
        return float(self.d[i, j] if self.model == 1 else max(self.d[i, j], self.d[j, i]))

    def clearance_ok(self, value: float, needed: float) -> bool:
        """Whether a radius (or lower bound) ``value`` of the next point
        clears the distance it must cover for the previous link to stand."""
        if self.model == 1:
            return value > needed
        return value >= needed

    def set_radius(self, i: int, value: float, stop: Optional[int]) -> None:
        self.radii[i] = value
        self.stop[i] = stop

    def ensure_resolved(self, i: int, step_budget: int) -> None:
        """Resolve the radius of ``i`` by chasing its candidate branch.

        The stack holds the branch ``i = c_0, c_1, ...`` where each entry is
        the current best candidate stop of the one below.  The top is tested
        against the clearance the link below needs; confirmations cascade
        down, refutations delete the link and re-open the level below.
        """
        if self.resolved(i):
            return
        stack = [i]
        while True:
            self.steps += 1
            if self.steps > step_budget:
                raise AlgorithmDivergence("chain chase exceeded its step budget")
            top = stack[-1]
            if self.resolved(top):
                if len(stack) == 1:
                    return
                below = stack[-2]
                needed = float(self.d[top, below])
                if self.clearance_ok(float(self.radii[top]), needed):
                    # Strong confirmation: the link below is the answer.
                    self.set_radius(below, self.link_value(below, top), top)
                    stack.pop()
                else:
                    # The candidate can never be reached; discard it for good.
                    self.deleted[below].add(top)
                    stack.pop()
                continue
            best = self.best(top)
            if best is None:
                self.set_radius(top, math.inf, None)
                continue
            bound, nxt = best
            if len(stack) == 1:
                stack.append(nxt)
                continue
            below = stack[-2]
            needed = float(self.d[top, below])
            if self.clearance_ok(bound, needed):
                # Weak confirmation: the bound alone already clears the
                # needed distance, so the link below stands even though the
                # top's own radius is still open.
                self.set_radius(below, self.link_value(below, top), top)
                stack.pop()
            else:
                stack.append(nxt)


def _trace_from(state: _ChainState, start: int, step_budget: int) -> ChainTrace:
    chain: List[int] = [start]
    position: Dict[int, int] = {start: 0}
    stops: List[Optional[int]] = []
    while True:
        current = chain[-1]
        state.ensure_resolved(current, step_budget)
        if math.isinf(state.radii[current]):
            stops.append(None)
            return ChainTrace(tuple(chain), tuple(stops), "infinite")
        nxt = state.stop[current]
        stops.append(nxt)
        if nxt in position:
            length = len(chain) - position[nxt]
            return ChainTrace(tuple(chain), tuple(stops), "cycle", length)
        position[nxt] = len(chain)
        chain.append(nxt)


def _oracle_table(point_set: MarkedPointSet) -> PairTable:
    """The table with its dense ``d`` built, after the full screen.

    ``d`` is built first, so an oversized set raises :class:`InputTooLarge`
    before the O(n^2) screen runs.
    """
    shared_pair_table(point_set).d
    return require_condition_d(point_set)


def solve_chain(
    point_set: MarkedPointSet,
    model: int,
    start: Optional[int] = None,
) -> Tuple[Solution, List[ChainTrace]]:
    """Solve a model by chasing stopping chains; returns traces as well.

    With ``start`` given, the first trace follows that point's chain to its
    terminal (an infinite segment or a closed cycle); remaining indices are
    then resolved in index order so the returned assignment is always
    complete.  The result is verified before being returned; on a generic
    set, operator idempotence pins down the unique fixed point.
    """
    _check_model(model)
    n = len(point_set)
    if start is not None and not (0 <= start < n):
        raise InvalidInput(f"start index {start} out of range for {n} points")
    table = _oracle_table(point_set)
    state = _ChainState(table, model)
    step_budget = 64 * n * n + 1024
    traces: List[ChainTrace] = []
    order: List[int] = [] if start is None else [start]
    order.extend(range(n))
    seen_start = set()
    for s in order:
        if s in seen_start or state.resolved(s):
            continue
        seen_start.add(s)
        traces.append(_trace_from(state, s, step_budget))
    radii = state.radii.copy()
    radii[np.isnan(radii)] = np.inf  # isolated indices never visited
    solution = Solution(point_set, model, RadiiAssignment.from_array(radii), METHOD_CHAIN, state.steps)
    _require_verified(solution, table)
    return solution, traces


# ---------------------------------------------------------------------------
# Greedy event sweep (independent oracle)


def solve_greedy_oracle(point_set: MarkedPointSet, model: int) -> Solution:
    """Simulate the growth as a time-ordered sweep over contact events.

    Model 1 enumerates one event per admissible ordered pair: ``i`` would
    stop on ``j`` at time ``d[i, j]``.  Model 2 enumerates one event per
    pair at the later arrival time; if both members are still growing then
    they stop each other simultaneously (a doublet).  Genericity makes all
    event times distinct, so the sweep order is unambiguous.
    """
    _check_model(model)
    table = _oracle_table(point_set)
    n = table.n
    radii = np.full(n, np.inf)
    resolved = np.zeros(n, dtype=bool)
    events = 0
    d = table.d
    if model == 1:
        ii, jj = np.nonzero(_candidate_mask(d, 1))
        times = d[ii, jj]
        order = np.argsort(times, kind="stable")
        for k in order.tolist():
            events += 1
            i = int(ii[k])
            if resolved[i]:
                continue
            j = int(jj[k])
            # The other segment must cover the meeting point: either it is
            # still growing (and is already past it) or it stopped beyond it.
            if not resolved[j] or radii[j] > d[j, i]:
                radii[i] = times[k]
                resolved[i] = True
    else:
        m = _later_arrival(d)
        iu, ju = np.triu_indices(n, k=1)
        finite = np.isfinite(m[iu, ju])
        iu, ju = iu[finite], ju[finite]
        times = m[iu, ju]
        order = np.argsort(times, kind="stable")
        for k in order.tolist():
            a = int(iu[k])
            b = int(ju[k])
            # Late arriver first: the contact happens when its end shows up.
            if d[a, b] < d[b, a]:
                a, b = b, a
            events += 1
            if resolved[a]:
                continue
            if not resolved[b]:
                # Both still growing: the arriving end touches the other
                # segment and is touched back; both stop at once.
                radii[a] = radii[b] = times[k]
                resolved[a] = resolved[b] = True
            elif radii[b] >= d[b, a]:
                radii[a] = times[k]
                resolved[a] = True
    return Solution(point_set, model, RadiiAssignment.from_array(radii), METHOD_GREEDY, events)


# ---------------------------------------------------------------------------
# Verification


@dataclass(frozen=True)
class VerificationReport:
    """Three independent checks of a claimed solution.

    ``hard_core_violations`` lists pairs whose open segment cores overlap;
    ``growth_maximal_violations`` lists finite-radius indices without a
    model-consistent stopping neighbour; ``fixed_point_deviations`` lists
    indices where one operator application moves the assignment.
    """

    model: int
    tol: float
    hard_core_violations: Tuple[Tuple[int, int], ...]
    growth_maximal_violations: Tuple[int, ...]
    fixed_point_deviations: Tuple[Tuple[int, float, float], ...]

    @property
    def passes(self) -> bool:
        return (
            not self.hard_core_violations
            and not self.growth_maximal_violations
            and not self.fixed_point_deviations
        )


def _verify_with_table(
    table: PairTable, radii: np.ndarray, model: int, tol: float, answer: Optional[AnswerPass] = None
) -> VerificationReport:
    """Verify ``radii``; ``answer``, when given, is ``table.answer_pass(radii, model, tol)``."""
    if answer is None:
        answer = table.answer_pass(radii, model, tol)
    hard = tuple(_key_pairs(answer.strict, table.n))
    explained = np.zeros(table.n, dtype=bool)
    explained[answer.stop_i] = True
    growth = tuple(int(i) for i in np.nonzero(np.isfinite(radii) & ~explained)[0])

    mapped = table.operator(radii, model)
    with np.errstate(invalid="ignore"):
        near = np.abs(mapped - radii) <= tol * np.maximum(radii, 1.0)
    close = (np.isinf(mapped) & np.isinf(radii)) | (np.isfinite(mapped) & np.isfinite(radii) & near)
    dev = tuple((int(i), float(radii[i]), float(mapped[i])) for i in np.nonzero(~close)[0])
    return VerificationReport(model, tol, hard, growth, dev)


def verify_gmhs(
    point_set: MarkedPointSet,
    radii: RadiiAssignment,
    model: int,
    tol: float = 1e-9,
) -> VerificationReport:
    """Check hard-core, growth-maximality, and operator idempotence.

    Failures are report content, not exceptions; ``report.passes`` holds
    iff all three checks are clean.  Unlike the solvers, verification does
    not require genericity, so it also applies to perturbed assignments.
    Raises :class:`RadiiMismatch` when ``radii`` and ``point_set`` differ
    in length.
    """
    _check_model(model)
    _require_matching(point_set, radii)
    table = shared_pair_table(point_set)
    return _verify_with_table(table, radii.to_array(), model, tol)


# ---------------------------------------------------------------------------
# Descending-chain diagnostic


def find_descending_chain(
    point_set: MarkedPointSet,
    chain_type: int = 1,
    max_len: int = 16,
    max_steps: int = 200_000,
) -> List[int]:
    """Longest prefix of a descending chain found by depth-first search.

    Type 1 requires the interleaved growth distances along consecutive
    pairs to be finite and non-increasing; Type 2 requires each backward
    distance to dominate the next pair's later arrival.  Finite sets never
    contain infinite chains, so this is a diagnostic: longer prefixes are
    geometrically rarer.  The search is capped at ``max_steps`` node visits
    (the full tree is exponential); the cap makes the result "longest
    found", which is all the diagnostic needs.

    An oracle-only diagnostic: it reads the dense ``PairTable.d`` and raises
    :class:`~lilyseg.errors.InputTooLarge` when that matrix would not fit
    in memory.  Raises :class:`~lilyseg.errors.InvalidInput` when
    ``chain_type`` is not 1 or 2 or ``max_len`` is below 2.
    """
    if chain_type not in (1, 2):
        raise InvalidInput(f"chain_type must be 1 or 2, got {chain_type}")
    if max_len < 2:
        raise InvalidInput(f"max_len must be at least 2, got {max_len}")
    table = shared_pair_table(point_set)
    n = table.n
    if n < 2:
        return []
    d = table.d
    m = _later_arrival(d)
    best: List[int] = []
    steps = 0

    def extendable(prev: int, cur: int, nxt: int) -> bool:
        if chain_type == 1:
            return (
                math.isfinite(d[cur, nxt])
                and d[prev, cur] >= d[cur, prev] >= d[cur, nxt] >= d[nxt, cur]
            )
        return math.isfinite(m[cur, nxt]) and d[cur, prev] >= m[cur, nxt]

    def dfs(chain: List[int], used: set) -> None:
        nonlocal best, steps
        steps += 1
        if len(chain) > len(best):
            best = list(chain)
        if len(chain) >= max_len or steps > max_steps:
            return
        prev, cur = chain[-2], chain[-1]
        for nxt in range(n):
            if nxt in used:
                continue
            if extendable(prev, cur, nxt):
                chain.append(nxt)
                used.add(nxt)
                dfs(chain, used)
                used.discard(nxt)
                chain.pop()

    for a in range(n):
        for b in range(n):
            if steps > max_steps:
                return best
            if a == b:
                continue
            if chain_type == 1:
                ok = math.isfinite(d[a, b]) and d[a, b] >= d[b, a]
            else:
                ok = math.isfinite(d[b, a])
            if ok:
                dfs([a, b], {a, b})
    return best


# ---------------------------------------------------------------------------
# Solution files


def solution_to_json(solution: Solution) -> dict:
    return {
        "schema_version": SOLUTION_SCHEMA,
        "model": solution.model,
        "realization": realization_to_json(solution.point_set),
        "radii": [("inf" if math.isinf(r) else r) for r in solution.radii],
        "method": solution.method,
        "iterations": solution.iterations,
    }


def _require_matching(point_set: MarkedPointSet, radii: RadiiAssignment) -> None:
    if len(radii) != len(point_set):
        raise RadiiMismatch(f"{len(radii)} radii for {len(point_set)} points")


def solution_from_json(obj: dict) -> Solution:
    """Parse a solution payload; raises :class:`RadiiMismatch`, :class:`NegativeRadius`
    or :class:`InvalidInput`."""
    point_set = realization_from_json(obj["realization"])
    try:
        radii = RadiiAssignment(tuple(math.inf if r == "inf" else float(r) for r in obj["radii"]))
        model, iterations = int(obj["model"]), int(obj.get("iterations", 0))
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed solution: {exc}") from None
    _check_model(model)
    _require_matching(point_set, radii)
    bad = [r for r in radii if not r >= 0.0]
    if bad:
        raise NegativeRadius(f"radius must be in [0, inf], got {bad[0]}")
    return Solution(point_set, model, radii, str(obj.get("method", "unknown")), iterations)


def write_solution(solution: Solution, fp: Union[str, IO[str]]) -> None:
    _write_text(fp, json.dumps(solution_to_json(solution), indent=2) + "\n")


def read_solution(path: str) -> Solution:
    with open(path) as fh:
        return solution_from_json(json.load(fh))
