"""Stopping maps, contact graphs, clusters, cycles, and doublets.

A solved system induces a functional graph: every finite-radius segment
has exactly one stopping neighbour.  Clusters are the components of the
undirected version of that graph; Model 1 closes finite clusters with a
cycle of length at least three, Model 2 with a mutual pair of equal radii
(a doublet).  Stops and contacts come from one stop-and-contact pass per
answer, ``PairTable.answer_pass``: the explained stops and the touching
pairs.  The solver's verification makes that pass and the verified
solution carries it, so the analysis at the verification's tolerance
traverses no pair; otherwise it makes the pass itself.  Contact edges
derived from the stopping relation are checked against the touching pairs
on every analysis, so the two cluster notions (touching vs. stopping) are
asserted to coincide rather than assumed.  The pass reads each germ's
near list of closest stops and falls back to whole table rows only where
the list cannot certify its answer; the results equal the all-pairs
evaluation.  The bookkeeping after it runs on arrays, in ``_structure``:
the stopping map, the contact comparison, neighbour counts, cycles,
doublets, cluster labels (the components of the stopping map, found by
pointer jumping) and the cluster invariants, each check raising as
:func:`analyze` raises.  The Monte Carlo replications read that core
directly, and :func:`analyze` builds its report from it: the clusters in
order of their smallest member, each listing its members ascending.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import AmbiguousStop, InvalidInput, StructureInconsistency
from .geometry import AnswerPass, _key_pairs, _unique, shared_pair_table
from .pointprocess import Window
from .solver import VERIFY_TOL, Solution


@dataclass(frozen=True)
class StoppingMap:
    """Partial map index -> stopping index, defined exactly on finite radii."""

    stops: Tuple[Tuple[int, int], ...]

    @cached_property
    def _index(self) -> Dict[int, int]:
        return dict(self.stops)

    def as_dict(self) -> Dict[int, int]:
        return dict(self.stops)

    def __getitem__(self, i: int) -> int:
        return self._index[i]

    def __len__(self) -> int:
        return len(self.stops)

    def __contains__(self, i: int) -> bool:
        return i in self._index


def _answer_of(solution: Solution, radii: np.ndarray, tol: float) -> AnswerPass:
    """The stops and contacts at the solution: those its verification found
    when it carries them at this tolerance, else a pass over the table."""
    carried = solution._answer
    if carried is not None and tol == VERIFY_TOL:
        return carried
    return shared_pair_table(solution.point_set).answer_pass(radii, solution.model, tol)


def _stops(radii: np.ndarray, answer: AnswerPass) -> Tuple[np.ndarray, np.ndarray]:
    """The stops ``(i, j)`` of the finite indices ``i``, ascending; raises
    unless each finite index has exactly one."""
    rows, cols = answer.stop_i, answer.stop_j
    count = np.bincount(rows, minlength=len(radii))
    bad = np.nonzero(np.isfinite(radii) & (count != 1))[0]
    if len(bad):
        i = int(bad[0])
        if count[i] == 0:
            raise StructureInconsistency(f"index {i} has no stopping neighbour")
        raise AmbiguousStop(f"index {i} stops on {cols[rows == i].tolist()} within tolerance")
    return rows, cols


def stopping_map(solution: Solution, tol: float = VERIFY_TOL) -> StoppingMap:
    """Identify the unique stopping neighbour of every finite-radius index.

    Candidates are the explained stops of ``PairTable.answer_pass``, the
    ones the solver's verification found when the solution carries them.
    Exactly one index may realize each stop; several matches within
    tolerance signal a genericity near-tie and raise :class:`AmbiguousStop`.
    """
    radii = solution.radii.to_array()
    rows, cols = _stops(radii, _answer_of(solution, radii, tol))
    return StoppingMap(tuple(zip(rows.tolist(), cols.tolist())))


@dataclass(frozen=True)
class StructureReport:
    """Contact graph and cluster decomposition of a solved system.

    ``cycles`` is populated for Model 1 (each length >= 3), ``doublets``
    for Model 2 (mutual stops with exactly equal radii).  ``nu[i]`` is the
    number of segments touching segment ``i``.  ``clusters`` are ordered by
    their smallest member, and each lists its members in ascending order.
    """

    model: int
    contact_edges: Tuple[Tuple[int, int], ...]
    clusters: Tuple[Tuple[int, ...], ...]
    cycles: Tuple[Tuple[int, ...], ...]
    doublets: Tuple[Tuple[int, int], ...]
    nu: Tuple[int, ...]

    @property
    def n_contacts(self) -> int:
        return len(self.contact_edges)

    @cached_property
    def _cluster_index(self) -> Dict[int, Tuple[int, ...]]:
        return {i: cluster for cluster in self.clusters for i in cluster}

    def cluster_of(self, i: int) -> Tuple[int, ...]:
        return self._cluster_index[i]

    def to_json(self) -> dict:
        return {
            "clusters": [list(c) for c in self.clusters],
            "cycles": [list(c) for c in self.cycles],
            "doublets": [list(p) for p in self.doublets],
            "nu": list(self.nu),
            "contacts": self.n_contacts,
        }


def _jump(step: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``step`` applied at least n times, by repeated squaring, and the
    smallest index each index passes on the way."""
    low = np.arange(n)
    for _ in range(n.bit_length()):
        low = np.minimum(low, low[step])
        step = step[step]
    return step, low


class _Structure(NamedTuple):
    """The structure of a solved system as arrays, every invariant checked.

    ``stop_i`` and ``stop_j`` are the stops ``(i, j)``, ascending ``i``;
    ``keys`` the contact edges ``(i, j)``, ``i < j``, as ascending keys
    ``i * n + j``; ``nu`` the neighbour counts.  ``label`` numbers each
    index's cluster, the clusters in order of their smallest index.
    ``cycles`` holds the Model-1 cycles one after another, each of
    ``cycle_sizes`` members, and ``doublets`` the Model-2 doublets as rows
    ``(i, j)``, ``i < j``, both as :class:`StructureReport` lists them.
    """

    stop_i: np.ndarray
    stop_j: np.ndarray
    keys: np.ndarray
    nu: np.ndarray
    label: np.ndarray
    cycles: np.ndarray
    cycle_sizes: np.ndarray
    doublets: np.ndarray


def _structure(solution: Solution, tol: float = VERIFY_TOL) -> _Structure:
    """The array core of :func:`analyze`: the same checks, raising the same
    errors, and no report objects.

    Clusters are the components of the stop map (an index without a stop
    maps to itself).  Following the map from any index ends on its
    cluster's one cycle, or at its infinite index, within n steps; the
    smallest index there names the cluster.  Pointer jumping finds both.
    """
    radii = solution.radii.to_array()
    answer = _answer_of(solution, radii, tol)
    rows, cols = _stops(radii, answer)
    n = len(radii)

    keys = _unique(np.minimum(rows, cols) * n + np.maximum(rows, cols))
    if not np.array_equal(keys, answer.touching):
        extra = _key_pairs(np.setdiff1d(answer.touching, keys)[:4], n)
        missing = _key_pairs(np.setdiff1d(keys, answer.touching)[:4], n)
        raise StructureInconsistency(f"contact graph mismatch: unexplained touches {extra}, missing {missing}")

    stop = np.arange(n)
    stop[rows] = cols
    end, low = _jump(stop, n)
    _, lead, label = np.unique(low[end], return_index=True, return_inverse=True)
    rank = np.empty_like(lead)
    rank[np.argsort(lead)] = np.arange(len(lead))
    label, lead = rank[label], np.sort(lead)

    i, j = np.divmod(keys, n)
    nu = np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
    on_cycle = np.zeros(n, dtype=bool)
    on_cycle[end] = True
    on_cycle &= np.isfinite(radii)
    cycles, sizes, first = _closers(stop, on_cycle, label, lead)
    model = solution.model
    wrong = (sizes < 3) if model == 1 else (sizes != 2)
    for k in np.flatnonzero(wrong)[:1].tolist():
        start = int(sizes[:k].sum())
        cycle = tuple(cycles[start:start + sizes[k]].tolist())
        raise StructureInconsistency(f"Model {model} produced a {len(cycle)}-cycle: {cycle}")
    if model == 1:
        doublets = np.zeros((0, 2), dtype=np.intp)
    else:
        doublets = np.sort(cycles.reshape(-1, 2), axis=1)
        for a, b in doublets[radii[doublets[:, 0]] != radii[doublets[:, 1]]][:1].tolist():
            raise StructureInconsistency(f"doublet ({a},{b}) with unequal radii")
        cycles, sizes = cycles[:0], sizes[:0]
    _assert_cluster_invariants(model, label, label[first], radii)
    return _Structure(rows, cols, keys, nu, label, cycles, sizes, doublets)


def analyze(solution: Solution, tol: float = VERIFY_TOL) -> StructureReport:
    """Full structural decomposition of a solved system.

    Contact edges come from the stopping relation (each finite segment
    touches its stopper); they are asserted to agree with the closed-segment
    contact test, which guards against tolerance-induced phantom contacts as
    well as missed ones.  Stops and contacts come from one
    ``PairTable.answer_pass``, the one the solver's verification made when
    the solution carries it.  Cluster invariants (one cycle or doublet per
    all-finite cluster, none alongside an infinite member) are asserted and
    raise :class:`StructureInconsistency` when broken.
    """
    core = _structure(solution, tol)
    n = len(core.label)
    ids, edge_tuples = _report_objects(solution.point_set)
    shared = ids.__getitem__
    order = np.argsort(core.label, kind="stable")
    cut = np.flatnonzero(np.diff(core.label[order])) + 1
    members = list(map(shared, order.tolist()))
    bounds = [0, *cut.tolist(), n] if n else [0]
    clusters = tuple(tuple(members[a:b]) for a, b in zip(bounds, bounds[1:]))

    flat = list(map(shared, core.cycles.tolist()))
    ends = np.cumsum(core.cycle_sizes).tolist()
    cycles = tuple(tuple(flat[b - k:b]) for k, b in zip(core.cycle_sizes.tolist(), ends))
    doublets = _edges((core.doublets[:, 0] * n + core.doublets[:, 1]).tolist(), n, ids, edge_tuples)
    return StructureReport(
        model=solution.model,
        contact_edges=_edges(core.keys.tolist(), n, ids, edge_tuples),
        clusters=clusters,
        cycles=cycles,
        doublets=doublets,
        nu=tuple(core.nu.tolist()),
    )


def _report_objects(point_set) -> Tuple[List[int], Dict[int, Tuple[int, int]]]:
    """One int object per index and one tuple per contact edge ``(i, j)``,
    keyed ``i * n + j``, kept on the point set for every report on it.

    Reports of one set share them: a report holds no int or edge of its own,
    and the Model-1 and Model-2 reports of a set share every edge they have
    in common (about 1150 of 2000 and 1250 on a 45x45 window), which keeps
    callers that hold many reports small.  Pickles of a set carry none (see
    ``MarkedPointSet.__getstate__``).
    """
    objects = vars(point_set).get("_report_objects")
    if objects is None:
        objects = (list(range(len(point_set))), {})
        object.__setattr__(point_set, "_report_objects", objects)
    return objects


def _edges(keys: List[int], n: int, ids: List[int], edge_tuples: dict) -> Tuple[Tuple[int, int], ...]:
    """The shared tuples of the edges ``keys``, made for those not yet made."""
    found = list(map(edge_tuples.get, keys))
    for pos in [pos for pos, edge in enumerate(found) if edge is None]:
        key = keys[pos]
        found[pos] = edge_tuples[key] = (ids[key // n], ids[key % n])
    return tuple(found)


def _closers(stop: np.ndarray, on_cycle: np.ndarray, label: np.ndarray, lead: np.ndarray):
    """The cycles of the stop map through finite indices, one after another,
    their sizes, and the smallest index of each one's cluster.

    ``on_cycle`` marks the finite indices on a cycle, ``label`` gives each
    index's cluster and ``lead`` each cluster's smallest index, ascending.
    A cluster holds at most one cycle.  Walking the map from each finite
    index in turn, the first walk to reach a cycle starts at its cluster's
    smallest index and enters the cycle where that index's path first meets
    it; each cycle is listed from there, in the order of those walks.
    """
    n = len(stop)
    length = np.bincount(label[on_cycle], minlength=len(lead))
    first = lead[length > 0]
    length = length[label[first]]
    start = _jump(np.where(on_cycle, np.arange(n), stop), n)[0][first]
    walk = [start]
    for _ in range(int(length.max(initial=0)) - 1):
        walk.append(stop[walk[-1]])
    cycles = np.stack(walk, axis=1)[np.arange(len(walk)) < length[:, None]]
    return cycles, length, first


def _assert_cluster_invariants(model, label, closed, radii) -> None:
    """Raise on the first cluster, in order, that breaks an invariant.

    ``closed`` holds the cluster of each cycle or doublet.
    """
    size = np.bincount(label)
    count = len(size)
    infinite = np.bincount(label[~np.isfinite(radii)], minlength=count)
    inside = np.bincount(closed, minlength=count)
    all_finite = infinite == 0
    broken = np.where(all_finite, inside != 1, inside > 0)
    broken |= (infinite > 1) if model == 1 else ((infinite > 0) & (size > 1))
    for k in np.flatnonzero(broken)[:1].tolist():
        cluster = tuple(np.flatnonzero(label == k).tolist())
        if all_finite[k]:
            raise StructureInconsistency(f"all-finite cluster {cluster} holds {inside[k]} cycles/doublets")
        if inside[k]:
            raise StructureInconsistency(f"cluster {cluster} holds an infinite segment and a closing structure")
        if model == 1:
            raise StructureInconsistency(f"cluster {cluster} holds {infinite[k]} infinite segments")
        raise StructureInconsistency(f"Model 2 infinite segment in non-singleton cluster {cluster}")


@dataclass(frozen=True)
class ContactCountIdentity:
    """Both sides of the exact contact-count identities, per realization.

    Model 1: contacts equal finite segments; Model 2: contacts equal finite
    segments minus doublets.  In both models the neighbour counts sum to
    twice the contacts (handshake).
    """

    model: int
    n_finite: int
    n_contacts: int
    n_doublets: int
    sum_nu: int

    @property
    def contacts_expected(self) -> int:
        return self.n_finite - (self.n_doublets if self.model == 2 else 0)

    @property
    def holds(self) -> bool:
        return self.n_contacts == self.contacts_expected and self.sum_nu == 2 * self.n_contacts

    def to_json(self) -> dict:
        return {
            "n_finite": self.n_finite,
            "n_contacts": self.n_contacts,
            "n_doublets": self.n_doublets,
            "sum_nu": self.sum_nu,
            "contacts_expected": self.contacts_expected,
            "holds": self.holds,
        }


def contact_count_identity(report: StructureReport, solution: Solution) -> ContactCountIdentity:
    """Evaluate the exact neighbour-count identities on a solved system."""
    radii = solution.radii.to_array()
    return ContactCountIdentity(
        model=solution.model,
        n_finite=int(np.isfinite(radii).sum()),
        n_contacts=report.n_contacts,
        n_doublets=len(report.doublets),
        sum_nu=int(sum(report.nu)),
    )


def _check_margin(margin: float) -> None:
    """Raise :class:`InvalidInput` unless ``margin >= 0``, so NaN raises too."""
    if not margin >= 0:
        raise InvalidInput(f"margin must be >= 0, got {margin}")


def interior_certified(
    solution: Solution,
    window: Optional[Window],
    margin: float = 0.0,
) -> np.ndarray:
    """Mask of germs whose solved radius is trustworthy inside the window.

    A germ qualifies when it clears the minus-sampling band (distance to
    the boundary at least ``margin``) and its solved radius stays below the
    distance to the boundary less half the margin, so an in-band stop chain
    cannot silently reach it.  Infinite radii never qualify inside a
    window; without a window every germ qualifies (fixture semantics).
    Raises :class:`InvalidInput` unless ``margin >= 0``, so NaN raises too.
    """
    _check_margin(margin)
    radii = solution.radii.to_array()
    if window is None:
        return np.ones(len(radii), dtype=bool)
    point_set = solution.point_set
    dist = np.asarray(window.distance_to_boundary(point_set.x, point_set.y), dtype=float)
    with np.errstate(invalid="ignore"):
        return (dist >= margin) & (radii < dist - margin / 2.0)
