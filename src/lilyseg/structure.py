"""Stopping maps, contact graphs, clusters, cycles, and doublets.

A solved system induces a functional graph: every finite-radius segment
has exactly one stopping neighbour.  Clusters are the components of the
undirected version of that graph; Model 1 closes finite clusters with a
cycle of length at least three, Model 2 with a mutual pair of equal radii
(a doublet).  Stops come from ``PairTable.stop_matches``.  Contact edges
derived from the stopping relation are checked against the closed-segment
contact test ``PairTable.cover(strict=False)`` on every analysis, so the
two cluster notions (touching vs. stopping) are asserted to coincide
rather than assumed.  Both kernels read each germ's near list of closest
stops and fall back to whole table rows only where the list cannot
certify its answer; the results equal the all-pairs evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import AmbiguousStop, StructureInconsistency
from .geometry import shared_pair_table
from .pointprocess import Window
from .solver import Solution


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


def stopping_map(solution: Solution, tol: float = 1e-9) -> StoppingMap:
    """Identify the unique stopping neighbour of every finite-radius index.

    Candidates come from ``PairTable.stop_matches``.  Exactly one index may
    realize each stop; several matches within tolerance signal a genericity
    near-tie and raise :class:`AmbiguousStop`.
    """
    table = shared_pair_table(solution.point_set)
    radii = solution.radii.to_array()
    rows, cols = table.stop_matches(radii, solution.model, tol)
    finite = np.nonzero(np.isfinite(radii))[0]
    starts = np.searchsorted(rows, finite, side="left").tolist()
    ends = np.searchsorted(rows, finite, side="right").tolist()
    stops: List[Tuple[int, int]] = []
    for i, lo, hi in zip(finite.tolist(), starts, ends):
        js = cols[lo:hi]
        if len(js) == 0:
            raise StructureInconsistency(f"index {i} has no stopping neighbour")
        if len(js) > 1:
            raise AmbiguousStop(f"index {i} stops on {js.tolist()} within tolerance")
        stops.append((int(i), int(js[0])))
    return StoppingMap(tuple(stops))


@dataclass(frozen=True)
class StructureReport:
    """Contact graph and cluster decomposition of a solved system.

    ``cycles`` is populated for Model 1 (each length >= 3), ``doublets``
    for Model 2 (mutual stops with exactly equal radii).  ``nu[i]`` is the
    number of segments touching segment ``i``.
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


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _functional_cycles(stops: Dict[int, int]) -> List[Tuple[int, ...]]:
    """Cycles of the partial functional graph ``i -> stops[i]``."""
    color: Dict[int, int] = {}  # 0 in progress, 1 done
    cycles: List[Tuple[int, ...]] = []
    for root in stops:
        if root in color:
            continue
        path: List[int] = []
        pos: Dict[int, int] = {}
        node: Optional[int] = root
        while node is not None and node in stops and node not in color and node not in pos:
            pos[node] = len(path)
            path.append(node)
            node = stops.get(node)
        if node is not None and node in pos:
            cycles.append(tuple(path[pos[node]:]))
        for visited in path:
            color[visited] = 1
    return cycles


def analyze(solution: Solution, tol: float = 1e-9) -> StructureReport:
    """Full structural decomposition of a solved system.

    Contact edges come from the stopping relation (each finite segment
    touches its stopper); they are asserted to agree with the closed-segment
    contact test ``PairTable.cover(strict=False)``, which guards against
    tolerance-induced phantom contacts as well as missed ones.  Cluster invariants (one cycle
    or doublet per all-finite cluster, none alongside an infinite member)
    are asserted and raise :class:`StructureInconsistency` when broken.
    """
    stops = stopping_map(solution, tol).as_dict()
    table = shared_pair_table(solution.point_set)
    radii = solution.radii.to_array()
    n = len(radii)

    # One int object per index, shared by the report's edges and clusters,
    # keeps a report about a sixth smaller (two reports of a 45x45 window:
    # 0.76 -> 0.63 MiB) for callers that keep many.
    ids = list(range(n))
    edges = {(ids[min(i, j)], ids[max(i, j)]) for i, j in stops.items()}
    touched = set(table.cover(radii, strict=False, tol=tol))
    if touched != edges:
        extra = sorted(touched - edges)
        missing = sorted(edges - touched)
        raise StructureInconsistency(
            f"contact graph mismatch: unexplained touches {extra[:4]}, missing {missing[:4]}"
        )

    uf = _UnionFind(n)
    for i, j in edges:
        uf.union(i, j)
    by_root: Dict[int, List[int]] = {}
    for i in ids:
        by_root.setdefault(uf.find(i), []).append(i)
    clusters = tuple(tuple(sorted(members)) for _, members in sorted(by_root.items()))

    nu = [0] * n
    for i, j in edges:
        nu[i] += 1
        nu[j] += 1

    cycles_raw = _functional_cycles(stops)
    if solution.model == 1:
        for cyc in cycles_raw:
            if len(cyc) < 3:
                raise StructureInconsistency(f"Model 1 produced a {len(cyc)}-cycle: {cyc}")
        cycles = tuple(tuple(cyc) for cyc in cycles_raw)
        doublets: Tuple[Tuple[int, int], ...] = ()
    else:
        for cyc in cycles_raw:
            if len(cyc) != 2:
                raise StructureInconsistency(f"Model 2 produced a {len(cyc)}-cycle: {cyc}")
        doublets = tuple(tuple(sorted(cyc)) for cyc in cycles_raw)
        for i, j in doublets:
            if radii[i] != radii[j]:
                raise StructureInconsistency(f"doublet ({i},{j}) with unequal radii")
        cycles = ()

    _assert_cluster_invariants(solution.model, clusters, cycles, doublets, radii)
    return StructureReport(
        model=solution.model,
        contact_edges=tuple(sorted(edges)),
        clusters=clusters,
        cycles=cycles,
        doublets=doublets,
        nu=tuple(nu),
    )


def _assert_cluster_invariants(model, clusters, cycles, doublets, radii) -> None:
    closer_of: Dict[int, int] = {}
    closers = cycles if model == 1 else doublets
    for k, group in enumerate(closers):
        for member in group:
            closer_of[member] = k
    for cluster in clusters:
        finite = [i for i in cluster if math.isfinite(radii[i])]
        infinite = [i for i in cluster if not math.isfinite(radii[i])]
        inside = {closer_of[i] for i in finite if i in closer_of}
        if not infinite and finite:
            if len(inside) != 1:
                raise StructureInconsistency(
                    f"all-finite cluster {cluster} holds {len(inside)} cycles/doublets"
                )
        else:
            if inside:
                raise StructureInconsistency(
                    f"cluster {cluster} holds an infinite segment and a closing structure"
                )
        if model == 1 and len(infinite) > 1:
            raise StructureInconsistency(f"cluster {cluster} holds {len(infinite)} infinite segments")
        if model == 2 and infinite and len(cluster) > 1:
            raise StructureInconsistency(
                f"Model 2 infinite segment in non-singleton cluster {cluster}"
            )


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
    """
    radii = solution.radii.to_array()
    n = len(radii)
    if window is None:
        return np.ones(n, dtype=bool)
    coords = solution.point_set.coords()
    if n == 0:
        return np.zeros(0, dtype=bool)
    dist = np.asarray(window.distance_to_boundary(coords[:, 0], coords[:, 1]), dtype=float)
    with np.errstate(invalid="ignore"):
        return (dist >= margin) & (radii < dist - margin / 2.0)
