"""Independent output checker for solved lilypond segment systems.

The checker sees only germ coordinates, directions and radii.  It uses its
own formulas -- carrier lines in normal form ``n . p = c`` intersected by
Cramer's rule, ends tested by their offset from the other carrier -- and
never calls ``lilyseg.geometry`` or ``verify_gmhs``, so a fault shared by the
package's kernels and its verifier cannot pass it unseen.

Pairs are processed in row blocks so that the checker's own memory stays
far below that of the dense program it checks; the benchmark reports the
peak resident memory of the process that runs both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

#: Relative slack for "lies on" and "strictly inside" decisions.
TOL = 1e-9
#: Carriers with |sin(angle between them)| below this are parallel (the
#: model's convention: parallel carriers through distinct germs meet only
#: when collinear).
PARALLEL = 1e-12
#: Pair entries per block; about 10 float arrays of this size are live.
BLOCK_ENTRIES = 1 << 17


@dataclass
class SystemCheck:
    """What the checker found on one solved system."""

    problems: List[str]
    pairs: np.ndarray  # (k, 2) touching pairs i < j
    doublets: np.ndarray  # the touching pairs of equal finite radii (Model 2)
    clusters: int
    nu: np.ndarray  # touching partners per segment

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def contacts(self) -> int:
        return len(self.pairs)


def check_system(
    x: Sequence[float],
    y: Sequence[float],
    theta: Sequence[float],
    radii: Sequence[float],
    model: int,
) -> SystemCheck:
    """Check hard core, stop explanations and the contact count of a system.

    * no two open segment interiors meet;
    * every finite segment is explained by a contact: under Model 1 one of
      its own ends lies on another segment; under Model 2 that, or the end
      of a segment of equal radius lies on it;
    * the number of touching pairs equals the number of finite segments
      (Model 1), or finite segments minus doublets (Model 2), a doublet
      being a touching pair of equal finite radii.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    theta = np.asarray(theta, dtype=float)
    r = np.asarray(radii, dtype=float)
    n = len(x)
    ux, uy = np.cos(theta), np.sin(theta)
    nx, ny = -uy, ux
    c = nx * x + ny * y
    finite = np.isfinite(r)
    problems: List[str] = []
    if np.any(np.isnan(r)) or np.any(r < 0):
        none = np.zeros((0, 2), dtype=int)
        return SystemCheck(["radii must lie in [0, inf]"], none, none, n, np.zeros(n, dtype=int))

    touching: List[np.ndarray] = []  # (k, 2) arrays of i < j
    end_on: List[np.ndarray] = []  # (k, 2) arrays: an end of i lies on j
    overlaps = 0
    block = max(1, BLOCK_ENTRIES // max(n, 1))
    cols = np.arange(n)
    for lo in range(0, n, block):
        rows = np.arange(lo, min(n, lo + block))
        i = rows[:, None]
        later = cols[None, :] > i
        det = nx[i] * ny[None, :] - ny[i] * nx[None, :]
        parallel = np.abs(det) < PARALLEL
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            px = (c[i] * ny[None, :] - ny[i] * c[None, :]) / det
            py = (nx[i] * c[None, :] - c[i] * nx[None, :]) / det
            along_i = np.abs((px - x[i]) * ux[i] + (py - y[i]) * uy[i])
            along_j = np.abs((px - x[None, :]) * ux[None, :] + (py - y[None, :]) * uy[None, :])
            ri, rj = r[i], r[None, :]
            inside = (along_i < ri * (1 - TOL)) & (along_j < rj * (1 - TOL)) & ~parallel
            touch = (along_i <= ri * (1 + TOL)) & (along_j <= rj * (1 + TOL)) & ~parallel
            scale = 1.0 + np.abs(x[i]) + np.abs(y[i]) + np.abs(x[None, :]) + np.abs(y[None, :])
            collinear = parallel & (np.abs(nx[i] * x[None, :] + ny[i] * y[None, :] - c[i]) <= TOL * scale)
            if collinear.any():
                gap = np.hypot(x[None, :] - x[i], y[None, :] - y[i])
                reach = ri + rj
                inside |= collinear & (gap < reach * (1 - TOL))
                touch |= collinear & (gap <= reach * (1 + TOL))
        overlaps += int(np.count_nonzero(inside & later))
        ti, tj = np.nonzero(touch & later)
        touching.append(np.column_stack((rows[ti], tj)))

        # Ends of the finite segments of this block, tested against every
        # other closed segment: offset from its carrier and position along it.
        fin = finite[rows]
        if fin.any():
            frows = rows[fin]
            k = frows[:, None]
            for sign in (1.0, -1.0):
                ex = x[k] + sign * r[k] * ux[k]
                ey = y[k] + sign * r[k] * uy[k]
                offset = np.abs(nx[None, :] * ex + ny[None, :] * ey - c[None, :])
                along = np.abs(ux[None, :] * (ex - x[None, :]) + uy[None, :] * (ey - y[None, :]))
                slack = TOL * (1.0 + np.abs(ex) + np.abs(ey) + r[k])
                with np.errstate(invalid="ignore"):
                    on = (offset <= slack) & (along <= r[None, :] * (1 + TOL)) & (cols[None, :] != k)
                oi, oj = np.nonzero(on)
                end_on.append(np.column_stack((frows[oi], oj)))

    pairs = np.concatenate(touching) if touching else np.zeros((0, 2), dtype=int)
    ends = np.concatenate(end_on) if end_on else np.zeros((0, 2), dtype=int)
    if overlaps:
        problems.append(f"{overlaps} pair(s) of open interiors meet")

    explained = np.zeros(n, dtype=bool)
    explained[ends[:, 0]] = True
    if model == 2 and len(ends):
        # Touched by the end of an equal-radius segment: the doublet partner.
        equal = r[ends[:, 0]] == r[ends[:, 1]]
        explained[ends[equal, 1]] = True
    unexplained = np.nonzero(finite & ~explained)[0]
    if len(unexplained):
        problems.append(f"{len(unexplained)} finite segment(s) without a stopping contact, e.g. {unexplained[:4].tolist()}")

    a, b = pairs[:, 0], pairs[:, 1]
    doublets = pairs[finite[a] & (r[a] == r[b])] if model == 2 else pairs[:0]
    expected = int(finite.sum()) - len(doublets)
    if len(pairs) != expected:
        problems.append(f"{len(pairs)} contacts, expected {expected}")

    nu = np.bincount(pairs.ravel(), minlength=n)
    return SystemCheck(problems, pairs, doublets, _components(n, pairs), nu)


def _components(n: int, pairs: np.ndarray) -> int:
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in pairs.tolist():
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
    return sum(1 for i in range(n) if find(i) == i)


def relative_gap(a: Sequence[float], b: Sequence[float]) -> float:
    """Largest relative difference of finite radii; ``inf`` if the infinity patterns differ."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or not np.array_equal(np.isinf(a), np.isinf(b)):
        return math.inf
    fin = np.isfinite(a)
    if not fin.any():
        return 0.0
    return float(np.max(np.abs(a[fin] - b[fin]) / np.abs(a[fin])))
