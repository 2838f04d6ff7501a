"""Spatial discretization: raw (x, y) traces into cell sequences.

Cells come from a radius-bounded greedy clustering of trajectory points.
Assignment of a point to a cell is nearest-centroid (the Voronoi rule),
so no explicit polygon construction is needed.

Both stages work in bulk and give the same bits as the plain loops they
replace. The clustering keeps its one greedy pass but finds the clusters a
point may join through a grid of square buckets at least twice the radius
wide, so each point is compared with the centroids of its 3 x 3 bucket
neighbourhood instead of with all of them. Assignment computes the squared
distances of a block of points to every centroid one axis at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._files import read_table, write_table
from .tokens import END, START, Token, is_virtual

CELLMAP_VERSION = "cellmap-v1"
CLUSTER_CHUNK = 1024  # points converted to Python floats at a time by cluster_points
ASSIGN_BLOCK = 1 << 18  # point-centroid distances held at a time by assign_points


@dataclass(frozen=True)
class RawTrajectory:
    """One trip: ordered (x, y, t) points, meters east/north and epoch seconds."""

    trip_id: str
    points: np.ndarray  # shape [l, 3], columns x, y, t

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
            raise ValueError("trajectory needs a non-empty [l, 3] point array")
        if not np.isfinite(pts).all():
            raise ValueError("invalid point")
        t = pts[:, 2]
        if (t[1:] < t[:-1]).any():
            raise ValueError("timestamps must be non-decreasing")
        object.__setattr__(self, "points", pts)

    @property
    def xy(self) -> np.ndarray:
        return self.points[:, :2]

    @property
    def times(self) -> np.ndarray:
        return self.points[:, 2]

    @property
    def start_time(self) -> float:
        return float(self.points[0, 2])

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class CellMap:
    """Learned discretization: centroids indexed 1..N and the radius used."""

    centroids: np.ndarray  # shape [N, 2]
    radius: float
    version: str = CELLMAP_VERSION

    def __post_init__(self):
        cents = np.asarray(self.centroids, dtype=float)
        if cents.ndim != 2 or cents.shape[1] != 2 or cents.shape[0] == 0:
            raise ValueError("cell map needs at least one centroid")
        if not np.all(np.isfinite(cents)):
            raise ValueError("centroids must be finite")
        if not self.radius > 0:  # NaN too
            raise ValueError("radius must be positive")
        object.__setattr__(self, "centroids", cents)

    @property
    def n_cells(self) -> int:
        return self.centroids.shape[0]


@dataclass(frozen=True)
class CellSequence:
    """Visited cells wrapped in the virtual #start / #end markers."""

    tokens: tuple[Token, ...]

    def __post_init__(self):
        toks = tuple(self.tokens)
        if len(toks) < 2 or toks[0] != START or toks[-1] != END:
            raise ValueError("sequence must start with #start and end with #end")
        interior = toks[1:-1]
        if any(is_virtual(t) for t in interior):
            raise ValueError("virtual tokens are only allowed at the ends")
        for a, b in zip(interior, interior[1:]):
            if a == b:
                raise ValueError("consecutive duplicate cells are not allowed")
        object.__setattr__(self, "tokens", toks)

    @property
    def cells(self) -> tuple[int, ...]:
        return self.tokens[1:-1]  # type: ignore[return-value]

    @property
    def m(self) -> int:
        """Number of interior (real) cells."""
        return len(self.tokens) - 2

    def __len__(self) -> int:
        return len(self.tokens)


def cluster_points(points: Iterable[Sequence[float]] | np.ndarray, radius: float) -> CellMap:
    """Greedy single-pass clustering with the given target radius.

    Each point joins the nearest existing cluster if it lies within
    ``radius`` of that cluster's current centroid (squared distance
    ``dx*dx + dy*dy <= radius*radius``, ties to the lowest index), otherwise
    it opens a new cluster. Centroids are exact arithmetic means of the
    member points (running sum over count), so early members can end up
    slightly beyond the radius after drift. Deterministic for a fixed input
    order.

    Each centroid sits in the square grid bucket that holds it, and moves
    when its drift takes it into another; a point is compared only with the
    centroids of its 3 x 3 bucket neighbourhood, so a pass costs about
    points x (clusters per neighbourhood) rather than points x clusters.
    The bucket side is at least twice the radius, so every centroid within
    the radius of the point lies in that neighbourhood, and a centroid
    outside it can be neither joined nor tied with the one joined. The
    distances are the same float operations as in a comparison with every
    centroid, so the result is the same. The side is also at least 2**-50
    of the largest coordinate, which keeps every ``x / side`` below about
    2**50, where rounding moves it by at most an eighth of a bucket, and at
    least 2**-500, above every distance whose square underflows to zero.
    With ``radius * radius`` infinite every point can join every cluster,
    and the one bucket has infinite side.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise ValueError("no points")
    pts = pts.reshape(-1, 2)
    if not np.isfinite(pts).all():
        raise ValueError("invalid point")
    if not radius > 0:
        raise ValueError("radius must be positive")
    radius = float(radius)
    r2 = radius * radius
    side = math.inf if math.isinf(r2) else max(2.0 * radius, float(np.abs(pts).max()) * 2.0**-50, 2.0**-500)

    sums_x: list[float] = []
    sums_y: list[float] = []
    counts: list[int] = []
    cx: list[float] = []
    cy: list[float] = []
    homes: list[tuple[int, int]] = []  # each cluster's bucket
    buckets: dict[tuple[int, int], list[int]] = {}
    floor = math.floor
    for lo in range(0, len(pts), CLUSTER_CHUNK):
        for px, py in pts[lo : lo + CLUSTER_CHUNK].tolist():
            bx, by = floor(px / side), floor(py / side)
            best, best_d2 = -1, r2
            for kx in (bx - 1, bx, bx + 1):
                for ky in (by - 1, by, by + 1):
                    for j in buckets.get((kx, ky), ()):
                        dx, dy = px - cx[j], py - cy[j]
                        d2 = dx * dx + dy * dy
                        if d2 < best_d2 or d2 == best_d2 and (best < 0 or j < best):
                            best, best_d2 = j, d2
            if best < 0:
                home = (bx, by)
                sums_x.append(px)
                sums_y.append(py)
                counts.append(1)
                cx.append(px)
                cy.append(py)
                homes.append(home)
                buckets.setdefault(home, []).append(len(cx) - 1)
                continue
            sums_x[best] += px
            sums_y[best] += py
            counts[best] += 1
            x = cx[best] = sums_x[best] / counts[best]
            y = cy[best] = sums_y[best] / counts[best]
            try:
                home = (floor(x / side), floor(y / side))
            except (OverflowError, ValueError):  # a running sum overflowed; it stays infinite
                raise ValueError("centroids must be finite") from None
            if home != homes[best]:
                buckets[homes[best]].remove(best)
                buckets.setdefault(home, []).append(best)
                homes[best] = home
    return CellMap(centroids=np.column_stack((cx, cy)), radius=radius)


def assign_points(points: np.ndarray, cmap: CellMap) -> np.ndarray:
    """Nearest-centroid cell ids (1-based) for an [l, 2] point array; ties go
    to the lowest index.

    Squared distances are ``dx*dx + dy*dy``, computed one axis at a time
    over a block of points against every centroid, the block sized so that
    it holds at most ``ASSIGN_BLOCK`` distances. A difference or square too
    large for a float (coordinates near 1e300) is inf, as intended: it is
    farther than every finite distance, infinite distances tie, and the tie
    goes to the lowest index like any other. numpy's overflow warnings for
    them are silenced.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if not np.isfinite(pts).all():
        raise ValueError("invalid point")
    cx, cy = cmap.centroids.T.copy()
    cells = np.empty(len(pts), dtype=np.intp)
    step = max(1, ASSIGN_BLOCK // len(cx))
    with np.errstate(over="ignore"):
        for lo in range(0, len(pts), step):
            block = pts[lo : lo + step]
            d2 = block[:, 0:1] - cx
            d2 *= d2
            dy = block[:, 1:2] - cy
            dy *= dy
            d2 += dy
            cells[lo : lo + step] = d2.argmin(axis=1)  # argmin takes the first minimum
    return cells + 1


def discretize_trajectory(tr: RawTrajectory, cmap: CellMap) -> CellSequence:
    """Map points to cells, collapse consecutive repeats, wrap with markers."""
    if len(tr) == 0:
        raise ValueError("empty trajectory")
    collapsed: list[Token] = [START]
    for c in assign_points(tr.xy, cmap).tolist():
        if c != collapsed[-1]:
            collapsed.append(c)
    collapsed.append(END)
    return CellSequence(tokens=tuple(collapsed))


def save_cellmap(path: str | Path, cmap: CellMap) -> None:
    """Versioned header, then one ``index<TAB>x<TAB>y`` row per cell."""
    rows = [f"{i}\t{x!r}\t{y!r}" for i, (x, y) in enumerate(cmap.centroids.tolist(), start=1)]
    write_table(path, cmap.version, {"radius": float(cmap.radius), "n": cmap.n_cells}, rows)


def load_cellmap(path: str | Path) -> CellMap:
    table = read_table(path, CELLMAP_VERSION, {"radius": float}, count="n")
    if not table.fields["radius"] > 0:
        raise ValueError(f"{path}:1: radius must be positive, got {table.fields['radius']!r}")
    rows = table.parse([("index", int), ("x", float), ("y", float)], key=[0])
    n = table.fields["n"]
    if bad := [i for i, row in enumerate(rows) if not 1 <= row[0] <= n]:
        raise table.error(bad[0], f"cell index {rows[bad[0]][0]} outside 1..{n}")
    if bad := [i for i, (_, x, y) in enumerate(rows) if not (math.isfinite(x) and math.isfinite(y))]:
        raise table.error(bad[0], f"centroid {rows[bad[0]][1:]} is not finite")
    return CellMap(centroids=np.array([xy for _, *xy in sorted(rows)]), radius=table.fields["radius"])
