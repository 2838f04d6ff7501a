"""Spatial discretization: raw (x, y) traces into cell sequences.

Cells come from a radius-bounded greedy clustering of trajectory points.
Assignment of a point to a cell is nearest-centroid (the Voronoi rule),
so no explicit polygon construction is needed.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ._files import atomic_open
from .tokens import END, START, Token, is_virtual

CELLMAP_VERSION = "cellmap-v1"


@dataclass(frozen=True)
class RawTrajectory:
    """One trip: ordered (x, y, t) points, meters east/north and epoch seconds."""

    trip_id: str
    points: np.ndarray  # shape [l, 3], columns x, y, t

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
            raise ValueError("trajectory needs a non-empty [l, 3] point array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("invalid point")
        if np.any(np.diff(pts[:, 2]) < 0):
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
        if self.radius <= 0:
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
    ``radius`` of that cluster's current centroid, otherwise it opens a new
    cluster. Centroids are exact arithmetic means of the member points, so
    early members can end up slightly beyond the radius after drift.
    Deterministic for a fixed input order.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise ValueError("no points")
    pts = pts.reshape(-1, 2)
    if not np.all(np.isfinite(pts)):
        raise ValueError("invalid point")
    if radius <= 0:
        raise ValueError("radius must be positive")

    cap = 16
    sums = np.zeros((cap, 2))
    counts = np.zeros(cap, dtype=np.int64)
    cents = np.zeros((cap, 2))
    n = 0
    for p in pts:
        if n > 0:
            d2 = np.sum((cents[:n] - p) ** 2, axis=1)
            j = int(np.argmin(d2))
            if d2[j] <= radius * radius:
                sums[j] += p
                counts[j] += 1
                cents[j] = sums[j] / counts[j]
                continue
        if n == cap:
            cap *= 2
            sums = np.resize(sums, (cap, 2))
            counts = np.resize(counts, cap)
            cents = np.resize(cents, (cap, 2))
        sums[n] = p
        counts[n] = 1
        cents[n] = p
        n += 1
    return CellMap(centroids=cents[:n].copy(), radius=float(radius))


def assign_points(points: np.ndarray, cmap: CellMap) -> np.ndarray:
    """Nearest-centroid cell ids (1-based) for an [l, 2] point array; ties go
    to the lowest index."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(pts)):
        raise ValueError("invalid point")
    d2 = np.sum((pts[:, None, :] - cmap.centroids[None, :, :]) ** 2, axis=2)
    return np.argmin(d2, axis=1) + 1  # argmin takes the first minimum


def discretize_trajectory(tr: RawTrajectory, cmap: CellMap) -> CellSequence:
    """Map points to cells, collapse consecutive repeats, wrap with markers."""
    if len(tr) == 0:
        raise ValueError("empty trajectory")
    cells = assign_points(tr.xy, cmap)
    collapsed: list[Token] = [START]
    for c in cells:
        if collapsed[-1] != int(c):
            collapsed.append(int(c))
    collapsed.append(END)
    return CellSequence(tokens=tuple(collapsed))


def save_cellmap(path: str | Path, cmap: CellMap) -> None:
    """Versioned header, then one ``index<TAB>x<TAB>y`` row per cell."""
    lines = [f"{cmap.version}\tradius={float(cmap.radius)!r}\tn={cmap.n_cells}"]
    for i, (x, y) in enumerate(cmap.centroids, start=1):
        lines.append(f"{i}\t{float(x)!r}\t{float(y)!r}")
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def header_fields(
    path: str | Path, parts: Sequence[str], types: Mapping[str, Callable[[str], object]],
    defaults: Mapping[str, str] | None = None,
) -> dict[str, object]:
    """Typed ``key=value`` fields of a header line (line 1 of ``path``).

    Every key of ``types`` must be present or have a default; unknown keys
    are ignored. A part without ``=``, a missing key or a value its type
    rejects raises ValueError naming ``path:1``.
    """
    raw = dict(defaults or {})
    for part in parts:
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"{path}:1: header field {part!r} is not key=value")
        raw[key] = value
    fields = {}
    for key, kind in types.items():
        if key not in raw:
            raise ValueError(f"{path}:1: header has no {key}= field")
        try:
            fields[key] = kind(raw[key])
        except ValueError:
            raise ValueError(f"{path}:1: header field {key}={raw[key]!r} is not {kind.__name__}") from None
    return fields


def load_cellmap(path: str | Path) -> CellMap:
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}:1: empty cell map file")
    header = lines[0].split("\t")
    if not header or header[0] != CELLMAP_VERSION:
        raise ValueError(f"{path}:1: unsupported cell map version: {lines[0]!r}")
    fields = header_fields(path, header[1:], {"radius": float, "n": int})
    radius, n = fields["radius"], fields["n"]
    cents = np.zeros((n, 2))
    seen: set[int] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            idx, x, y = line.split("\t")
            i, xy = int(idx), (float(x), float(y))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected index<TAB>x<TAB>y") from None
        if not 1 <= i <= n:
            raise ValueError(f"{path}:{lineno}: cell index {i} outside 1..{n}")
        if i in seen:
            raise ValueError(f"{path}:{lineno}: duplicate cell index {i}")
        seen.add(i)
        cents[i - 1] = xy
    if len(seen) < n:
        missing = min(set(range(1, n + 1)) - seen)
        raise ValueError(f"{path}:{len(lines)}: file ends after {len(seen)} of {n} cells; "
                         f"cell {missing} has no row")
    return CellMap(centroids=cents, radius=radius)
