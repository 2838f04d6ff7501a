"""Dataset management: trajectory loading with trip termination, splits,
and the network traffic state built from vehicle accumulation counts. The
training split alone decides the cell map, the vocabulary and the
accumulation maxima; ``build`` applies that policy to a set of trips.

A vehicle counts toward a cell at a minute mark when its trip interval
covers that instant and its most recent point at or before it maps to the
cell (piecewise-constant occupancy between detections).
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._files import atomic_open
from .cellspace import (CellMap, RawTrajectory, assign_points, cluster_points, discretize_trajectory,
                        header_fields)
from .tokens import END, START, Token, Vocab

ACCUMULATION_VERSION = "accum-v1"
TRIP_GAP_SECONDS = 3600.0
WINDOW_MINUTES = 10
ACCUMULATION_CHUNK = 256  # trips per vectorized pass of compute_accumulation

Row = tuple[str, float, float, float]  # trip_id, t, x, y


@dataclass(frozen=True)
class SequenceRecord:
    """One discretized trip: id, departure time, full token sequence."""

    trip_id: str
    start_time: float
    tokens: tuple[Token, ...]

    @property
    def m(self) -> int:
        return len(self.tokens) - 2


@dataclass(frozen=True)
class Dataset:
    train: tuple[SequenceRecord, ...]
    validation: tuple[SequenceRecord, ...]
    test: tuple[SequenceRecord, ...]

    def all(self) -> tuple[SequenceRecord, ...]:
        return self.train + self.validation + self.test

    def sizes(self) -> tuple[int, int, int]:
        return (len(self.train), len(self.validation), len(self.test))


def read_trajectory_rows(path: str | Path) -> list[Row]:
    """Parse the point file: one ``trip_id<TAB>t<TAB>x<TAB>y`` row per line."""
    rows: list[Row] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: malformed row: expected 4 fields, got {len(parts)}")
            try:
                rows.append((parts[0], float(parts[1]), float(parts[2]), float(parts[3])))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed row: non-numeric field") from None
    return rows


def write_trajectories(path: str | Path, trips: Iterable[RawTrajectory]) -> None:
    with atomic_open(path) as fh:
        fh.write("# trip_id\tt\tx\ty\n")
        for trip in trips:
            tid = trip.trip_id
            fh.write("".join([f"{tid}\t{t!r}\t{x!r}\t{y!r}\n" for x, y, t in trip.points.tolist()]))


def load_and_terminate(rows: Sequence[Row], gap_seconds: float = TRIP_GAP_SECONDS) -> list[RawTrajectory]:
    """Group rows by device and cut a new trip wherever the time gap between
    consecutive points exceeds ``gap_seconds``."""
    trips: list[RawTrajectory] = []
    seen: set[str] = set()
    i = 0
    n = len(rows)
    while i < n:
        device = rows[i][0]
        if device in seen:
            raise ValueError(f"input not sorted: trip id {device!r} appears in separate blocks")
        seen.add(device)
        j = i
        while j < n and rows[j][0] == device:
            if j > i and rows[j][1] < rows[j - 1][1]:
                raise ValueError(f"input not sorted: time decreases within {device!r}")
            j += 1
        block = rows[i:j]
        part = 0
        seg_start = 0
        for k in range(1, len(block) + 1):
            if k == len(block) or block[k][1] - block[k - 1][1] > gap_seconds:
                pts = np.array([(x, y, t) for _, t, x, y in block[seg_start:k]])
                suffix = f"#{part:02d}" if (seg_start > 0 or k < len(block)) else ""
                trips.append(RawTrajectory(trip_id=device + suffix, points=pts))
                part += 1
                seg_start = k
        i = j
    return trips


def split_indices(
    n: int, fractions: tuple[float, float, float], seed: int
) -> tuple[list[int], list[int], list[int]]:
    """Disjoint index assignment for n items under a seeded shuffle."""
    if n < 1:
        raise ValueError("no sequences to split")
    if len(fractions) != 3 or any(f < 0 for f in fractions) or sum(fractions) > 1.0 + 1e-9:
        raise ValueError("fractions must be three non-negative values summing to at most 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    counts = [int(n * f) for f in fractions]
    remainder = min(n, round(n * sum(fractions))) - sum(counts)
    for i in range(len(counts)):
        if remainder <= 0:
            break
        counts[i] += 1
        remainder -= 1
    cut1, cut2 = counts[0], counts[0] + counts[1]
    cut3 = cut2 + counts[2]
    return (
        [int(i) for i in order[:cut1]],
        [int(i) for i in order[cut1:cut2]],
        [int(i) for i in order[cut2:cut3]],
    )


def discretize_split(
    trips: Sequence[RawTrajectory], radius: float, fractions: tuple[float, float, float], seed: int
) -> tuple[CellMap, Dataset]:
    """Split the trips under ``seed``, cluster the training points into a
    cell map, and discretize every trip into its split.

    The training points are concatenated in split order, which the greedy
    clustering depends on.
    """
    split = split_indices(len(trips), fractions, seed)
    if not split[0]:
        raise ValueError("training split is empty; cannot build a cell map")
    cmap = cluster_points(np.concatenate([trips[i].xy for i in split[0]]), radius=radius)

    def record(trip: RawTrajectory) -> SequenceRecord:
        return SequenceRecord(trip.trip_id, trip.start_time, discretize_trajectory(trip, cmap).tokens)

    return cmap, Dataset(*(tuple(record(trips[i]) for i in indices) for indices in split))


def train_vocab(dataset: Dataset) -> Vocab:
    """Vocabulary over the cells visited in the training split."""
    cells = {t for rec in dataset.train for t in rec.tokens if isinstance(t, int)}
    if not cells:
        raise ValueError("training split has no cells")
    return Vocab(cells)


@dataclass(frozen=True)
class AccumulationSeries:
    """Per-minute vehicle counts per cell, plus per-cell historical maxima.

    ``counts[i, j]`` is the value at minute ``minute0 + i`` for cell
    ``cells[j]``. Raw series hold integer counts; normalized series hold
    values in [0, 1] with the maxima they were divided by.
    """

    cells: tuple[int, ...]
    minute0: int
    counts: np.ndarray
    maxima: np.ndarray
    normalized: bool = False
    clamped: int = 0

    def __post_init__(self):
        if self.counts.ndim != 2 or self.counts.shape[1] != len(self.cells):
            raise ValueError("counts must be [minutes, n_cells]")
        if self.maxima.shape != (len(self.cells),):
            raise ValueError("one maximum per cell required")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")

    @property
    def n_minutes(self) -> int:
        return self.counts.shape[0]


def compute_accumulation(
    trips: Sequence[RawTrajectory],
    cmap: CellMap,
    pad_minutes: int = WINDOW_MINUTES,
) -> AccumulationSeries:
    """Count vehicles present per cell at every epoch-minute mark.

    The series is padded ``pad_minutes`` before the earliest trip so that a
    traffic window is available for every trip start. Maxima are the
    column-wise peaks of this series.

    A trip's marks run from ceil(first time / 60) to floor(last time / 60).
    Trips are taken ``ACCUMULATION_CHUNK`` at a time: their points are
    assigned to cells in one call, one ``searchsorted`` over the keys
    ``trip + 1j * time`` (numpy orders complex numbers by real, then
    imaginary part) finds each mark's most recent point at or before it
    within its own trip, and one ``np.add.at`` adds the marks to the counts
    (a ``bincount`` would allocate a whole series per chunk).
    A mark can precede its trip's first point only when the start time
    divided by 60 underflows; it then takes the first point.
    """
    n_cells = cmap.n_cells
    cells = tuple(range(1, n_cells + 1))
    if not trips:
        counts = np.zeros((pad_minutes + 1, n_cells), dtype=np.int64)
        return AccumulationSeries(cells, 0, counts, counts.max(axis=0).astype(float))

    first = min(int(np.floor(t.start_time / 60.0)) for t in trips)
    last = max(int(np.floor(t.times[-1] / 60.0)) for t in trips)
    minute0 = first - pad_minutes
    counts = np.zeros((last - minute0 + 1, n_cells), dtype=np.int64)
    flat = counts.reshape(-1)
    for lo in range(0, len(trips), ACCUMULATION_CHUNK):
        chunk = trips[lo : lo + ACCUMULATION_CHUNK]
        points = np.concatenate([trip.points for trip in chunk])
        lengths = np.array([len(trip) for trip in chunk])
        ends = np.cumsum(lengths)
        starts = ends - lengths
        times = points[:, 2]
        m_lo = np.ceil(times[starts] / 60.0).astype(np.int64)
        n_marks = np.maximum(np.floor(times[ends - 1] / 60.0).astype(np.int64) - m_lo + 1, 0)
        trip_of_mark = np.repeat(np.arange(len(chunk)), n_marks)
        minute = np.arange(n_marks.sum()) + np.repeat(m_lo - (np.cumsum(n_marks) - n_marks), n_marks)
        keys = np.repeat(np.arange(len(chunk)), lengths) + 1j * times
        idx = np.searchsorted(keys, trip_of_mark + 1j * (minute * 60.0), side="right") - 1
        idx = np.maximum(idx, starts[trip_of_mark])
        pcells = assign_points(points[:, :2], cmap)
        np.add.at(flat, (minute - minute0) * n_cells + pcells[idx] - 1, 1)
    return AccumulationSeries(cells, minute0, counts, counts.max(axis=0).astype(float))


def normalize(series: AccumulationSeries, maxima: np.ndarray | None = None) -> AccumulationSeries:
    """Divide each cell's counts by its historical maximum, clamped to [0, 1].

    Cells with zero maximum map to zero everywhere. Counts above the maximum
    (possible when maxima come from a training period) clamp to 1 and are
    counted on the result.
    """
    if series.normalized:
        raise ValueError("series already normalized")
    maxima = series.maxima if maxima is None else np.asarray(maxima, dtype=float)
    if maxima.shape != (len(series.cells),):
        raise ValueError("one maximum per cell required")
    safe = np.where(maxima > 0, maxima, 1.0)
    values = series.counts / safe
    values[:, maxima == 0] = 0.0
    clamped = int(np.sum(values > 1.0))
    values = np.clip(values, 0.0, 1.0)
    return AccumulationSeries(
        cells=series.cells,
        minute0=series.minute0,
        counts=values,
        maxima=maxima.copy(),
        normalized=True,
        clamped=clamped,
    )


def normalized_accumulation(
    trips: Sequence[RawTrajectory], cmap: CellMap, dataset: Dataset
) -> AccumulationSeries:
    """The full-period series, normalized by the maxima of the training trips
    (the trips whose ids are in ``dataset.train``)."""
    train_ids = {rec.trip_id for rec in dataset.train}
    train_series = compute_accumulation([t for t in trips if t.trip_id in train_ids], cmap)
    return normalize(compute_accumulation(trips, cmap), maxima=train_series.maxima)


def traffic_window(series: AccumulationSeries, trip_start: float, columns: Sequence[int] | None = None) -> np.ndarray:
    """Normalized [N, 10] tensor for the ten minutes before the trip start.

    Rows are the series' cells at the indices ``columns`` (default: every
    cell, in series order); a row holds minutes start-10 .. start-1 in
    chronological order.
    """
    if not series.normalized:
        raise ValueError("traffic window requires a normalized series")
    start_minute = int(np.floor(trip_start / 60.0))
    lo = start_minute - WINDOW_MINUTES - series.minute0
    hi = start_minute - series.minute0
    if lo < 0 or hi > series.n_minutes:
        raise ValueError("insufficient history")
    block = series.counts[lo:hi]  # [10, n_cells]
    if columns is not None:
        block = block[:, columns]
    return block.T.copy()


class TrafficLookup:
    """Window extractor bound to a normalized series and an active-cell order.
    Every cell must have a column in the series."""

    def __init__(self, series: AccumulationSeries, cells: Sequence[int] | None = None):
        if not series.normalized:
            raise ValueError("traffic lookup requires a normalized series")
        self.series = series
        self.cells = tuple(cells) if cells is not None else series.cells
        column = {c: i for i, c in enumerate(series.cells)}
        missing = [c for c in self.cells if c not in column]
        if missing:
            raise ValueError(f"accumulation series has no counts for cells {missing}")
        self._columns = np.array([column[c] for c in self.cells], dtype=np.intp)

    def window(self, trip_start: float) -> np.ndarray:
        return traffic_window(self.series, trip_start, self._columns)


def build(
    trips: Sequence[RawTrajectory], radius: float, fractions: tuple[float, float, float], seed: int
) -> tuple[Dataset, Vocab, TrafficLookup]:
    """The corpus the models train on: the split cell sequences, the
    training vocabulary, and the traffic windows over its cells."""
    cmap, dataset = discretize_split(trips, radius, fractions, seed)
    vocab = train_vocab(dataset)
    return dataset, vocab, TrafficLookup(normalized_accumulation(trips, cmap, dataset), vocab.cells)


def save_accumulation(path: str | Path, series: AccumulationSeries) -> None:
    """Versioned header, per-cell maxima, then one row of counts per minute."""
    kind = "normalized" if series.normalized else "raw"
    lines = [
        f"{ACCUMULATION_VERSION}\tkind={kind}\tn={len(series.cells)}"
        f"\tminute0={series.minute0}\tminutes={series.n_minutes}\tclamped={series.clamped}"
    ]
    lines.append("cells\t" + "\t".join(str(c) for c in series.cells))
    lines.append("maxima\t" + "\t".join(repr(float(v)) for v in series.maxima))
    value = float if series.normalized else int  # repr of an int is its str
    for row in series.counts:
        lines.append("\t".join([repr(value(v)) for v in row.tolist()]))
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def load_accumulation(path: str | Path) -> AccumulationSeries:
    lines = Path(path).read_text().splitlines()
    header = lines[0].split("\t") if lines else [""]
    if header[0] != ACCUMULATION_VERSION:
        raise ValueError(f"{path}:1: unsupported accumulation version: {header[0]!r}")
    fields = header_fields(path, header[1:], {"kind": str, "n": int, "minute0": int, "minutes": int,
                                              "clamped": int}, defaults={"clamped": "0"})
    normalized = fields["kind"] == "normalized"
    n, minutes = fields["n"], fields["minutes"]
    if len(lines) < 3:
        raise ValueError(f"{path}:{len(lines)}: file ends before the cells and maxima rows")
    cells_row, maxima_row = lines[1].split("\t"), lines[2].split("\t")
    for lineno, label, row in ((2, "cells", cells_row), (3, "maxima", maxima_row)):
        if row[0] != label:
            raise ValueError(f"{path}:{lineno}: expected the {label} row, got {row[0]!r}")
        if len(row) - 1 != n:
            raise ValueError(f"{path}:{lineno}: {label} row has {len(row) - 1} value(s), header says n={n}")
    try:
        cells = tuple(int(c) for c in cells_row[1:])
    except ValueError:
        raise ValueError(f"{path}:2: non-integer cell id in {lines[1]!r}") from None
    try:
        maxima = np.array([float(v) for v in maxima_row[1:]])
    except ValueError:
        raise ValueError(f"{path}:3: non-numeric maximum in {lines[2]!r}") from None
    found = len(lines) - 3
    if found < minutes:
        raise ValueError(f"{path}:{len(lines)}: file ends after {found} of {minutes} count rows")
    if found > minutes:
        raise ValueError(f"{path}:{4 + minutes}: {found - minutes} row(s) beyond the {minutes} count rows")
    dtype = float if normalized else np.int64
    counts = np.empty((minutes, n), dtype=dtype)
    for i, line in enumerate(lines[3:]):
        row = line.split("\t")
        if len(row) != n:
            raise ValueError(f"{path}:{4 + i}: expected {n} counts, got {len(row)}")
        try:
            counts[i] = [dtype(v) for v in row]
        except (ValueError, OverflowError):
            raise ValueError(f"{path}:{4 + i}: non-numeric count in {line!r}") from None
    return AccumulationSeries(cells, minute0=fields["minute0"], counts=counts, maxima=maxima,
                              normalized=normalized, clamped=fields["clamped"])


SEQUENCES_VERSION = "sequences-v1"


def save_sequences(path: str | Path, dataset: Dataset) -> None:
    """One row per trip: id, split, start time, space-joined interior cells."""
    lines = [f"{SEQUENCES_VERSION}"]
    for split_name in ("train", "validation", "test"):
        for rec in getattr(dataset, split_name):
            cells = " ".join(str(t) for t in rec.tokens[1:-1])
            lines.append(f"{rec.trip_id}\t{split_name}\t{rec.start_time!r}\t{cells}")
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def load_sequences(path: str | Path) -> Dataset:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != SEQUENCES_VERSION:
        raise ValueError(f"{path}:1: unsupported sequences file")
    buckets: dict[str, list[SequenceRecord]] = {"train": [], "validation": [], "test": []}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 tab-separated fields, got {len(fields)}")
        trip_id, split_name, start, cells = fields
        if split_name not in buckets:
            raise ValueError(f"{path}:{lineno}: unknown split {split_name!r}")
        first = first_line.setdefault(trip_id, lineno)
        if first != lineno:
            raise ValueError(f"{path}:{lineno}: repeated trip_id {trip_id!r}, first on line {first}")
        try:
            tokens = (START, *map(int, cells.split()), END)
            buckets[split_name].append(SequenceRecord(trip_id, float(start), tokens))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric start time or non-integer cell id") from None
    return Dataset(
        train=tuple(buckets["train"]),
        validation=tuple(buckets["validation"]),
        test=tuple(buckets["test"]),
    )
