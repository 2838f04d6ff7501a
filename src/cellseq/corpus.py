"""Dataset management: trajectory loading with trip termination, splits,
and the network traffic state built from vehicle accumulation counts. The
training split alone decides the cell map, the vocabulary and the
accumulation maxima; ``build`` applies that policy to a set of trips.

A vehicle counts toward a cell at a minute mark when its trip interval
covers that instant and its most recent point at or before it maps to the
cell (piecewise-constant occupancy between detections).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from ._files import one_of, read_table, write_table
from .cellspace import CellMap, RawTrajectory, assign_points, cluster_points, discretize_trajectory
from .tokens import END, START, Token, Vocab

ACCUMULATION_VERSION = "accum-v1"
SEQUENCES_VERSION = "sequences-v2"
TRIPS_VERSION = "trips-v1"
SPLITS = ("train", "validation", "test")  # the fields of Dataset
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
    """The rows of a trips file, one ``trip_id<TAB>t<TAB>x<TAB>y`` per line
    with t, x and y finite, each trip's rows in one block in time order. A
    file without the ``trips-v1`` header line is read as bare rows, with no
    count to check."""
    table = read_table(path, TRIPS_VERSION, {}, bare=True)
    rows = table.parse([("trip_id", str), ("t", float), ("x", float), ("y", float)])
    txy = np.fromiter(rows, "O,f8,f8,f8", len(rows))  # one pass, cheaper than a finiteness check per field
    if bad := np.flatnonzero(~np.isfinite([txy["f1"], txy["f2"], txy["f3"]]).all(axis=0)).tolist():
        raise table.error(bad[0], f"t, x and y must be finite, got {rows[bad[0]][1:]}")
    _trip_blocks(rows, table.error)
    return rows


def write_trajectories(path: str | Path, trips: Iterable[RawTrajectory]) -> None:
    trips = list(trips)
    blocks = ("\n".join([f"{trip.trip_id}\t{t!r}\t{x!r}\t{y!r}" for x, y, t in trip.points.tolist()]) for trip in trips)
    write_table(path, TRIPS_VERSION, {"rows": sum(map(len, trips))}, blocks)  # one block of rows per trip


def _trip_blocks(rows: Sequence[Row],
                 error: Callable[[int, str], ValueError] = lambda j, m: ValueError(m)) -> list[int]:
    """Where each trip id's block of rows starts. A row out of the order trip
    rows keep (each trip id in one block, its times non-decreasing) raises
    ``error(its index, what is wrong)``."""
    seen: set[str] = set()
    starts: list[int] = []
    last_id, last_t = None, 0.0
    for j, (trip_id, t, _, _) in enumerate(rows):
        if trip_id != last_id:
            if trip_id in seen:
                raise error(j, f"input not sorted: trip id {trip_id!r} appears in separate blocks")
            seen.add(trip_id)
            starts.append(j)
        elif t < last_t:
            raise error(j, f"input not sorted: time decreases within {trip_id!r}")
        last_id, last_t = trip_id, t
    return starts


def load_and_terminate(rows: Sequence[Row], gap_seconds: float = TRIP_GAP_SECONDS) -> list[RawTrajectory]:
    """Group rows by device and cut a new trip wherever the time gap between
    consecutive points exceeds ``gap_seconds``."""
    starts = _trip_blocks(rows)
    trips: list[RawTrajectory] = []
    for a, b in zip(starts, [*starts[1:], len(rows)]):
        block = rows[a:b]
        cuts = [k for k in range(1, len(block)) if block[k][1] - block[k - 1][1] > gap_seconds]
        for part, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, len(block)])):
            pts = np.array([(x, y, t) for _, t, x, y in block[lo:hi]])
            trips.append(RawTrajectory(trip_id=block[0][0] + (f"#{part:02d}" if cuts else ""), points=pts))
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
    value = float if series.normalized else int  # repr of an int is its str
    rows = ["\t".join(["cells", *map(str, series.cells)]), "\t".join(["maxima", *map(repr, series.maxima.tolist())])]
    rows += ["\t".join([repr(value(v)) for v in row.tolist()]) for row in series.counts]
    fields = {"kind": "normalized" if series.normalized else "raw", "n": len(series.cells),
              "minute0": series.minute0, "minutes": series.n_minutes, "clamped": series.clamped}
    write_table(path, ACCUMULATION_VERSION, fields, rows)


def load_accumulation(path: str | Path) -> AccumulationSeries:
    table = read_table(path, ACCUMULATION_VERSION, {"kind": one_of("raw", "normalized"), "n": int, "minute0": int,
                                                    "clamped": int}, count="minutes", head=2)
    n, normalized = table.fields["n"], table.fields["kind"] == "normalized"
    if table.fields["clamped"] < 0:
        raise ValueError(f"{path}:1: clamped must be >= 0, got {table.fields['clamped']}")
    [(_, *cells)] = table.parse([("label", one_of("cells"))] + [("cell", int)] * n, 0, 1)
    [(_, *maxima)] = table.parse([("label", one_of("maxima"))] + [("maximum", float)] * n, 1, 2)
    if bad := [m for m in maxima if not 0 <= m < math.inf]:  # NaN too
        raise table.error(1, f"maxima must be finite and >= 0, got {bad[0]!r}")
    columns, shape = [("count", float if normalized else int)] * n, (table.fields["minutes"], n)
    try:  # block by block, never holding every count as a Python number
        values = itertools.chain.from_iterable(itertools.chain.from_iterable(table.blocks(columns, 2)))
        counts = np.fromiter(values, float if normalized else np.int64, shape[0] * n).reshape(shape)
    except OverflowError:  # a raw count beyond int64, which the check below finds
        counts = np.array(table.parse(columns, 2), dtype=object).reshape(shape)
    top, span = (1, "[0, 1]") if normalized else (2**63 - 1, "[0, 2**63)")
    if bad := np.flatnonzero(~((counts >= 0) & (counts <= top)).all(axis=1)).tolist():  # NaN fails both
        raise table.error(2 + bad[0], f"counts must lie in {span}, got {counts[bad[0]].tolist()}")
    return AccumulationSeries(tuple(cells), minute0=table.fields["minute0"], counts=counts, maxima=np.array(maxima),
                              normalized=normalized, clamped=table.fields["clamped"])


def save_sequences(path: str | Path, dataset: Dataset) -> None:
    """One row per trip: id, split, start time, space-joined interior cells."""
    rows = [f"{rec.trip_id}\t{split_name}\t{rec.start_time!r}\t{' '.join(map(str, rec.tokens[1:-1]))}"
            for split_name in SPLITS for rec in getattr(dataset, split_name)]
    write_table(path, SEQUENCES_VERSION, {"rows": len(rows)}, rows)


def load_sequences(path: str | Path) -> Dataset:
    table = read_table(path, SEQUENCES_VERSION, {})
    columns = [("trip_id", str), ("split", one_of(*SPLITS)), ("start", float), ("cells", cell_tokens)]
    buckets: dict[str, list[SequenceRecord]] = {name: [] for name in SPLITS}
    for i, (trip_id, split_name, start, tokens) in enumerate(table.parse(columns, key=[0])):
        if not math.isfinite(start):
            raise table.error(i, f"start time {start!r} is not finite")
        if min(tokens[1:-1], default=1) < 1:
            raise table.error(i, f"cell id {min(tokens[1:-1])} is below 1")
        buckets[split_name].append(SequenceRecord(trip_id, start, tokens))
    return Dataset(**{name: tuple(records) for name, records in buckets.items()})


def cell_tokens(text: str) -> tuple[Token, ...]:
    """The tokens of a sequence whose cells ``text`` lists, space-separated."""
    return (START, *map(int, text.split()), END)
