import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellseq import corpus
from cellseq.cellspace import CellMap, RawTrajectory, cluster_points, discretize_trajectory
from cellseq.corpus import (
    AccumulationSeries,
    Dataset,
    SequenceRecord,
    TrafficLookup,
    compute_accumulation,
    discretize_split,
    load_accumulation,
    load_and_terminate,
    load_sequences,
    normalize,
    read_trajectory_rows,
    save_accumulation,
    save_sequences,
    split_indices,
    traffic_window,
    write_trajectories,
)
from cellseq.tokens import END, START

from oracles import accumulation_oracle

TWO_CELLS = CellMap(centroids=np.array([(0.0, 0.0), (1000.0, 0.0)]), radius=300.0)


def rows_for(trip_id, times, x=0.0, y=0.0):
    return [(trip_id, float(t), x, y) for t in times]


# ---------------------------------------------------------------------------
# termination


def test_no_gap_single_trip():
    trips = load_and_terminate(rows_for("d1", [0, 100, 200, 3700]))
    assert len(trips) == 1
    assert trips[0].trip_id == "d1"


def test_one_hour_rule_splits():
    trips = load_and_terminate(rows_for("d1", [0, 100, 3702, 3800]))
    assert len(trips) == 2
    assert [len(t) for t in trips] == [2, 2]
    assert trips[0].trip_id == "d1#00"
    assert trips[1].trip_id == "d1#01"


def test_exactly_3600_does_not_split():
    trips = load_and_terminate(rows_for("d1", [0, 3600]))
    assert len(trips) == 1


def test_hand_split_example():
    # gaps [100, 4000, 50] -> trips of 2 and 2 points
    trips = load_and_terminate(rows_for("d1", [0, 100, 4100, 4150]))
    assert [len(t) for t in trips] == [2, 2]


def test_unsorted_inputs_rejected():
    with pytest.raises(ValueError, match="not sorted"):
        load_and_terminate(rows_for("d1", [100, 50]))
    rows = rows_for("d1", [0]) + rows_for("d2", [0]) + rows_for("d1", [10])
    with pytest.raises(ValueError, match="not sorted"):
        load_and_terminate(rows)


def test_malformed_row_reports_line(tmp_path):
    path = tmp_path / "trips.tsv"
    path.write_text("d1\t0\t0\t0\nd1\t10\toops\t0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: ")):
        read_trajectory_rows(path)


@pytest.mark.parametrize(
    "row, message",
    [("d1\t0\t0", "expected 4 tab-separated fields, got 3"), ("d1\t0\tx\t0", "field x='x' is not float")],
    ids=["short-row", "non-numeric"],
)
def test_malformed_row_names_file_and_line(tmp_path, row, message):
    path = tmp_path / "trips.tsv"
    path.write_text(row + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:1: {message}')}$"):
        read_trajectory_rows(path)


def test_bare_trips_file_loads_without_a_count(tmp_path):
    # a file without the trips-v1 line: lines stripped, blank and # lines skipped, CRLF line ends
    path = tmp_path / "trips.tsv"
    path.write_bytes(b"# trip_id\tt\tx\ty\r\n\r\n  d1\t0\t1.5\t2\r\nd1\t60\t3\t4\n# end")
    assert read_trajectory_rows(path) == [("d1", 0.0, 1.5, 2.0), ("d1", 60.0, 3.0, 4.0)]
    path.write_bytes(b"# trip_id\tt\tx\ty\n\nd1\t0\t0\t0\nd1\tx\t0\t0")
    with pytest.raises(ValueError, match=re.escape(f"{path}:4: field t='x' is not float")):
        read_trajectory_rows(path)
    path.write_bytes(b"# trip_id\tt\tx\ty\n\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: no rows")):
        read_trajectory_rows(path)


def test_trajectory_io_roundtrip(tmp_path):
    trips = [
        RawTrajectory("a", np.array([[0.0, 1.0, 0.0], [2.0, 3.0, 60.0]])),
        RawTrajectory("b", np.array([[5.0, 5.0, 30.0]])),
        RawTrajectory("c\x0cd", np.array([[6.0, 6.0, 40.0]])),
    ]
    path = tmp_path / "trips.tsv"
    write_trajectories(path, trips)
    loaded = load_and_terminate(read_trajectory_rows(path))
    assert [t.trip_id for t in loaded] == ["a", "b", "c\x0cd"]
    np.testing.assert_allclose(loaded[0].points, trips[0].points)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_trip_field_names_its_line(tmp_path, value):
    rng = np.random.default_rng(4)
    trips = [RawTrajectory(f"t{k}", np.column_stack([rng.random((n, 2)) * 500, np.arange(n) * 30.0]))
             for k, n in enumerate([3, 1, 4])]
    path = tmp_path / "trips.tsv"
    write_trajectories(path, trips)
    lines = path.read_text().split("\n")
    for line in range(2, len(lines)):  # the rows follow the header on line 1
        for column in (1, 2, 3):
            fields = lines[line - 1].split("\t")
            fields[column] = value
            path.write_text("\n".join(lines[: line - 1] + ["\t".join(fields)] + lines[line:]))
            with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:{line}: t, x and y must be finite')}"):
                read_trajectory_rows(path)


def test_finite_rows_whose_sum_overflows_load(tmp_path):
    path = tmp_path / "trips.tsv"
    path.write_text("d1\t0\t1e308\t1e308\nd1\t60\t1.5e308\t-1e308\n")
    assert read_trajectory_rows(path) == [("d1", 0.0, 1e308, 1e308), ("d1", 60.0, 1.5e308, -1e308)]


# ---------------------------------------------------------------------------
# splits


def test_split_exact_fractions():
    assert [len(part) for part in split_indices(100, (0.8, 0.1, 0.1), seed=1)] == [80, 10, 10]


def test_split_deterministic_and_seed_sensitive():
    a = split_indices(60, (0.5, 0.25, 0.25), seed=1)
    b = split_indices(60, (0.5, 0.25, 0.25), seed=1)
    c = split_indices(60, (0.5, 0.25, 0.25), seed=2)
    assert a == b
    assert [len(part) for part in a] == [len(part) for part in c]
    assert a[0] != c[0]


def test_split_disjoint():
    indices = [i for part in split_indices(50, (0.6, 0.2, 0.2), seed=3) for i in part]
    assert sorted(indices) == list(range(50))


def test_split_rejects_bad_input():
    with pytest.raises(ValueError):
        split_indices(0, (0.8, 0.1, 0.1), seed=0)
    with pytest.raises(ValueError):
        split_indices(10, (0.8, 0.3, 0.1), seed=0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=8),
                min_size=2, max_size=12), st.integers(0, 5))
def test_discretize_split_matches_per_trip_discretization(paths, seed):
    trips = [RawTrajectory(f"t{k}", np.array([(100.0 * x, 100.0 * y, 60.0 * j) for j, (x, y) in enumerate(path)]))
             for k, path in enumerate(paths)]
    cmap, dataset = discretize_split(trips, 150.0, (0.5, 0.25, 0.25), seed)
    split = split_indices(len(trips), (0.5, 0.25, 0.25), seed)
    assert np.array_equal(cmap.centroids, cluster_points(np.concatenate([trips[i].xy for i in split[0]]), 150.0).centroids)
    expected = [tuple(SequenceRecord(trips[i].trip_id, trips[i].start_time, discretize_trajectory(trips[i], cmap).tokens)
                      for i in indices) for indices in split]
    assert dataset == Dataset(*expected)


# ---------------------------------------------------------------------------
# accumulation


def stationary_trip(trip_id, cell_xy, t0, t1, step=30.0):
    times = np.arange(t0, t1 + step, step)
    pts = np.array([[cell_xy[0], cell_xy[1], t] for t in times])
    return RawTrajectory(trip_id, pts)


def test_stationary_vehicle_counts_each_minute():
    trip = stationary_trip("v1", (0.0, 0.0), 60.0, 360.0)
    series = compute_accumulation([trip], TWO_CELLS)
    for minute in range(1, 7):
        assert series.counts[minute - series.minute0, 0] == 1
    assert series.counts[:, 1].sum() == 0


def test_two_overlapping_vehicles_add():
    trips = [
        stationary_trip("v1", (0.0, 0.0), 60.0, 300.0),
        stationary_trip("v2", (0.0, 0.0), 120.0, 360.0),
    ]
    series = compute_accumulation(trips, TWO_CELLS)
    assert series.counts[3 - series.minute0, 0] == 2  # overlap at minute 3
    assert series.counts[1 - series.minute0, 0] == 1


def test_crossing_vehicle_last_seen_rule():
    # detections: cell 1 at 0 and 180 s, cell 2 at 200 s onward
    pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 180.0], [1000.0, 0.0, 200.0], [1000.0, 0.0, 400.0]])
    series = compute_accumulation([RawTrajectory("v1", pts)], TWO_CELLS)
    for minute in (0, 1, 2, 3):  # marks at or before 180 s -> cell 1
        assert series.counts[minute - series.minute0, 0] == 1
        assert series.counts[minute - series.minute0, 1] == 0
    for minute in (4, 5, 6):  # marks after the 200 s detection -> cell 2
        assert series.counts[minute - series.minute0, 0] == 0
        assert series.counts[minute - series.minute0, 1] == 1


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=9999), n_trips=st.integers(min_value=1, max_value=12))
def test_conservation_of_vehicles(seed, n_trips):
    rng = np.random.default_rng(seed)
    trips = []
    for i in range(n_trips):
        t0 = float(rng.uniform(0, 600))
        dur = float(rng.uniform(30, 600))
        times = np.sort(rng.uniform(t0, t0 + dur, size=rng.integers(2, 8)))
        xs = rng.uniform(-100, 1100, size=len(times))
        trips.append(RawTrajectory(f"v{i}", np.array([[x, 0.0, t] for x, t in zip(xs, times)])))
    series = compute_accumulation(trips, TWO_CELLS)
    for minute in range(series.minute0, series.minute0 + series.n_minutes):
        mark = minute * 60.0
        active = sum(1 for t in trips if t.times[0] <= mark <= t.times[-1])
        assert series.counts[minute - series.minute0].sum() == active


@st.composite
def trip_sets(draw):
    """Trips over a few cells: one-point trips, trips within one minute,
    points exactly on minute marks and repeated timestamps, at offsets up
    to epoch scale."""
    base = draw(st.sampled_from([0.0, -3_600.0, 1.7e9]))
    step = draw(st.sampled_from([0.5, 1.0, 7.5, 30.0, 60.0]))
    trips = []
    for _ in range(draw(st.integers(1, 8))):
        t = base + step * draw(st.integers(-40, 120))
        rows = []
        for _ in range(draw(st.integers(1, 6))):
            t += step * draw(st.integers(0, 3))  # 0 repeats a timestamp
            rows.append((100.0 * draw(st.integers(-2, 2)), 100.0 * draw(st.integers(-2, 2)), t))
        trips.append(np.array(rows))
    return trips


CORNERS = np.array([(-100.0, -100.0), (100.0, -100.0), (-100.0, 100.0), (100.0, 100.0), (0.0, 0.0)])


@settings(deadline=None, max_examples=200)
@given(trips=trip_sets(), pad=st.integers(0, 3))
def test_accumulation_equals_oracle(trips, pad):
    series = compute_accumulation([RawTrajectory(f"v{i}", t) for i, t in enumerate(trips)],
                                  CellMap(centroids=CORNERS, radius=100.0), pad_minutes=pad)
    minute0, counts = accumulation_oracle(trips, CORNERS, pad)
    assert series.minute0 == minute0
    np.testing.assert_array_equal(series.counts, counts)
    np.testing.assert_array_equal(series.maxima, counts.max(axis=0).astype(float))


def test_accumulation_chunks_do_not_change_counts(monkeypatch):
    rng = np.random.default_rng(4)
    trips = []
    for i in range(40):
        times = np.sort(np.round(rng.uniform(0.0, 900.0, size=rng.integers(1, 9)), 1)) + 60.0 * i
        trips.append(np.column_stack((rng.uniform(-150, 150, (len(times), 2)), times)))
    raw = [RawTrajectory(f"v{i}", t) for i, t in enumerate(trips)]
    cmap = CellMap(centroids=CORNERS, radius=100.0)
    minute0, counts = accumulation_oracle(trips, CORNERS, 10)
    for chunk in (1, 3, 256):
        monkeypatch.setattr(corpus, "ACCUMULATION_CHUNK", chunk)
        series = compute_accumulation(raw, cmap)
        assert series.minute0 == minute0
        np.testing.assert_array_equal(series.counts, counts)


# ---------------------------------------------------------------------------
# normalization


def make_series(counts, maxima=None):
    counts = np.asarray(counts)
    if maxima is None:
        maxima = counts.max(axis=0).astype(float)
    return AccumulationSeries(
        cells=tuple(range(1, counts.shape[1] + 1)),
        minute0=0,
        counts=counts,
        maxima=np.asarray(maxima, dtype=float),
    )


def test_normalize_definition():
    series = make_series([[5, 0], [10, 0]])
    norm = normalize(series)
    assert norm.counts[0, 0] == 0.5
    assert norm.counts[1, 0] == 1.0
    assert np.all(norm.counts[:, 1] == 0.0)  # zero max maps to zero
    assert norm.clamped == 0


def test_normalize_clamps_and_counts():
    series = make_series([[5], [10]], maxima=[4.0])
    norm = normalize(series)
    assert np.all(norm.counts <= 1.0)
    assert norm.clamped == 2


def test_normalize_twice_rejected():
    norm = normalize(make_series([[1]]))
    with pytest.raises(ValueError):
        normalize(norm)


# ---------------------------------------------------------------------------
# traffic window


def test_traffic_window_shape_and_values():
    counts = np.zeros((30, 2), dtype=np.int64)
    counts[:, 0] = 4  # constant accumulation
    series = normalize(make_series(counts, maxima=[8.0, 1.0]))
    window = traffic_window(series, trip_start=20 * 60.0)
    assert window.shape == (2, 10)
    np.testing.assert_allclose(window[0], 0.5)  # c / max
    np.testing.assert_allclose(window[1], 0.0)


def test_traffic_window_empty_network_zero():
    series = normalize(make_series(np.zeros((15, 3), dtype=np.int64)))
    window = traffic_window(series, trip_start=12 * 60.0)
    np.testing.assert_array_equal(window, np.zeros((3, 10)))


def test_traffic_window_is_pure_lookup():
    rng = np.random.default_rng(0)
    series = normalize(make_series(rng.integers(0, 5, size=(25, 4))))
    a = traffic_window(series, 15 * 60.0)
    b = traffic_window(series, 15 * 60.0)
    np.testing.assert_array_equal(a, b)


def test_traffic_window_insufficient_history():
    series = normalize(make_series(np.zeros((15, 1), dtype=np.int64)))
    with pytest.raises(ValueError, match="insufficient history"):
        traffic_window(series, trip_start=5 * 60.0)
    with pytest.raises(ValueError, match="insufficient history"):
        traffic_window(series, trip_start=99 * 60.0)


def test_traffic_window_requires_normalized():
    with pytest.raises(ValueError):
        traffic_window(make_series(np.zeros((15, 1), dtype=np.int64)), 12 * 60.0)


def test_traffic_lookup_selects_cells():
    counts = np.zeros((20, 3), dtype=np.int64)
    counts[:, 2] = 7
    series = normalize(make_series(counts))
    lookup = TrafficLookup(series, cells=[3, 1])
    window = lookup.window(15 * 60.0)
    assert window.shape == (2, 10)
    np.testing.assert_allclose(window[0], 1.0)
    np.testing.assert_allclose(window[1], 0.0)


def test_traffic_lookup_rejects_cells_the_series_lacks():
    series = normalize(make_series(np.zeros((20, 3), dtype=np.int64)))  # cells 1, 2, 3
    with pytest.raises(ValueError, match=re.escape("accumulation series has no counts for cells [9, 4]")):
        TrafficLookup(series, cells=[1, 9, 2, 4])


def test_lookup_windows_are_read_only_views_of_one_array():
    rng = np.random.default_rng(3)
    lookup = TrafficLookup(normalize(make_series(rng.integers(0, 5, size=(40, 6)))), cells=[4, 2, 6])
    windows = [lookup.window(60.0 * minute) for minute in (15, 16, 20, 24)]  # all hold minute 14
    for w in windows:
        assert not w.flags.writeable and not w.flags.owndata and w.base is windows[0].base
        assert all(np.shares_memory(w, other) for other in windows)
        with pytest.raises(ValueError, match="read-only"):
            w[0, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            w += 1.0


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 12), st.integers(11, 40), st.integers(-50, 50), st.randoms(use_true_random=False))
def test_lookup_window_equals_the_gathered_copy(n_cells, n_minutes, minute0, random):
    rng = np.random.default_rng(random.getrandbits(32))
    counts = rng.integers(0, 7, size=(n_minutes, n_cells))
    series = normalize(AccumulationSeries(tuple(range(1, n_cells + 1)), minute0, counts,
                                          counts.max(axis=0).astype(float)))
    cells = [int(c) for c in rng.permutation(np.arange(1, n_cells + 1))[: rng.integers(1, n_cells + 1)]]
    lookup = TrafficLookup(series, cells)
    columns = [c - 1 for c in cells]
    for start in range(minute0 + 10, minute0 + n_minutes + 1):  # every start minute with ten minutes of history
        lo = start - 10 - minute0
        expected = series.counts[lo : lo + 10][:, columns].T.copy()
        window = lookup.window(start * 60.0 + rng.random() * 59.0)
        assert window.shape == expected.shape and window.tobytes() == expected.tobytes()
    with pytest.raises(ValueError, match="insufficient history"):
        lookup.window((minute0 + 9) * 60.0)
    with pytest.raises(ValueError, match="insufficient history"):
        lookup.window((minute0 + n_minutes + 1) * 60.0)


def test_lookup_windows_allocate_no_copy():
    rng = np.random.default_rng(5)
    lookup = TrafficLookup(normalize(make_series(rng.integers(0, 9, size=(200, 300)))))
    lookup.window(600.0)
    tracemalloc.start()
    try:
        windows = [lookup.window(60.0 * (10 + i % 190)) for i in range(1000)]
        allocated, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(windows) == 1000 and allocated / 1000 < 512  # a copy is 300 x 10 x 8 = 24,000 bytes


# ---------------------------------------------------------------------------
# io round trips


def test_accumulation_io_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    raw = make_series(rng.integers(0, 9, size=(12, 3)))
    path = tmp_path / "acc.tsv"
    save_accumulation(path, raw)
    loaded = load_accumulation(path)
    np.testing.assert_array_equal(loaded.counts, raw.counts)
    assert loaded.minute0 == raw.minute0
    assert not loaded.normalized

    norm = normalize(raw)
    save_accumulation(path, norm)
    loaded = load_accumulation(path)
    assert loaded.normalized
    np.testing.assert_array_equal(loaded.counts, norm.counts)
    np.testing.assert_array_equal(loaded.maxima, norm.maxima)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines[:-1], ":5: line 1 counts 5 rows after it, the file holds 4"),
        (lambda lines: lines + lines[-1:], ":7: line 1 counts 5 rows after it, the file holds 6"),
        (lambda lines: lines[:-1] + ["4\t1\t0"], ":6: expected 2 tab-separated fields, got 3"),
    ],
    ids=["truncated", "over-long", "wide-row"],
)
def test_accumulation_load_rejects_wrong_row_count(tmp_path, edit, message):
    path = tmp_path / "acc.tsv"
    save_accumulation(path, make_series(np.array([[1, 2], [3, 4], [5, 6]])))
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=f"{path}{message}"):
        load_accumulation(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: [lines[0].replace("\tn=2", "")] + lines[1:], ":1: header has no n= field"),
        (lambda lines: [lines[0].replace("\tminutes=3", "")] + lines[1:], ":1: header has no minutes= field"),
        (lambda lines: [lines[0].replace("kind=raw\t", "")] + lines[1:], ":1: header has no kind= field"),
        (lambda lines: [lines[0].replace("minute0=", "minute0=x")] + lines[1:],
         ":1: field minute0='x.*' is not int"),
        (lambda lines: [lines[0].replace("kind=raw", "kind=Raw")] + lines[1:],
         ":1: field kind='Raw' is not raw\\|normalized"),
        (lambda lines: lines[:4] + ["x\t4"] + lines[5:], ":5: field count='x' is not int"),
        (lambda lines: lines[:1] + ["cells\t1\ttwo"] + lines[2:], ":2: field cell='two' is not int"),
        (lambda lines: lines[:2] + ["maxima\t5.0\thigh"] + lines[3:], ":3: field maximum='high' is not float"),
        (lambda lines: lines[:1], ":1: line 1 counts 5 rows after it, the file holds 0"),
        (lambda lines: [lines[0], lines[2], lines[1]] + lines[3:], ":2: field label='maxima' is not cells"),
        (lambda lines: lines[:2] + ["max\t5.0\t6.0"] + lines[3:], ":3: field label='max' is not maxima"),
        (lambda lines: lines[:1] + ["cells\t1"] + lines[2:], ":2: expected 3 tab-separated fields, got 2"),
        (lambda lines: lines[:2] + ["maxima\t5.0\t6.0\t1.0"] + lines[3:],
         ":3: expected 3 tab-separated fields, got 4"),
    ],
    ids=["no-n", "no-minutes", "no-kind", "non-numeric-minute0", "unknown-kind", "non-numeric-count",
         "non-integer-cell", "non-numeric-maximum", "header-only", "rows-swapped", "bad-maxima-label",
         "short-cells", "long-maxima"],
)
def test_accumulation_load_rejects_bad_fields(tmp_path, edit, message):
    path = tmp_path / "acc.tsv"
    save_accumulation(path, make_series(np.array([[1, 2], [3, 4], [5, 6]])))
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=f"{path}{message}"):
        load_accumulation(path)


def test_accumulation_load_rejects_non_numeric_normalized_count(tmp_path):
    path = tmp_path / "acc.tsv"
    save_accumulation(path, normalize(make_series(np.array([[1, 2], [3, 4]]))))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3] + ["0.5\tnan?"] + lines[4:]) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:4: field count='nan?' is not float")):
        load_accumulation(path)


@pytest.mark.parametrize(
    "counts, row, message",
    [(np.array([[1, 2], [3, 4]]), "-1\t4", "counts must lie in [0, 2**63), got [-1, 4]"),
     (np.array([[1, 2], [3, 4]]), f"{2**63}\t4", f"counts must lie in [0, 2**63), got [{2**63}, 4]"),
     (np.array([[0.5, 1.0], [0.25, 0.0]]), "nan\t0.5", "counts must lie in [0, 1], got [nan, 0.5]"),
     (np.array([[0.5, 1.0], [0.25, 0.0]]), "1.5\t0.5", "counts must lie in [0, 1], got [1.5, 0.5]")],
    ids=["negative", "beyond-int64", "nan", "normalized-above-1"],
)
def test_accumulation_load_rejects_counts_out_of_range(tmp_path, counts, row, message):
    path = tmp_path / "acc.tsv"
    series = make_series(counts)
    save_accumulation(path, normalize(series) if counts.dtype == float else series)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:4] + [row]) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:5: {message}")):
        load_accumulation(path)


@pytest.mark.parametrize("text", ["", "cellmap-v1\tradius=1.0\tn=1\n", "sequences-v1\n"],
                         ids=["empty", "foreign", "old-sequences"])
def test_loaders_reject_foreign_first_line_naming_file(tmp_path, text):
    path = tmp_path / "other.tsv"
    path.write_text(text)
    version = repr(re.split("[\t\n]", text)[0])
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: unsupported version {version}, expected accum-v1")):
        load_accumulation(path)
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: unsupported version {version}, expected sequences-v2")):
        load_sequences(path)


def test_sequences_io_roundtrip(tmp_path):
    ds = Dataset(
        train=(SequenceRecord("a", 12.5, (START, 1, 2, END)),),
        validation=(SequenceRecord("b", 90.0, (START, 3, END)),),
        # \x0c, \x1c and \r end a line for str.splitlines, but only "\n" ends a row
        test=(SequenceRecord("c", 180.0, (START, 2, 1, 2, END)),
              SequenceRecord("d\x0ce\x1cf\rg", 200.0, (START, 3, END))),
    )
    path = tmp_path / "seqs.tsv"
    save_sequences(path, ds)
    loaded = load_sequences(path)
    assert loaded == ds


SEQUENCE_ROW_FAULTS = [  # a bad row, the fault it holds, and what the loader says of it
    ("b\ttrain\t90.0", "expected 4 tab-separated fields, got 3", "expected 4 tab-separated fields, got 3"),
    ("b\ttrain\t90.0\t3 4\textra", "expected 4 tab-separated fields, got 5", "expected 4 tab-separated fields, got 5"),
    ("b\ttrain\t90.0\t3 x", "non-integer cell id", "field cells='3 x' is not cell_tokens"),
    ("b\ttrain\t90.0\t3 4.5", "non-integer cell id", "field cells='3 4.5' is not cell_tokens"),
    ("b\ttrain\tnoon\t3", "non-numeric start time", "field start='noon' is not float"),
    ("b\ttrian\t90.0\t3", "unknown split 'trian'", "field split='trian' is not train|validation|test"),
    ("a\ttest\t90.0\t3", "repeated trip_id 'a', first on line 2", "repeated trip_id 'a', first on line 2"),
    ("", "blank line", "expected 4 tab-separated fields, got 1"),
]


@pytest.mark.parametrize("row, message", [(row, message) for row, _, message in SEQUENCE_ROW_FAULTS],
                         ids=[f"{row}-{fault}" for row, fault, _ in SEQUENCE_ROW_FAULTS])
def test_sequences_malformed_row_names_file_and_line(tmp_path, row, message):
    path = tmp_path / "seqs.tsv"
    path.write_text(f"sequences-v2\trows=2\na\ttrain\t12.5\t1 2\n{row}\n")  # the bad row on line 3
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: {message}")):
        load_sequences(path)

