import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellseq import cellspace
from cellseq.cellspace import (
    CellMap,
    CellSequence,
    RawTrajectory,
    assign_points,
    cluster_points,
    discretize_trajectory,
    load_cellmap,
    save_cellmap,
)
from cellseq.models import make_example
from cellseq.tokens import END, START, Vocab

from oracles import greedy_clusters_oracle, nearest_cell_oracle


def make_traj(points_xy, t0=0.0, dt=10.0, trip_id="t0"):
    pts = [(x, y, t0 + i * dt) for i, (x, y) in enumerate(points_xy)]
    return RawTrajectory(trip_id=trip_id, points=np.array(pts))


# ---------------------------------------------------------------------------
# clustering


def test_cluster_single_point():
    cmap = cluster_points([(0.0, 0.0)], radius=300.0)
    assert cmap.n_cells == 1
    np.testing.assert_allclose(cmap.centroids[0], (0.0, 0.0))


def test_cluster_separation_forces_split():
    cmap = cluster_points([(0.0, 0.0), (1000.0, 0.0)], radius=300.0)
    assert cmap.n_cells == 2


def test_cluster_merges_nearby_points():
    cmap = cluster_points([(0.0, 0.0), (100.0, 0.0), (50.0, 10.0)], radius=300.0)
    assert cmap.n_cells == 1
    np.testing.assert_allclose(cmap.centroids[0], (50.0, 10.0 / 3.0))


def test_cluster_empty_and_invalid():
    with pytest.raises(ValueError, match="no points"):
        cluster_points(np.empty((0, 2)), radius=10.0)
    with pytest.raises(ValueError, match="invalid point"):
        cluster_points([(np.nan, 0.0)], radius=10.0)
    with pytest.raises(ValueError):
        cluster_points([(0.0, 0.0)], radius=0.0)
    with pytest.raises(ValueError, match="radius must be positive"):
        cluster_points([(0.0, 0.0)], radius=float("nan"))


@pytest.mark.parametrize("radius", [0.0, -1.0, float("nan")])
def test_cellmap_rejects_a_radius_that_is_not_positive(radius):
    with pytest.raises(ValueError, match="radius must be positive"):
        cellspace.CellMap(centroids=np.zeros((1, 2)), radius=radius)


points_strategy = st.lists(
    st.tuples(
        st.floats(min_value=-5000, max_value=5000),
        st.floats(min_value=-5000, max_value=5000),
    ),
    min_size=1,
    max_size=60,
)


@settings(deadline=None, max_examples=60)
@given(points=points_strategy, radius=st.floats(min_value=50, max_value=1500))
def test_cluster_centroid_is_exact_mean_and_coverage(points, radius):
    pts = np.array(points)
    cmap = cluster_points(pts, radius)
    np.testing.assert_array_equal(cmap.centroids, greedy_clusters_oracle(pts, radius))
    # coverage: every point within 1.5 R of its nearest centroid
    d = np.sqrt(np.sum((pts[:, None, :] - cmap.centroids[None]) ** 2, axis=2)).min(axis=1)
    assert np.all(d <= 1.5 * radius + 1e-9)


@st.composite
def lattice_cases(draw):
    """(points, radius): points on a lattice whose spacing is a simple
    multiple of the radius, so that many lie exactly at radius distance of
    each other, shifted by an offset of up to 1e300, repeated and shuffled.
    Some spacings are far above tiny radii but square to below the smallest
    float, so those points join despite the gap."""
    radius = draw(st.one_of(st.sampled_from([1e-300, 1e-200, 1e-6, 0.75, 1.0, 1.5, 135.0, 1e6]),
                            st.floats(min_value=1e-300, max_value=1e6)))
    if radius < 1e-150 and draw(st.booleans()):
        spacing = draw(st.sampled_from([1e-200, 1e-170, 1e-162, 1e-160]))
    else:
        spacing = radius * draw(st.sampled_from([0.5, 0.75, 1.0, 1.5, 2.0, 3.0]))
    offset = draw(st.sampled_from([0.0, 1e6, -1e6, 1e12, 1e50, 1e150, -1e300, 1e300]))
    cell = st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.sampled_from([0.0, 0.25, 0.5]))
    base = [(offset + spacing * (i + f), offset + spacing * (j - f)) for i, j, f in draw(st.lists(cell, min_size=1))]
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=80))
    return [base[k] for k in picks], radius


@settings(deadline=None, max_examples=300)
@given(case=lattice_cases())
def test_cluster_and_assign_equal_oracles_bit_for_bit(case):
    points, radius = case
    cmap = cluster_points(points, radius)
    np.testing.assert_array_equal(cmap.centroids, greedy_clusters_oracle(points, radius))
    np.testing.assert_array_equal(assign_points(points, cmap), nearest_cell_oracle(points, cmap.centroids))


@st.composite
def equidistant_cases(draw):
    """(points, radius): arms at distance a from a centre, in a random
    order, then the centre itself, which is exactly equidistant from every
    arm that opened its own cluster."""
    radius = draw(st.integers(2, 400))
    a = draw(st.integers(radius // 2 + 1, radius))
    cx, cy = draw(st.integers(-10_000, 10_000)), draw(st.integers(-10_000, 10_000))
    arms = draw(st.permutations([(cx + a, cy), (cx - a, cy), (cx, cy + a), (cx, cy - a)]))
    k = draw(st.integers(2, 4))
    extra = draw(st.lists(st.tuples(st.integers(-2 * a, 2 * a), st.integers(-2 * a, 2 * a)), max_size=10))
    return [*arms[:k], (cx, cy), *((cx + x, cy + y) for x, y in extra)], float(radius)


@settings(deadline=None, max_examples=200)
@given(case=equidistant_cases())
def test_cluster_ties_go_to_the_lowest_index_as_in_the_oracle(case):
    points, radius = case
    cmap = cluster_points(points, radius)
    np.testing.assert_array_equal(cmap.centroids, greedy_clusters_oracle(points, radius))
    np.testing.assert_array_equal(assign_points(points, cmap), nearest_cell_oracle(points, cmap.centroids))


def test_cluster_follows_a_centroid_that_drifts_across_buckets():
    # each point lies 0.99 radius beyond the running centroid, so the one
    # cluster creeps over three radii along each axis, out of the 3 x 3
    # bucket neighbourhood it opened in
    points, sx, sy = [], 0.0, 0.0
    for n in range(300):
        x, y = (sx / n + 0.7, sy / n - 0.7) if n else (0.0, 0.0)
        points.append((x, y))
        sx, sy = sx + x, sy + y
    cmap = cluster_points(points, 1.0)
    assert cmap.n_cells == 1 and cmap.centroids[0, 0] > 3.0
    np.testing.assert_array_equal(cmap.centroids, greedy_clusters_oracle(points, 1.0))


def test_cluster_tie_joins_the_earlier_cluster():
    assert cluster_points([(-1.0, 0.0), (1.0, 0.0), (0.0, 0.0)], 1.0).centroids.tolist() == [[-0.5, 0.0], [1.0, 0.0]]
    assert cluster_points([(1.0, 0.0), (-1.0, 0.0), (0.0, 0.0)], 1.0).centroids.tolist() == [[0.5, 0.0], [-1.0, 0.0]]


@pytest.mark.parametrize(
    "points, radius",
    [
        ([(1e300, -1e300), (1e300, -1e300), (-1e300, 1e300)], 1e-300),  # x / (2 * radius) is infinite
        ([(0.0, 0.0), (1e-200, 0.0), (2e-200, 1e-200)], 1e-300),  # squares underflow to 0 <= 0
        ([(1.5e308, 0.0), (-1.5e308, 0.0), (1.5e308, 1e308)], 1e200),  # radius * radius is infinite
        ([(1e308, 0.0), (1e308, 0.0)], 1.0),  # the running sum overflows
        ([(1.5e308, 0.0), (-1.5e308, 0.0)], 1e300),  # differences overflow to infinite squares
    ],
    ids=["tiny-radius-huge-offset", "underflow", "infinite-radius-square", "sum-overflow", "infinite-distance"],
)
def test_cluster_extremes_match_the_oracle(points, radius):
    expected = greedy_clusters_oracle(points, radius)
    if np.isfinite(expected).all():
        np.testing.assert_array_equal(cluster_points(points, radius).centroids, expected)
    else:
        with pytest.raises(ValueError, match="centroids must be finite"):
            cluster_points(points, radius)


def test_cluster_and_assign_blocks_do_not_change_results(monkeypatch):
    rng = np.random.default_rng(11)
    pts = np.round(rng.normal(0.0, 400.0, size=(500, 2)))
    cmap = cluster_points(pts, 100.0)
    ids = assign_points(pts, cmap)
    np.testing.assert_array_equal(cmap.centroids, greedy_clusters_oracle(pts, 100.0))
    np.testing.assert_array_equal(ids, nearest_cell_oracle(pts, cmap.centroids))
    monkeypatch.setattr(cellspace, "CLUSTER_CHUNK", 7)
    monkeypatch.setattr(cellspace, "ASSIGN_BLOCK", 5 * cmap.n_cells + 3)
    np.testing.assert_array_equal(cluster_points(pts, 100.0).centroids, cmap.centroids)
    np.testing.assert_array_equal(assign_points(pts, cmap), ids)


def test_cluster_deterministic():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 2000, size=(200, 2))
    a = cluster_points(pts, 250.0)
    b = cluster_points(pts, 250.0)
    np.testing.assert_array_equal(a.centroids, b.centroids)


# ---------------------------------------------------------------------------
# assignment


def test_assign_exact_centroid():
    cmap = CellMap(centroids=np.array([(0.0, 0.0)] * 6 + [(5.0, 5.0)] + [(9.0, 9.0)]), radius=1.0)
    assert assign_points([(5.0, 5.0)], cmap).tolist() == [7]


def test_assign_tie_breaks_to_lowest_index():
    cmap = CellMap(centroids=np.array([(0.0, 0.0), (0.0, 2.0)]), radius=1.0)
    assert assign_points([(0.0, 1.0)], cmap).tolist() == [1]


def test_assign_derived_example():
    cmap = CellMap(centroids=np.array([(0.0, 0.0), (10.0, 0.0), (3.0, 9.0)]), radius=1.0)
    # distances: 5.0, sqrt(65) ~ 8.06, 5.0 -> tie between cells 1 and 3
    dists = np.sqrt(np.sum((cmap.centroids - np.array([3.0, 4.0])) ** 2, axis=1))
    assert dists[0] == pytest.approx(dists[2])
    assert assign_points([(3.0, 4.0)], cmap).tolist() == [1]


@settings(deadline=None, max_examples=100)
@given(
    points=st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=40),
    centroids=st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=12),
    scale=st.sampled_from([1e-300, 0.5, 1.0, 3.0, 1e6, 1e150, 1e300]),
    offset=st.sampled_from([0.0, 1e6, -1e12, 1e300]),
)
def test_assign_equals_oracle_with_equidistant_centroids(points, centroids, scale, offset):
    # small integer lattices make many centroids equidistant from a point
    pts = offset + scale * np.array(points, dtype=float)
    cmap = CellMap(centroids=offset + scale * np.array(centroids, dtype=float), radius=1.0)
    np.testing.assert_array_equal(assign_points(pts, cmap), nearest_cell_oracle(pts, cmap.centroids))


def test_assign_overflowing_distances_equal_the_oracle_without_warnings():
    # differences and squares near 1e300 overflow to inf, as intended:
    # infinite distances tie and go to the lowest index, and nothing warns
    pts = np.array([(1e300, -1e300), (-1.5e308, 1e308), (1e300, 1e300), (0.0, 0.0)])
    cmap = CellMap(centroids=np.array([(-1e300, 1e300), (1.5e308, -1e308), (1e300, 1e300), (1e100, 0.0)]), radius=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = assign_points(pts, cmap)
        expect = nearest_cell_oracle(pts, cmap.centroids)
    np.testing.assert_array_equal(got, expect)
    assert got.tolist() == [1, 1, 3, 4]


def test_assign_rejects_non_finite():
    cmap = CellMap(centroids=np.array([(0.0, 0.0)]), radius=1.0)
    with pytest.raises(ValueError):
        assign_points([(np.inf, 0.0)], cmap)


@settings(deadline=None, max_examples=60)
@given(
    px=st.floats(min_value=-1000, max_value=1000),
    py=st.floats(min_value=-1000, max_value=1000),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_assign_voronoi_property(px, py, seed):
    rng = np.random.default_rng(seed)
    cmap = CellMap(centroids=rng.uniform(-1000, 1000, size=(8, 2)), radius=1.0)
    cell = int(assign_points([(px, py)], cmap)[0])
    d = np.sqrt(np.sum((cmap.centroids - np.array([px, py])) ** 2, axis=1))
    assert d[cell - 1] <= d.min() + 1e-12
    # idempotent and total
    assert assign_points([(px, py)], cmap).tolist() == [cell]


# ---------------------------------------------------------------------------
# discretization


def test_discretize_collapses_to_single_cell():
    cmap = CellMap(centroids=np.array([(0.0, 0.0), (1000.0, 0.0), (2000.0, 0.0)]), radius=300.0)
    tr = make_traj([(2000.0, 1.0), (2001.0, 0.0), (1999.0, -2.0)])
    seq = discretize_trajectory(tr, cmap)
    assert seq.tokens == (START, 3, END)


def test_discretize_duplicate_collapse_by_hand():
    cmap = CellMap(centroids=np.array([(0.0, 0.0), (100.0, 0.0)]), radius=10.0)
    xs = [(0, 0), (1, 0), (100, 0), (99, 0), (101, 0), (0, 1)]  # cells 1,1,2,2,2,1
    seq = discretize_trajectory(make_traj(xs), cmap)
    assert seq.tokens == (START, 1, 2, 1, END)


@settings(deadline=None, max_examples=60)
@given(points=points_strategy, seed=st.integers(min_value=0, max_value=999))
def test_discretize_m_le_l_and_no_consecutive_dups(points, seed):
    rng = np.random.default_rng(seed)
    cmap = CellMap(centroids=rng.uniform(-5000, 5000, size=(6, 2)), radius=500.0)
    tr = make_traj(points)
    seq = discretize_trajectory(tr, cmap)
    assert seq.m <= len(tr)
    for a, b in zip(seq.cells, seq.cells[1:]):
        assert a != b


# ---------------------------------------------------------------------------
# split


def test_split_xy_layout():
    vocab = Vocab([2, 4, 9])
    s = make_example(vocab, CellSequence(tokens=(START, 4, 9, 2, END)).tokens)
    assert vocab.decode(s.x_ids) == [START, 4, 9, 2]
    assert vocab.decode(s.y_ids) == [4, 9, 2, END]


def test_split_xy_minimal_journey():
    vocab = Vocab([5])
    s = make_example(vocab, CellSequence(tokens=(START, 5, END)).tokens)
    assert vocab.decode(s.x_ids) == [START, 5]
    assert vocab.decode(s.y_ids) == [5, END]


def test_split_xy_empty_journey_rejected():
    seq = CellSequence(tokens=(START, END))  # no interior cells
    with pytest.raises(ValueError, match="empty journey"):
        make_example(Vocab([1]), seq.tokens)


@settings(deadline=None, max_examples=40)
@given(points=points_strategy, seed=st.integers(min_value=0, max_value=999))
def test_split_shift_identity(points, seed):
    rng = np.random.default_rng(seed)
    cmap = CellMap(centroids=rng.uniform(-5000, 5000, size=(5, 2)), radius=400.0)
    seq = discretize_trajectory(make_traj(points), cmap)
    s = make_example(Vocab(range(1, 6)), seq.tokens)
    assert len(s.x_ids) == len(s.y_ids) == seq.m + 1
    for i in range(len(s.x_ids) - 1):
        assert s.y_ids[i] == s.x_ids[i + 1]


# ---------------------------------------------------------------------------
# types and io


def test_raw_trajectory_validation():
    with pytest.raises(ValueError):
        RawTrajectory("t", np.empty((0, 3)))
    with pytest.raises(ValueError, match="invalid point"):
        RawTrajectory("t", np.array([[0.0, np.nan, 0.0]]))
    with pytest.raises(ValueError, match="non-decreasing"):
        RawTrajectory("t", np.array([[0.0, 0.0, 5.0], [1.0, 1.0, 4.0]]))


def test_cell_sequence_validation():
    with pytest.raises(ValueError):
        CellSequence(tokens=(START, 1, 1, END))
    with pytest.raises(ValueError):
        CellSequence(tokens=(1, 2, END))
    with pytest.raises(ValueError):
        CellSequence(tokens=(START, 1, START, 2, END))


def test_cellmap_io_roundtrip(tmp_path):
    cmap = CellMap(centroids=np.array([(0.25, -12.5), (300.0, 17.125)]), radius=212.5)
    path = tmp_path / "cells.tsv"
    save_cellmap(path, cmap)
    loaded = load_cellmap(path)
    assert loaded.radius == cmap.radius
    np.testing.assert_array_equal(loaded.centroids, cmap.centroids)


@pytest.mark.parametrize(
    "rows, message",
    [
        (["1\t0.0\t0.0", "2\t1.0\t1.0"], ":3: line 1 counts 3 rows after it, the file holds 2"),
        (["0\t0.0\t0.0", "2\t1.0\t1.0", "3\t2.0\t2.0"], ":2: cell index 0 outside 1..3"),
        (["1\t0.0\t0.0", "4\t1.0\t1.0", "3\t2.0\t2.0"], ":3: cell index 4 outside 1..3"),
        (["1\t0.0\t0.0", "1\t1.0\t1.0", "3\t2.0\t2.0"], ":3: repeated index 1, first on line 2"),
        (["1\t0.0\t0.0", "2\t1.0", "3\t2.0\t2.0"], ":3: expected 3 tab-separated fields, got 2"),
        (["1\t0.0\t0.0", "2\tx\t1.0", "3\t2.0\t2.0"], ":3: field x='x' is not float"),
    ],
    ids=["truncated", "index-zero", "index-too-large", "duplicate", "short-row", "non-numeric"],
)
def test_cellmap_load_rejects_bad_rows(tmp_path, rows, message):
    path = tmp_path / "cells.tsv"
    path.write_text("\n".join(["cellmap-v1\tradius=100.0\tn=3", *rows]) + "\n")
    with pytest.raises(ValueError, match=f"{path}{message}"):
        load_cellmap(path)


@pytest.mark.parametrize(
    "text, message",
    [("", "unsupported version '', expected cellmap-v1"),
     ("cellmap-v0\tradius=100.0\tn=1\n1\t0.0\t0.0\n", "unsupported version 'cellmap-v0', expected cellmap-v1")],
    ids=["empty", "foreign-version"],
)
def test_cellmap_load_rejects_foreign_file_naming_it(tmp_path, text, message):
    path = tmp_path / "cells.tsv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: {message}")):
        load_cellmap(path)


@pytest.mark.parametrize(
    "header, message",
    [
        ("cellmap-v1\tradius=100.0", ":1: header has no n= field"),
        ("cellmap-v1\tn=3", ":1: header has no radius= field"),
        ("cellmap-v1\tradius=100.0\tn=three", ":1: field n='three' is not int"),
        ("cellmap-v1\tradius=wide\tn=3", ":1: field radius='wide' is not float"),
        ("cellmap-v1\tradius\tn=3", ":1: header field 'radius' is not key=value"),
    ],
    ids=["no-n", "no-radius", "non-numeric-n", "non-numeric-radius", "no-equals"],
)
def test_cellmap_load_rejects_bad_header(tmp_path, header, message):
    path = tmp_path / "cells.tsv"
    path.write_text("\n".join([header, "1\t0.0\t0.0", "2\t1.0\t1.0", "3\t2.0\t2.0"]) + "\n")
    with pytest.raises(ValueError, match=f"{path}{message}"):
        load_cellmap(path)
