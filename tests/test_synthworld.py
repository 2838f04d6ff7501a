import dataclasses
import json
import re

import numpy as np
import pytest

from cellseq.cellspace import assign_points, cluster_points, discretize_trajectory
from cellseq.synthworld import (
    generate_world,
    load_world,
    route_cells,
    save_world,
    simulate_trips,
)
from cellseq.tokens import END, START


def small_world(**kw):
    defaults = dict(rows=3, cols=6, spacing=300.0, seed=5, horizon_minutes=240, block_minutes=30)
    defaults.update(kw)
    return generate_world(**defaults)


def grid_points(world):
    return np.array([world.centroid(r, c) for r in range(world.rows) for c in range(world.cols)])


def chosen_corridor(world, trip):
    # the second point reveals the climb direction
    y = trip.points[1, 1]
    return 0 if y < world.origin_row * world.spacing else 1


# ---------------------------------------------------------------------------
# world generation


def test_minimal_grid_has_four_cells():
    world = generate_world(rows=2, cols=2, spacing=300.0, seed=0)
    assert grid_points(world).shape == (4, 2)


def test_spacing_is_nearest_centroid_distance():
    world = small_world(spacing=300.0)
    pts = grid_points(world)
    d = np.sqrt(np.sum((pts[:, None] - pts[None]) ** 2, axis=2))
    np.fill_diagonal(d, np.inf)
    assert d.min() == pytest.approx(300.0)


def test_schedule_deterministic_under_seed():
    a = small_world(seed=9)
    b = small_world(seed=9)
    np.testing.assert_array_equal(a.load_levels, b.load_levels)


def test_schedule_alternates_blocks():
    world = small_world(block_minutes=30)
    loaded = np.array([world.loaded_corridor(m) for m in range(world.horizon_minutes)])
    # constant within a block, flipping between consecutive blocks
    blocks = loaded.reshape(-1, 30)
    assert np.all(blocks == blocks[:, :1])
    assert np.all(blocks[1:, 0] != blocks[:-1, 0])


def test_degenerate_grid_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        generate_world(rows=1, cols=5, spacing=300.0, seed=0)
    with pytest.raises(ValueError, match="degenerate"):
        generate_world(rows=3, cols=3, spacing=0.0, seed=0)


def test_two_distinct_routes_exist():
    world = small_world()
    a = route_cells(world, 0, 3)
    b = route_cells(world, 1, 3)
    assert a != b
    assert a[0] == b[0]  # shared origin
    assert a[-1] == b[-1]  # shared destination


# ---------------------------------------------------------------------------
# simulation


def test_trips_deterministic_under_seed():
    world = small_world()
    a = simulate_trips(world, 20, seed=3)
    b = simulate_trips(world, 20, seed=3)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.points, y.points)


def test_timestamps_strictly_increasing():
    world = small_world()
    for trip in simulate_trips(world, 50, seed=1):
        assert np.all(np.diff(trip.times) > 0)


def test_epsilon_zero_is_deterministic_choice():
    world = small_world(epsilon=0.0)
    for trip in simulate_trips(world, 100, seed=2):
        minute = int(trip.start_time // 60)
        assert chosen_corridor(world, trip) == world.favored_corridor(minute)


def test_favored_share_within_blocks():
    world = small_world(epsilon=0.1, horizon_minutes=480)
    trips = simulate_trips(world, 1500, seed=4)
    favored = [
        chosen_corridor(world, t) == world.favored_corridor(int(t.start_time // 60)) for t in trips
    ]
    assert np.mean(favored) >= 1 - world.epsilon - 0.03


def test_flipping_schedule_flips_route_choice():
    world = small_world(epsilon=0.1)
    flipped = dataclasses.replace(world, load_levels=world.load_levels[::-1].copy())  # corridors swap loads
    trips = simulate_trips(world, 1000, seed=6)
    trips_f = simulate_trips(flipped, 1000, seed=6)  # same departures and draws
    changed = sum(
        chosen_corridor(world, a) != chosen_corridor(flipped, b) for a, b in zip(trips, trips_f)
    )
    # both runs follow their favored corridor ~90% of the time, so the
    # majority of paired trips switch sides
    assert changed / 1000 > 0.5


def test_congestion_slows_travel():
    world = small_world(epsilon=0.0)
    trips = simulate_trips(world, 200, seed=7)
    hops = []
    for t in trips:
        minute = int(t.start_time // 60)
        corridor = chosen_corridor(world, t)
        dt = float(np.diff(t.times)[0])
        expected = world.spacing / (
            world.congested_speed
            if world.load_levels[corridor, minute % world.horizon_minutes] > 0.5
            else world.free_speed
        )
        assert dt == pytest.approx(expected)
        hops.append(dt)
    assert len(set(round(h, 6) for h in hops)) <= 2


def test_end_to_end_discretization_recovers_route():
    world = small_world(epsilon=0.0)
    trips = simulate_trips(world, 300, seed=8)
    cmap = cluster_points(np.concatenate([t.xy for t in trips]), radius=0.45 * world.spacing)
    # pick an uncongested trip and verify its cell sequence is exactly the
    # intended route, cell by cell
    for trip in trips[:20]:
        minute = int(trip.start_time // 60)
        corridor = chosen_corridor(world, trip)
        if world.load_levels[corridor, minute % world.horizon_minutes] > 0.5:
            continue
        dest_col = round(trip.points[:, 0].max() / world.spacing)
        intended = assign_points(
            [world.centroid(r, c) for r, c in route_cells(world, corridor, dest_col)], cmap
        ).tolist()
        seq = discretize_trajectory(trip, cmap)
        assert list(seq.cells) == intended
        assert seq.tokens[0] == START and seq.tokens[-1] == END


def test_world_io_roundtrip(tmp_path):
    world = small_world()
    path = tmp_path / "world.json"
    save_world(path, world)
    loaded = load_world(path)
    assert loaded.rows == world.rows
    assert loaded.epsilon == world.epsilon
    np.testing.assert_array_equal(loaded.load_levels, world.load_levels)


def _without(key):
    return lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != key})


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda text: text[: len(text) // 2], r":\d+: not a world file"),
        (_without("load_levels"), ": world file has no 'load_levels' field"),
        (_without("seed"), ": .*missing 1 required positional argument: 'seed'"),
        (lambda text: json.dumps({**json.loads(text), "version": "world-v0"}), ": unsupported world file version"),
        (lambda text: "[]", ": unsupported world file version"),
    ],
    ids=["truncated", "no-load-levels", "no-seed", "foreign-version", "not-an-object"],
)
def test_world_load_rejects_bad_file_naming_it(tmp_path, edit, message):
    path = tmp_path / "world.json"
    save_world(path, small_world())
    path.write_text(edit(path.read_text()))
    with pytest.raises(ValueError, match=re.escape(str(path)) + message):
        load_world(path)
