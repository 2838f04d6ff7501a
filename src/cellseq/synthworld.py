"""Synthetic two-corridor road network with congestion-dependent routing.

Trips run from a shared origin on the west edge to a destination column on
the east, via either the northern or the southern corridor. A block
schedule alternates which corridor is congested; drivers pick the clear
corridor with probability 1 - epsilon and travel slower on a congested one.
Because the corridors only diverge after the origin cell, predicting the
second cell of a trip from its prefix alone is a coin flip, while the
pre-trip accumulation pattern reveals the schedule phase.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ._files import atomic_open
from .cellspace import RawTrajectory

WORLD_VERSION = "world-v1"


@dataclass(frozen=True)
class World:
    rows: int
    cols: int
    spacing: float
    horizon_minutes: int
    block_minutes: int
    load_levels: np.ndarray  # [2, horizon_minutes]; row 0 = north corridor
    epsilon: float
    free_speed: float
    congested_speed: float
    seed: int

    def __post_init__(self):
        levels = np.asarray(self.load_levels, dtype=float)
        if levels.shape != (2, self.horizon_minutes):
            raise ValueError("load levels must be [2, horizon_minutes]")
        if not 0 <= self.epsilon <= 1:  # NaN too
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon!r}")
        for name in ("free_speed", "congested_speed"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        object.__setattr__(self, "load_levels", levels)

    @property
    def origin_row(self) -> int:
        return self.rows // 2

    @property
    def corridor_rows(self) -> tuple[int, int]:
        return (0, self.rows - 1)

    @property
    def min_dest_col(self) -> int:
        return min(2, self.cols - 1)

    def centroid(self, row: int, col: int) -> tuple[float, float]:
        return (col * self.spacing, row * self.spacing)

    def loaded_corridor(self, minute: int) -> int:
        return int(np.argmax(self.load_levels[:, minute % self.horizon_minutes]))

    def favored_corridor(self, minute: int) -> int:
        return 1 - self.loaded_corridor(minute)


def generate_world(
    rows: int,
    cols: int,
    spacing: float,
    seed: int,
    horizon_minutes: int = 720,
    block_minutes: int = 30,
    epsilon: float = 0.1,
    free_speed: float = 10.0,
    congested_speed: float = 4.0,
) -> World:
    """Grid of centroids plus an alternating-block congestion schedule."""
    if rows < 2 or cols < 2:
        raise ValueError("degenerate grid: need at least 2x2 cells")
    if not 0 < spacing < float("inf"):  # NaN too
        raise ValueError(f"degenerate grid: spacing must be positive and finite, got {spacing!r}")
    if horizon_minutes < block_minutes or block_minutes < 1:
        raise ValueError("horizon must cover at least one block")
    rng = np.random.default_rng(seed)
    first_loaded = int(rng.integers(0, 2))
    minutes = np.arange(horizon_minutes)
    blocks = minutes // block_minutes
    loaded = (blocks + first_loaded) % 2
    levels = np.zeros((2, horizon_minutes))
    levels[loaded, minutes] = 1.0
    return World(
        rows=rows,
        cols=cols,
        spacing=float(spacing),
        horizon_minutes=horizon_minutes,
        block_minutes=block_minutes,
        load_levels=levels,
        epsilon=float(epsilon),
        free_speed=float(free_speed),
        congested_speed=float(congested_speed),
        seed=seed,
    )


def route_cells(world: World, corridor: int, dest_col: int) -> list[tuple[int, int]]:
    """Grid positions visited by a trip using the given corridor (0=north)."""
    corr_row = world.corridor_rows[corridor]
    orow = world.origin_row
    path = [(orow, 0)]
    step = -1 if corr_row < orow else 1
    for r in range(orow + step, corr_row + step, step) if corr_row != orow else []:
        path.append((r, 0))
    for c in range(1, dest_col + 1):
        path.append((corr_row, c))
    if corr_row != orow:
        for r in range(corr_row - step, orow - step, -step):
            path.append((r, dest_col))
    return path


def simulate_trips(world: World, n_trips: int, seed: int) -> list[RawTrajectory]:
    """Seeded trip generation with schedule-driven route choice.

    Each trip draws a departure time and destination column, takes the
    favored (less congested) corridor with probability 1 - epsilon, and
    emits one timestamped point per visited cell centroid at the speed the
    chosen corridor allows at departure.
    """
    if n_trips < 1:
        raise ValueError("need at least one trip")
    children = np.random.SeedSequence(seed).spawn(n_trips)
    trips = []
    for i in range(n_trips):
        rng = np.random.default_rng(children[i])
        dep = float(rng.uniform(0.0, world.horizon_minutes * 60.0))
        dest_col = int(rng.integers(world.min_dest_col, world.cols))
        minute = int(dep // 60.0)
        favored = world.favored_corridor(minute)
        corridor = favored if rng.random() >= world.epsilon else 1 - favored
        congested = world.load_levels[corridor, minute % world.horizon_minutes] > 0.5
        speed = world.congested_speed if congested else world.free_speed
        hop = world.spacing / speed
        points = []
        t = dep
        for row, col in route_cells(world, corridor, dest_col):
            x, y = world.centroid(row, col)
            points.append((x, y, t))
            t += hop
        trips.append(RawTrajectory(trip_id=f"t{i:06d}", points=np.array(points)))
    return trips


def save_world(path: str | Path, world: World) -> None:
    data = asdict(world)
    data["load_levels"] = world.load_levels.tolist()
    data["version"] = WORLD_VERSION
    with atomic_open(path) as fh:
        fh.write(json.dumps(data, indent=2) + "\n")


def load_world(path: str | Path) -> World:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: not a world file: {exc.msg}") from None
    if not isinstance(data, dict) or data.pop("version", None) != WORLD_VERSION:
        raise ValueError(f"{path}: unsupported world file version")
    try:
        data["load_levels"] = np.asarray(data["load_levels"], dtype=float)
        return World(**data)
    except KeyError as exc:
        raise ValueError(f"{path}: world file has no {exc.args[0]!r} field") from None
    except (TypeError, ValueError) as exc:  # a missing or unknown field, or a malformed value
        raise ValueError(f"{path}: {exc}") from None
