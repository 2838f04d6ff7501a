"""Writers replace their file whole or leave it as it was."""
import numpy as np
import pytest

from cellseq import _files, nncore
from cellseq.cellspace import RawTrajectory
from cellseq.corpus import read_trajectory_rows, write_trajectories


def test_atomic_open_replaces_the_file_whole(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with _files.atomic_open(path) as fh:
        fh.write("new\n")
        assert path.read_text() == "old\n"  # not yet replaced
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_atomic_open_failure_keeps_the_previous_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(RuntimeError, match="partway"):
        with _files.atomic_open(path) as fh:
            fh.write("half")
            raise RuntimeError("partway")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_trajectory_write_that_raises_partway_keeps_the_previous_file(tmp_path):
    path = tmp_path / "trips.tsv"
    first = RawTrajectory("a", np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 60.0]]))
    write_trajectories(path, [first])
    before = path.read_bytes()

    def trips():
        yield RawTrajectory("b", np.array([[2.0, 2.0, 0.0]]))
        raise OSError("source lost")

    with pytest.raises(OSError, match="source lost"):
        write_trajectories(path, trips())
    assert path.read_bytes() == before
    assert read_trajectory_rows(path) == [("a", 0.0, 0.0, 0.0), ("a", 60.0, 1.0, 1.0)]
    assert [p.name for p in tmp_path.iterdir()] == ["trips.tsv"]


def test_checkpoint_write_that_raises_partway_keeps_the_previous_file(tmp_path):
    path = tmp_path / "model.ckpt"
    nncore.save_checkpoint(path, {"w": np.ones(3)}, {})
    before = path.read_bytes()
    with pytest.raises(ValueError):  # "w" is written before "x" fails to convert
        nncore.save_checkpoint(path, {"w": np.zeros(3), "x": np.array(["not a number"])}, {})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
