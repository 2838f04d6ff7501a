"""Writers replace their file whole or leave it as it was, and loaders refuse
a table that was cut short or corrupted."""
import itertools
import random

import numpy as np
import pytest

from cellseq import _files, nncore
from cellseq.cellspace import RawTrajectory, load_cellmap
from cellseq.cli import main
from cellseq.corpus import (load_accumulation, load_and_terminate, load_sequences, read_trajectory_rows,
                            write_trajectories)
from cellseq.evaluation import read_scores
from report_tables import read_aggregates, read_history, read_improvement_gm, read_improvement_m


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


# ---------------------------------------------------------------------------
# truncation and corruption: every table cellseq writes, damaged, fails to load
# with an error naming the file and the damaged line

LOADERS = {
    "synth/trips.tsv": lambda path: load_and_terminate(read_trajectory_rows(path)),
    "disc/cellmap.tsv": load_cellmap,
    "disc/sequences.tsv": load_sequences,
    "acc/accumulation.tsv": load_accumulation,
    "eval/scores.tsv": read_scores,
    "eval/aggregates.tsv": read_aggregates,
    "report/improvement_gm.tsv": read_improvement_gm,
    "report/improvement_m.tsv": read_improvement_m,
    "search/history.tsv": read_history,
}
FREE_TEXT = {"synth/trips.tsv": 0, "disc/sequences.tsv": 0, "eval/scores.tsv": 0}  # the trip_id column
ROWS, EVERY = range(2, 1 << 31), range(1 << 31)  # every line after line 1; every field
INVALID = {  # (lines, fields, values): values the field's type parses but the loader must refuse
    "synth/trips.tsv": [(ROWS, [1, 2, 3], [b"nan", b"-inf", b"1e999"])],
    "disc/cellmap.tsv": [([1], [1], [b"nan", b"0.0", b"-1.0"]), (ROWS, [1, 2], [b"nan", b"inf"])],
    "disc/sequences.tsv": [(ROWS, [2], [b"nan", b"inf"]), (ROWS, [3], [b"0", b"-3", b"2 0"])],
    "acc/accumulation.tsv": [([1], [5], [b"-4"]), ([3], EVERY[1:], [b"nan", b"inf", b"-2.0"]),
                             (ROWS[2:], EVERY, [b"1.5", b"nan", b"-0.5"])],
}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The tables of a small seeded run, by path under the run directory."""
    root = tmp_path_factory.mktemp("run")
    trips, disc = str(root / "synth" / "trips.tsv"), root / "disc"
    for argv in (
        ["synth", "--out", str(root / "synth"), "--rows", "2", "--cols", "3", "--trips", "40",
         "--horizon-min", "90", "--seed", "4"],
        ["discretize", "--in", trips, "--out", str(disc), "--radius", "135", "--split", "0.6,0.2,0.2",
         "--seed", "1"],
        ["accumulate", "--trips", trips, "--cellmap", str(disc / "cellmap.tsv"),
         "--sequences", str(disc / "sequences.tsv"), "--out", str(root / "acc")],
        ["train", "--sequences", str(disc / "sequences.tsv"), "--model", "rnn", "--d-e", "4", "--d-h", "4",
         "--epochs", "1", "--seed", "2", "--out", str(root / "rnn")],
        ["evaluate", "--ckpt", str(root / "rnn" / "model.ckpt"), "--sequences", str(disc / "sequences.tsv"),
         "--k", "2", "--seed", "3", "--out", str(root / "eval")],
        ["evaluate", "--ckpt", str(root / "rnn" / "model.ckpt"), "--sequences", str(disc / "sequences.tsv"),
         "--k", "2", "--seed", "4", "--out", str(root / "eval4")],
        # two seeds of one model stand in for the two generators
        ["report", "--arnn", str(root / "eval4" / "scores.tsv"), "--rnn", str(root / "eval" / "scores.tsv"),
         "--out", str(root / "report")],
        ["hypersearch", "--sequences", str(disc / "sequences.tsv"), "--model", "rnn", "--trials", "3",
         "--epochs", "1", "--d-e-range", "2,4", "--d-h-range", "2,4", "--seed", "5", "--out", str(root / "search")],
    ):
        assert main(argv) == 0, argv
    return {name: (root / name).read_bytes() for name in LOADERS}


def damaged(name: str, data: bytes):
    """(what was done, the damaged bytes, the line the error must name)."""
    lines = data.split(b"\n")[:-1]
    ends = list(itertools.accumulate(len(line) + 1 for line in lines))[:-1]  # after each line but the last
    for k, end in enumerate(ends, start=1):
        yield f"cut after line {k}", data[:end], k
    for offset in range(len(lines[0]) + 1):
        yield f"cut at byte {offset} of line 1", data[:offset], 1
    for offset in random.Random(7).sample(range(1, len(data)), min(200, len(data) - 1)):
        cut = data[:offset]
        yield f"cut at byte {offset}", cut, cut.count(b"\n") + (not cut.endswith(b"\n"))
    for lineno, line in enumerate(lines, start=1):
        fields = line.split(b"\t")
        for f, field in enumerate(fields):
            key, sep, _ = field.partition(b"=")
            values = [b"?"] if lineno == 1 or f != FREE_TEXT.get(name) else []  # a value its type rejects
            values += [v for lines_in, fields_in, vs in INVALID.get(name, ()) if lineno in lines_in and f in fields_in
                       for v in vs]
            bad = [field + b"\tx"]  # one field too many
            bad += [key + b"=" + v if lineno == 1 and sep else v for v in values]
            for field_bad in bad:
                line_bad = b"\t".join(fields[:f] + [field_bad] + fields[f + 1:])
                yield f"line {lineno} field {f} as {field_bad!r}", b"\n".join(
                    lines[:lineno - 1] + [line_bad] + lines[lineno:]) + b"\n", lineno


@pytest.mark.parametrize("name", list(LOADERS))
def test_every_damaged_table_fails_naming_file_and_line(written, tmp_path, name):
    load, path = LOADERS[name], tmp_path / name.split("/")[1]
    path.write_bytes(written[name])
    load(path)  # the whole file loads
    faults = []
    for what, data, line in damaged(name, written[name]):
        path.write_bytes(data)
        try:
            load(path)
            faults.append(f"{what}: loaded")
        except ValueError as exc:
            if not str(exc).startswith(f"{path}:{line}: "):
                faults.append(f"{what}: {exc}")
        except Exception as exc:  # noqa: BLE001 - any other type is a fault too
            faults.append(f"{what}: {type(exc).__name__}: {exc}")
    assert not faults, f"{len(faults)} damaged files: " + "; ".join(faults[:5])
